"""Canonical labeling and isomorph-free enumeration for small r-graphs.

One certificate names each isomorphism class.  Colour refinement
(``_refine``) splits the vertices into an ordered partition that every
isomorphism preserves, and the certificate is the minimal edge list over the
relabelings that place the cells in colour order, where edges are compared as
bitmasks (so the edge order is colexicographic) and edge lists elementwise
(the idea behind McKay and Piperno, "Practical graph isomorphism II", 2014).
``_search(h, colour)`` computes it exactly, level by level: level ``k``
branches only on the vertices of the ``k``-th smallest colour and keeps every
partial relabeling that attains the minimal prefix.  Two vertices are twins
when swapping them is an automorphism (``_twins``), which covers vertices
with identical links and, in graphs, adjacent vertices with equal closed
neighbourhoods.  Twinship is an equivalence, since
``(u w) = (u v)(v w)(u v)``, and the search branches on one unassigned
vertex per twin class only: swapping two unassigned twins fixes the assigned
prefix, so their subtrees are equal.  This keeps the frontier small even for
highly symmetric graphs, down to one labeling for a complete r-graph.
Isomorphic graphs get equal certificates because the partition is invariant,
and graphs with equal certificates are isomorphic because both are
relabelings of one edge list.  Twins share a colour, since refinement is
invariant under isomorphisms and the swap is one, so the twin pruning stays
valid under the colouring.

The final beam holds one minimal labeling per coset of the twin-class
permutations, so it also yields the order of the automorphism group
(``canonical_form``) and generators of it (``automorphism_generators``).

Enumeration grows graphs one vertex at a time by canonical augmentation
(McKay, "Isomorph-free exhaustive generation", J. Algorithms 26, 1998), with
both halves.  Parent side: the link sets of the new vertex are walked in
lexicographic preorder, and a child is built only when its link set is the
first of its orbit under the parent's automorphisms, whose generators come
from the beam kept when the parent was accepted; link sets that are first of
their orbit are closed under dropping the last element, so the walk cuts the
whole subtree below a set that is not (orderly generation).  Child side: a
child is accepted only when its new vertex lies in the orbit of the vertex
that the certificate labeling puts first, its canonical deletion vertex.  The
first label goes to a vertex of the bottom colour cell, which lies inside the
minimum-degree cell, so the canonical parent of a graph ``G`` is ``G - v``
for a vertex ``v`` of minimum degree.  A child whose new vertex is not of
minimum degree is rejected before refinement, and refinement decides most of
the rest before any search.  Each class is then accepted exactly once, so the
dict keyed by certificate is only a check.  A child is
built from its parent by a trusted constructor that carries the parent's
bitmask views over, updated for the new link, instead of validating and
deriving them again.  The predicate must be hereditary (closed under taking
subgraphs), so it prunes both the link search and every level, and it is
told which edge was just added, so that it can check only what that edge
could have created.

Output contract: every graph that leaves enumeration, and every
``canonical_relabel``, is in its certificate labeling, and enumeration lists
the classes in certificate order.  So output bytes depend only on the set of
classes, not on which representative a search happened to build first.

Budgets are deliberate: the module refuses work it cannot finish rather than
degrading silently.  ``canonical_form`` refuses more than ``CANONICAL_MAX_N``
vertices, and one enumeration refuses past ``CAPS["link sets"]``: the
children it builds plus the orbit images its link search forms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, factorial
from typing import Callable, Iterable, Optional

from .errors import BudgetError, Meter, SoundnessError
from .rgraph import RGraph, VertexPartition, mask_of, mask_to_tuple

CANONICAL_MAX_N = 10


@dataclass(frozen=True)
class CanonicalForm:
    """Isomorphism-class certificate: the edges of the certificate labeling,
    sorted as ``RGraph`` sorts them.

    Two graphs have equal canonical forms iff they are isomorphic (with equal
    ``r`` and ``n``).  ``automorphisms`` is the order of the automorphism
    group, recovered from the search frontier at no extra cost.
    """

    r: int
    n: int
    edges: tuple[tuple[int, ...], ...]
    automorphisms: int

    @property
    def key(self) -> tuple:
        return (self.r, self.n, self.edges)


# Appended to every batch before native tuple comparison: makes a proper
# prefix compare as LARGER, i.e. the longer batch wins (its extra masks
# precede anything a shorter batch can still produce at later levels).
_SENTINEL = 1 << 63


def _refine(h: RGraph) -> list[int]:
    """Colour refinement from degrees: an ordered partition of the vertices,
    as a colour per vertex, that every isomorphism preserves.

    The type of a link set of ``v`` (an edge through ``v`` minus ``v``) is
    the sorted tuple of its colours.  A vertex's signature is its colour and,
    over the types present in increasing order, minus the number of its link
    sets of each type; the new colours are the ranks of the distinct
    signatures.  For graphs the types are the cells, so the counts are
    popcounts of ``covered_adj[v]`` masked by each cell.  Vertices of one
    colour have equally many link sets, since colours refine degrees, so this
    ranks them like the sorted lists of their link sets' types would: at the
    least type whose counts differ, the vertex with more sets of that type has
    the smaller list.  Each round refines the last, since a signature starts
    with the old colour, so the rounds stop when the number of colours stops
    growing."""
    n = h.n
    colour = list(h.degrees)
    count = len(set(colour))
    while True:
        if h.r == 2:
            cells: dict[int, int] = {}
            for v, c in enumerate(colour):
                cells[c] = cells.get(c, 0) | (1 << v)
            order = [cells[c] for c in sorted(cells)]
            adj = h.covered_adj
            sigs = [
                (colour[v], tuple(-(adj[v] & cell).bit_count() for cell in order))
                for v in range(n)
            ]
        else:
            around: list[dict[tuple[int, ...], int]] = [{} for _ in range(n)]
            for m in h.edge_masks:
                members = sorted((colour[u], u) for u in mask_to_tuple(m))
                for i, (_, v) in enumerate(members):
                    t = tuple(c for j, (c, _) in enumerate(members) if j != i)
                    around[v][t] = around[v].get(t, 0) + 1
            types = sorted(set().union(*around))
            sigs = [(colour[v], tuple(-a.get(t, 0) for t in types)) for v, a in enumerate(around)]
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        colour = [rank[sig] for sig in sigs]
        if len(rank) == count:
            return colour
        count = len(rank)


def _twins(h: RGraph) -> VertexPartition:
    """The twin classes of ``h``: ``u`` and ``v`` are twins when swapping
    them is an automorphism, numbered by least vertex in increasing order.

    The swap fixes the edges through both or neither, so it is an
    automorphism exactly when ``u`` and ``v`` have the same link sets that
    avoid the other one; equivalently, every set in just one of the two links
    holds ``u`` or ``v``.  For graphs that reads ``adj[u] & ~bit(v) ==
    adj[v] & ~bit(u)``, which takes in both adjacent twins (equal closed
    neighbourhoods) and non-adjacent ones (equal links).  The relation is an
    equivalence, since ``(u w) = (u v)(v w)(u v)``, so each vertex is tested
    against one member of each class; twins have equal degrees."""
    degrees = h.degrees
    if h.r == 2:
        adj = h.covered_adj

        def swappable(u: int, v: int) -> bool:
            return adj[u] & ~(1 << v) == adj[v] & ~(1 << u)
    else:
        links = h.link_masks

        def swappable(u: int, v: int) -> bool:
            both = (1 << u) | (1 << v)
            return all(s & both for s in links[u] ^ links[v])

    firsts: list[int] = []
    assignment = []
    for v in range(h.n):
        for c, u in enumerate(firsts):
            if degrees[u] == degrees[v] and swappable(u, v):
                assignment.append(c)
                break
        else:
            assignment.append(len(firsts))
            firsts.append(v)
    return VertexPartition(len(firsts), tuple(assignment))


def _search(
    h: RGraph, colour: list[int]
) -> tuple[list[int], list[tuple[int, ...]], VertexPartition]:
    """The minimal edge-mask list of ``h`` over the relabelings that give new
    label ``k`` to a vertex of colour ``sorted(colour)[k]``, the final beam of
    labelings that attain it (each lists the old vertices in new-label order,
    choosing only the least unassigned vertex of each twin class), and the
    twin classes of ``_twins``.

    Twins are the vertices whose swap is an automorphism.  The relation is an
    equivalence, since ``(u w) = (u v)(v w)(u v)``, so the twin classes
    generate the product of their symmetric groups and the beam keeps one
    labeling per coset of it.  Skipping a twin of a vertex already branched
    on loses nothing: the swap fixes the assigned prefix, so both give the
    same batch and the same subtree.  Twins must share a colour, which holds
    for any colouring invariant under automorphisms, such as ``_refine``'s."""
    if h.n > CANONICAL_MAX_N:
        raise BudgetError(f"canonical_form supports n <= {CANONICAL_MAX_N}, got {h.n}")
    n = h.n
    eq = _twins(h)
    class_of = eq.assignment
    edges_at: list[list[int]] = [[] for _ in range(n)]
    for m in h.edge_masks:
        rest = m
        while rest:
            low = rest & -rest
            edges_at[low.bit_length() - 1].append(m)
            rest ^= low
    cells: dict[int, list[int]] = {}
    for u, c in enumerate(colour):
        cells.setdefault(c, []).append(u)

    # beam: partial relabelings as (old vertices in new-label order, assigned
    # mask); all entries share the same (minimal) completed-edge prefix.
    beam: list[tuple[tuple[int, ...], int]] = [((), 0)]
    prefix: list[int] = []
    for k, c in enumerate(sorted(colour)):
        cell = cells[c]
        best_batch: Optional[tuple[int, ...]] = None
        kept: list[tuple[tuple[int, ...], int]] = []
        for pos, assigned in beam:
            pos_arr = [0] * n
            for idx, old in enumerate(pos):
                pos_arr[old] = idx
            seen_classes = 0
            for u in cell:
                if (assigned >> u) & 1:
                    continue
                cu = class_of[u]
                if (seen_classes >> cu) & 1:
                    continue  # swapping u with the seen twin is an automorphism
                seen_classes |= 1 << cu
                now = assigned | (1 << u)
                batch = []
                for m in edges_at[u]:
                    if m & ~now:
                        continue
                    nm = 1 << k
                    mm = m & ~(1 << u)
                    while mm:
                        low = mm & -mm
                        nm |= 1 << pos_arr[low.bit_length() - 1]
                        mm ^= low
                    batch.append(nm)
                batch.sort()
                key = tuple(batch) + (_SENTINEL,)
                if best_batch is None or key < best_batch:
                    best_batch = key
                    kept = [(pos + (u,), now)]
                elif key == best_batch:
                    kept.append((pos + (u,), now))
        if best_batch is not None and len(best_batch) > 1:
            prefix.extend(best_batch[:-1])
        beam = kept if kept else [((), 0)]
    return prefix, [pos for pos, _ in beam], eq


def canonical_form(h: RGraph) -> CanonicalForm:
    prefix, beam, eq = _search(h, _refine(h))
    aut = len(beam)
    for c in eq.classes:
        aut *= factorial(len(c))
    edges = tuple(sorted(mask_to_tuple(m) for m in prefix))
    return CanonicalForm(h.r, h.n, edges, aut)


def automorphism_generators(h: RGraph) -> list[tuple[int, ...]]:
    """Generators of the automorphism group of ``h``, each a vertex map given
    as ``p`` with ``p[v]`` the image of ``v``.

    Two beam labelings with the same minimal edge list differ by an
    automorphism, and the beam holds one labeling per coset of the twin-class
    permutations (hence ``automorphisms = len(beam) * prod(|class|!)``).  So
    the maps from the first labeling to each other one, together with the
    transpositions of consecutive twins, generate the group.  None of them is
    the identity, so the list is empty exactly when the group is trivial.
    """
    _, beam, eq = _search(h, _refine(h))
    return _generators(h.n, beam, eq)


def _generators(n: int, beam: list[tuple[int, ...]], eq: VertexPartition) -> list[tuple[int, ...]]:
    gens = []
    for other in beam[1:]:
        p = [0] * n
        for a, b in zip(beam[0], other):
            p[a] = b
        gens.append(tuple(p))
    for c in eq.classes:
        for a, b in zip(c, c[1:]):
            p = list(range(n))
            p[a], p[b] = b, a
            gens.append(tuple(p))
    return gens


def canonical_relabel(h: RGraph) -> RGraph:
    """``h`` in its certificate labeling, with the edges of
    ``canonical_form(h)``.  Isomorphic graphs give the same graph, and
    ``enumerate_rgraphs`` returns only such fixed points, so enumeration
    output, ``ex`` witnesses and scan counterexamples share one labeling."""
    return RGraph(h.r, h.n, canonical_form(h).edges)


def relabel(h: RGraph, perm: Iterable[int]) -> RGraph:
    """Apply a vertex permutation (old label -> new label)."""
    p = tuple(perm)
    if sorted(p) != list(range(h.n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    return RGraph(h.r, h.n, tuple(tuple(p[v] for v in e) for e in h.edges))


def are_isomorphic(a: RGraph, b: RGraph) -> bool:
    if a.r != b.r or a.n != b.n or len(a.edges) != len(b.edges):
        return False
    return canonical_form(a).key == canonical_form(b).key


def enumerate_rgraphs(
    n: int,
    r: int,
    predicate: Optional[Callable[[RGraph, int], bool]] = None,
    *,
    min_degree: int = 0,
    min_edges: int = 0,
) -> list[RGraph]:
    """One representative per isomorphism class of r-graphs on exactly ``n``
    labeled vertices (isolated vertices included) satisfying ``predicate``,
    with minimum degree at least ``min_degree`` and at least ``min_edges``
    edges.

    Each class is returned in its certificate labeling (a fixed point of
    ``canonical_relabel``), and the list is in increasing certificate order.
    Past ``CAPS["link sets"]`` children and orbit images, or past
    ``CANONICAL_MAX_N`` vertices, the call raises ``BudgetError``.

    The predicate must be hereditary: true of every graph isomorphic to a
    subgraph of a graph it holds for.  So a graph that fails is pruned with
    every supergraph the link search and later levels would build from it,
    and isomorphic children get the same verdict.

    The gates ``min_degree = d`` and ``min_edges = L`` are exact: the result
    is the ungated list filtered to ``min_degree() >= d`` and
    ``len(edges) >= L``, in the same order, but a class on ``j < n``
    vertices that no such graph descends from is dropped with everything
    that would be built from it (as McKay's ``geng -d`` does).  A class on
    ``j`` vertices is kept only if its minimum degree is at least
    ``d - sum(C(i - 2, r - 2) for i in j+1..n)`` and it has at least
    ``ceil(L * C(j, r) / C(n, r))`` edges; ``register`` tests both before
    refinement.  Degree gate: deleting a vertex from a graph on ``i``
    vertices lowers every other degree by at most ``C(i - 2, r - 2)``, the
    number of edges through two given vertices, so every subgraph on ``j``
    vertices of a graph with minimum degree ``d`` passes, the canonical
    ancestor included.  Edge gate: a vertex of minimum degree in a graph on
    ``i`` vertices with ``e`` edges has degree at most ``r * e / i``, since
    the degrees sum to ``r * e``; so the canonical parent, which deletes such
    a vertex, keeps at least ``e * (1 - r / i) = e * C(i - 1, r) / C(i, r)``
    edges, and by induction the canonical ancestor on ``j`` vertices of a
    graph with ``e >= L`` has at least ``L * C(j, r) / C(n, r)`` edges.  In
    both cases the canonical parent of a kept class is kept, so the proof
    below goes through unchanged.  A gate no graph on ``n`` vertices can
    meet (``d > C(n - 1, r - 1)`` or ``L > C(n, r)``) returns nothing.

    Exactness, by induction on the level.  The labelings that attain a
    graph's certificate differ by its automorphisms, so the vertices they
    label first form one orbit, the canonical orbit; the final beam holds one
    such labeling per coset of the twin permutations, so the canonical orbit
    is the set of twins of the beam's first vertices, which is what
    ``register`` tests for the new vertex ``k``.  Label 0 goes to the bottom
    colour cell, and that cell lies inside the minimum-degree cell: refinement
    starts from the degrees, and each round ranks signatures that begin with
    the old colour, so colour order refines degree order.  Hence ``register``
    may reject ``k`` outright when its degree is not the minimum, or its
    colour not the least, and every canonical parent ``g - m`` deletes a
    vertex ``m`` of minimum degree.  Existence: take a class on ``k + 1``
    vertices that satisfies the predicate, a graph ``g`` in it and ``m`` in
    its canonical orbit.  The canonical parent ``g - m`` passes the
    hereditary predicate, so its class is some parent ``p`` one level down.
    Moving the link of ``m`` into ``p`` gives a link set whose orbit under
    Aut(p) is tried exactly once, at its first set; that set and all its
    prefixes are first of their orbits and span subgraphs of ``g``, so the
    walk reaches it.  Its child is isomorphic to ``g`` by a map sending ``m``
    to ``k``, so ``k`` is in the child's canonical orbit and the child is
    accepted.  Uniqueness: two accepted children of one class both lose a
    vertex of the canonical orbit at ``k``, so both come from the class of
    the canonical parent, i.e. from the same ``p``; an isomorphism between
    them maps canonical orbit onto canonical orbit, so after an automorphism
    it fixes ``k`` and restricts to an automorphism of ``p`` that maps one
    link set to the other, and both are first of that orbit, hence equal.
    A class accepted twice therefore breaks the theory and raises
    ``SoundnessError``.

    The predicate is called as ``predicate(g, new_edge)``.  ``new_edge`` is 0
    only for a parent plus an isolated vertex, and then ``g`` needs a full
    check.  Otherwise it is the bitmask of the link edge just added, and ``g``
    minus that edge has already passed: a child is only built from a graph
    that passed, by adding one edge (one-step augmentation, as in canonical
    augmentation).  So the predicate may look only at structures through
    ``new_edge``, such as ``is_free(g, fam, through=new_edge)``.  The child
    arrives with its bitmask views (``edge_masks``, ``edge_mask_set``,
    ``degrees``, ``covered_adj``) carried over from the parent.
    """
    if n > CANONICAL_MAX_N:  # refused here, not after every level below n
        raise BudgetError(f"enumeration needs canonical forms on n <= {CANONICAL_MAX_N}, got {n}")
    if min_degree > comb(max(n - 1, 0), r - 1) or min_edges > comb(n, r):
        return []
    # the gates for the classes on k + 1 vertices built at step k
    need_degree = [min_degree - sum(comb(i - 2, r - 2) for i in range(k + 2, n + 1))
                   for k in range(n)]
    need_edges = [-(-min_edges * comb(k + 1, r) // comb(n, r)) if min_edges else 0
                  for k in range(n)]

    # each class as (graph as built, final beam and twin classes of its
    # certificate search), the latter kept for the class's automorphisms, and
    # the certificates of the classes in the same order
    meter = Meter("link sets")
    empty = RGraph(r, 0, ())
    reps = [(empty, [()], _twins(empty))]
    keys: list[tuple[int, ...]] = [()]
    for k in range(n):
        out: dict[tuple[int, ...], tuple[RGraph, list[tuple[int, ...]], VertexPartition]] = {}
        pool = [c + (k,) for c in itertools.combinations(range(k), r - 1)]
        pool_masks = [mask_of(e) for e in pool]
        index = {e: i for i, e in enumerate(pool)}

        def register(g: RGraph) -> None:
            degrees = g.degrees
            low = min(degrees)
            if degrees[k] != low:
                return  # the bottom cell lies inside the minimum-degree cell
            if low < need_degree[k] or len(g.edge_masks) < need_edges[k]:
                return  # no graph that meets the gates descends from g
            colour = _refine(g)
            if colour[k] != min(colour):
                return  # the first label goes to a vertex of the bottom cell
            prefix, beam, eq = _search(g, colour)
            twin = eq.assignment
            if all(twin[pos[0]] != twin[k] for pos in beam):
                return  # k is not in the orbit of the canonical deletion vertex
            key = tuple(prefix)
            if key in out:
                raise SoundnessError(
                    f"canonical augmentation accepted the class of {g.edges} twice"
                )
            out[key] = (g, beam, eq)

        for base, base_beam, base_eq in reps:
            # Aut(base) acting on link edges; a child whose link is not the
            # first of its orbit in the preorder below is isomorphic to an
            # earlier child of this parent by a map that fixes the new vertex,
            # and so is every child whose link extends it (see _first_in_orbit)
            moves = []
            if len(pool) > 1:
                for p in _generators(k, base_beam, base_eq):
                    images = (tuple(sorted(p[v] for v in e[:-1])) + (k,) for e in pool)
                    moves.append(tuple(index[e] for e in images))

            def grow(start: int, picked: tuple[int, ...]) -> None:
                meter.tick()
                if moves and not _first_in_orbit(picked, moves, meter):
                    return
                g = base._plus_vertex(
                    tuple(pool[i] for i in picked), tuple(pool_masks[i] for i in picked)
                )
                if predicate is not None and not predicate(
                    g, pool_masks[picked[-1]] if picked else 0
                ):
                    return  # no supergraph can satisfy a hereditary predicate
                register(g)
                for i in range(start, len(pool)):
                    grow(i + 1, picked + (i,))

            grow(0, ())
        keys = sorted(out)
        reps = [out[key] for key in keys]
    return [RGraph.from_masks(r, n, key) for key in keys]


def _first_in_orbit(t: tuple[int, ...], moves: list[tuple[int, ...]], meter: Meter) -> bool:
    """Whether the sorted tuple ``t`` is the lexicographically least set in
    its orbit under the permutations ``moves``; stops at the first smaller.
    Each round of the search ticks ``meter`` with the images it may form.

    The least sets are closed under dropping the largest element: if a
    permutation ``p`` maps ``t`` to a smaller set, it also maps ``t`` plus any
    ``c > max(t)`` to a smaller set, since ``p(c)`` cannot undo the first
    position where ``p(t)`` falls below ``t``.  So a link search that walks
    sets in lexicographic preorder may cut the whole subtree of a set that is
    not least (orderly generation, as in Read 1978 and Faradzev 1978)."""
    seen = {t}
    frontier = [t]
    while frontier:
        meter.tick(len(frontier) * len(moves))
        nxt = []
        for s in frontier:
            for p in moves:
                img = tuple(sorted([p[i] for i in s]))
                if img < t:
                    return False
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return True
