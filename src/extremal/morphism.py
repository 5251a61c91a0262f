"""Subgraph containment, homomorphisms, forbidden-family detectors.

A forbidden family is either an explicit finite list of r-graphs or one of the
named detector families: generalized triangles (three edges A, B, C with
``|B & C| = r-1`` and ``B ^ C <= A``), the cancellative family (same without
the intersection constraint), and weak expansions of a fixed base graph.  The
named detectors test freeness directly on the host; materializing the family
as a member list is only done where an independent check demands it.

Embeddings, homomorphisms and weak expansions share one backtracking engine
(``_maps``) over a plan compiled once per pattern, with one candidate bitmask
per depth.  For an explicit family, ``is_free(h, fam, through=e)`` searches
only copies that use the edge ``e``, mapping each member edge onto it in turn.
That suffices when ``h`` minus ``e`` is known to be free: so it is for every
child in enumeration by one-step augmentation.  The named detectors always
scan the whole graph.

``free_representatives(n, fam)`` is the one source of family-free graphs:
the isomorph-free enumeration pruned by that rooted check and by the exact
minimum-degree and edge-count gates of its caller, cached per ``(n, fam)``
and gates.  Exact Turan numbers, scans, the blowup-invariance check and
``enum --family`` all read it, and so does ``two_covered_free_patterns``,
the patterns of the pattern route to Turan numbers and of the two-covered
systems' hull.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Optional

from .errors import BudgetError, Meter
from .isomorphism import canonical_form, enumerate_rgraphs
from .rgraph import RGraph, induced, is_two_covered, mask_of, mask_to_tuple

EXPLICIT = "explicit"
GEN_TRIANGLE = "generalized-triangle"
CANCELLATIVE = "cancellative"
WEAK_EXPANSION = "weak-expansion"


@dataclass(frozen=True)
class FamilySpec:
    """A forbidden family: explicit member list or a named detector."""

    kind: str
    r: int
    members: tuple[RGraph, ...] = ()
    base: Optional[RGraph] = None

    def __post_init__(self) -> None:
        if self.kind not in (EXPLICIT, GEN_TRIANGLE, CANCELLATIVE, WEAK_EXPANSION):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == EXPLICIT and not self.members:
            raise ValueError("explicit family needs at least one member")
        for m in self.members:
            if m.r != self.r:
                raise ValueError("family members must share one uniformity")
        if self.kind == WEAK_EXPANSION and (self.base is None or self.base.r != self.r):
            raise ValueError("weak-expansion family needs a base graph of matching uniformity")

    @property
    def label(self) -> str:
        if self.kind == EXPLICIT:
            return f"list[{len(self.members)}x r={self.r}]"
        if self.kind == WEAK_EXPANSION:
            return f"weakexp[r={self.r}, base n={self.base.n} m={len(self.base.edges)}]"
        return f"{self.kind}[r={self.r}]"


def explicit_family(members: Iterable[RGraph]) -> FamilySpec:
    mem = tuple(members)
    return FamilySpec(EXPLICIT, mem[0].r, members=mem)


def single_graph(f: RGraph) -> FamilySpec:
    return explicit_family((f,))


def generalized_triangles(r: int) -> FamilySpec:
    if r < 2:
        raise ValueError("generalized triangles need r >= 2")
    return FamilySpec(GEN_TRIANGLE, r)


def cancellative_family(r: int) -> FamilySpec:
    if r < 2:
        raise ValueError("cancellative family needs r >= 2")
    return FamilySpec(CANCELLATIVE, r)


def weak_expansions(base: RGraph) -> FamilySpec:
    return FamilySpec(WEAK_EXPANSION, base.r, base=base)


# ---------------------------------------------------------------------------
# the embedding engine


@lru_cache(maxsize=1024)
def _plan(pattern: RGraph, cover_all: bool, root: int) -> tuple:
    """``(order, back, checks, rooted)``: depth ``d`` places ``order[d]``, whose
    image must be covered-adjacent to the images at positions ``back[d]`` (all
    earlier ones if ``cover_all``, as weak expansions need) and complete the
    edges ``checks[d]`` (position tuples ending at ``d``).  The first
    ``rooted`` depths place the edge mask ``root``, then the vertex with the
    most placed neighbours comes next, ties by degree."""
    adj, deg = pattern.covered_adj, pattern.degrees
    order = sorted(mask_to_tuple(root), key=lambda v: (-deg[v], v))
    rest = set(range(pattern.n)) - set(order)
    while rest:
        placed = mask_of(order)
        order.append(min(rest, key=lambda v: (-(adj[v] & placed).bit_count(), -deg[v], v)))
        rest.remove(order[-1])
    pos = {u: d for d, u in enumerate(order)}
    back = tuple(
        tuple(p for p in range(d) if cover_all or (adj[u] >> order[p]) & 1)
        for d, u in enumerate(order)
    )
    checks: list[list[tuple[int, ...]]] = [[] for _ in order]
    if pattern.r != 2:  # for r = 2 the back constraints are the edges themselves
        for m in pattern.edge_masks:
            ps = tuple(sorted(pos[v] for v in mask_to_tuple(m)))
            checks[ps[-1]].append(ps)
    return tuple(order), back, tuple(map(tuple, checks)), root.bit_count()


def _maps(
    host: RGraph, pattern: RGraph, injective: bool, *, cover_all: bool = False, through: int = 0
) -> Iterator[dict[int, int]]:
    """Every map of ``pattern`` into ``host`` that its plan admits; with
    ``through``, those that map some pattern edge onto it, once per such edge.
    Each depth's candidates are one bitmask: the AND of the host's
    ``covered_adj`` over the images of the placed neighbours, less the used
    vertices if ``injective``, and inside ``through`` on the rooted depths.  A
    non-injective map still sends each edge to r distinct vertices: host edges
    have r, covered pairs are distinct."""
    adj, edges, full = host.covered_adj, host.edge_mask_set, (1 << host.n) - 1
    for root in pattern.edge_masks if through else (0,):
        order, back, checks, rooted = _plan(pattern, cover_all, root)
        k = len(order)
        if k == 0:
            yield {}
            return
        allowed = [through] * rooted + [full] * (k - rooted)
        verts, bits, used = [0] * k, [0] * k, [0] * k
        cands = [allowed[0]] + [0] * (k - 1)
        d = 0
        while d >= 0:
            c = cands[d]
            if not c:
                d -= 1
                continue
            low = c & -c
            cands[d] = c ^ low
            bits[d] = low
            verts[d] = low.bit_length() - 1
            # the sum is the OR unless two positions share an image, and then
            # the carry leaves fewer than r bits, which no host edge has
            if checks[d] and any(sum([bits[p] for p in t]) not in edges for t in checks[d]):
                continue
            if d + 1 == k:
                yield dict(zip(order, verts))
                continue
            d += 1
            used[d] = used[d - 1] | low
            c = allowed[d]
            for p in back[d]:
                c &= adj[verts[p]]
            cands[d] = c & ~used[d] if injective else c


def _check_through(h: RGraph, through: int) -> None:
    if through and through not in h.edge_mask_set:
        raise ValueError("through must be 0 or the mask of an edge of the graph")


def contains_subgraph(
    host: RGraph, pattern: RGraph, *, through: int = 0
) -> Optional[dict[int, int]]:
    """An injective edge-preserving map from pattern vertices into the host,
    or None.  With ``through`` (the mask of a host edge) only copies that use
    that edge are searched: each pattern edge in turn is mapped onto it first."""
    if host.r != pattern.r:
        raise ValueError(f"uniformity mismatch: host r={host.r}, pattern r={pattern.r}")
    _check_through(host, through)
    if pattern.n > host.n or len(pattern.edges) > len(host.edges):
        return None
    return next(_maps(host, pattern, True, through=through), None)


def has_homomorphism(pattern: RGraph, host: RGraph) -> Optional[dict[int, int]]:
    """An edge-preserving map pattern -> host (not necessarily injective), or None."""
    if host.r != pattern.r:
        raise ValueError(f"uniformity mismatch: host r={host.r}, pattern r={pattern.r}")
    return next(_maps(host, pattern, False), None)


# ---------------------------------------------------------------------------
# named detectors

_Triple = tuple[tuple[int, ...], ...]


def _find_triple(h: RGraph, tight: bool) -> Optional[_Triple]:
    """Edges (A, B, C), B before C, A not in {B, C}, with the symmetric
    difference of B and C inside A and, if ``tight``, ``|B & C| = r-1``
    (else ``|B ^ C| <= r``)."""
    for b, c in itertools.combinations(h.edge_masks, 2):
        d = b ^ c
        if ((b & c).bit_count() != h.r - 1) if tight else d.bit_count() > h.r:
            continue
        for a in h.edge_masks:
            if a != b and a != c and a & d == d:
                return (mask_to_tuple(a), mask_to_tuple(b), mask_to_tuple(c))
    return None


def find_generalized_triangle(h: RGraph) -> Optional[_Triple]:
    """A witnessing edge triple (A, B, C) with ``|B & C| = r-1`` and the
    symmetric difference of B and C inside A, or None."""
    return _find_triple(h, True)


def find_cancellative_violation(h: RGraph) -> Optional[_Triple]:
    """Edges (A, B, C) with B != C and the symmetric difference of B and C
    contained in A, or None; None means the graph is cancellative."""
    return _find_triple(h, False)


def uncovered_pairs(f: RGraph) -> tuple[tuple[int, int], ...]:
    """Vertex pairs of ``f`` not contained in any edge (isolated vertices count)."""
    out = []
    for u in range(f.n):
        for v in range(u + 1, f.n):
            if not (f.covered_adj[u] >> v) & 1:
                out.append((u, v))
    return tuple(out)


@dataclass(frozen=True)
class WeakExpansionWitness:
    embedding: dict[int, int] = field(compare=False)
    connectors: dict[tuple[int, int], tuple[int, ...]] = field(compare=False)


def find_weak_expansion(host: RGraph, base: RGraph) -> Optional[WeakExpansionWitness]:
    """An embedding of ``base`` whose uncovered pairs are all covered by host
    edges; this is exactly containment of a weak expansion of the base.

    ``_maps`` with ``cover_all`` sends every pair of base vertices to a
    covered host pair, so its first embedding is a witness.  The connector of
    an uncovered pair is the first host edge through the image of the pair
    (it is never an embedded base edge: a base edge through both endpoints
    would make the pair covered).
    """
    if host.r != base.r:
        raise ValueError(f"uniformity mismatch: host r={host.r}, base r={base.r}")
    if base.n > host.n:
        return None
    phi = next(_maps(host, base, True, cover_all=True), None)
    if phi is None:
        return None
    connectors = {}
    for u, v in uncovered_pairs(base):
        pm = (1 << phi[u]) | (1 << phi[v])
        connectors[u, v] = mask_to_tuple(next(m for m in host.edge_masks if m & pm == pm))
    return WeakExpansionWitness(phi, connectors)


# ---------------------------------------------------------------------------
# freeness


def is_free(h: RGraph, fam: FamilySpec, *, through: int = 0) -> bool:
    """True iff no family member embeds into ``h``.

    ``through`` is 0 or the mask of an edge of ``h`` whose removal leaves a
    family-free graph; then every copy in ``h`` uses that edge, and for an
    explicit family only such copies are searched.  The named detectors always
    get the full check, which is correct whatever ``through`` is.
    """
    if h.r != fam.r:
        raise ValueError(f"uniformity mismatch: graph r={h.r}, family r={fam.r}")
    _check_through(h, through)
    if fam.kind == GEN_TRIANGLE:
        return find_generalized_triangle(h) is None
    if fam.kind == CANCELLATIVE:
        return find_cancellative_violation(h) is None
    if fam.kind == WEAK_EXPANSION:
        return find_weak_expansion(h, fam.base) is None
    return all(contains_subgraph(h, f, through=through) is None for f in fam.members)


def free_representatives(
    n: int, fam: FamilySpec, min_degree: int = 0, min_edges: int = 0
) -> tuple[RGraph, ...]:
    """Isomorph-free list of all family-free graphs on exactly n vertices with
    minimum degree at least ``min_degree`` and at least ``min_edges`` edges
    (cached).  The gates prune the enumeration exactly; see
    ``enumerate_rgraphs``.  They are clamped at 0 and passed to the cache in
    one form, so equal requests share one entry however they are written."""
    return _free_representatives(n, fam, max(0, min_degree), max(0, min_edges))


@lru_cache(maxsize=64)
def _free_representatives(
    n: int, fam: FamilySpec, min_degree: int, min_edges: int
) -> tuple[RGraph, ...]:
    return tuple(
        enumerate_rgraphs(
            n, fam.r, lambda g, e: is_free(g, fam, through=e),
            min_degree=min_degree, min_edges=min_edges,
        )
    )


@lru_cache(maxsize=32)
def two_covered_free_patterns(fam: FamilySpec, p_max: int) -> tuple[RGraph, ...]:
    """Family-free patterns on up to ``p_max`` vertices in which every vertex
    pair shares an edge, in order of size and then of certificate (cached).
    Two-coveredness is not subgraph-closed, so it is filtered after
    enumeration rather than used as a pruning predicate.  It does gate the
    enumeration: each edge through a vertex covers ``r - 1`` of the other
    ``p - 1`` vertices, so every degree is at least ``(p - 1) / (r - 1)``,
    and each edge covers ``C(r, 2)`` of the ``C(p, 2)`` pairs."""
    r = fam.r
    return tuple(
        g
        for p in range(1, p_max + 1)
        for g in free_representatives(
            p, fam, min_degree=-(-(p - 1) // (r - 1)), min_edges=-(-comb(p, 2) // comb(r, 2))
        )
        if is_two_covered(g)
    )


# ---------------------------------------------------------------------------
# member materialization and the blowup-invariance check


def _support(g: RGraph) -> RGraph:
    used = sorted({v for e in g.edges for v in e})
    return induced(g, used)[0]


def _triple_members(r: int, require_tight: bool) -> tuple[RGraph, ...]:
    """All 3-edge members on their supports, up to isomorphism.  Members live
    on at most 2r-1 vertices, so a fixed universe suffices."""
    universe = list(itertools.combinations(range(2 * r - 1), r))
    out: dict[tuple, RGraph] = {}
    for b, c in itertools.combinations(universe, 2):
        inter = len(set(b) & set(c))
        if require_tight and inter != r - 1:
            continue
        diff = set(b) ^ set(c)
        if len(diff) > r:
            continue
        for a in universe:
            if a == b or a == c or not diff <= set(a):
                continue
            g = _support(RGraph(r, 2 * r - 1, (a, b, c)))
            key = canonical_form(g).key
            if key not in out:
                out[key] = g
    return tuple(out[k] for k in sorted(out))


def _weak_expansion_members(base: RGraph) -> tuple[RGraph, ...]:
    pairs = uncovered_pairs(base)
    extra = base.r - 2
    total_n = base.n + extra * len(pairs)
    if total_n > 64:
        raise BudgetError("weak-expansion member universe exceeds 64 vertices")
    Meter("expansion members").tick(comb(total_n - 2, extra) ** len(pairs))
    out: dict[tuple, RGraph] = {}
    slots = list(range(total_n))
    per_pair = []
    for u, v in pairs:
        per_pair.append([c for c in itertools.combinations(slots, extra) if u not in c and v not in c])
    for combo in itertools.product(*per_pair):
        edges = list(base.edges)
        for (u, v), extra_vs in zip(pairs, combo):
            edges.append(tuple(sorted((u, v) + extra_vs)))
        if len(set(edges)) != len(edges):
            continue
        g = _support(RGraph(base.r, total_n, tuple(edges)))
        key = canonical_form(g).key
        if key not in out:
            out[key] = g
    return tuple(out[k] for k in sorted(out))


def family_members(fam: FamilySpec) -> tuple[RGraph, ...]:
    """Materialize the family as an isomorph-free member list.

    Guarded: weak-expansion families can be far too large to list.
    """
    if fam.kind == EXPLICIT:
        return fam.members
    if fam.kind == GEN_TRIANGLE:
        return _triple_members(fam.r, require_tight=True)
    if fam.kind == CANCELLATIVE:
        return _triple_members(fam.r, require_tight=False)
    return _weak_expansion_members(fam.base)


def _set_partitions(items: list[int]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def hom_image_closed(fam: FamilySpec) -> bool:
    """Sufficient condition for blowup-invariance: every homomorphic image of
    every member contains a member.  Explicit families only."""
    if fam.kind != EXPLICIT:
        raise ValueError("hom_image_closed applies to explicit families")
    for f in fam.members:
        for blocks in _set_partitions(list(range(f.n))):
            block_of = {}
            for i, blk in enumerate(blocks):
                for v in blk:
                    block_of[v] = i
            image_edges = set()
            valid = True
            for e in f.edges:
                img = tuple(sorted({block_of[v] for v in e}))
                if len(img) != f.r:
                    valid = False
                    break
                image_edges.add(img)
            if not valid:
                continue
            image = RGraph(f.r, len(blocks), tuple(image_edges))
            if all(contains_subgraph(image, m) is None for m in fam.members):
                return False
    return True


@dataclass(frozen=True)
class BlowupInvarianceReport:
    family: FamilySpec
    n_max: int
    invariant: bool
    counterexample: Optional[tuple[RGraph, RGraph, dict]] = field(default=None, compare=False)
    hom_image_closed: Optional[bool] = None


def check_blowup_invariance(fam: FamilySpec, n_max: int) -> BlowupInvarianceReport:
    """Verify that every family-free graph on up to ``n_max`` vertices is also
    family-hom-free, using a materialized member list so the homomorphism side
    is independent of the detectors."""
    members = family_members(fam)
    closed = hom_image_closed(fam) if fam.kind == EXPLICIT else None
    for n in range(1, n_max + 1):
        for h in free_representatives(n, fam):
            for f in members:
                phi = has_homomorphism(f, h)
                if phi is not None:
                    return BlowupInvarianceReport(fam, n_max, False, (h, f, phi), closed)
    return BlowupInvarianceReport(fam, n_max, True, None, closed)
