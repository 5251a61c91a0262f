"""Target-class membership, deletion distances, extendability, stability scans.

Threshold conventions: every scan and extendability check qualifies a graph by
a *strict* inequality ``min_degree > (pi_ref/(r-1)! - eps) * n^(r-1)`` (and the
edge-count analogue).  Degree thresholds sit exactly on classical tight
examples (balanced 5-cycle blowups for triangles), and the operative finite
statements hold with the strict form only.

``pi_ref`` is always caller-supplied: the limiting density is out of scope and
presets keep experiments honest.  A finite scan can refute but never confirm a
stability statement; verdicts carry the scanned range and nothing more.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, floor, prod, sqrt
from typing import Iterable, Optional, Sequence

from .errors import SoundnessError
from .morphism import (
    FamilySpec,
    free_representatives,
    has_homomorphism,
    is_free,
    single_graph,
    two_covered_free_patterns,
)
from .rgraph import (
    RGraph,
    VertexPartition,
    delete_vertices,
    equivalence_classes,
    is_design_system,
    is_two_covered,
    mask_of,
    mask_to_tuple,
)

COMPLETE_BLOWUPS = "complete-blowups"
SEMIBIPARTITE = "semibipartite"
TWO_COVERED = "two-covered-systems"


@dataclass(frozen=True)
class ClassSpec:
    """A target class of extremal configurations with its subgraph hull."""

    kind: str
    r: int
    parts: int = 0
    max_pattern: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (COMPLETE_BLOWUPS, SEMIBIPARTITE, TWO_COVERED):
            raise ValueError(f"unknown class kind {self.kind!r}")
        if self.kind == COMPLETE_BLOWUPS and self.parts < self.r:
            raise ValueError("complete-blowups class needs parts >= r")
        if self.kind == TWO_COVERED and self.max_pattern < 1:
            raise ValueError("two-covered-systems class needs max_pattern >= 1")

    @property
    def label(self) -> str:
        if self.kind == COMPLETE_BLOWUPS:
            return f"krl[r={self.r}, parts={self.parts}]"
        if self.kind == SEMIBIPARTITE:
            return f"semibipartite[r={self.r}]"
        return f"twocov[r={self.r}, pmax={self.max_pattern}]"


def complete_blowups(r: int, parts: int) -> ClassSpec:
    return ClassSpec(COMPLETE_BLOWUPS, r, parts=parts)


def semibipartite_class(r: int) -> ClassSpec:
    return ClassSpec(SEMIBIPARTITE, r)


def two_covered_systems(r: int, max_pattern: int = 6) -> ClassSpec:
    return ClassSpec(TWO_COVERED, r, max_pattern=max_pattern)


# ---------------------------------------------------------------------------
# coloring


def _proper_coloring(adj: Sequence[int], n: int, k: int) -> Optional[list[int]]:
    """Proper <= k coloring of a graph given as adjacency bitmasks, or None.
    Backtracking on most-constrained-vertex order with new-color symmetry
    breaking; a color is tested against the bitmask of its class."""
    if k < 0:
        return None
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    color = [-1] * n
    members = [0] * min(k, n)  # at most n classes are ever opened

    def place(idx: int, used: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        nbrs = adj[v]
        for c in range(min(k, used + 1)):
            if nbrs & members[c]:
                continue
            color[v] = c
            members[c] |= 1 << v
            if place(idx + 1, max(used, c + 1)):
                return True
            members[c] ^= 1 << v
            color[v] = -1
        return False

    return list(color) if place(0, 0) else None


def chromatic_number(g: RGraph) -> int:
    """Exact chromatic number of a 2-graph by branch and bound: a greedy
    clique gives the lower end, greedy coloring the upper."""
    if g.r != 2:
        raise ValueError("chromatic_number applies to 2-graphs")
    if g.n == 0:
        return 0
    adj = g.covered_adj
    if not g.edges:
        return 1
    # greedy clique from the densest vertex
    start = max(range(g.n), key=lambda v: g.degrees[v])
    clique = [start]
    for v in sorted(range(g.n), key=lambda v: (-g.degrees[v], v)):
        if all((adj[v] >> u) & 1 for u in clique):
            clique.append(v)
    lower = len(clique)
    # greedy coloring upper bound
    color = [-1] * g.n
    for v in sorted(range(g.n), key=lambda v: (-g.degrees[v], v)):
        taken = {color[u] for u in range(g.n) if (adj[v] >> u) & 1 and color[u] >= 0}
        c = 0
        while c in taken:
            c += 1
        color[v] = c
    upper = max(color) + 1
    for k in range(lower, upper):
        if _proper_coloring(adj, g.n, k) is not None:
            return k
    return upper


def color_classes(g: RGraph, k: int) -> Optional[VertexPartition]:
    """A proper <= k coloring of a 2-graph as a partition, or None."""
    if g.r != 2:
        raise ValueError("color_classes applies to 2-graphs")
    if k < 1:
        return None if g.n else VertexPartition(0, ())
    sol = _proper_coloring(g.covered_adj, g.n, k)
    if sol is None:
        return None
    return VertexPartition(k, tuple(sol))


def krl_coloring(h: RGraph, parts: int) -> Optional[VertexPartition]:
    """A partition into at most ``parts`` classes with every edge rainbow, or
    None.  An edge is rainbow iff its internal pairs are bichromatic, and the
    internal pairs are exactly the pair shadow, whose adjacency is
    ``covered_adj``, so this is a proper coloring of the shadow graph."""
    if parts < h.r:
        raise ValueError("need parts >= r")
    sol = _proper_coloring(h.covered_adj, h.n, parts)
    if sol is None:
        return None
    return VertexPartition(parts, tuple(sol))


def rainbow_partition(h: RGraph, parts: int) -> Optional[VertexPartition]:
    """Independent oracle for ``krl_coloring``: assign classes vertex by
    vertex in natural order and check the rainbow constraint edge by edge."""
    if parts < h.r:
        raise ValueError("need parts >= r")
    assignment = [-1] * h.n
    edges_at = [[] for _ in range(h.n)]
    for e in h.edges:
        for v in e:
            edges_at[v].append(e)

    def place(v: int) -> bool:
        if v == h.n:
            return True
        for c in range(parts):
            ok = True
            for e in edges_at[v]:
                if any(u != v and assignment[u] == c for u in e):
                    ok = False
                    break
            if ok:
                assignment[v] = c
                if place(v + 1):
                    return True
                assignment[v] = -1
        return False

    if not place(0):
        return None
    return VertexPartition(parts, tuple(assignment))


def semibipartition(h: RGraph) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """A partition (A, B) with every edge meeting A exactly once, or None.
    Exact backtracking on bitmasks with unit propagation on the per-edge
    exactly-one constraint; vertices in no edge default to B."""
    covered = 0
    for m in h.edge_masks:
        covered |= m

    def solve(a: int, b: int) -> Optional[int]:
        changed = True
        while changed:
            changed = False
            for m in h.edge_masks:
                in_a, free = (m & a).bit_count(), m & ~(a | b)
                if in_a > 1 or not (in_a or free):
                    return None
                if free and (in_a or not free & (free - 1)):  # the rest is forced
                    a, b = (a, b | free) if in_a else (a | free, b)
                    changed = True
        free = covered & ~(a | b)
        if not free:
            return a
        low = free & -free
        res = solve(a | low, b)
        return res if res is not None else solve(a, b | low)

    a = solve(0, 0)
    if a is None:
        return None
    return frozenset(mask_to_tuple(a)), frozenset(v for v in range(h.n) if not a >> v & 1)


# ---------------------------------------------------------------------------
# membership and hulls

def _system_family(r: int) -> FamilySpec:
    """Two r-edges sharing r - 1 vertices.  A graph is free of it exactly
    when every (r-1)-set lies in at most one edge, so its two-covered free
    patterns are the patterns of the two-covered systems; the single-vertex
    pattern hosts the edgeless graphs."""
    return single_graph(RGraph(r, r + 1, (tuple(range(r)), tuple(range(1, r + 1)))))


def _quotient(h: RGraph) -> RGraph:
    """The pattern on equivalence classes; every graph is its proper blowup."""
    parts = equivalence_classes(h)
    edges = {tuple(sorted({parts.assignment[v] for v in e})) for e in h.edges}
    return RGraph(h.r, parts.class_count, tuple(edges))


def class_membership(h: RGraph, spec: ClassSpec) -> bool:
    """Whether ``h`` itself belongs to the target class (not just its hull)."""
    if h.r != spec.r:
        return False
    q = _quotient(h)
    if spec.kind == COMPLETE_BLOWUPS:
        return q.n <= spec.parts and len(q.edges) == comb(q.n, h.r)
    if spec.kind == TWO_COVERED:
        return q.n <= spec.max_pattern and is_two_covered(q) and is_design_system(q, h.r - 1)
    if not h.edges:
        return True  # complete semibipartite with an empty distinguished class
    # the distinguished class of a complete semibipartite graph is a full
    # equivalence class (its vertices share no edge and have equal links)
    for cand in equivalence_classes(h).classes:
        a = set(cand)
        if all(sum(1 for v in e if v in a) == 1 for e in h.edges) and len(h.edges) == len(
            a
        ) * comb(h.n - len(a), h.r - 1):
            return True
    return False


def in_hull(h: RGraph, spec: ClassSpec) -> bool:
    """Whether ``h`` is a subgraph of some member of the class."""
    if h.r != spec.r:
        raise ValueError(f"uniformity mismatch: graph r={h.r}, class r={spec.r}")
    if spec.kind == COMPLETE_BLOWUPS:
        return krl_coloring(h, spec.parts) is not None
    if spec.kind == SEMIBIPARTITE:
        return semibipartition(h) is not None
    patterns = two_covered_free_patterns(_system_family(h.r), spec.max_pattern)
    return any(has_homomorphism(h, p) is not None for p in patterns)


# ---------------------------------------------------------------------------
# thresholds and low-degree cleaning


def _strict_threshold(
    pi_ref: float | Fraction, eps: float | Fraction, n: int, k: int
) -> float | Fraction:
    """``(pi_ref/k! - eps) * n^k``, the bound that a minimum degree (k = r-1)
    or an edge count (k = r) must strictly exceed.  Computed in the
    arithmetic of ``pi_ref`` and ``eps``, so ``Fraction`` inputs give an
    exact threshold and a graph sitting exactly on it never qualifies."""
    return (pi_ref / factorial(k) - eps) * n**k


def low_degree_set(h: RGraph, pi_ref: float | Fraction, eps: float | Fraction) -> frozenset[int]:
    """Vertices of degree at most ``(pi_ref/(r-1)! - 2*sqrt(eps)) * n^(r-1)``.

    The threshold is a float even for ``Fraction`` inputs, because
    ``sqrt(eps)`` is; only ``pi_ref/(r-1)!`` is exact before the subtraction.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    thr = (pi_ref / factorial(h.r - 1) - 2 * sqrt(eps)) * h.n ** (h.r - 1)
    return frozenset(v for v in range(h.n) if h.degrees[v] <= thr)


def trim_low_degree(
    h: RGraph, pi_ref: float | Fraction, eps: float | Fraction
) -> tuple[RGraph, dict[int, int]]:
    return delete_vertices(h, low_degree_set(h, pi_ref, eps))


# ---------------------------------------------------------------------------
# extendability

VACUOUS = "VACUOUS"
WITNESS_OK = "WITNESS-OK"
COUNTEREXAMPLE = "COUNTEREXAMPLE"


@dataclass(frozen=True)
class ExtendVerdict:
    status: str
    degree_ok: bool
    base_in_hull: bool
    self_in_hull: bool
    threshold: float | Fraction


def check_vertex_extendable(
    h: RGraph, v: int, spec: ClassSpec, zeta: float | Fraction, pi_ref: float | Fraction
) -> ExtendVerdict:
    """Instance check of the lifting step: a graph of large minimum degree
    whose vertex-deleted subgraph lies in the hull should lie in the hull.

    The threshold is computed in the arithmetic of ``pi_ref`` and ``zeta``,
    so ``Fraction`` inputs give an exact strict comparison."""
    thr = _strict_threshold(pi_ref, zeta, h.n, h.r - 1)
    degree_ok = h.min_degree() > thr
    base, _ = delete_vertices(h, (v,))
    base_ok = in_hull(base, spec)
    self_ok = in_hull(h, spec)
    if not (degree_ok and base_ok):
        status = VACUOUS
    elif self_ok:
        status = WITNESS_OK
    else:
        status = COUNTEREXAMPLE
    return ExtendVerdict(status, degree_ok, base_ok, self_ok, thr)


@dataclass(frozen=True)
class PeelResult:
    residual: frozenset[int]
    member: bool
    size_ok: bool
    degree_ok: bool


def extend_by_set(
    h: RGraph,
    vertices: Iterable[int],
    spec: ClassSpec,
    eps: float | Fraction,
    pi_ref: float | Fraction,
) -> PeelResult:
    """Peel a hull-certifying deletion set down to a minimal one.

    Precondition: deleting the whole set lands in the hull.  The loop removes
    one vertex at a time as long as the smaller deletion still certifies hull
    membership; it reaches the empty set exactly when the graph itself is in
    the hull (the hull is hereditary, so it cannot manufacture membership).
    """
    s = set(vertices)
    if not in_hull(delete_vertices(h, s)[0], spec):
        raise ValueError("precondition violated: deleting the set does not reach the hull")
    residual = set(s)
    progress = True
    while progress and residual:
        progress = False
        for v in sorted(residual):
            if in_hull(delete_vertices(h, residual - {v})[0], spec):
                residual.discard(v)
                progress = True
                break
    thr = _strict_threshold(pi_ref, eps, h.n, h.r - 1)
    return PeelResult(
        frozenset(residual),
        member=in_hull(h, spec),
        size_ok=len(s) <= eps * h.n,
        degree_ok=h.min_degree() > thr,
    )


# ---------------------------------------------------------------------------
# criticality


def is_edge_critical(g: RGraph) -> bool:
    """Whether deleting some single edge drops the chromatic number."""
    if g.r != 2:
        raise ValueError("edge criticality applies to 2-graphs")
    if not g.edges:
        return False
    chi = chromatic_number(g)
    for i in range(len(g.edges)):
        rest = RGraph(2, g.n, g.edges[:i] + g.edges[i + 1 :])
        if chromatic_number(rest) < chi:
            return True
    return False


def is_matching_critical(g: RGraph) -> bool:
    """Whether deleting some matching drops the chromatic number."""
    if g.r != 2:
        raise ValueError("matching criticality applies to 2-graphs")
    if not g.edges:
        return False
    chi = chromatic_number(g)
    masks = [mask_of(e) for e in g.edges]

    def search(start: int, used: int, chosen: list[int]) -> bool:
        if chosen:
            rest = RGraph(2, g.n, tuple(e for i, e in enumerate(g.edges) if i not in chosen))
            if chromatic_number(rest) < chi:
                return True
        for i in range(start, len(masks)):
            if masks[i] & used:
                continue
            chosen.append(i)
            if search(i + 1, used | masks[i], chosen):
                return True
            chosen.pop()
        return False

    return search(0, 0, [])


# ---------------------------------------------------------------------------
# greedy selection inside a blowup


FOUND = "FOUND"
ABSENT = "ABSENT"
SUSPICIOUS = "SUSPICIOUS"


@dataclass(frozen=True)
class EmbedResult:
    status: str
    selection: Optional[dict[int, int]] = field(default=None, compare=False)
    hypotheses: dict = field(default_factory=dict, compare=False)
    trials: int = 0


def _rainbow_count(h: RGraph, class_of: Sequence[int], classes: tuple[int, ...]) -> int:
    want = set(classes)
    count = 0
    for e in h.edges:
        if {class_of[v] for v in e} == want and len(want) == len(e):
            count += 1
    return count


def greedy_embed(
    h: RGraph,
    partition: VertexPartition,
    g: RGraph,
    t_classes: Iterable[int],
    s_vertices: Iterable[int],
    eta: float,
    *,
    trials: int = 10_000,
    seed: int = 0,
) -> EmbedResult:
    """Randomized search for one vertex per class in ``t_classes`` such that
    the selected set carries the pattern's blowup edges inside ``h`` and the
    links of every vertex in ``s_vertices`` restricted to the selection.

    Absence after the trial budget is reported as SUSPICIOUS when the class
    sizes and density hypotheses that make a selection likely all hold; it is
    never a refutation.
    """
    if partition.class_count != g.n or len(partition.assignment) != h.n:
        raise ValueError("partition must assign h's vertices to g's vertex classes")
    t = sorted(set(t_classes))
    s = sorted(set(s_vertices))
    if any(not 0 <= j < g.n for j in t):
        raise ValueError("t_classes outside pattern vertex range")
    for v in s:
        if not 0 <= v < h.n or partition.assignment[v] in t:
            raise ValueError("s_vertices must live in classes outside t_classes")
    classes = partition.classes
    class_of = partition.assignment
    t_set = set(t)

    g_edges_in_t = [e for e in g.edges if set(e) <= t_set]
    link_edges = {
        v: [
            tuple(sorted(set(e) - {class_of[v]}))
            for e in g.edges
            if class_of[v] in e and set(e) - {class_of[v]} <= t_set
        ]
        for v in s
    }

    g_edge_set = set(g.edges)

    def hypothesis_report() -> dict:
        n = h.n
        size_ok = all(len(classes[j]) >= (len(s) + 1) * len(t) * eta ** (1 / h.r) * n for j in t)
        density_ok = True
        for combo in itertools.combinations(t, h.r):
            have = _rainbow_count(h, class_of, combo)
            want = prod(len(classes[j]) for j in combo) if combo in g_edge_set else 0
            if have < want - eta * n**h.r:
                density_ok = False
        link_ok = True
        for v in s:
            for combo in itertools.combinations(t, h.r - 1):
                full = tuple(sorted(set(combo) | {class_of[v]}))
                if full not in g_edge_set:
                    continue
                want = prod(len(classes[j]) for j in combo)
                have = sum(
                    1
                    for e in h.edges
                    if v in e and sorted(class_of[u] for u in e if u != v) == list(combo)
                )
                if have < want - eta * n ** (h.r - 1):
                    link_ok = False
        return {"class_sizes": size_ok, "pair_density": density_ok, "link_density": link_ok}

    def verify(sel: dict[int, int]) -> bool:
        for e in g_edges_in_t:
            if mask_of(sel[j] for j in e) not in h.edge_mask_set:
                return False
        for v in s:
            for rest in link_edges[v]:
                if mask_of([v] + [sel[j] for j in rest]) not in h.edge_mask_set:
                    return False
        return True

    if any(not classes[j] for j in t):
        return EmbedResult(ABSENT, None, hypothesis_report(), 0)

    rng = random.Random(seed)
    for trial in range(1, trials + 1):
        sel = {j: rng.choice(classes[j]) for j in t}
        if verify(sel):
            return EmbedResult(FOUND, sel, hypothesis_report(), trial)
    hyp = hypothesis_report()
    status = SUSPICIOUS if all(hyp.values()) else ABSENT
    return EmbedResult(status, None, hyp, trials)


# ---------------------------------------------------------------------------
# near-extremal structure report


@dataclass(frozen=True)
class NearTuranReport:
    edge_hypothesis: bool
    degree_hypothesis: bool
    size_bound: float
    size_worst: float
    neighborhood_bound: float
    neighborhood_worst: float
    link_bound: float
    link_worst: float

    @property
    def sizes_ok(self) -> bool:
        return self.size_worst <= self.size_bound

    @property
    def neighborhoods_ok(self) -> bool:
        return self.neighborhood_worst <= self.neighborhood_bound

    @property
    def links_ok(self) -> bool:
        return self.link_worst <= self.link_bound


def _elementary_symmetric(vals: list[int], k: int) -> int:
    """The k-th elementary symmetric polynomial of ``vals``, by the recurrence
    e_j(x_1..x_i) = e_j(x_1..x_{i-1}) + x_i * e_{j-1}(x_1..x_{i-1})."""
    e = [1] + [0] * k
    for x in vals:
        for j in range(k, 0, -1):
            e[j] += x * e[j - 1]
    return e[k]


def near_turan_check(h: RGraph, partition: VertexPartition, m: int, zeta: float) -> NearTuranReport:
    """Quantitative structure of a near-extremal multipartite coloring: part
    sizes near n/m, near-complete cross neighborhoods, small link deficiency.
    Hypotheses are evaluated, conclusions measured; asserting is the caller's
    business and only legitimate under the hypotheses."""
    if partition.class_count != m or len(partition.assignment) != h.n:
        raise ValueError("partition must have m classes over the graph's vertices")
    for e in h.edges:
        if len({partition.assignment[v] for v in e}) != h.r:
            raise ValueError("partition is not a complete-multipartite coloring of the graph")
    n, r = h.n, h.r
    sizes = [len(c) for c in partition.classes]
    c1 = sqrt(m ** (r - 1) * (m - 1) / comb(m, r))
    c2 = r * comb(m - 1, r - 1) * c1 / m ** (r - 2)

    edge_hyp = len(h.edges) >= (comb(m, r) / m**r - zeta) * n**r
    degree_hyp = h.min_degree() >= (comb(m - 1, r - 1) / m ** (r - 1) - zeta) * n ** (r - 1)

    size_worst = max((abs(s - n / m) for s in sizes), default=0.0)
    size_bound = c1 * sqrt(zeta) * n

    nb_worst = 0.0
    for v in range(h.n):
        i = partition.assignment[v]
        for j in range(m):
            if j == i:
                continue
            missing = sum(1 for u in partition.classes[j] if not (h.covered_adj[v] >> u) & 1)
            nb_worst = max(nb_worst, float(missing))
    nb_bound = 2 * c1 * sqrt(zeta) * n

    link_worst = 0.0
    for v in range(h.n):
        i = partition.assignment[v]
        others = [len(partition.classes[j]) for j in range(m) if j != i]
        full_link = _elementary_symmetric(others, r - 1)
        link_worst = max(link_worst, float(full_link - h.degrees[v]))
    link_bound = c2 * sqrt(zeta) * n ** (r - 1)

    return NearTuranReport(
        edge_hyp, degree_hyp, size_bound, size_worst, nb_bound, nb_worst, link_bound, link_worst
    )


# ---------------------------------------------------------------------------
# deletion distances


def _hull_targets(spec: ClassSpec, n: int) -> list[tuple[int, bool, dict[int, int]]]:
    """``(classes, interchangeable, violates)`` for each target whose class
    assignments make up the hull.  ``violates`` maps the sum of ``1 << class``
    over an edge's other r - 1 vertices to the classes of its last vertex that
    violate it.  As in ``morphism._maps``, a repeated class carries and leaves
    fewer than r - 1 bits; no entry matches, and every class violates.
    Complete blowups keep edges with distinct classes, of which at most n are
    opened; semibipartitions (class 0 is A, so the key is 2(r-1) - #A) keep
    edges meeting A once; a two-covered pattern keeps edges whose image is an
    edge of it."""
    r = spec.r
    if spec.kind == COMPLETE_BLOWUPS:
        p = min(spec.parts, n)
        keys = (mask_of(c) for c in itertools.combinations(range(p), r - 1))
        return [(p, True, {key: key for key in keys})]
    if spec.kind == SEMIBIPARTITE:
        return [(2, False, {2 * (r - 1): 0b10, 2 * r - 3: 0b01})]
    targets = []
    for pat in two_covered_free_patterns(_system_family(r), spec.max_pattern):
        full, violates = (1 << pat.n) - 1, {}
        for c, link in enumerate(pat.link_masks):
            for rest in link:
                violates[rest] = violates.get(rest, full) & ~(1 << c)
        targets.append((pat.n, False, violates))
    return targets


def _least_deletions(h: RGraph, spec: ClassSpec, vertices: bool, node_budget: float) -> tuple:
    """``(value, exact, witness)`` of the branch and bound behind both deletion
    distances.  Vertices are placed in natural order, each edge is judged at
    its last vertex, and a vertex opens at most one new class when classes are
    interchangeable.  Edge mode counts violated edges (the witness).  Vertex
    mode may also delete a vertex at cost 1, dropping its edges, and allows no
    violated edge (the deleted set is the witness).  Past ``node_budget`` nodes
    the best value so far comes back inexact."""
    n = h.n
    closes: list[list[tuple[int, ...]]] = [[] for _ in range(n)]  # other vertices, by last vertex
    for e in h.edges:
        closes[e[-1]].append(e[:-1])
    best = n if vertices else len(h.edges)
    found, nodes, exact = None, 0, True
    bit = [0] * n  # 1 << class of each placed vertex, 0 once deleted

    for p, interchangeable, violates in _hull_targets(spec, n):
        full = (1 << p) - 1

        def walk(v: int, used: int, cost: int) -> None:
            nonlocal best, found, nodes, exact
            nodes += 1
            if nodes > node_budget:
                exact = False
                return
            if v == n:
                best, found = cost, (violates, full, list(bit))
                return
            # closed edges violated whatever the class, and for each other
            # closed edge the mask of the classes that would violate it
            base = 0
            misses = []
            for others in closes[v]:
                key = 0
                for u in others:
                    b = bit[u]
                    if not b:
                        break  # the edge went with a deleted vertex
                    key += b
                else:
                    miss = violates.get(key, full)
                    if miss == full:
                        base += 1
                    else:
                        misses.append(miss)
            for c in range(min(p, used + 1)) if interchangeable else range(p):
                extra = base
                for miss in misses:
                    extra += miss >> c & 1
                if cost + extra < best and not (vertices and extra):
                    bit[v] = 1 << c
                    walk(v + 1, max(used, c + 1), cost + extra)
            if vertices and cost + 1 < best:
                bit[v] = 0
                walk(v + 1, used, cost + 1)

        walk(0, 0, 0)

    if found is None:  # nothing beat deleting everything
        return best, exact, tuple(range(n)) if vertices else h.edges
    violates, full, placed = found
    if vertices:
        return best, exact, tuple(v for v in range(n) if not placed[v])
    return best, exact, tuple(
        e for e in h.edges if violates.get(sum(placed[u] for u in e[:-1]), full) & placed[e[-1]]
    )


def vertex_deletion_distance(h: RGraph, spec: ClassSpec) -> int:
    """Least number of vertex deletions landing in the hull, exact and with no
    budget: the branch and bound of ``edge_deletion_distance``, where a vertex
    may also be deleted at cost 1 and no violated edge may remain.  The
    deleted set is checked with ``in_hull``; a failure raises
    ``SoundnessError``."""
    value, _, deleted = _least_deletions(h, spec, True, float("inf"))
    if not in_hull(delete_vertices(h, deleted)[0], spec):
        raise SoundnessError(f"deleting {deleted} from {h!r} leaves it outside {spec.label}")
    return value


def edge_deletion_distance(h: RGraph, spec: ClassSpec, node_budget: int = 2_000_000) -> tuple[int, bool]:
    """Least number of edge deletions landing in the hull, as ``(value,
    exact)``: a branch and bound over the class assignments of the complete
    blowup, each two-covered pattern or the semibipartition A/B, counting
    violated edges, whose every node counts against ``node_budget`` (past it
    the best value so far comes back inexact).  The violated edges are
    checked with ``in_hull``; a failure raises ``SoundnessError``."""
    value, exact, violated = _least_deletions(h, spec, False, node_budget)
    if not in_hull(RGraph(h.r, h.n, tuple(set(h.edges) - set(violated))), spec):
        raise SoundnessError(f"deleting edges {violated} from {h!r} leaves it outside {spec.label}")
    return value, exact


# ---------------------------------------------------------------------------
# scans


@dataclass(frozen=True)
class CounterexampleRecord:
    n: int
    graph: RGraph
    min_degree: int
    edge_count: int
    distance: Optional[int] = None
    bound: Optional[float] = None


@dataclass(frozen=True)
class StabilityVerdict:
    family: FamilySpec
    target: ClassSpec
    kind: str  # "degree" | "vertex" | "edge"
    n_range: tuple[int, int]
    eps: float | Fraction
    delta: float
    pi_ref: float | Fraction
    scanned: int
    counterexamples: tuple[CounterexampleRecord, ...]
    max_distance: int
    heuristic: bool

    @property
    def clean(self) -> bool:
        return not self.counterexamples

    def summary(self) -> str:
        lo, hi = self.n_range
        verdict = (
            f"no counterexample up to n = {hi}"
            if self.clean
            else f"{len(self.counterexamples)} counterexample(s)"
        )
        return (
            f"{self.kind}-stability scan for {self.family.label} vs {self.target.label}, "
            f"n in [{lo},{hi}], eps={self.eps}, delta={self.delta}: "
            f"{self.scanned} graphs above threshold, {verdict}"
        )


def scan_stability(
    fam: FamilySpec,
    spec: ClassSpec,
    kind: str,
    n_range: tuple[int, int],
    eps: float | Fraction,
    delta: float,
    pi_ref: float | Fraction,
) -> StabilityVerdict:
    """Exhaustively test a stability statement on all family-free graphs whose
    density or minimum degree clears the (strict) threshold.

    The threshold is computed in the arithmetic of ``pi_ref`` and ``eps``:
    ``Fraction`` inputs give an exact threshold, so a graph sitting exactly on
    it is never qualified by rounding.

    degree kind: qualifying graphs must lie in the hull outright.
    vertex/edge kind: their deletion distance must be within delta * n or
    delta * |edges|.
    """
    if kind not in ("degree", "vertex", "edge"):
        raise ValueError("kind must be degree|vertex|edge")
    lo, hi = n_range
    r = fam.r
    scanned = 0
    counterexamples: list[CounterexampleRecord] = []
    max_distance = 0
    heuristic = False

    # an integer exceeds thr iff it is at least floor(thr) + 1, and floor is
    # exact on floats and Fractions, so the gated lists are the qualifying ones
    gate = "min_degree" if kind == "degree" else "min_edges"
    qualifying: list[tuple[int, RGraph]] = []
    for n in range(lo, hi + 1):
        thr = _strict_threshold(pi_ref, eps, n, r - 1 if kind == "degree" else r)
        reps = free_representatives(n, fam, **{gate: floor(thr) + 1})
        qualifying.extend((n, g) for g in reps)
    scanned = len(qualifying)

    for n, g in qualifying:
        if kind == "degree":
            if in_hull(g, spec):
                continue
            rec = CounterexampleRecord(n, g, g.min_degree(), len(g.edges))
        else:
            if kind == "vertex":
                dist = vertex_deletion_distance(g, spec)
                bound = delta * n
            else:
                dist, exact = edge_deletion_distance(g, spec)
                if not exact:
                    heuristic = True
                bound = delta * len(g.edges)
            max_distance = max(max_distance, dist)
            if dist <= bound:
                continue
            rec = CounterexampleRecord(n, g, g.min_degree(), len(g.edges), dist, bound)
        if not is_free(rec.graph, fam):
            raise SoundnessError(
                f"scan candidate is not {fam.label}-free on re-verification: {rec.graph!r}"
            )
        counterexamples.append(rec)

    return StabilityVerdict(
        fam,
        spec,
        kind,
        (lo, hi),
        eps,
        delta,
        pi_ref,
        scanned,
        tuple(counterexamples),
        max_distance,
        heuristic,
    )
