"""Target-class membership, deletion distances, extendability, stability scans.

Threshold conventions: every scan and extendability check qualifies a graph by
a *strict* inequality ``min_degree > (pi_ref/(r-1)! - eps) * n^(r-1)`` (and the
edge-count analogue).  Degree thresholds sit exactly on classical tight
examples (balanced 5-cycle blowups for triangles), and the operative finite
statements hold with the strict form only.

Thresholds are computed in the arithmetic of their inputs.  ``workbench.run``
passes ``Fraction``s, so at sharp values (eps* = 1/24 for K4, 13/441 for
Sigma3) the threshold is the exact integer that float inputs can miss.

``pi_ref`` is always caller-supplied: the limiting density is out of scope and
presets keep experiments honest.  A finite scan can refute but never confirm a
stability statement; verdicts carry the scanned range and nothing more.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, floor
from typing import Optional, Sequence

from .errors import CAPS, SoundnessError
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
# thresholds


def _strict_threshold(
    pi_ref: float | Fraction, eps: float | Fraction, n: int, k: int
) -> float | Fraction:
    """``(pi_ref/k! - eps) * n^k``, the bound that a minimum degree (k = r-1)
    or an edge count (k = r) must strictly exceed.  Computed in the
    arithmetic of ``pi_ref`` and ``eps``, so ``Fraction`` inputs give an
    exact threshold and a graph sitting exactly on it never qualifies.  Float
    inputs can land just below an integer threshold and qualify a graph on it."""
    return (pi_ref / factorial(k) - eps) * n**k


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


def edge_deletion_distance(h: RGraph, spec: ClassSpec) -> tuple[int, bool]:
    """Least number of edge deletions landing in the hull, as ``(value,
    exact)``: a branch and bound over the class assignments of the complete
    blowup, each two-covered pattern or the semibipartition A/B, counting
    violated edges, whose every node counts against ``CAPS["deletion nodes"]``
    (past it the best value so far comes back inexact).  The violated edges are
    checked with ``in_hull``; a failure raises ``SoundnessError``."""
    value, exact, violated = _least_deletions(h, spec, False, CAPS["deletion nodes"])
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
    bound: Optional[float | Fraction] = None


@dataclass(frozen=True)
class StabilityVerdict:
    family: FamilySpec
    target: ClassSpec
    kind: str  # "degree" | "vertex" | "edge"
    n_range: tuple[int, int]
    eps: float | Fraction
    delta: float | Fraction
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
            f"n in [{lo},{hi}], eps={float(self.eps)}, delta={float(self.delta)}: "
            f"{self.scanned} graphs above threshold, {verdict}"
        )


def scan_stability(
    fam: FamilySpec,
    spec: ClassSpec,
    kind: str,
    n_range: tuple[int, int],
    eps: float | Fraction,
    delta: float | Fraction,
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

    An empty range (``n_lo > n_hi``) raises ``ValueError``: it would scan
    nothing and report clean.
    """
    if kind not in ("degree", "vertex", "edge"):
        raise ValueError("kind must be degree|vertex|edge")
    lo, hi = n_range
    if lo > hi:
        raise ValueError(f"empty vertex range {lo}..{hi}: nothing to scan")
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
