"""r-uniform hypergraphs on labeled vertices and their elementary operations.

Vertices are ``0..n-1`` and every edge is an r-subset of them.  All types here
are immutable values: operations return new graphs and never mutate inputs, so
instances can be shared freely across threads.

Edges are stored as sorted vertex tuples in lexicographic order (the on-disk
and display order); bitmask views and the equivalence partition are cached on
first use because the search heavy callers live on them, and enumeration
carries the views from a parent to its children (``RGraph._plus_vertex``).
A graph never changes, so what is cached on it never goes stale, and it lives
exactly as long as the graph.  The bitmask design caps ``n`` at 64,
which is far beyond anything the enumeration budgets allow anyway.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

MAX_VERTICES = 64


def bit(v: int) -> int:
    return 1 << v


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def mask_to_tuple(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class RGraph:
    """An r-uniform hypergraph on n labeled vertices, with ``r >= 2``."""

    r: int
    n: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.r < 2:
            raise ValueError(f"uniformity must be >= 2, got {self.r}")
        if not 0 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 0..{MAX_VERTICES}, got {self.n}")
        norm = []
        for e in self.edges:
            tup = tuple(sorted(e))
            if len(tup) != self.r or len(set(tup)) != self.r:
                raise ValueError(f"edge {tuple(e)} is not a set of {self.r} distinct vertices")
            if tup[0] < 0 or tup[-1] >= self.n:
                raise ValueError(f"edge {tup} has vertices outside 0..{self.n - 1}")
            norm.append(tup)
        norm.sort()
        for a, b in zip(norm, norm[1:]):
            if a == b:
                raise ValueError(f"duplicate edge {a}")
        object.__setattr__(self, "edges", tuple(norm))

    @classmethod
    def from_masks(cls, r: int, n: int, masks: Iterable[int]) -> "RGraph":
        return cls(r, n, tuple(mask_to_tuple(m) for m in masks))

    def _plus_vertex(
        self, new_edges: tuple[tuple[int, ...], ...], new_masks: tuple[int, ...]
    ) -> "RGraph":
        """This graph plus vertex ``self.n`` with the edges ``new_edges``
        (sorted tuples ending in the new vertex, in lex order) and their masks
        ``new_masks`` (in the same order).

        Trusted, for enumeration only: nothing is validated, and the bitmask
        views are the parent's updated for the new edges instead of being
        derived from scratch.  Every new mask exceeds every old one, since it
        holds the new vertex's bit, so ``edge_masks`` only sorts the new ones.
        """
        degrees = list(self.degrees) + [0]
        adj = list(self.covered_adj) + [0]
        for m in new_masks:
            rest = m
            while rest:
                low = rest & -rest
                v = low.bit_length() - 1
                adj[v] |= m & ~low
                degrees[v] += 1
                rest ^= low
        g = object.__new__(RGraph)
        object.__setattr__(g, "r", self.r)
        object.__setattr__(g, "n", self.n + 1)
        # old edges all precede the new ones in mask order, not in lex order
        object.__setattr__(g, "edges", tuple(sorted(self.edges + new_edges)))
        views = g.__dict__
        views["edge_masks"] = self.edge_masks + tuple(sorted(new_masks))
        views["edge_mask_set"] = self.edge_mask_set.union(new_masks)
        views["degrees"] = tuple(degrees)
        views["covered_adj"] = tuple(adj)
        return g

    @cached_property
    def edge_masks(self) -> tuple[int, ...]:
        return tuple(sorted(mask_of(e) for e in self.edges))

    @cached_property
    def edge_mask_set(self) -> frozenset[int]:
        return frozenset(self.edge_masks)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        d = [0] * self.n
        for e in self.edges:
            for v in e:
                d[v] += 1
        return tuple(d)

    @cached_property
    def covered_adj(self) -> tuple[int, ...]:
        """Per-vertex bitmask of partners sharing at least one edge."""
        adj = [0] * self.n
        for m in self.edge_masks:
            rest = m
            while rest:
                low = rest & -rest
                v = low.bit_length() - 1
                adj[v] |= m & ~low
                rest ^= low
        return tuple(adj)

    @cached_property
    def link_masks(self) -> tuple[frozenset[int], ...]:
        """Per-vertex link, each member an (r-1)-set bitmask."""
        links: list[set[int]] = [set() for _ in range(self.n)]
        for m in self.edge_masks:
            rest = m
            while rest:
                low = rest & -rest
                links[low.bit_length() - 1].add(m & ~low)
                rest ^= low
        return tuple(frozenset(s) for s in links)

    @cached_property
    def memo(self) -> dict:
        """What is derived from this graph and kept on it: its equivalence
        partition (``equivalence_classes``) and the hull verdicts of
        ``stability.in_hull``, one per class."""
        return {}

    def has_edge(self, vertices: Iterable[int]) -> bool:
        return mask_of(vertices) in self.edge_mask_set

    def min_degree(self) -> int:
        if self.n == 0:
            return 0
        return min(self.degrees)

    def __repr__(self) -> str:  # compact; edge lists can be long
        return f"RGraph(r={self.r}, n={self.n}, m={len(self.edges)})"


@dataclass(frozen=True)
class VertexPartition:
    """An ordered partition of ``0..len(assignment)-1`` into ``class_count`` classes.

    Classes may be empty; every vertex belongs to exactly one class.
    """

    class_count: int
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.class_count < 0:
            raise ValueError("class_count must be >= 0")
        for v, c in enumerate(self.assignment):
            if not 0 <= c < self.class_count:
                raise ValueError(f"vertex {v} assigned to invalid class {c}")

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.class_count)]
        for v, c in enumerate(self.assignment):
            out[c].append(v)
        return tuple(tuple(c) for c in out)


def link(h: RGraph, v: int) -> RGraph:
    """The (r-1)-graph of sets completing ``v`` to an edge, on the same vertex
    set; a graph's link would be 1-uniform, which ``RGraph`` refuses."""
    if not 0 <= v < h.n:
        raise ValueError(f"vertex {v} out of range 0..{h.n - 1}")
    vb = bit(v)
    return RGraph.from_masks(h.r - 1, h.n, (m & ~vb for m in h.edge_masks if m & vb))


def shadow(h: RGraph, i: int) -> RGraph:
    """All (r-i)-sets contained in some edge, as an (r-i)-graph on the same vertices."""
    if not 1 <= i <= h.r - 2:
        raise ValueError(f"shadow index must be in 1..{h.r - 2}, got {i}")
    out = set()
    for e in h.edges:
        out.update(itertools.combinations(e, h.r - i))
    return RGraph(h.r - i, h.n, tuple(out))


def pair_covered(h: RGraph, u: int, v: int) -> bool:
    return bool((h.covered_adj[u] >> v) & 1)


def max_clique(h: RGraph, cand: int, beat: int = 0, stop: int = MAX_VERTICES) -> int:
    """The first largest set of pairwise covered vertices inside the mask
    ``cand`` (for graphs, a maximum clique), as a mask, if it has more than
    ``beat`` vertices; else 0.  With ``stop`` above ``beat``, the search
    returns the first such set with at least ``stop`` vertices as soon as it
    finds one.

    Branch and bound on the ``covered_adj`` bitmasks (Carraghan and Pardalos,
    1990) with the greedy-colouring bound of Tomita and Seki (2003): the
    candidates are coloured greedily, each colour class pairwise uncovered,
    and taken in reverse colour order, so a candidate of colour c cannot
    extend the current set by more than c vertices.
    """
    adj = h.covered_adj
    best, size_to_beat = 0, beat

    def expand(clique: int, size: int, cand: int) -> None:
        nonlocal best, size_to_beat
        order = []  # (vertex, colour), colours nondecreasing
        rest, colour = cand, 0
        while rest:
            colour += 1
            free = rest
            while free:
                low = free & -free
                v = low.bit_length() - 1
                order.append((v, colour))
                rest ^= low
                free &= ~low & ~adj[v]
        for v, colour in reversed(order):
            if size + colour <= size_to_beat or size_to_beat >= stop:
                return
            low = 1 << v
            inner = cand & adj[v]
            if inner:
                expand(clique | low, size + 1, inner)
            elif size + 1 > size_to_beat:
                best, size_to_beat = clique | low, size + 1
            cand ^= low

    expand(0, 0, cand)
    return best


def equivalence_classes(h: RGraph) -> VertexPartition:
    """Partition vertices into maximal classes with identical links.

    Classes are numbered by their least vertex, in increasing order.  Worked
    out once per graph and kept in ``h.memo``.
    """
    parts = h.memo.get("equivalence_classes")
    if parts is None:
        seen: dict[frozenset[int], int] = {}
        assignment = []
        for key in h.link_masks:
            if key not in seen:
                seen[key] = len(seen)
            assignment.append(seen[key])
        parts = h.memo["equivalence_classes"] = VertexPartition(len(seen), tuple(assignment))
    return parts


def class_energy(h: RGraph) -> int:
    """Sum of squared equivalence-class sizes, the vertex-step tiebreaker."""
    return sum(len(c) ** 2 for c in equivalence_classes(h).classes)


def is_symmetrized(h: RGraph) -> bool:
    """True iff every pair of non-equivalent vertices lies in a common edge.

    Coverage between two classes is constant (equivalent vertices have equal
    neighborhoods), so one representative pair per class pair suffices.
    """
    reps = [c[0] for c in equivalence_classes(h).classes]
    return all(pair_covered(h, u, v) for u, v in itertools.combinations(reps, 2))


def blowup(g: RGraph, sizes: Iterable[int]) -> RGraph:
    """Replace vertex ``i`` of ``g`` by a class of ``sizes[i]`` fresh vertices,
    the classes in order of ``i`` on consecutive labels.

    Every edge becomes the complete r-partite pattern across its classes, so
    the result has exactly ``sum over edges of prod(sizes[i] for i in edge)``
    edges.
    """
    sz = tuple(sizes)
    if len(sz) != g.n:
        raise ValueError(f"need {g.n} class sizes, got {len(sz)}")
    if any(s < 0 for s in sz):
        raise ValueError("class sizes must be nonnegative")
    starts = (0, *itertools.accumulate(sz))
    ranges = [range(starts[i], starts[i + 1]) for i in range(g.n)]
    edges = [combo for e in g.edges for combo in itertools.product(*(ranges[i] for i in e))]
    return RGraph(g.r, starts[-1], tuple(edges))


def is_two_covered(h: RGraph) -> bool:
    """True iff every pair of vertices shares an edge."""
    return all(pair_covered(h, u, v) for u, v in itertools.combinations(range(h.n), 2))


def is_design_system(h: RGraph, ell: int) -> bool:
    """True iff every ell-subset of the vertex set lies in at most one edge."""
    if not 1 <= ell <= h.r:
        raise ValueError(f"ell must be in 1..{h.r}, got {ell}")
    seen: set[tuple[int, ...]] = set()
    for e in h.edges:
        for sub in itertools.combinations(e, ell):
            if sub in seen:
                return False
            seen.add(sub)
    return True


def delete_vertices(h: RGraph, drop: Iterable[int]) -> RGraph:
    """Remove vertices and relabel the rest to a contiguous range, keeping
    their order."""
    drop_set = set(drop)
    for v in drop_set:
        if not 0 <= v < h.n:
            raise ValueError(f"vertex {v} out of range")
    keep = [v for v in range(h.n) if v not in drop_set]
    relabel = {old: new for new, old in enumerate(keep)}
    edges = tuple(tuple(relabel[v] for v in e) for e in h.edges if drop_set.isdisjoint(e))
    return RGraph(h.r, len(keep), edges)


def induced(h: RGraph, keep: Iterable[int]) -> RGraph:
    """The subgraph induced on ``keep``, relabeled to ``0..len(keep)-1``."""
    keep_set = set(keep)
    return delete_vertices(h, (v for v in range(h.n) if v not in keep_set))
