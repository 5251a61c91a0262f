"""Generators for the named structures used as fixtures and extremal candidates.

Balanced partitions hand their remainder to the lowest-indexed parts, and
expansions assign fresh vertices in a fixed scan order of uncovered pairs, so
every generator is deterministic.
"""

from __future__ import annotations

import itertools

from .morphism import uncovered_pairs
from .rgraph import RGraph, blowup


def balanced_sizes(n: int, parts: int) -> tuple[int, ...]:
    if parts < 1:
        raise ValueError("need at least one part")
    q, rem = divmod(n, parts)
    return tuple(q + 1 if i < rem else q for i in range(parts))


def turan_graph(n: int, parts: int) -> RGraph:
    """Balanced complete multipartite graph (edgeless for one part)."""
    if parts == 1 and n >= 0:
        return RGraph(2, n, ())
    return turan_rgraph(n, parts, 2)


def turan_rgraph(n: int, parts: int, r: int) -> RGraph:
    """Balanced complete multipartite r-graph: edges take at most one vertex
    per part, so it is the balanced blowup of the complete r-graph on the parts."""
    if parts < r:
        raise ValueError(f"need parts >= r, got parts={parts}, r={r}")
    return blowup(complete_rgraph(parts, r), balanced_sizes(n, parts))[0]


def complete_rgraph(vertices: int, r: int) -> RGraph:
    if vertices < r:
        raise ValueError(f"complete r-graph needs at least r vertices")
    return RGraph(r, vertices, tuple(itertools.combinations(range(vertices), r)))


def complete_graph(vertices: int) -> RGraph:
    return complete_rgraph(vertices, 2)


def gen_triangle(r: int) -> RGraph:
    """The generalized triangle on 2r-1 vertices: edges B, C sharing r-1
    vertices and a third edge through their symmetric difference, disjoint
    from the shared part."""
    if r < 2:
        raise ValueError("generalized triangle needs r >= 2")
    b = tuple(range(r))
    c = tuple(range(r - 1)) + (r,)
    a = (r - 1, r) + tuple(range(r + 1, 2 * r - 1))
    return RGraph(r, 2 * r - 1, (a, b, c))


def expansion(base: RGraph) -> RGraph:
    """The largest weak expansion of ``base``: every uncovered pair gets its
    own edge through r-2 fresh vertices (no fresh vertices when r = 2)."""
    pairs = uncovered_pairs(base)
    extra = base.r - 2
    edges = list(base.edges)
    nxt = base.n
    for u, v in pairs:
        fresh = tuple(range(nxt, nxt + extra))
        nxt += extra
        edges.append(tuple(sorted((u, v) + fresh)))
    return RGraph(base.r, nxt, tuple(edges))


def hinge_graph(r: int, vertices: int) -> RGraph:
    """One distinguished edge 0..r-1 plus all r-sets avoiding vertex 0 that
    meet 1..r-1 at most once.  Vertices 0 and r never share an edge, which is
    what its callers rely on."""
    if vertices < r + 1:
        raise ValueError(f"hinge graph needs at least r+1 vertices")
    spine = set(range(1, r))
    edges = [tuple(range(r))]
    for combo in itertools.combinations(range(1, vertices), r):
        if len(spine.intersection(combo)) <= 1:
            edges.append(combo)
    return RGraph(r, vertices, tuple(edges))


def matching(r: int, t: int) -> RGraph:
    """t pairwise disjoint edges on rt vertices."""
    if t < 0:
        raise ValueError("matching size must be >= 0")
    edges = tuple(tuple(range(i * r, (i + 1) * r)) for i in range(t))
    return RGraph(r, r * t, edges)


def sunflower(r: int, t: int) -> RGraph:
    """t edges through a common vertex 0, otherwise pairwise disjoint."""
    if t < 0:
        raise ValueError("sunflower size must be >= 0")
    edges = []
    nxt = 1
    for _ in range(t):
        edges.append((0,) + tuple(range(nxt, nxt + r - 1)))
        nxt += r - 1
    return RGraph(r, 1 + t * (r - 1), tuple(edges))


def complete_semibipartite(a: int, b: int, r: int) -> RGraph:
    """All edges with exactly one vertex in the first class of size ``a`` and
    the remaining r-1 in the second class of size ``b``."""
    if a < 0 or b < 0:
        raise ValueError("class sizes must be >= 0")
    edges = []
    for x in range(a):
        for rest in itertools.combinations(range(a, a + b), r - 1):
            edges.append((x,) + rest)
    return RGraph(r, a + b, tuple(edges))


def turan_plus(n: int, parts: int) -> RGraph:
    """The balanced complete multipartite graph with one extra edge inside its
    first part (which therefore needs at least two vertices)."""
    g = turan_graph(n, parts)
    sizes = balanced_sizes(n, parts)
    if sizes[0] < 2:
        raise ValueError(f"turan_plus({n}, {parts}): first part has fewer than 2 vertices")
    return RGraph(2, n, g.edges + ((0, 1),))
