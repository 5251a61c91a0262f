"""Seeded input generators for the benchmark, independent of ``extremal``.

Every generator takes a ``random.Random`` and returns plain data (``r``,
``n`` and a sorted tuple of sorted edge tuples), so the same seed gives the
same inputs on every commit and set-up time never moves when the program
under test gets faster or slower.  Freeness during greedy generation and the
clique number used as the Motzkin-Straus reference are computed here with the
benchmark's own code for the same reason.

This module must not import ``extremal``; the benchmark's tests check that.
"""

from __future__ import annotations

import itertools
import random

Graph = tuple[int, int, tuple[tuple[int, ...], ...]]  # (r, n, edges)


def _graph(r: int, n: int, edges) -> Graph:
    return (r, n, tuple(sorted(tuple(sorted(e)) for e in edges)))


# ---------------------------------------------------------------------------
# freeness tests used while growing graphs


def _adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _closes_clique(adj: list[int], u: int, v: int, size: int) -> bool:
    """Whether adding the pair uv creates a clique on ``size`` vertices."""
    common = adj[u] & adj[v]
    return _has_clique(adj, common, size - 2)


def _has_clique(adj: list[int], cand: int, size: int) -> bool:
    if size <= 0:
        return True
    if cand.bit_count() < size:
        return False
    while cand:
        low = cand & -cand
        w = low.bit_length() - 1
        cand ^= low
        if _has_clique(adj, cand & adj[w], size - 1):
            return True
    return False


def clique_number(n: int, edges) -> int:
    """Exact clique number of a 2-graph by exhaustive branch and bound."""
    adj = _adjacency(n, edges)
    best = 0

    def grow(size: int, cand: int) -> None:
        nonlocal best
        if size + cand.bit_count() <= best:
            return
        if not cand:
            best = size
            return
        while cand:
            if size + cand.bit_count() <= best:
                return
            low = cand & -cand
            w = low.bit_length() - 1
            cand ^= low
            grow(size + 1, cand & adj[w])

    grow(0, (1 << n) - 1)
    return best


def is_k_free(n: int, edges, size: int) -> bool:
    """Whether the 2-graph has no clique on ``size`` vertices."""
    return clique_number(n, edges) < size


def is_sigma_free(r: int, edges) -> bool:
    masks = [sum(1 << v for v in e) for e in edges]
    for i, b in enumerate(masks):
        for c in masks[i + 1 :]:
            if (b & c).bit_count() != r - 1:
                continue
            d = b ^ c
            if any(a != b and a != c and a & d == d for a in masks):
                return False
    return True


# ---------------------------------------------------------------------------
# family-free instances


def random_clique_free(
    rng: random.Random, n: int, size: int, keep: float, accept: float
) -> Graph:
    """A random K_size-free graph: keep each pair across a random
    (size-1)-partition with probability ``keep``, then offer the remaining
    pairs in random order and add each with probability ``accept`` when the
    graph stays K_size-free.  ``keep`` near 1 gives near-Turan graphs,
    ``keep`` 0 the plain random greedy process."""
    part = [rng.randrange(size - 1) for _ in range(n)]
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    adj = [0] * n
    edges = []

    def add(u: int, v: int) -> None:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        edges.append((u, v))

    for u, v in pairs:
        if part[u] != part[v] and rng.random() < keep:
            add(u, v)
    for u, v in pairs:
        if (adj[u] >> v) & 1 or rng.random() >= accept:
            continue
        if not _closes_clique(adj, u, v, size):
            add(u, v)
    return _graph(2, n, edges)


def random_sigma_free(rng: random.Random, n: int, keep: float, accept: float) -> Graph:
    """A random generalized-triangle-free 3-graph, built like
    ``random_clique_free`` around a random 3-partition."""
    part = [rng.randrange(3) for _ in range(n)]
    triples = list(itertools.combinations(range(n), 3))
    rng.shuffle(triples)
    masks: set[int] = set()

    def offer(e: tuple[int, ...]) -> None:
        mask = sum(1 << v for v in e)
        if mask not in masks and not _closes_sigma(masks, mask, 3):
            masks.add(mask)

    for e in triples:
        if len({part[v] for v in e}) == 3 and rng.random() < keep:
            offer(e)
    for e in triples:
        if rng.random() < accept:
            offer(e)
    edges = [tuple(v for v in range(n) if (mask >> v) & 1) for mask in masks]
    return _graph(3, n, edges)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _closes_sigma(masks: set[int], e: int, r: int) -> bool:
    """Whether adding edge ``e`` to the Σ-free r-graph ``masks`` closes a
    generalized triangle: B = S+x and C = S+y for an (r-1)-set S, plus an
    edge A through x and y.  Only triangles through ``e`` need checking."""
    for c in masks:  # e as B, with C one of its siblings
        if (c & e).bit_count() == r - 1:
            d = c ^ e
            if any(a & d == d for a in masks):
                return True
    for b in masks:  # e as A, through the two vertices in which B and C differ
        for x in _bits(b & e):
            s = b ^ (1 << x)
            if any(s | (1 << y) in masks for y in _bits(e & ~b)):
                return True
    return False


# ---------------------------------------------------------------------------
# Lagrangian inputs


def random_rgraph(rng: random.Random, n: int, r: int, density: float) -> Graph:
    """Binomial random r-graph; never edgeless, so the maximum is positive."""
    pool = list(itertools.combinations(range(n), r))
    edges = [e for e in pool if rng.random() < density]
    if not edges:
        edges = [rng.choice(pool)]
    return _graph(r, n, edges)


def complete_rgraph(n: int, r: int) -> Graph:
    return _graph(r, n, itertools.combinations(range(n), r))
