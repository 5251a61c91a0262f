import itertools
import random

import pytest
from hypothesis import HealthCheck, settings

from extremal.isomorphism import canonical_form
from extremal.morphism import FamilySpec, is_free
from extremal.rgraph import RGraph

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def cycle(n: int) -> RGraph:
    return RGraph(2, n, tuple((i, (i + 1) % n) for i in range(n)))


def path(n: int) -> RGraph:
    return RGraph(2, n, tuple((i, i + 1) for i in range(n - 1)))


def are_isomorphic(a: RGraph, b: RGraph) -> bool:
    if a.r != b.r or a.n != b.n or len(a.edges) != len(b.edges):
        return False
    return canonical_form(a) == canonical_form(b)


def random_rgraph(rng: random.Random, n: int, r: int, density: float = 0.4) -> RGraph:
    pool = list(itertools.combinations(range(n), r))
    return RGraph(r, n, tuple(e for e in pool if rng.random() < density))


def random_free_rgraph(rng: random.Random, n: int, fam: FamilySpec) -> RGraph:
    """Greedy random maximal-ish family-free graph: shuffle the edge pool and
    add every edge that keeps the graph free."""
    pool = list(itertools.combinations(range(n), fam.r))
    rng.shuffle(pool)
    edges: list[tuple[int, ...]] = []
    for e in pool:
        if rng.random() < 0.75:
            candidate = RGraph(fam.r, n, tuple(edges) + (e,))
            if is_free(candidate, fam):
                edges.append(e)
    return RGraph(fam.r, n, tuple(edges))


def identical_link_classes(h: RGraph) -> tuple[tuple[int, ...], ...]:
    """Oracle for ``equivalence_classes``: vertices grouped by equal links,
    each class from its least vertex and the classes in order of it."""
    classes: list[list[int]] = []
    for v in range(h.n):
        for c in classes:
            if h.link_masks[c[0]] == h.link_masks[v]:
                c.append(v)
                break
        else:
            classes.append([v])
    return tuple(tuple(c) for c in classes)


@pytest.fixture(scope="session")
def all_graphs_upto_7():
    from extremal.isomorphism import enumerate_rgraphs

    return {n: enumerate_rgraphs(n, 2) for n in range(1, 8)}


@pytest.fixture(scope="session")
def all_3graphs_upto_6():
    from extremal.isomorphism import enumerate_rgraphs

    return {n: enumerate_rgraphs(n, 3) for n in range(1, 7)}
