import itertools
import math
import random

import pytest

from extremal import constructions as cons
from extremal import errors
from extremal import isomorphism
from extremal.errors import BudgetError, Meter, SoundnessError
from extremal.isomorphism import (
    _first_in_orbit,
    _refine,
    _search,
    are_isomorphic,
    automorphism_generators,
    canonical_form,
    canonical_relabel,
    enumerate_rgraphs,
    relabel,
)
from extremal.morphism import (
    cancellative_family,
    generalized_triangles,
    is_free,
    single_graph,
    two_covered_free_patterns,
)
from extremal.rgraph import RGraph, is_two_covered, mask_of

from conftest import cycle, random_rgraph


def naive_minimum(h: RGraph) -> list[int]:
    best = None
    for perm in itertools.permutations(range(h.n)):
        masks = sorted(sum(1 << perm[v] for v in e) for e in h.edges)
        if best is None or masks < best:
            best = masks
    return best


def lex_minimal(h: RGraph):
    """The uncoloured search: the lex-minimal edge masks over all relabelings,
    the final beam and the twin classes.  The library only runs the
    colour-refined search, so this is the tests' independent oracle."""
    return _search(h, [0] * h.n)


def group_order(beam, eq) -> int:
    return len(beam) * math.prod(math.factorial(len(c)) for c in eq.classes)


def test_matches_naive_minimum_on_random_graphs():
    rng = random.Random(11)
    graphs = []
    for _ in range(150):
        r = rng.choice([2, 3, 4])
        n = rng.randint(r, 6)
        h = random_rgraph(rng, n, r, 0.45)
        assert lex_minimal(h)[0] == naive_minimum(h)
        perm = list(range(n))
        rng.shuffle(perm)
        graphs += [h, relabel(h, perm)]
    # the certificates split the graphs into exactly the naive classes
    pairs = {(canonical_form(g).key, (g.r, g.n, tuple(naive_minimum(g)))) for g in graphs}
    assert len(pairs) == len({k for k, _ in pairs}) == len({m for _, m in pairs})


def test_relabel_invariance():
    rng = random.Random(5)
    for h in [cycle(5), cons.turan_graph(6, 3), cons.gen_triangle(3), random_rgraph(rng, 6, 3)]:
        base = canonical_form(h).key
        for _ in range(1000):
            perm = list(range(h.n))
            rng.shuffle(perm)
            assert canonical_form(relabel(h, perm)).key == base


def test_k3_relabeled():
    k3 = cons.complete_graph(3)
    assert canonical_form(relabel(k3, [2, 0, 1])) == canonical_form(k3)


def group_closure(n, gens):
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = tuple(g[a[v]] for v in range(n))
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


def assert_generates_automorphisms(h):
    gens = automorphism_generators(h)
    for p in gens:
        assert sorted(p) == list(range(h.n))
        assert relabel(h, p).edges == h.edges
    assert len(group_closure(h.n, gens)) == canonical_form(h).automorphisms


@pytest.mark.parametrize(
    "graph,count",
    [
        (cons.complete_graph(4), 24),
        (cycle(5), 10),
        (cons.turan_graph(8, 2), 1152),
        (RGraph(2, 3, ((0, 1), (1, 2))), 2),
        (RGraph(2, 4, ()), 24),
    ],
)
def test_automorphism_counts(graph, count):
    assert canonical_form(graph).automorphisms == count
    assert_generates_automorphisms(graph)


def test_canonical_relabel_is_isomorphic():
    g = cons.turan_rgraph(6, 3, 3)
    c = canonical_relabel(g)
    assert are_isomorphic(g, c)


def test_budget(monkeypatch):
    with pytest.raises(BudgetError):
        canonical_form(RGraph(2, 11, ()))
    with pytest.raises(BudgetError, match="canonical forms on n <= 10, got 11"):
        enumerate_rgraphs(11, 2)
    # the 11 graphs on 4 vertices take 146 link sets, the 34 on 5 take 1,346,
    # and each call counts its own
    monkeypatch.setitem(errors.CAPS, "link sets", 146)
    assert len(enumerate_rgraphs(4, 2)) == len(enumerate_rgraphs(4, 2)) == 11
    with pytest.raises(BudgetError, match="link sets past the cap of 146"):
        enumerate_rgraphs(5, 2)
    with pytest.raises(BudgetError, match="link sets past the cap of 146"):
        enumerate_rgraphs(5, 3)


def test_triangle_free_enumeration_counts():
    k3 = single_graph(cons.complete_graph(3))
    counts = [
        len(enumerate_rgraphs(n, 2, lambda g, e: is_free(g, k3, through=e)))
        for n in range(1, 10)
    ]
    assert counts == [1, 2, 3, 7, 14, 38, 107, 410, 1897]


def test_enumeration_matches_labeled_dedup_oracle():
    # independent oracle: dedup all labeled 3-graphs on 5 vertices by the
    # naive minimum over all permutations
    pool = list(itertools.combinations(range(5), 3))
    seen = set()
    for bits in range(1 << len(pool)):
        edges = tuple(pool[i] for i in range(len(pool)) if (bits >> i) & 1)
        seen.add(tuple(naive_minimum(RGraph(3, 5, edges))))
    reps = enumerate_rgraphs(5, 3)
    assert len(reps) == len(seen) == 34


def test_enumeration_deterministic():
    a = enumerate_rgraphs(5, 2)
    b = enumerate_rgraphs(5, 2)
    assert [g.edges for g in a] == [g.edges for g in b]


def dedupe_enumerate(n, r, predicate=None):
    """The enumerator as it was before orbit pruning: every admissible link
    of every parent, deduplicated by the lex-minimal edge list.  Kept as the
    oracle for the pruned enumerator; its predicate takes only the graph, so
    pruning here always checks the whole graph.  It keeps representatives as
    found, in lex-minimal order, not in the enumerator's output contract."""
    reps = [RGraph(r, 0, ())]
    for k in range(n):
        out = {}
        pool = [c + (k,) for c in itertools.combinations(range(k), r - 1)]
        for base in reps:

            def grow(start, chosen):
                g = RGraph(r, k + 1, base.edges + chosen)
                if predicate is not None and not predicate(g):
                    return
                out.setdefault(tuple(lex_minimal(g)[0]), g)
                for i in range(start, len(pool)):
                    grow(i + 1, chosen + (pool[i],))

            grow(0, ())
        reps = [out[key] for key in sorted(out)]
    return reps


K3 = single_graph(cons.complete_graph(3))
K4 = single_graph(cons.complete_graph(4))
SIGMA3 = generalized_triangles(3)
CANCELLATIVE3 = cancellative_family(3)

DIFFERENTIAL_CASES = (
    [(n, 2, None) for n in range(1, 7)]
    + [(n, 3, None) for n in range(1, 6)]
    + [(n, 2, K3) for n in range(1, 8)]
    + [(n, 2, K4) for n in range(1, 7)]
    + [(n, 3, SIGMA3) for n in range(1, 6)]
    + [(n, 3, CANCELLATIVE3) for n in range(1, 6)]
    # the top sizes the turan workload's sweeps reach
    + [(8, 2, K3), (7, 2, K4), (6, 3, SIGMA3)]
)


@pytest.mark.parametrize(
    "n,r,fam",
    DIFFERENTIAL_CASES,
    # n, r, the family, and whether a family prunes the enumeration
    ids=[
        f"{n}-{r}-{'None' if fam is None else f'fam{i}'}-{fam is not None}"
        for i, (n, r, fam) in enumerate(DIFFERENTIAL_CASES)
    ],
)
def test_orbit_pruning_keeps_representatives(n, r, fam):
    # the pruned enumerator checks freeness only through the added edge
    rooted = None if fam is None else (lambda g, e: is_free(g, fam, through=e))
    full = None if fam is None else (lambda g: is_free(g, fam))
    new = enumerate_rgraphs(n, r, rooted)
    old = dedupe_enumerate(n, r, full)
    # the oracle's classes in the output contract: certificate labeling, in
    # certificate order
    expected = sorted((canonical_relabel(g) for g in old), key=lambda g: refined(g)[0])
    assert [g.edges for g in new] == [g.edges for g in expected]


def test_enumeration_emits_certificate_labelings_in_certificate_order(
    all_graphs_upto_7, all_3graphs_upto_6
):
    levels = [*all_graphs_upto_7.values(), *all_3graphs_upto_6.values()]
    for n, r, fam in [(8, 2, K3), (7, 2, K4), (6, 3, SIGMA3)]:
        levels.append(enumerate_rgraphs(n, r, lambda g, e: is_free(g, fam, through=e)))
    for reps in levels:
        assert all(canonical_relabel(g) == g for g in reps)
        # so each graph's certificate is its own sorted edge masks
        keys = [tuple(sorted(g.edge_masks)) for g in reps]
        assert all(a < b for a, b in zip(keys, keys[1:]))


def test_accepting_a_class_twice_raises(monkeypatch):
    # without the parent-side orbit pruning, two links in one orbit of the
    # parent's automorphisms both pass the child-side test, and the duplicate
    # certificate must fail loudly, also under python -O
    monkeypatch.setattr(isomorphism, "_first_in_orbit", lambda t, moves, meter: True)
    with pytest.raises(SoundnessError, match="twice"):
        enumerate_rgraphs(4, 2)


def test_first_in_orbit_finds_the_least_set_and_is_prefix_closed():
    # the link search cuts the subtree of a set that is not least in its
    # orbit, which is exact only because the least sets are prefix-closed
    rng = random.Random(31)
    for _ in range(30):
        m = rng.randint(2, 6)
        gens = [tuple(rng.sample(range(m), m)) for _ in range(rng.randint(1, 2))]
        group = group_closure(m, gens)
        for size in range(m + 1):
            for t in itertools.combinations(range(m), size):
                least = min(tuple(sorted(p[i] for i in t)) for p in group)
                first = _first_in_orbit(t, gens, Meter("link sets"))
                assert first == (least == t)
                if t and first:
                    assert _first_in_orbit(t[:-1], gens, Meter("link sets"))


CARRIED_VIEWS = ("edge_masks", "edge_mask_set", "covered_adj", "degrees")


@pytest.mark.parametrize(
    "n,r,fam", [(7, 2, K3), (6, 2, K4), (5, 3, SIGMA3), (5, 3, None)]
)
def test_children_carry_the_views_of_a_validated_graph(n, r, fam):
    # every child the enumerator builds reaches the predicate, so wrapping it
    # checks them all; with no family it holds for every graph
    built = []

    def predicate(g, e):
        fresh = RGraph(r, g.n, g.edges)
        assert g == fresh and hash(g) == hash(fresh)
        for name in CARRIED_VIEWS:
            assert name in vars(g)  # carried over, not derived on first use
            assert getattr(g, name) == getattr(fresh, name)
        built.append(g)
        return fam is None or is_free(g, fam, through=e)

    reps = enumerate_rgraphs(n, r, predicate)
    # each returned graph is a built child in its certificate labeling
    assert set(reps) <= {canonical_relabel(g) for g in built}


def test_automorphism_generators_on_random_graphs():
    rng = random.Random(23)
    for _ in range(200):
        r = rng.choice([2, 3])
        n = rng.randint(0, 6)
        assert_generates_automorphisms(random_rgraph(rng, n, r, rng.choice([0.2, 0.5, 0.8])))


def test_trivial_group_has_no_generators():
    # triangle 2-3-4 with a path of length 2 hanging off 2 and a pendant on 4
    rigid = RGraph(2, 6, ((0, 1), (1, 2), (2, 3), (3, 4), (2, 4), (4, 5)))
    assert canonical_form(rigid).automorphisms == 1
    assert automorphism_generators(rigid) == []


def refined(h):
    """The certificate search: the edge masks, beam and twin classes."""
    return _search(h, _refine(h))


def _refine_oracle(h):
    """Colour refinement as it was before the count signatures: a vertex's
    signature is its colour and the sorted multiset of the sorted colour
    tuples of its co-members in each edge through it."""
    colour = list(h.degrees)
    count = len(set(colour))
    while True:
        around = [[] for _ in range(h.n)]
        for e in h.edges:
            for v in e:
                around[v].append(tuple(sorted([colour[u] for u in e if u != v])))
        sigs = [(colour[v], tuple(sorted(around[v]))) for v in range(h.n)]
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        colour = [rank[sig] for sig in sigs]
        if len(rank) == count:
            return colour
        count = len(rank)


def test_refine_matches_the_sorted_tuple_oracle(all_graphs_upto_7, all_3graphs_upto_6):
    # equal colour lists, not only equal partitions: the colours order the
    # cells of the certificate search, so the certificates depend on them
    for fixture in (all_graphs_upto_7, all_3graphs_upto_6):
        for graphs in fixture.values():
            for g in graphs:
                assert _refine(g) == _refine_oracle(g)
    rng = random.Random(37)
    for _ in range(200):
        r = rng.choice([2, 3, 4])
        n = rng.randint(0, 9)
        h = random_rgraph(rng, n, r, rng.choice([0.2, 0.4, 0.6, 0.8]))
        assert _refine(h) == _refine_oracle(h)


def test_canonical_parent_deletes_a_minimum_degree_vertex(all_graphs_upto_7, all_3graphs_upto_6):
    # label 0 of a certificate labeling is in the canonical orbit, so vertex
    # 0 of each emitted class is a canonical deletion vertex; it must have
    # minimum degree, and deleting it must give a class of the level below
    cases = [(all_graphs_upto_7, 2), (all_3graphs_upto_6, 3)]
    for top, fam in ((8, K3), (7, K4)):
        pred = lambda g, e, fam=fam: is_free(g, fam, through=e)
        cases.append(({n: enumerate_rgraphs(n, 2, pred) for n in range(1, top + 1)}, 2))
    for levels, r in cases:
        below = {RGraph(r, 0, ())}
        for n in sorted(levels):
            for g in levels[n]:
                assert g.degrees[0] == g.min_degree()
                rest = tuple(tuple(v - 1 for v in e) for e in g.edges if 0 not in e)
                assert canonical_relabel(RGraph(r, n - 1, rest)) in below
            below = set(levels[n])


def test_certificate_separates_exactly_the_classes(all_graphs_upto_7, all_3graphs_upto_6):
    for fixture in (all_graphs_upto_7, all_3graphs_upto_6):
        for graphs in fixture.values():
            key_of = {}
            for g in graphs:
                key = tuple(lex_minimal(g)[0])
                assert key_of.setdefault(tuple(refined(g)[0]), key) == key
            # the fixture holds one graph per class, so no two may share a certificate
            assert len(key_of) == len(graphs)


def test_canonical_form_is_the_certificate(all_graphs_upto_7, all_3graphs_upto_6):
    for fixture in (all_graphs_upto_7, all_3graphs_upto_6):
        for graphs in fixture.values():
            for g in graphs:
                form = canonical_form(g)
                assert sorted(mask_of(e) for e in form.edges) == refined(g)[0]
                assert canonical_relabel(g).edges == form.edges


def test_certificate_invariant_under_relabeling():
    rng = random.Random(29)
    for _ in range(200):
        r = rng.choice([2, 3, 4])
        n = rng.randint(r, 8)
        h = random_rgraph(rng, n, r, rng.choice([0.3, 0.5, 0.7]))
        perm = list(range(n))
        rng.shuffle(perm)
        moved = relabel(h, perm)
        colour, moved_colour = _refine(h), _refine(moved)
        assert all(moved_colour[perm[v]] == colour[v] for v in range(n))
        assert refined(moved)[0] == refined(h)[0]


def test_refined_beam_gives_the_group(all_graphs_upto_7, all_3graphs_upto_6):
    for fixture in (all_graphs_upto_7, all_3graphs_upto_6):
        for graphs in fixture.values():
            for g in graphs:
                _, beam, eq = refined(g)
                order = group_order(*lex_minimal(g)[1:])
                assert group_order(beam, eq) == canonical_form(g).automorphisms == order
                if g.n < 7:  # the closure over the graphs on 7 vertices takes about a minute
                    assert_generates_automorphisms(g)


def free_predicate(fam):
    return lambda g, e: is_free(g, fam, through=e)


K3 = single_graph(cons.complete_graph(3))
K4 = single_graph(cons.complete_graph(4))
SIGMA3 = generalized_triangles(3)


@pytest.mark.parametrize(
    "n, r, fam", [(8, 2, K3), (7, 2, K4), (6, 3, SIGMA3), (5, 3, None)]
)
def test_gates_equal_the_filtered_enumeration(n, r, fam):
    predicate = free_predicate(fam) if fam else None
    full = enumerate_rgraphs(n, r, predicate)
    # both gates at 0 is the ungated call itself, so each sweep starts at 1
    for d in range(1, max(g.min_degree() for g in full) + 2):
        gated = enumerate_rgraphs(n, r, predicate, min_degree=d)
        assert gated == [g for g in full if g.min_degree() >= d]
    for m in range(1, max(len(g.edges) for g in full) + 2):
        gated = enumerate_rgraphs(n, r, predicate, min_edges=m)
        assert gated == [g for g in full if len(g.edges) >= m]


def test_gates_on_all_graphs(all_graphs_upto_7, all_3graphs_upto_6):
    cases = [(7, 2, all_graphs_upto_7, 3, 0), (7, 2, all_graphs_upto_7, 0, 15),
             (7, 2, all_graphs_upto_7, 3, 14), (6, 3, all_3graphs_upto_6, 6, 0),
             (6, 3, all_3graphs_upto_6, 0, 14)]
    for n, r, fixture, d, m in cases:
        want = [g for g in fixture[n] if g.min_degree() >= d and len(g.edges) >= m]
        assert enumerate_rgraphs(n, r, min_degree=d, min_edges=m) == want


def test_gates_no_graph_can_meet():
    assert enumerate_rgraphs(2, 3, min_edges=1) == []
    assert enumerate_rgraphs(5, 2, min_degree=5) == []
    assert enumerate_rgraphs(5, 2, min_edges=11) == []
    assert enumerate_rgraphs(0, 2, min_degree=1) == []
    assert enumerate_rgraphs(5, 2, min_degree=4) == [cons.complete_graph(5)]


@pytest.mark.parametrize("fam, p", [(K3, 8), (K4, 7), (SIGMA3, 6)])
def test_two_covered_patterns_equal_the_ungated_filter(fam, p):
    want = tuple(
        g
        for q in range(1, p + 1)
        for g in enumerate_rgraphs(q, fam.r, free_predicate(fam))
        if is_two_covered(g)
    )
    assert two_covered_free_patterns(fam, p) == want
