import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from extremal import constructions as cons
from extremal.lagrangian import evaluate
from extremal.rgraph import (
    RGraph,
    VertexPartition,
    blowup,
    class_energy,
    delete_vertices,
    equivalence_classes,
    induced,
    is_design_system,
    is_symmetrized,
    is_two_covered,
    link,
    pair_covered,
    shadow,
)

from conftest import cycle, path

T3 = RGraph(3, 5, ((0, 1, 2), (0, 1, 3), (2, 3, 4)))


@st.composite
def rgraphs(draw, max_n=7, uniformities=(2, 3)):
    r = draw(st.sampled_from(uniformities))
    n = draw(st.integers(min_value=r, max_value=max_n))
    pool = list(itertools.combinations(range(n), r))
    picks = draw(st.lists(st.sampled_from(pool), max_size=len(pool), unique=True))
    return RGraph(r, n, tuple(picks))


class TestConstruction:
    def test_normalizes_and_sorts(self):
        g = RGraph(2, 4, ((3, 1), (0, 2)))
        assert g.edges == ((0, 2), (1, 3))

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            RGraph(2, 3, ((0, 0),))
        with pytest.raises(ValueError):
            RGraph(2, 3, ((0, 3),))
        with pytest.raises(ValueError):
            RGraph(3, 4, ((0, 1),))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            RGraph(2, 3, ((0, 1), (1, 0)))

    def test_rejects_oversize(self):
        with pytest.raises(ValueError):
            RGraph(2, 65, ())


class TestLink:
    def test_single_edge(self):
        h = RGraph(3, 3, ((0, 1, 2),))
        assert link(h, 0).edges == ((1, 2),)

    def test_empty(self):
        assert link(RGraph(3, 4, ()), 2).edges == ()

    def test_gen_triangle(self):
        assert link(T3, 2).edges == ((0, 1), (3, 4))

    def test_same_vertex_set(self):
        lk = link(T3, 2)
        assert lk.n == T3.n and lk.r == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            link(T3, 5)

    @given(rgraphs())
    def test_link_consistency(self, h):
        for v in range(h.n):
            lk = link(h, v)
            for a in lk.edges:
                assert h.has_edge(a + (v,))
            want = {tuple(sorted(set(e) - {v})) for e in h.edges if v in e}
            assert set(lk.edges) == want


class TestShadow:
    def test_t3_pairs(self):
        assert shadow(T3, 1).edges == (
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4),
        )

    def test_empty(self):
        assert shadow(RGraph(3, 4, ()), 1).edges == ()

    def test_single_4edge(self):
        h = RGraph(4, 4, ((0, 1, 2, 3),))
        assert len(shadow(h, 2).edges) == 6

    def test_range(self):
        with pytest.raises(ValueError):
            shadow(T3, 3)


class TestEquivalence:
    def test_tripartite(self):
        assert equivalence_classes(cons.turan_graph(6, 3)).classes == ((0, 1), (2, 3), (4, 5))

    def test_complete(self):
        assert equivalence_classes(cons.complete_graph(4)).classes == ((0,), (1,), (2,), (3,))

    def test_edgeless(self):
        assert equivalence_classes(RGraph(3, 5, ())).classes == ((0, 1, 2, 3, 4),)

    @given(rgraphs())
    def test_partition_with_equal_links(self, h):
        parts = equivalence_classes(h)
        assert sorted(v for c in parts.classes for v in c) == list(range(h.n))
        for c in parts.classes:
            links = {h.link_masks[v] for v in c}
            assert len(links) == 1
        reps = [c[0] for c in parts.classes]
        for u, v in itertools.combinations(reps, 2):
            assert h.link_masks[u] != h.link_masks[v]


class TestClassEnergy:
    def test_edgeless(self):
        assert class_energy(RGraph(3, 5, ())) == 25

    def test_complete(self):
        assert class_energy(cons.complete_graph(4)) == 4

    def test_k23(self):
        assert class_energy(cons.turan_graph(5, 2)) == 13

    @given(rgraphs())
    def test_bounds(self, h):
        e = class_energy(h)
        if h.n:
            assert h.n <= e <= h.n**2
        parts = equivalence_classes(h)
        assert (e == h.n**2) == (parts.class_count <= 1)
        assert (e == h.n) == (parts.class_count == h.n)


class TestSymmetrized:
    def test_complete_bipartite(self):
        assert is_symmetrized(cons.turan_graph(5, 2))

    def test_path3(self):
        assert is_symmetrized(path(3))

    def test_c5(self):
        assert not is_symmetrized(cycle(5))

    @given(rgraphs())
    def test_against_pair_loop(self, h):
        brute = all(
            pair_covered(h, u, v)
            for u in range(h.n)
            for v in range(u + 1, h.n)
            if h.link_masks[u] != h.link_masks[v]
        )
        assert is_symmetrized(h) == brute


class TestBlowup:
    def test_k3_balanced(self):
        g, part = blowup(cons.complete_graph(3), [2, 2, 2])
        assert len(g.edges) == 12
        assert part.classes == ((0, 1), (2, 3), (4, 5))

    def test_identity(self):
        g, _ = blowup(cons.complete_rgraph(3, 3), [1, 1, 1])
        assert g.edges == ((0, 1, 2),)

    def test_k33_blowup(self):
        g, _ = blowup(cons.complete_rgraph(3, 3), [2, 2, 2])
        assert len(g.edges) == 8

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            blowup(cons.complete_graph(3), [1, 1])

    @given(rgraphs(max_n=5), st.lists(st.integers(min_value=0, max_value=3), min_size=5, max_size=5))
    def test_blowup_identity(self, g, sizes):
        sizes = sizes[: g.n] + [1] * max(0, g.n - len(sizes))
        total = sum(sizes)
        if total == 0 or total > 12:
            return
        blown, _ = blowup(g, sizes)
        weights = [Fraction(s, total) for s in sizes]
        assert evaluate(g, weights) * total**g.r == len(blown.edges)


class TestCoverageAndSystems:
    def test_two_covered_complete(self):
        assert is_two_covered(cons.complete_rgraph(4, 3))

    def test_two_covered_t3(self):
        assert not is_two_covered(T3)

    def test_design_single_edge(self):
        assert is_design_system(cons.complete_rgraph(3, 3), 2)

    def test_design_t3(self):
        assert not is_design_system(T3, 2)

    def test_design_matching(self):
        assert is_design_system(cons.matching(3, 2), 2)

    def test_design_range(self):
        with pytest.raises(ValueError):
            is_design_system(T3, 4)


class TestDeletionAndDegrees:
    def test_delete_vertex_of_k4(self):
        g, relabel = delete_vertices(cons.complete_graph(4), [1])
        assert g.edges == cons.complete_graph(3).edges
        assert relabel == {0: 0, 2: 1, 3: 2}

    def test_induced_one_side(self):
        g, _ = induced(cons.turan_graph(5, 2), [0, 1, 2])
        assert g.edges == () and g.n == 3

    @given(rgraphs())
    def test_handshake(self, h):
        assert sum(h.degrees) == h.r * len(h.edges)

    def test_bad_vertex(self):
        with pytest.raises(ValueError):
            delete_vertices(T3, [9])


class TestVertexPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            VertexPartition(1, (0, 1))

    def test_empty_classes_allowed(self):
        p = VertexPartition(3, (0, 0))
        assert p.classes == ((0, 1), (), ())
