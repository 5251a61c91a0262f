import itertools
import math

import pytest

from extremal import constructions as cons
from extremal.morphism import (
    find_cancellative_violation,
    find_generalized_triangle,
    find_weak_expansion,
)
from extremal.rgraph import RGraph, is_design_system, pair_covered
from extremal.stability import krl_coloring, semibipartition


class TestTuranGraph:
    def test_t52(self):
        g = cons.turan_graph(5, 2)
        assert len(g.edges) == 6 == (5 * 5) // 4

    def test_t63(self):
        assert len(cons.turan_graph(6, 3).edges) == 12

    def test_t33_complete(self):
        assert cons.turan_graph(3, 3).edges == cons.complete_graph(3).edges

    @pytest.mark.parametrize("n,parts", [(n, p) for n in range(1, 10) for p in range(1, 5)])
    def test_classic_count(self, n, parts):
        sizes = cons.balanced_sizes(n, parts)
        assert max(sizes) - min(sizes) <= 1 and sum(sizes) == n
        want = (n * n - sum(s * s for s in sizes)) // 2
        assert len(cons.turan_graph(n, parts).edges) == want


class TestTuranRGraph:
    def test_t3_6_3(self):
        assert len(cons.turan_rgraph(6, 3, 3).edges) == 8

    def test_t3_5_3(self):
        assert len(cons.turan_rgraph(5, 3, 3).edges) == 4

    def test_degenerate_complete(self):
        assert cons.turan_rgraph(4, 4, 3).edges == cons.complete_rgraph(4, 3).edges

    def test_needs_enough_parts(self):
        with pytest.raises(ValueError):
            cons.turan_rgraph(6, 2, 3)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_colorable_and_expansion_free(self, n):
        g = cons.turan_rgraph(n, 3, 3)
        assert krl_coloring(g, 3) is not None
        assert find_weak_expansion(g, RGraph(3, 4, ())) is None


class TestGenTriangle:
    def test_r2_is_k3(self):
        assert cons.gen_triangle(2).edges == cons.complete_graph(3).edges

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_vertex_count(self, r):
        assert cons.gen_triangle(r).n == 2 * r - 1

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_triggers_detectors(self, r):
        g = cons.gen_triangle(r)
        assert find_generalized_triangle(g) is not None
        assert find_cancellative_violation(g) is not None


class TestExpansion:
    def test_vertex_count_formula(self):
        base = RGraph(3, 4, ())
        assert cons.expansion(base).n == 4 + 1 * 6

    def test_contains_base_and_two_covered(self):
        base = cons.matching(3, 2)
        g = cons.expansion(base)
        assert set(base.edges) <= set(g.edges)
        assert all(pair_covered(g, u, v) for u, v in itertools.combinations(range(base.n), 2))

    def test_graph_case_completes(self):
        base = RGraph(2, 4, ((0, 1),))
        g = cons.expansion(base)
        assert g.n == 4 and len(g.edges) == 6


class TestHingeGraph:
    def test_r3_q5_matches_set_builder(self):
        g = cons.hinge_graph(3, 5)
        want = {(0, 1, 2)}
        for combo in itertools.combinations(range(1, 5), 3):
            if len({1, 2} & set(combo)) <= 1:
                want.add(combo)
        assert set(g.edges) == want == {(0, 1, 2), (1, 3, 4), (2, 3, 4)}

    def test_anchor_pair_uncovered(self):
        g = cons.hinge_graph(4, 7)
        assert not any(0 in e and 4 in e for e in g.edges)


class TestMatchingSunflower:
    def test_matching_design(self):
        g = cons.matching(3, 2)
        assert is_design_system(g, 2)
        assert g.n == 6 and len(g.edges) == 2

    def test_sunflower_design_and_center(self):
        g = cons.sunflower(3, 4)
        assert is_design_system(g, 2)
        assert g.degrees[0] == 4
        assert g.n == 1 + 4 * 2


class TestSemibipartite:
    def test_count(self):
        g = cons.complete_semibipartite(2, 4, 3)
        assert len(g.edges) == 2 * math.comb(4, 2) == 12
        assert semibipartition(g) is not None

    def test_no_matching_expansion(self):
        g = cons.complete_semibipartite(2, 5, 3)
        assert find_weak_expansion(g, cons.matching(3, 2)) is None


class TestTuranPlus:
    def test_adds_inner_edge(self):
        g = cons.turan_plus(6, 3)
        assert len(g.edges) == 13
        assert (0, 1) in g.edges

    def test_requires_room(self):
        with pytest.raises(ValueError):
            cons.turan_plus(3, 3)
