import itertools
import random

import pytest

from extremal import constructions as cons
from extremal import errors, morphism, symmetrization
from extremal.errors import BudgetError, SoundnessError
from extremal.morphism import (
    generalized_triangles,
    is_free,
    single_graph,
    two_covered_free_patterns,
    weak_expansions,
)
from extremal.rgraph import (
    RGraph,
    class_energy,
    equivalence_classes,
    is_design_system,
    is_symmetrized,
    pair_covered,
)
from extremal.symmetrization import _step, ex, ex_bruteforce, ex_via_patterns, symmetrize

from conftest import are_isomorphic, cycle, identical_link_classes, random_free_rgraph

K3FAM = single_graph(cons.complete_graph(3))
K4FAM = single_graph(cons.complete_graph(4))
SIGMA3 = generalized_triangles(3)


class TestSteps:
    def test_c5_class_step_gains_edges(self):
        step = _step(cycle(5), K3FAM, "class")
        assert step is not None and len(step[2].edges) >= 5

    def test_symmetrized_input_stops(self):
        assert _step(cons.turan_graph(5, 2), K3FAM, "class") is None
        assert _step(cons.turan_graph(5, 2), K3FAM, "vertex") is None

    def test_gen_triangle_has_step(self):
        t3 = cons.gen_triangle(3)
        assert _step(t3, SIGMA3, "class") is not None

    def test_vertex_step_lex_increase(self):
        h = cycle(5)
        _, _, out = _step(h, K3FAM, "vertex")
        before = (len(h.edges), class_energy(h))
        after = (len(out.edges), class_energy(out))
        assert after > before

    def test_vertex_step_energy_gain_on_equal_degrees(self):
        # star-like graph with classes of sizes 1 and 3, all leaf degrees equal
        h = RGraph(2, 5, ((0, 1), (0, 2), (0, 3), (4, 1), (4, 2), (4, 3)))
        # classes: {0,4} and {1,2,3}; make asymmetric: drop one edge
        h = RGraph(2, 5, ((0, 1), (0, 2), (0, 3), (4, 1)))
        parts = equivalence_classes(h)
        _, _, out = _step(h, K3FAM, "vertex")
        if len(out.edges) == len(h.edges):
            assert class_energy(out) - class_energy(h) >= 2

    @pytest.mark.parametrize("mode", ["class", "vertex"])
    def test_cached_partition_of_every_step_graph(self, mode, all_graphs_upto_7,
                                                  all_3graphs_upto_6):
        # _step caches each graph's partition while it picks the pair; the
        # cached one must be the identical-link partition of that graph
        steps = 0
        for fam, graphs in ((K3FAM, all_graphs_upto_7), (SIGMA3, all_3graphs_upto_6)):
            for h in (g for gs in graphs.values() for g in gs if is_free(g, fam)):
                cur = h
                while (step := _step(cur, fam, mode)) is not None:
                    assert equivalence_classes(cur).classes == identical_link_classes(cur)
                    cur = step[2]
                    steps += 1
                assert equivalence_classes(cur).classes == identical_link_classes(cur)
        assert steps > 100


class TestSymmetrize:
    def test_c5_reaches_extremal_bipartite(self):
        for mode in ("class", "vertex"):
            trace = symmetrize(cycle(5), K3FAM, mode)
            assert is_symmetrized(trace.final)
            assert len(trace.final.edges) == 6
            assert are_isomorphic(trace.final, cons.turan_graph(5, 2))

    def test_already_symmetrized_untouched(self):
        trace = symmetrize(cons.turan_rgraph(6, 3, 3), SIGMA3)
        assert trace.steps == () and trace.final == cons.turan_rgraph(6, 3, 3)

    def test_random_sigma3_final_is_blowup_of_system(self):
        rng = random.Random(9)
        for _ in range(20):
            h = random_free_rgraph(rng, 6, SIGMA3)
            trace = symmetrize(h, SIGMA3)
            parts = equivalence_classes(trace.final)
            quotient_edges = {
                tuple(sorted({parts.assignment[v] for v in e})) for e in trace.final.edges
            }
            q = RGraph(3, parts.class_count, tuple(quotient_edges))
            if q.edges:
                used = sorted({v for e in q.edges for v in e})
                assert all(pair_covered(q, u, v) for u, v in itertools.combinations(used, 2))
                assert is_design_system(q, 2)

    def test_not_free_input_rejected(self):
        with pytest.raises(ValueError):
            symmetrize(cons.complete_graph(3), K3FAM)

    def test_final_graph_is_checked_symmetrized(self, monkeypatch):
        # a pair selection that stops at once; the closing check is
        # rgraph.is_symmetrized, which C5 is not
        monkeypatch.setattr(symmetrization, "_select_pair", lambda h: None)
        with pytest.raises(SoundnessError, match="still to symmetrize"):
            symmetrize(cycle(5), K3FAM)

    @pytest.mark.parametrize(
        "mode,rewrite,message",
        [
            ("class", lambda h: RGraph(h.r, h.n, ()), "class step lex-decreased"),
            ("vertex", lambda h: h, "vertex step did not lex-increase"),
            ("class", lambda h: h, "class step did not reduce class count"),
            ("vertex", lambda h: cons.complete_graph(h.n), "left the .* class"),
        ],
        ids=["class-lex-decrease", "vertex-no-increase", "class-count-kept", "not-free"],
    )
    def test_bad_step_raises(self, monkeypatch, mode, rewrite, message):
        # a link replacement that breaks what a blowup-invariant family guarantees
        monkeypatch.setattr(
            symmetrization, "_replace_links", lambda h, absorbed, donor_rep: rewrite(h)
        )
        with pytest.raises(SoundnessError, match=message):
            symmetrize(cycle(5), K3FAM, mode)

    @pytest.mark.parametrize("mode", ["class", "vertex"])
    def test_trace_monotonicity_random(self, mode):
        rng = random.Random(10)
        for _ in range(40):
            h = random_free_rgraph(rng, rng.randint(3, 7), K3FAM)
            trace = symmetrize(h, K3FAM, mode)
            assert is_symmetrized(trace.final)
            assert len(trace.final.edges) >= len(h.edges)
            assert is_free(trace.final, K3FAM)
            for s in trace.steps:
                assert (s.edges_after, s.energy_after) >= (s.edges_before, s.energy_before)
                if mode == "vertex":
                    assert (s.edges_after, s.energy_after) > (s.edges_before, s.energy_before)

    def test_preservation_three_families(self):
        rainbow4 = weak_expansions(RGraph(3, 4, ()))
        cases = [(K3FAM, 7, 60), (SIGMA3, 6, 60), (rainbow4, 6, 60)]
        rng = random.Random(11)
        for fam, n, repeats in cases:
            for _ in range(repeats):
                h = random_free_rgraph(rng, n, fam)
                for mode in ("class", "vertex"):
                    trace = symmetrize(h, fam, mode)  # freeness re-checked per step
                    assert is_free(trace.final, fam)


class TestExBruteforce:
    def test_k3_n5(self):
        res = ex_bruteforce(5, K3FAM)
        assert res.value == 6
        assert len(res.witnesses) == 1
        assert are_isomorphic(res.witnesses[0], cons.turan_graph(5, 2))

    def test_sigma3_n5(self):
        res = ex_bruteforce(5, SIGMA3)
        assert res.value == 4
        assert are_isomorphic(res.witnesses[0], cons.turan_rgraph(5, 3, 3))

    def test_sigma3_n4(self):
        res = ex_bruteforce(4, SIGMA3)
        assert res.value == 2 == len(cons.turan_rgraph(4, 3, 3).edges)
        for w in res.witnesses:
            assert is_free(w, SIGMA3)

    def test_witness_validity(self):
        res = ex_bruteforce(6, K3FAM)
        for w in res.witnesses:
            assert is_free(w, K3FAM) and len(w.edges) == res.value


class TestExPatterns:
    def test_k3_patterns_are_cliques(self):
        pats = two_covered_free_patterns(K3FAM, 5)
        assert sorted((p.n, len(p.edges)) for p in pats) == [(1, 0), (2, 1)]

    def test_sigma3_patterns(self):
        pats = two_covered_free_patterns(SIGMA3, 4)
        assert sorted((p.n, len(p.edges)) for p in pats) == [(1, 0), (3, 1)]

    def test_k3_n8_pmax3(self):
        res = ex_via_patterns(8, K3FAM, 3)
        assert res.value == 16 and res.method == "patterns"

    def test_sigma3_n6_pmax4(self):
        res = ex_via_patterns(6, SIGMA3, 4)
        assert res.value == 8
        assert res.value == ex_bruteforce(6, SIGMA3).value

    def test_refuses_past_the_composition_budget(self, monkeypatch):
        # the one-vertex pattern has one composition of 8, the edge K2 has
        # seven, and one call counts them together
        monkeypatch.setitem(errors.CAPS, "compositions", 7)
        with pytest.raises(BudgetError, match="8 compositions past the cap of 7"):
            ex_via_patterns(8, K3FAM)

    def test_witnesses_free_with_value(self):
        res = ex_via_patterns(7, K3FAM, 4)
        for w in res.witnesses:
            assert is_free(w, K3FAM) and len(w.edges) == res.value

    def test_blowup_not_free_raises(self, monkeypatch):
        # the patterns come from morphism's enumeration; only the check of
        # each witness blowup sees the patched verdict
        monkeypatch.setattr(symmetrization, "is_free", lambda h, fam: False)
        with pytest.raises(SoundnessError, match="not blowup-invariant"):
            ex_via_patterns(5, K3FAM)

    def test_symmetrize_never_beats_patterns(self):
        rng = random.Random(12)
        for _ in range(15):
            h = random_free_rgraph(rng, 6, K3FAM)
            trace = symmetrize(h, K3FAM)
            assert len(trace.final.edges) <= ex_via_patterns(6, K3FAM).value


class TestBothRoutes:
    @pytest.mark.parametrize("n", range(3, 8))
    def test_k3_agreement(self, n):
        res = ex(n, K3FAM)
        assert res.method == "both-agree"
        assert res.value == n * n // 4

    @pytest.mark.parametrize("n", range(4, 9))
    def test_sigma3_agreement(self, n):
        res = ex(n, SIGMA3)
        assert res.method == "both-agree"
        assert res.value == len(cons.turan_rgraph(n, 3, 3).edges)

    def test_bad_method(self):
        with pytest.raises(ValueError):
            ex(4, K3FAM, method="magic")

    @pytest.mark.parametrize("method", ["brute", "both"])
    def test_pattern_cap_needs_the_pattern_route(self, method):
        # under both, a cap below n made the routes differ with no fault:
        # brute force 16 against patterns 12 for K4 at n = 7
        with pytest.raises(ValueError, match="needs method 'patterns'"):
            ex(7, K4FAM, method, p_max=2)

    def test_pattern_cap_below_one(self):
        with pytest.raises(ValueError, match="must be >= 1, got 0"):
            ex(7, K4FAM, "patterns", p_max=0)

    @pytest.mark.parametrize("method, message", [
        ("patterns", "vertex count n must be >= 0, got -1"),
        ("both", "vertex count n must be >= 0, got -1"),  # the pattern route runs first
        ("brute", "n >= 0 and r >= 2, got n=-1, r=2"),
    ])
    def test_negative_n_refused_by_name(self, method, message):
        # the pattern route used to answer 0 and the brute force to fail in math.comb
        with pytest.raises(ValueError, match=message):
            ex(-1, K3FAM, method)
        with pytest.raises(ValueError, match="got -2"):
            ex_via_patterns(-2, SIGMA3)

    def test_capped_pattern_route_is_a_lower_bound(self):
        assert ex(7, K4FAM, "patterns", p_max=2).value == 12 < ex(7, K4FAM).value == 16

    def test_budget_names_n_itself(self, monkeypatch):
        # each enumeration counts its own link sets: at n = 8 those of the
        # pattern route take at most 12, and the gated brute force takes 658
        morphism._free_representatives.cache_clear()
        monkeypatch.setitem(errors.CAPS, "link sets", 100)
        assert ex(8, K3FAM, "patterns").value == 16
        with pytest.raises(BudgetError, match="link sets past the cap of 100"):
            ex(8, K3FAM)

    @pytest.mark.parametrize(
        "shift, message", [(1, "free graph on 8 vertices has the 17"), (-1, "route disagreement")]
    )
    def test_gated_brute_force_checks_the_pattern_value(self, monkeypatch, shift, message):
        true = ex_via_patterns(8, K3FAM)
        reported = symmetrization.ExResult(true.value + shift, true.witnesses, true.method)
        monkeypatch.setattr(symmetrization, "ex_via_patterns", lambda *args: reported)
        with pytest.raises(SoundnessError, match=message):
            ex(8, K3FAM)

    @pytest.mark.parametrize(
        "n, fam",
        [(n, K3FAM) for n in range(3, 10)]
        + [(n, K4FAM) for n in range(4, 9)]
        + [(n, SIGMA3) for n in range(4, 8)],
    )
    def test_routes_give_the_same_witnesses(self, n, fam):
        # both routes emit each class in its certificate labeling
        assert ex_via_patterns(n, fam).witnesses == ex_bruteforce(n, fam).witnesses

    @pytest.mark.parametrize("fam", [K3FAM, SIGMA3], ids=["k3", "sigma3"])
    @pytest.mark.parametrize("n", [0, 1])
    def test_routes_agree_on_the_smallest_n(self, n, fam):
        # at n = 0 no pattern blows up to the empty graph, which is still the one witness
        results = [ex(n, fam, method) for method in ("brute", "patterns", "both")]
        assert [(res.value, len(res.witnesses)) for res in results] == [(0, 1)] * 3
        assert results[0].witnesses == results[1].witnesses == (RGraph(fam.r, n, ()),)
