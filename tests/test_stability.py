import itertools
import random
from fractions import Fraction

import pytest

from extremal import constructions as cons
from extremal import errors
from extremal.morphism import single_graph, two_covered_free_patterns
from extremal.errors import SoundnessError
from extremal.isomorphism import enumerate_rgraphs
from extremal.rgraph import (
    RGraph,
    blowup,
    delete_vertices,
    is_design_system,
    is_two_covered,
    shadow,
)
from extremal.stability import (
    COUNTEREXAMPLE,
    VACUOUS,
    WITNESS_OK,
    _system_family,
    check_vertex_extendable,
    class_membership,
    complete_blowups,
    edge_deletion_distance,
    in_hull,
    krl_coloring,
    rainbow_partition,
    scan_stability,
    semibipartite_class,
    semibipartition,
    two_covered_systems,
    vertex_deletion_distance,
)

from conftest import are_isomorphic, cycle, random_rgraph

K3FAM = single_graph(cons.complete_graph(3))
BIPARTITE = complete_blowups(2, 2)


class TestKrlColoring:
    def test_turan_rgraph(self):
        part = krl_coloring(cons.turan_rgraph(7, 3, 3), 3)
        assert part is not None

    def test_complete_needs_more_parts(self):
        assert krl_coloring(cons.complete_rgraph(4, 3), 3) is None
        assert krl_coloring(cons.complete_rgraph(4, 3), 4) is not None

    def test_expansion_blocked(self):
        h34 = cons.expansion(RGraph(3, 4, ()))
        assert krl_coloring(h34, 3) is None

    def test_rainbow_property(self):
        h = cons.turan_rgraph(8, 4, 3)
        part = krl_coloring(h, 4)
        for e in h.edges:
            assert len({part.assignment[v] for v in e}) == 3

    def test_oracle_equivalence_small(self, all_graphs_upto_7, all_3graphs_upto_6):
        for n in range(1, 6):
            for g in all_graphs_upto_7[n]:
                for parts in (2, 3):
                    assert (krl_coloring(g, parts) is None) == (
                        rainbow_partition(g, parts) is None
                    )
        for n in range(3, 5):
            for g in all_3graphs_upto_6[n]:
                assert (krl_coloring(g, 3) is None) == (rainbow_partition(g, 3) is None)


    def test_partition_matches_scanning_coloring_on_all_small_graphs(self):
        """The coloring tests each class by its bitmask; the oracle is the
        same backtracking that scans every vertex for its color, run on the
        pair shadow built as a graph.  The branch order is the same, so the
        partitions must be equal, not merely both proper."""

        def scanning_coloring(adj, n, k):
            order = sorted(range(n), key=lambda v: (-bin(adj[v]).count("1"), v))
            color = [-1] * n

            def place(idx, used):
                if idx == n:
                    return True
                v = order[idx]
                forbidden = 0
                for u in range(n):
                    if (adj[v] >> u) & 1 and color[u] >= 0:
                        forbidden |= 1 << color[u]
                for c in range(min(k, used + 1)):
                    if (forbidden >> c) & 1:
                        continue
                    color[v] = c
                    if place(idx + 1, max(used, c + 1)):
                        return True
                    color[v] = -1
                return False

            return tuple(color) if place(0, 0) else None

        cases = [(g, parts) for n in range(1, 7) for g in enumerate_rgraphs(n, 2) for parts in (2, 3)]
        cases += [(g, 3) for n in range(1, 6) for g in enumerate_rgraphs(n, 3)]
        cases += [(g, 4) for n in range(1, 6) for g in enumerate_rgraphs(n, 3)]
        for g, parts in cases:
            pair_graph = g if g.r == 2 else shadow(g, g.r - 2)
            want = scanning_coloring(pair_graph.covered_adj, g.n, parts)
            got = krl_coloring(g, parts)
            assert (got and got.assignment) == want, (g.edges, parts)


class TestSemibipartition:
    def test_complete_case(self):
        a, b = semibipartition(cons.complete_semibipartite(2, 4, 3))
        assert len(a) == 2
        for e in cons.complete_semibipartite(2, 4, 3).edges:
            assert sum(1 for v in e if v in a) == 1

    def test_complete_rgraph_fails(self):
        assert semibipartition(cons.complete_rgraph(4, 3)) is None

    def test_empty(self):
        a, b = semibipartition(RGraph(3, 4, ()))
        assert a == frozenset() and b == {0, 1, 2, 3}

    def test_matches_every_set_a(self):
        """Against all 2^n sets A on every class of graphs with n <= 6 and of
        3-graphs with n <= 5."""
        for r, n_max in [(2, 6), (3, 5)]:
            for n in range(1, n_max + 1):
                for g in enumerate_rgraphs(n, r):
                    res = semibipartition(g)
                    exists = TestDistances.edge_distance_by_assignments(g, semibipartite_class(r)) == 0
                    assert (res is not None) == exists, g.edges
                    if res is not None:
                        a, b = res
                        assert a | b == set(range(n)) and not a & b
                        assert all(len(a.intersection(e)) == 1 for e in g.edges)


class TestHull:
    def test_subgraph_of_turan_rgraph(self):
        h = RGraph(3, 6, cons.turan_rgraph(6, 3, 3).edges[:4])
        assert in_hull(h, complete_blowups(3, 3))

    def test_c5_not_bipartite(self):
        assert not in_hull(cycle(5), BIPARTITE)

    def test_two_covered_pattern_route(self):
        assert in_hull(cons.turan_rgraph(6, 3, 3), two_covered_systems(3, 4))

    def test_hull_hereditary(self):
        rng = random.Random(13)
        specs = [BIPARTITE, complete_blowups(3, 3), semibipartite_class(3), two_covered_systems(3, 4)]
        for spec in specs:
            for _ in range(12):
                n = rng.randint(2, 6)
                h = random_rgraph(rng, n, spec.r, 0.5)
                if not in_hull(h, spec):
                    continue
                smaller = delete_vertices(h, [rng.randrange(n)])
                assert in_hull(smaller, spec)
                if h.edges:
                    drop = rng.randrange(len(h.edges))
                    sub = RGraph(h.r, h.n, h.edges[:drop] + h.edges[drop + 1 :])
                    assert in_hull(sub, spec)

    def test_membership_implies_hull(self):
        cases = [
            (cons.turan_rgraph(6, 3, 3), complete_blowups(3, 3)),
            (cons.complete_semibipartite(2, 4, 3), semibipartite_class(3)),
            (blowup(cons.complete_rgraph(3, 3), [2, 1, 2]), two_covered_systems(3, 4)),
        ]
        for g, spec in cases:
            assert class_membership(g, spec)
            assert in_hull(g, spec)

    def test_non_membership(self):
        assert not class_membership(cycle(5), BIPARTITE)
        assert class_membership(cons.turan_graph(6, 2), BIPARTITE)


# the classes whose verdicts the memo of in_hull is checked on, by uniformity
MEMO_SPECS = {
    2: (complete_blowups(2, 2), complete_blowups(2, 3)),
    3: (complete_blowups(3, 3), semibipartite_class(3), two_covered_systems(3)),
}


class TestHullMemo:
    """``in_hull`` keeps one verdict per graph and class on the graph; a copy
    built with ``RGraph`` has an empty memo and decides afresh."""

    @pytest.fixture
    def small_graphs(self, all_graphs_upto_7, all_3graphs_upto_6):
        return {2: [g for gs in all_graphs_upto_7.values() for g in gs],
                3: [g for gs in all_3graphs_upto_6.values() for g in gs]}

    def test_memo_against_a_fresh_copy(self, small_graphs):
        # every class is decided on every graph before any verdict is read
        # back, so a verdict filed under the wrong class would show
        for r, specs in MEMO_SPECS.items():
            memoized = [[in_hull(h, spec) for spec in specs] for h in small_graphs[r]]
            for h, verdicts in zip(small_graphs[r], memoized):
                assert [h.memo[spec] for spec in specs] == verdicts
                assert [in_hull(h, spec) for spec in specs] == verdicts
                fresh = [in_hull(RGraph(h.r, h.n, h.edges), spec) for spec in specs]
                assert fresh == verdicts, h.edges

    def test_hull_is_hereditary(self, small_graphs):
        # in_hull(H) implies in_hull(H - v) for every v
        for r, specs in MEMO_SPECS.items():
            for spec in specs:
                inside = [h for h in small_graphs[r] if in_hull(h, spec)]
                assert inside and len(inside) < len(small_graphs[r])
                for h in inside:
                    for v in range(h.n):
                        assert in_hull(delete_vertices(h, (v,)), spec), (spec.label, h.edges, v)

    def test_the_memo_lives_on_the_graph(self):
        h = cycle(5)
        assert not in_hull(h, BIPARTITE) and h.memo == {BIPARTITE: False}
        assert in_hull(h, complete_blowups(2, 3))
        assert h.memo == {BIPARTITE: False, complete_blowups(2, 3): True}
        assert cycle(5).memo == {}


class TestExtendability:
    def test_k33_witness_ok(self):
        v = check_vertex_extendable(cons.turan_graph(6, 2), 0, BIPARTITE, 0.2, 0.5)
        assert v.status == WITNESS_OK

    def test_c5_vacuous(self):
        v = check_vertex_extendable(cycle(5), 0, BIPARTITE, 0.05, 0.5)
        assert v.status == VACUOUS
        assert not v.degree_ok

    def test_counterexample_detectable(self):
        # with a huge zeta the degree gate always opens, so the 5-cycle turns
        # into a legitimate counterexample record for the bipartite hull
        v = check_vertex_extendable(cycle(5), 0, BIPARTITE, 0.6, 0.5)
        assert v.status == COUNTEREXAMPLE

    def test_exact_threshold_is_strict(self):
        # (2/3 - 4/15) * 5 is exactly 2, C5's min degree; in floats it rounds
        # to 1.9999999999999998 and the degree gate would open
        v = check_vertex_extendable(cycle(5), 0, BIPARTITE, Fraction(4, 15), Fraction(2, 3))
        assert v.threshold == 2 and not v.degree_ok and v.status == VACUOUS
        f = check_vertex_extendable(cycle(5), 0, BIPARTITE, 4 / 15, 2 / 3)
        assert f.threshold == (2 / 3 - 4 / 15) * 5 < 2 and f.degree_ok


class TestDistances:
    def test_c5_distances(self):
        assert vertex_deletion_distance(cycle(5), BIPARTITE) == 1
        assert edge_deletion_distance(cycle(5), BIPARTITE) == (1, True)

    def test_turan_plus_distance(self):
        g = cons.turan_plus(6, 3)
        spec = complete_blowups(2, 3)
        assert vertex_deletion_distance(g, spec) == 1
        assert edge_deletion_distance(g, spec) == (1, True)

    def test_zero_distance_in_hull(self):
        assert vertex_deletion_distance(cons.turan_graph(6, 2), BIPARTITE) == 0

    def test_semibipartite_distance(self):
        h = cons.complete_rgraph(4, 3)
        d, exact = edge_deletion_distance(h, semibipartite_class(3))
        assert exact and d == 1  # drop one edge, put its complement vertex alone in A

    def test_two_covered_distance(self):
        t3 = cons.gen_triangle(3)
        d, exact = edge_deletion_distance(t3, two_covered_systems(3, 5))
        assert exact and d == 1


    @staticmethod
    def exhaustive_cases():
        """Every class of graphs with n <= 6 against 2 and 3 parts and the
        semibipartitions, and of 3-graphs with n <= 5 against 3 parts, the
        semibipartitions and the two-covered patterns on at most 7 vertices
        (the Fano plane is the one whose classes are not interchangeable)."""
        for n in range(1, 7):
            for g in enumerate_rgraphs(n, 2):
                yield g, complete_blowups(2, 2)
                yield g, complete_blowups(2, 3)
                yield g, semibipartite_class(2)
        for n in range(1, 6):
            for g in enumerate_rgraphs(n, 3):
                yield g, complete_blowups(3, 3)
                yield g, semibipartite_class(3)
                yield g, two_covered_systems(3, 7)

    @staticmethod
    def edge_distance_by_assignments(h, spec):
        """Fewest violated edges over all p^n class assignments, for every
        target pattern: an edge is kept when its image is a pattern edge.
        For semibipartitions, over all 2^n sets A: an edge is kept when it
        meets A exactly once."""
        if spec.kind == "semibipartite":
            return min(
                sum(1 for m in h.edge_masks if (m & a).bit_count() != 1)
                for a in range(1 << h.n)
            )
        if spec.kind == "complete-blowups":
            patterns = [cons.complete_rgraph(spec.parts, h.r)]
        else:
            patterns = list(two_covered_free_patterns(_system_family(h.r), spec.max_pattern))
        return min(
            sum(1 for e in h.edges if not pat.has_edge({a[v] for v in e}))
            for pat in patterns
            for a in itertools.product(range(pat.n), repeat=h.n)
        )

    @staticmethod
    def vertex_distance_by_deletion(h, spec):
        """The least k such that deleting (and relabeling) some k vertices
        lands in the hull."""
        for k in range(h.n + 1):
            for combo in itertools.combinations(range(h.n), k):
                if in_hull(delete_vertices(h, combo), spec):
                    return k
        raise AssertionError("the edgeless graph is in every hull")

    def test_distances_match_exhaustive_oracles(self):
        checked = 0
        for g, spec in self.exhaustive_cases():
            edge, exact = edge_deletion_distance(g, spec)
            assert exact
            assert edge == self.edge_distance_by_assignments(g, spec), (g.edges, spec.label)
            vertex = vertex_deletion_distance(g, spec)
            assert vertex == self.vertex_distance_by_deletion(g, spec), (g.edges, spec.label)
            assert vertex <= edge
            checked += 1
        assert checked == 3 * (1 + 2 + 4 + 11 + 34 + 156) + 3 * (1 + 1 + 2 + 5 + 34)

    @pytest.mark.parametrize("r, p_max", [(2, 8), (3, 7), (4, 6)])
    def test_system_patterns_are_the_two_covered_designs(self, r, p_max):
        """Free of two edges sharing r - 1 vertices is every (r-1)-set in at
        most one edge, so the hull patterns are the two-covered designs."""
        designs = [RGraph(r, 1, ())] + [
            g
            for p in range(r, p_max + 1)
            for g in enumerate_rgraphs(p, r, lambda x, _: is_design_system(x, r - 1))
            if is_two_covered(g)
        ]
        assert two_covered_free_patterns(_system_family(r), p_max) == tuple(designs)

    def test_pattern_classes_are_not_interchangeable(self):
        """Every relabeling of the Fano plane is its own two-covered pattern,
        at distance 0; a search that opened pattern classes in order only,
        as it may for complete blowups, misses most of them."""
        fano = two_covered_free_patterns(_system_family(3), 7)[-1]
        assert (fano.n, len(fano.edges)) == (7, 7)
        rng = random.Random(7)
        for _ in range(20):
            perm = list(range(7))
            rng.shuffle(perm)
            h = RGraph(3, 7, tuple(tuple(perm[v] for v in e) for e in fano.edges))
            assert edge_deletion_distance(h, two_covered_systems(3, 7)) == (0, True)

    def test_node_budget_gives_an_inexact_upper_bound(self, monkeypatch):
        cases = [
            (cycle(7), BIPARTITE),
            (cons.turan_plus(6, 3), complete_blowups(2, 3)),
            (cons.complete_graph(5), complete_blowups(2, 3)),
            (cons.complete_rgraph(5, 3), complete_blowups(3, 3)),
            (cons.complete_rgraph(5, 3), two_covered_systems(3, 4)),
            (cycle(5), semibipartite_class(2)),
            (cons.complete_rgraph(5, 3), semibipartite_class(3)),
            (cons.complete_rgraph(6, 4), semibipartite_class(4)),
        ]
        for g, spec in cases:
            value, exact = edge_deletion_distance(g, spec)
            assert exact and value > 0
            for budget in (1, 2, 3):
                with monkeypatch.context() as m:
                    m.setitem(errors.CAPS, "deletion nodes", budget)
                    bound, flag = edge_deletion_distance(g, spec)
                assert not flag and bound >= value, (g.edges, spec.label, budget)

    def test_vertex_distance_outside_every_hull_raises(self, monkeypatch):
        import extremal.stability as stability

        monkeypatch.setattr(stability, "in_hull", lambda h, spec: False)
        with pytest.raises(SoundnessError):
            vertex_deletion_distance(cycle(5), BIPARTITE)

    def test_edge_distance_outside_every_hull_raises(self, monkeypatch):
        import extremal.stability as stability

        monkeypatch.setattr(stability, "in_hull", lambda h, spec: False)
        with pytest.raises(SoundnessError):
            edge_deletion_distance(cycle(5), BIPARTITE)


class TestScans:
    def test_clean_degree_scan(self):
        v = scan_stability(K3FAM, BIPARTITE, "degree", (4, 6), 0.1, 0.0, 0.5)
        assert v.clean and v.scanned >= 1
        assert "no counterexample up to n = 6" in v.summary()

    def test_scan_finds_real_counterexamples(self):
        fam = single_graph(cons.complete_graph(4))
        v = scan_stability(fam, BIPARTITE, "degree", (5, 5), 0.5, 0.0, 2 / 3)
        assert not v.clean
        for c in v.counterexamples:
            assert not in_hull(c.graph, BIPARTITE)

    def test_exact_threshold_is_strict(self):
        # C5 has min degree 2 = (1/2 - 1/10) * 5: on the threshold, so not qualified
        on = scan_stability(
            K3FAM, BIPARTITE, "degree", (5, 5), Fraction(1, 10), 0.0, Fraction(1, 2)
        )
        assert on.clean
        above = scan_stability(
            K3FAM, BIPARTITE, "degree", (5, 5), Fraction(11, 100), 0.0, Fraction(1, 2)
        )
        assert [are_isomorphic(c.graph, cycle(5)) for c in above.counterexamples] == [True]
        # the same threshold 2/5 * n; in floats (2/3 - 4/15) * 5 rounds to 1.9999999999999998
        same = scan_stability(
            K3FAM, BIPARTITE, "degree", (5, 5), Fraction(4, 15), 0.0, Fraction(2, 3)
        )
        assert same.clean and same.scanned == 0

    def test_vertex_kind(self):
        v = scan_stability(K3FAM, BIPARTITE, "vertex", (5, 5), 0.15, 0.25, 0.5)
        assert v.clean and v.max_distance <= 1

    def test_edge_kind_flags_violations(self):
        v = scan_stability(K3FAM, BIPARTITE, "edge", (5, 5), 0.15, 0.05, 0.5)
        assert not v.clean  # the 5-cycle needs one of its five edges removed
        rec = v.counterexamples[0]
        assert rec.distance == 1 and rec.distance > rec.bound

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            scan_stability(K3FAM, BIPARTITE, "magic", (4, 5), 0.1, 0.0, 0.5)

    def test_empty_range_refused(self):
        # n_lo > n_hi would scan nothing and report clean
        with pytest.raises(ValueError, match="empty vertex range 9..5"):
            scan_stability(K3FAM, BIPARTITE, "degree", (9, 5), 0.1, 0.0, 0.5)

    def test_family_and_class_of_other_uniformities_refused(self, monkeypatch):
        import extremal.stability as stability

        # at eps = 0 no triangle-free graph clears the threshold, so a scan
        # that enumerated first would report clean without ever meeting the class
        calls = []
        monkeypatch.setattr(stability, "free_representatives",
                            lambda *args, **kwargs: calls.append(args) or ())
        with pytest.raises(ValueError, match="uniformity mismatch: family r=2, class r=3"):
            scan_stability(K3FAM, complete_blowups(3, 3), "degree", (5, 6), 0, 0, 0.5)
        assert calls == []

    def test_counterexample_not_free_on_recheck_raises(self, monkeypatch):
        import extremal.stability as stability

        # C5 is a counterexample here (see test_exact_threshold_is_strict); the
        # enumeration's own freeness checks live in morphism and still pass
        monkeypatch.setattr(stability, "is_free", lambda h, fam: False)
        with pytest.raises(SoundnessError, match="re-verification"):
            scan_stability(
                K3FAM, BIPARTITE, "degree", (5, 5), Fraction(11, 100), 0.0, Fraction(1, 2)
            )
