import itertools
import random
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
    max_clique,
    pair_covered,
    shadow,
)

from conftest import cycle, identical_link_classes, path

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

    @pytest.mark.parametrize("r", [1, 0, -1])
    def test_rejects_uniformity_below_2(self, r):
        with pytest.raises(ValueError, match=f"uniformity must be >= 2, got {r}"):
            RGraph(r, 3, ())

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

    def test_a_graph_has_no_link(self):
        # it would be 1-uniform
        with pytest.raises(ValueError, match="uniformity must be >= 2, got 1"):
            link(cycle(5), 0)

    @given(rgraphs(uniformities=(3,)))
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

    def test_cached_partition_of_plus_vertex_children(self, all_graphs_upto_7,
                                                      all_3graphs_upto_6):
        # every child of a graph on at most 6 vertices (3-graphs: 5), after
        # its parent's partition is cached, so a child that took it would show
        for r, parents, top in ((2, all_graphs_upto_7, 6), (3, all_3graphs_upto_6, 5)):
            for base in (g for n in range(1, top + 1) for g in parents[n]):
                assert equivalence_classes(base).classes == identical_link_classes(base)
                pool = [c + (base.n,) for c in itertools.combinations(range(base.n), r - 1)]
                for k in range(len(pool) + 1):
                    for new in itertools.combinations(pool, k):
                        child = base._plus_vertex(new, tuple(sum(1 << v for v in e) for e in new))
                        parts = equivalence_classes(child)
                        assert parts.classes == identical_link_classes(child), child.edges
                        assert equivalence_classes(child) is parts


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
        g = blowup(cons.complete_graph(3), [2, 2, 2])
        assert len(g.edges) == 12
        # the classes lie on consecutive labels, in order
        assert equivalence_classes(g).classes == ((0, 1), (2, 3), (4, 5))

    def test_identity(self):
        g = blowup(cons.complete_rgraph(3, 3), [1, 1, 1])
        assert g.edges == ((0, 1, 2),)

    def test_k33_blowup(self):
        g = blowup(cons.complete_rgraph(3, 3), [2, 2, 2])
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
        blown = blowup(g, sizes)
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
        g = delete_vertices(cons.complete_graph(4), [1])
        assert g.edges == cons.complete_graph(3).edges
        # the kept vertices 0, 2, 3 become 0, 1, 2
        assert delete_vertices(path(4), [1]).edges == ((1, 2),)

    def test_induced_one_side(self):
        g = induced(cons.turan_graph(5, 2), [0, 1, 2])
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


def _clique_numbers(g: RGraph) -> list[int]:
    """omega of the subgraph induced on each vertex mask, by brute force over
    all 2^n masks: a largest clique in a mask either avoids its least vertex
    v or is v plus a clique among the neighbours of v in the mask."""
    omega = [0] * (1 << g.n)
    for mask in range(1, 1 << g.n):
        low = mask & -mask
        rest = mask ^ low
        omega[mask] = max(omega[rest], 1 + omega[rest & g.covered_adj[low.bit_length() - 1]])
    return omega


class TestMaxClique:
    def test_against_brute_force_on_all_graphs(self, all_graphs_upto_7):
        """On every class of graphs with at most 8 vertices: the whole vertex
        set gives a maximum clique, and a random candidate mask, size to beat
        and stopping size above it give a clique inside the mask with more vertices
        than the size to beat, at least the stopping size or omega of the
        mask, or 0 when omega of the mask is at most the size to beat."""
        from extremal.isomorphism import enumerate_rgraphs

        rng = random.Random(8)
        graphs = [g for n in all_graphs_upto_7 for g in all_graphs_upto_7[n]]
        graphs += enumerate_rgraphs(8, 2)
        assert len(graphs) == 1 + 2 + 4 + 11 + 34 + 156 + 1044 + 12346
        for g in graphs:
            omega = _clique_numbers(g)
            full = (1 << g.n) - 1
            beat = rng.randint(0, 3)
            for cand, beat, stop in ((full, 0, 64),
                                     (rng.getrandbits(g.n), beat, beat + rng.randint(1, 3))):
                found = max_clique(g, cand, beat, stop)
                if omega[cand] <= beat:
                    assert found == 0, (g.edges, cand, beat)
                    continue
                size = found.bit_count()
                assert found & ~cand == 0 and omega[found] == size, (g.edges, cand)
                assert beat < size <= omega[cand] and size >= min(stop, omega[cand])
            assert max_clique(g, full).bit_count() == omega[full]

    def test_pairwise_covered_sets_of_3graphs(self):
        # for r >= 3 the search finds pairwise covered vertices, which need not span edges
        assert max_clique(T3, 0b11111) == 0b01111  # 0, 1, 2, 3: pairs 01 02 03 12 13 23 covered
        assert max_clique(T3, 0b11111, 4) == 0
        assert max_clique(RGraph(3, 4, ()), 0b1111) == 0b1000
