import itertools
import random

import pytest

from extremal import constructions as cons
from extremal.errors import BudgetError
from extremal.isomorphism import enumerate_rgraphs
from extremal.morphism import (
    WeakExpansionWitness,
    cancellative_family,
    check_blowup_invariance,
    contains_subgraph,
    explicit_family,
    family_members,
    find_cancellative_violation,
    find_generalized_triangle,
    find_weak_expansion,
    generalized_triangles,
    has_homomorphism,
    is_free,
    single_graph,
    uncovered_pairs,
    weak_expansions,
)
from extremal.rgraph import RGraph, blowup, mask_of, mask_to_tuple

from conftest import cycle, path, random_free_rgraph, random_rgraph

T3 = RGraph(3, 5, ((0, 1, 2), (0, 1, 3), (2, 3, 4)))
K3 = cons.complete_graph(3)


class TestContainment:
    def test_k4_contains_k3(self):
        phi = contains_subgraph(cons.complete_graph(4), K3)
        assert phi is not None and len(set(phi.values())) == 3

    def test_c5_triangle_free(self):
        assert contains_subgraph(cycle(5), K3) is None

    def test_balanced_tripartite_avoids_gen_triangle(self):
        assert contains_subgraph(cons.turan_rgraph(6, 3, 3), T3) is None

    def test_uniformity_mismatch(self):
        with pytest.raises(ValueError):
            contains_subgraph(T3, K3)

    def test_embedding_preserves_edges(self):
        host = cons.turan_rgraph(7, 4, 3)
        phi = contains_subgraph(host, cons.complete_rgraph(4, 3))
        assert phi is not None
        for e in cons.complete_rgraph(4, 3).edges:
            assert host.has_edge(phi[v] for v in e)


class TestHomomorphism:
    def test_c5_to_k3(self):
        phi = has_homomorphism(cycle(5), K3)
        assert phi is not None
        for u, v in cycle(5).edges:
            assert phi[u] != phi[v] and K3.has_edge((phi[u], phi[v]))

    def test_k3_to_c5(self):
        assert has_homomorphism(K3, cycle(5)) is None

    def test_blowup_projects(self):
        blown, _ = blowup(cons.complete_rgraph(4, 3), [2, 1, 1, 1])
        assert has_homomorphism(blown, cons.complete_rgraph(4, 3)) is not None

    @pytest.mark.parametrize("seed", range(8))
    def test_subgraph_implies_hom(self, seed):
        rng = random.Random(seed)
        host = random_rgraph(rng, 6, 2, 0.5)
        pattern = random_rgraph(rng, 4, 2, 0.5)
        if contains_subgraph(host, pattern) is not None:
            assert has_homomorphism(pattern, host) is not None


class TestDetectors:
    def test_gen_triangle_witness(self):
        a, b, c = find_generalized_triangle(T3)
        assert (a, b, c) == ((2, 3, 4), (0, 1, 2), (0, 1, 3))
        assert len(set(b) & set(c)) == 2
        assert set(b) ^ set(c) <= set(a)

    def test_balanced_tripartite_clean(self):
        assert find_generalized_triangle(cons.turan_rgraph(6, 3, 3)) is None

    def test_too_few_edges(self):
        assert find_generalized_triangle(RGraph(3, 5, ((0, 1, 2), (0, 1, 3)))) is None

    def test_cancellative_violation_t3(self):
        assert find_cancellative_violation(T3) is not None

    def test_matching_cancellative(self):
        assert find_cancellative_violation(cons.matching(3, 2)) is None

    def test_sigma_strictly_inside_cancellative_for_r4(self):
        # hunt a 4-graph telling the two detectors apart, by enumeration
        found = None
        for g in enumerate_rgraphs(6, 4, lambda h, _: find_generalized_triangle(h) is None):
            if find_cancellative_violation(g) is not None:
                found = g
                break
        assert found is not None
        assert find_generalized_triangle(found) is None

    def test_r3_detectors_agree(self, all_3graphs_upto_6):
        for g in all_3graphs_upto_6[5]:
            assert (find_generalized_triangle(g) is None) == (
                find_cancellative_violation(g) is None
            )


class TestFreeness:
    def test_bipartite_triangle_free(self):
        assert is_free(cons.turan_graph(8, 2), single_graph(K3))

    def test_k44_contains_c4(self):
        assert not is_free(cons.turan_graph(8, 2), single_graph(cycle(4)))

    def test_single_edge_sigma_free(self):
        assert is_free(RGraph(3, 3, ((0, 1, 2),)), generalized_triangles(3))

    def test_hom_free_vs_free(self):
        # K3 is C5-free but C5 maps into it: the gap detected by invariance
        assert is_free(K3, single_graph(cycle(5)))
        assert has_homomorphism(cycle(5), K3) is not None

    def test_edgeless_member_embeds_by_definition(self):
        # an edgeless forbidden graph embeds into anything with enough
        # vertices, so it forbids every graph on >= v(F) vertices
        fam = single_graph(RGraph(2, 3, ()))
        assert not is_free(cons.complete_graph(4), fam)
        assert not is_free(RGraph(2, 3, ()), fam)
        assert is_free(RGraph(2, 2, ()), fam)


class TestWeakExpansion:
    def test_complete_host(self):
        assert find_weak_expansion(cons.complete_rgraph(6, 3), cons.matching(3, 2)) is not None

    def test_semibipartite_host_excludes_matching_expansion(self):
        host = cons.complete_semibipartite(2, 6, 3)
        assert find_weak_expansion(host, cons.matching(3, 2)) is None

    def test_empty_base_needs_shadow_clique(self):
        base = RGraph(3, 4, ())
        assert find_weak_expansion(cons.turan_rgraph(6, 3, 3), base) is None
        assert find_weak_expansion(cons.complete_rgraph(4, 3), base) is not None
        # connectors may coincide: one edge covers the three pairs of an edgeless base
        assert find_weak_expansion(RGraph(3, 3, ((0, 1, 2),)), RGraph(3, 3, ())) is not None

    def test_covered_base_reduces_to_containment(self):
        rng = random.Random(3)
        for _ in range(20):
            host = random_rgraph(rng, 6, 3, 0.4)
            base = random_rgraph(rng, 4, 3, 0.6)
            if uncovered_pairs(base):
                continue
            assert (find_weak_expansion(host, base) is None) == (
                contains_subgraph(host, base) is None
            )


class TestFamilies:
    def test_member_lists(self):
        assert len(family_members(generalized_triangles(3))) == 2
        assert len(family_members(cancellative_family(3))) == 2
        assert len(family_members(generalized_triangles(4))) > len(
            family_members(generalized_triangles(3))
        )

    def test_members_have_three_edges(self):
        for m in family_members(generalized_triangles(4)):
            assert len(m.edges) == 3
            assert find_generalized_triangle(m) is not None

    def test_mixed_uniformity_rejected(self):
        with pytest.raises(ValueError):
            explicit_family([K3, T3])

    def test_weak_expansion_members_graph_case(self):
        fam = weak_expansions(RGraph(2, 3, ((0, 1),)))
        members = family_members(fam)
        # one uncovered-pair-free completion each: pairs {0,2},{1,2} get edges
        assert all(len(m.edges) == 3 for m in members)

    def test_weak_expansion_members_refused_past_the_budget(self):
        # two disjoint triples leave 9 pairs uncovered, and each pair's new
        # edge takes one of 13 other vertices: 13^9 raw members
        with pytest.raises(BudgetError, match="^10604499373 expansion members past the cap"):
            family_members(weak_expansions(cons.matching(3, 2)))


class TestBlowupInvariance:
    def test_k3_invariant(self):
        rep = check_blowup_invariance(single_graph(K3), 6)
        assert rep.invariant and rep.hom_image_closed

    def test_c5_not_invariant(self):
        rep = check_blowup_invariance(single_graph(cycle(5)), 5)
        assert not rep.invariant
        host, member, phi = rep.counterexample
        assert is_free(host, single_graph(cycle(5)))
        assert has_homomorphism(member, host) is not None

    def test_sigma3_invariant(self):
        rep = check_blowup_invariance(generalized_triangles(3), 5)
        assert rep.invariant

    @pytest.mark.parametrize("fam_name", ["k3", "sigma3"])
    def test_blowups_of_free_patterns_stay_free(self, fam_name):
        fam = single_graph(K3) if fam_name == "k3" else generalized_triangles(3)
        patterns = enumerate_rgraphs(4, fam.r, lambda g, _: is_free(g, fam))
        for pat in patterns:
            for sizes in itertools.product(range(1, 4), repeat=pat.n):
                if sum(sizes) > 8:
                    continue
                blown, _ = blowup(pat, sizes)
                assert is_free(blown, fam)


class TestRandomFreeGenerator:
    def test_outputs_are_free(self):
        rng = random.Random(0)
        for fam in (single_graph(K3), generalized_triangles(3)):
            for _ in range(10):
                g = random_free_rgraph(rng, 6, fam)
                assert is_free(g, fam)


# ---------------------------------------------------------------------------
# differential oracles: the three searches as they were before the shared
# engine, kept verbatim apart from their names and return annotations


def _search_order(f: RGraph) -> list[int]:
    return sorted(range(f.n), key=lambda v: (-f.degrees[v], v))


def oracle_contains_subgraph(host: RGraph, pattern: RGraph):
    if host.r != pattern.r:
        raise ValueError(f"uniformity mismatch: host r={host.r}, pattern r={pattern.r}")
    if pattern.n > host.n or len(pattern.edges) > len(host.edges):
        return None
    order = _search_order(pattern)
    pat_adj = pattern.covered_adj
    host_adj = host.covered_adj
    edge_masks = pattern.edge_masks
    phi: dict[int, int] = {}

    def extend(idx: int, used: int) -> bool:
        if idx == len(order):
            return True
        u = order[idx]
        prev = [w for w in order[:idx] if (pat_adj[u] >> w) & 1]
        for v in range(host.n):
            if (used >> v) & 1 or host.degrees[v] < pattern.degrees[u]:
                continue
            if any(not (host_adj[v] >> phi[w]) & 1 for w in prev):
                continue
            phi[u] = v
            ok = True
            placed = used | (1 << v)
            for m in edge_masks:
                if (m >> u) & 1 and all(((1 << w) & m) == 0 or w in phi for w in mask_to_tuple(m)):
                    if mask_of(phi[w] for w in mask_to_tuple(m)) not in host.edge_mask_set:
                        ok = False
                        break
            if ok and extend(idx + 1, placed):
                return True
            del phi[u]
        return False

    return dict(phi) if extend(0, 0) else None


def oracle_has_homomorphism(pattern: RGraph, host: RGraph):
    if host.r != pattern.r:
        raise ValueError(f"uniformity mismatch: host r={host.r}, pattern r={pattern.r}")
    if pattern.edges and not host.edges:
        return None
    order = _search_order(pattern)
    pat_adj = pattern.covered_adj
    host_adj = host.covered_adj
    edge_masks = pattern.edge_masks
    phi: dict[int, int] = {}

    def extend(idx: int) -> bool:
        if idx == len(order):
            return True
        u = order[idx]
        prev = [w for w in order[:idx] if (pat_adj[u] >> w) & 1]
        for v in range(host.n):
            if any(phi[w] == v or not (host_adj[v] >> phi[w]) & 1 for w in prev):
                continue
            phi[u] = v
            ok = True
            for m in edge_masks:
                if (m >> u) & 1 and all(w in phi for w in mask_to_tuple(m)):
                    img = 0
                    for w in mask_to_tuple(m):
                        img |= 1 << phi[w]
                    if img not in host.edge_mask_set:
                        ok = False
                        break
            if ok and extend(idx + 1):
                return True
            del phi[u]
        return False

    if pattern.n > 0 and host.n == 0:
        return None
    return dict(phi) if extend(0) else None


def oracle_find_weak_expansion(host: RGraph, base: RGraph):
    if host.r != base.r:
        raise ValueError(f"uniformity mismatch: host r={host.r}, base r={base.r}")
    pairs = uncovered_pairs(base)
    if base.n > host.n:
        return None
    order = _search_order(base)
    base_adj = base.covered_adj
    unc_adj = [0] * base.n
    for u, v in pairs:
        unc_adj[u] |= 1 << v
        unc_adj[v] |= 1 << u
    host_adj = host.covered_adj
    phi: dict[int, int] = {}

    def connectors_for(embedding: dict[int, int]):
        chosen: dict[tuple[int, int], tuple[int, ...]] = {}
        for u, v in pairs:
            pm = (1 << embedding[u]) | (1 << embedding[v])
            cand = [m for m in host.edge_masks if m & pm == pm]
            if not cand:
                return None
            chosen[u, v] = mask_to_tuple(cand[0])
        return chosen

    def extend(idx: int, used: int):
        if idx == len(order):
            conn = connectors_for(phi)
            if conn is not None:
                return WeakExpansionWitness(dict(phi), conn)
            return None
        u = order[idx]
        prev_cov = [w for w in order[:idx] if (base_adj[u] >> w) & 1]
        prev_unc = [w for w in order[:idx] if (unc_adj[u] >> w) & 1]
        for v in range(host.n):
            if (used >> v) & 1 or host.degrees[v] < base.degrees[u]:
                continue
            if any(not (host_adj[v] >> phi[w]) & 1 for w in prev_cov):
                continue
            if any(not (host_adj[v] >> phi[w]) & 1 for w in prev_unc):
                continue  # uncovered base pairs still need host coverage
            phi[u] = v
            ok = True
            for m in base.edge_masks:
                if (m >> u) & 1 and all(w in phi for w in mask_to_tuple(m)):
                    if mask_of(phi[w] for w in mask_to_tuple(m)) not in host.edge_mask_set:
                        ok = False
                        break
            if ok:
                res = extend(idx + 1, used | (1 << v))
                if res is not None:
                    return res
            del phi[u]
        return None

    return extend(0, 0)


def assert_maps_edges(phi, pattern: RGraph, host: RGraph, injective: bool) -> None:
    assert sorted(phi) == list(range(pattern.n))
    assert all(0 <= v < host.n for v in phi.values())
    if injective:
        assert len(set(phi.values())) == pattern.n
    for e in pattern.edges:
        assert host.has_edge(phi[v] for v in e)


def assert_weak_expansion(out, base: RGraph, host: RGraph) -> None:
    assert_maps_edges(out.embedding, base, host, injective=True)
    pairs = uncovered_pairs(base)
    assert sorted(out.connectors) == list(pairs)
    for (u, v), e in out.connectors.items():
        assert host.has_edge(e) and {out.embedding[u], out.embedding[v]} <= set(e)


K4_3_MINUS = RGraph(3, 4, ((0, 1, 2), (0, 1, 3), (0, 2, 3)))
ENGINE_CASES = {
    # uniformity: (patterns to embed, targets to map hosts into, weak-expansion bases)
    2: (
        (K3, cons.complete_graph(4), cycle(4), cycle(5), path(3)),
        (K3, cycle(5)),
        (path(3), RGraph(2, 3, ())),
    ),
    3: (
        (K4_3_MINUS, RGraph(3, 4, ((0, 1, 2), (1, 2, 3)))),
        (K4_3_MINUS,),
        (RGraph(3, 4, ((0, 1, 2),)), K4_3_MINUS),
    ),
}


def _engine_against_oracles(hosts, r) -> None:
    patterns, targets, bases = ENGINE_CASES[r]
    for host in hosts:
        for f in patterns:
            phi = contains_subgraph(host, f)
            assert (phi is None) == (oracle_contains_subgraph(host, f) is None)
            if phi is not None:
                assert_maps_edges(phi, f, host, injective=True)
            phi = has_homomorphism(f, host)
            assert (phi is None) == (oracle_has_homomorphism(f, host) is None)
            if phi is not None:
                assert_maps_edges(phi, f, host, injective=False)
        for t in targets:
            phi = has_homomorphism(host, t)
            assert (phi is None) == (oracle_has_homomorphism(host, t) is None)
            if phi is not None:
                assert_maps_edges(phi, host, t, injective=False)
        for base in bases:
            out = find_weak_expansion(host, base)
            old = oracle_find_weak_expansion(host, base)
            assert (out is None) == (old is None)
            if out is not None:
                assert_weak_expansion(out, base, host)


def test_engine_matches_oracles_on_all_graphs(all_graphs_upto_7):
    _engine_against_oracles([g for n in all_graphs_upto_7 for g in all_graphs_upto_7[n]], 2)


def test_engine_matches_oracles_on_all_3graphs(all_3graphs_upto_6):
    _engine_against_oracles([g for n in all_3graphs_upto_6 for g in all_3graphs_upto_6[n]], 3)


def test_engine_on_random_larger_hosts():
    # hosts past the enumerable range, where the candidate masks do the work
    rng = random.Random(11)
    for _ in range(40):
        host = random_rgraph(rng, rng.randint(8, 11), 2, rng.choice([0.3, 0.5]))
        for f in ENGINE_CASES[2][0]:
            assert (contains_subgraph(host, f) is None) == (
                oracle_contains_subgraph(host, f) is None
            )


# Every family-free graph on exactly n vertices: with isolated vertices these
# are also all the smaller free graphs, as no member below has an isolated
# vertex.  K4 minus an edge, the path P4 and the tight path on five vertices
# have more than one edge orbit, so the rooted search must try several roots.
ROOTED_FAMILIES = {
    "k3": (single_graph(K3), 7),
    "k4": (single_graph(cons.complete_graph(4)), 7),
    "sigma3": (generalized_triangles(3), 7),
    "cancellative3": (cancellative_family(3), 7),
    "k4-minus-edge": (single_graph(RGraph(2, 4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)))), 7),
    "p4": (single_graph(path(4)), 7),
    "tight-path3": (single_graph(RGraph(3, 5, ((0, 1, 2), (1, 2, 3), (2, 3, 4)))), 6),
}


@pytest.mark.parametrize("name", sorted(ROOTED_FAMILIES))
def test_rooted_freeness_matches_full(name):
    fam, n = ROOTED_FAMILIES[name]
    r = fam.r
    checked = 0
    for g in enumerate_rgraphs(n, r, lambda h, _: is_free(h, fam)):
        for e in itertools.combinations(range(n), r):
            if g.has_edge(e):
                continue
            h = RGraph(r, n, g.edges + (e,))
            assert is_free(h, fam, through=mask_of(e)) == is_free(h, fam)
            checked += 1
    assert checked > 0


def test_rooted_search_only_finds_copies_through_the_edge():
    host = cons.complete_graph(5)
    assert contains_subgraph(host, K3, through=mask_of((0, 1))) is not None
    phi = contains_subgraph(host, K3, through=mask_of((3, 4)))
    assert {3, 4} <= set(phi.values())
    with pytest.raises(ValueError):
        contains_subgraph(cycle(5), K3, through=mask_of((0, 2)))
    # every family kind rejects a ``through`` that is not an edge
    with pytest.raises(ValueError):
        is_free(T3, generalized_triangles(3), through=mask_of((0, 1, 4)))
    with pytest.raises(ValueError):
        is_free(cycle(5), weak_expansions(path(3)), through=mask_of((0, 2)))


def test_free_representatives_caches_one_entry_per_request():
    """However the gates are written (left out, by keyword, positionally, or
    below 0), an equal request is one cache entry."""
    import extremal.morphism as morphism

    sigma3 = generalized_triangles(3)
    morphism._free_representatives.cache_clear()
    first = morphism.free_representatives(6, sigma3)
    assert morphism.free_representatives(6, sigma3, min_degree=0) is first
    assert morphism.free_representatives(6, sigma3, 0, 0) is first
    assert morphism.free_representatives(6, sigma3, min_edges=0, min_degree=0) is first
    info = morphism._free_representatives.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    assert morphism.free_representatives(6, sigma3, min_degree=-2, min_edges=-1) is first
    assert morphism._free_representatives.cache_info().misses == 1
