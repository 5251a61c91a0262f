import itertools
import random
from fractions import Fraction
from math import comb, sqrt

import numpy as np
import pytest

from extremal import constructions as cons
from extremal import errors, lagrangian
from extremal.errors import BudgetError, Meter
from extremal.isomorphism import canonical_form
from extremal.lagrangian import (
    SimplexPoint,
    _ascent,
    _poly,
    _poly_grad,
    evaluate,
    gradient,
    lambda_complete,
    maclaurin_residual,
    maximize,
    project_to_simplex,
    semibipartite_residual,
)
from extremal.rgraph import RGraph

from conftest import random_rgraph


class TestSimplexPoint:
    def test_valid(self):
        SimplexPoint((0.5, 0.5))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SimplexPoint((-0.1, 1.1))

    def test_rejects_off_sum(self):
        with pytest.raises(ValueError):
            SimplexPoint((0.5, 0.4))

    def test_rejects_non_finite(self):
        # NaN fails every comparison, so a check written as "reject if w < 0"
        # lets it through
        nan, inf = float("nan"), float("inf")
        for weights in [(nan,), (nan, 1.0), (inf,), (1.0, inf), (inf, -inf), (0.0, nan, 1.0)]:
            with pytest.raises(ValueError):
                SimplexPoint(weights)
            w = weights if len(weights) > 1 else weights + (0.0,)
            with pytest.raises(ValueError):
                maclaurin_residual(len(w), 2, w)  # through _check_on_simplex


class TestEvaluate:
    def test_k3_uniform(self):
        assert evaluate(cons.complete_graph(3), [1 / 3] * 3) == pytest.approx(1 / 3, abs=1e-15)

    def test_single_edge_uniform(self):
        h = RGraph(3, 3, ((0, 1, 2),))
        assert evaluate(h, [1 / 3] * 3) == pytest.approx((1 / 3) ** 3, abs=1e-15)

    def test_exact_fractions(self):
        val = evaluate(cons.complete_graph(3), [Fraction(1, 3)] * 3)
        assert val == Fraction(1, 3)

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            evaluate(cons.complete_graph(3), [0.5, 0.5])

    def test_float_matches_exact(self):
        # edgeless graphs included: the float kernels get an empty edge array
        rng = random.Random(5)
        for _ in range(60):
            r = rng.choice([2, 3])
            n = rng.randint(1, 7)
            h = random_rgraph(rng, n, r, rng.choice([0.0, 0.3, 0.7]))
            exact = [Fraction(rng.randint(0, 9), 9) for _ in range(n)]
            approx = [float(w) for w in exact]
            value = evaluate(h, exact)
            assert isinstance(value, Fraction)
            assert evaluate(h, approx) == pytest.approx(float(value), abs=1e-12)
            grads = gradient(h, approx)
            assert grads.shape == (n,)
            assert np.allclose(grads, [float(d) for d in gradient(h, exact)], atol=1e-12)
            if not h.edges:
                assert value == 0 and evaluate(h, approx) == 0.0 and not grads.any()


class TestGradient:
    def test_k3_example(self):
        g = gradient(cons.complete_graph(3), [0.5, 0.5, 0.0])
        assert np.allclose(g, [0.5, 0.5, 1.0])

    def test_matches_link_polynomial(self):
        from extremal.rgraph import link

        rng = random.Random(1)
        for _ in range(10):
            h = random_rgraph(rng, 6, 3, 0.5)
            x = np.random.default_rng(1).dirichlet(np.ones(6))
            grads = gradient(h, x)
            for v in range(6):
                assert grads[v] == pytest.approx(evaluate(link(h, v), x), abs=1e-12)

    def test_central_differences(self):
        rng = random.Random(2)
        gen = np.random.default_rng(2)
        for _ in range(25):
            r = rng.choice([2, 3])
            n = rng.randint(r, 6)
            h = random_rgraph(rng, n, r, 0.5)
            x = gen.dirichlet(np.ones(n))
            grads = gradient(h, x)
            eps = 1e-6
            for v in range(n):
                hi = x.copy(); hi[v] += eps
                lo = x.copy(); lo[v] -= eps
                fd = (evaluate(h, hi) - evaluate(h, lo)) / (2 * eps)
                assert abs(grads[v] - fd) <= 1e-6


def _add_at_poly_grad(E, x):
    """The gradient kernel as first written, summing with ``np.add.at``."""
    P = x[E]
    left = np.ones_like(P)
    left[:, 1:] = np.cumprod(P[:, :-1], axis=1)
    right = np.ones_like(P)
    right[:, :-1] = np.cumprod(P[:, :0:-1], axis=1)[:, ::-1]
    grad = np.zeros(len(x))
    np.add.at(grad, E, left * right)
    return grad


def _loop_projection(v):
    """The simplex projection as first written, finding the cut by a loop."""
    a = -np.sort(-v)
    cut = (np.cumsum(a) - 1.0) / np.arange(1, len(v) + 1)
    for k in range(len(v) - 1, -1, -1):
        if a[k] > cut[k]:
            return np.maximum(v - cut[k], 0.0)
    return np.full(len(v), 1.0 / len(v))


def _ascent_cases(all_graphs_upto_7, all_3graphs_upto_6):
    """(graph or None, edge array, start) for every ascent that ``maximize``
    runs on the graphs of TestPairCoveredSupports, then seeded Dirichlet
    starts on random 2- and 3-graphs with 13-16 vertices (graph None)."""
    graphs = [g for n in range(1, 7) for g in all_graphs_upto_7[n]]
    graphs += [g for n in range(1, 6) for g in all_3graphs_upto_6[n]]
    cases = []
    real_ascent = lagrangian._ascent
    g = None

    def record(E, x0, meter):
        cases.append((g, E, x0))
        return real_ascent(E, x0, meter)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lagrangian, "_ascent", record)
        for g in graphs:
            maximize(g)
    rng = random.Random(11)
    gen = np.random.default_rng(11)
    for m in range(13, 17):
        for r in (2, 3):
            E = np.array(random_rgraph(rng, m, r, 0.5).edges, dtype=np.intp)
            cases.append((None, E, gen.dirichlet(np.ones(m))))
    return cases


class TestKernelBits:
    """The kernels return the same bits as the references they replaced, so
    multistart ascents (and their payloads) are unchanged by the rewrite."""

    @staticmethod
    def points(seed):
        """(edge array, point) pairs for r = 2, 3, 4, with zero weights and ties."""
        rng = np.random.default_rng(seed)
        for r in (2, 3, 4):
            for m in range(r, 9):
                pool = list(itertools.combinations(range(m), r))
                for _ in range(15):
                    edges = [e for e in pool if rng.random() < 0.5] or pool[:1]
                    x = rng.dirichlet(np.ones(m))
                    x[rng.random(m) < 0.3] = 0.0
                    x[rng.random(m) < 0.3] = x[-1]
                    yield np.array(edges, dtype=np.intp), x

    def test_poly_and_gradient_match_references(self):
        for E, x in self.points(8):
            assert _poly(E, x) == float(np.prod(x[E], axis=1).sum())
            assert np.array_equal(_poly_grad(E, x), _add_at_poly_grad(E, x))

    @staticmethod
    def multistart_vectors(seed):
        """Vectors with 9-20 entries, the sizes multistart ascents project:
        ascent-like points, quarter-grid ties and signed zeros."""
        rng = np.random.default_rng(seed)
        for k in range(9, 21):
            for _ in range(40):
                x = rng.dirichlet(np.ones(k))
                yield x + rng.normal(scale=0.1, size=k)
                yield np.round(4 * rng.normal(size=k)) / 4
                yield rng.choice([0.0, -0.0, 0.25, -0.25, 1.0, 1 / 3], size=k)

    def test_projection_matches_loop(self):
        # tobytes, not array_equal, which takes -0.0 for 0.0
        rng = np.random.default_rng(9)
        for E, x in self.points(9):
            g = _poly_grad(E, x)
            zeros = np.where(rng.random(len(x)) < 0.5, 0.0, -0.0)
            for v in (x + g, x + 0.5 * g, x - g, np.round(4 * rng.normal(size=len(x))) / 4, zeros):
                assert project_to_simplex(v).tobytes() == _loop_projection(v).tobytes(), v
        for v in self.multistart_vectors(10):
            assert project_to_simplex(v).tobytes() == _loop_projection(v).tobytes(), v

    def test_ascent_matches_loop_projection(self, all_graphs_upto_7, all_3graphs_upto_6, monkeypatch):
        """``_ascent`` with the loop projection patched in returns the same
        bits: on every pair-covered support that ``maximize`` ascends for the
        graphs of TestPairCoveredSupports, and from seeded Dirichlet starts on
        random graphs with 13-16 vertices."""
        cases = [(E, x0) for _, E, x0 in _ascent_cases(all_graphs_upto_7, all_3graphs_upto_6)]
        expected = [_ascent(E, x0, Meter("ascent steps")) for E, x0 in cases]
        calls = 0

        def loop_projection(v):
            nonlocal calls
            calls += 1
            return _loop_projection(v)

        monkeypatch.setattr(lagrangian, "project_to_simplex", loop_projection)
        for (E, x0), (x, fx, conv) in zip(cases, expected):
            x_loop, fx_loop, conv_loop = _ascent(E, x0, Meter("ascent steps"))
            assert x.tobytes() == x_loop.tobytes(), E.tolist()
            assert (fx, conv) == (fx_loop, conv_loop), E.tolist()
        assert calls > len(cases)  # the ascent looks the projection up as a module global


class TestProjection:
    def test_already_on_simplex(self):
        x = np.array([0.2, 0.3, 0.5])
        assert np.allclose(project_to_simplex(x), x)

    def test_clips_negative(self):
        p = project_to_simplex(np.array([1.5, -0.5]))
        assert p[1] == 0.0 and abs(p.sum() - 1) < 1e-12

    def test_rejects_non_finite(self):
        for v in ([np.inf, 0.0], [np.nan, 0.5], [-np.inf, 1.0], [1e308, 1e308]):
            with pytest.raises(ValueError):
                project_to_simplex(np.array(v))

    def test_huge_entry_falls_back_to_uniform(self):
        # 1e17 - 1.0 rounds to 1e17, so no cut lies below its entry and the
        # uniform point comes back in place of the projection (1, 0)
        p = project_to_simplex(np.array([1e17, 0.0]))
        assert p.tobytes() == np.array([0.5, 0.5]).tobytes()


# every triple through vertex 0, plus 123: the one class of 3-graphs on 5
# vertices whose full-support ascent ran to ASCENT_MAX_ITER before face dropping
CAPPED = ((0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 4), (0, 3, 4), (1, 2, 3))


class TestMaximize:
    def test_complete_graphs(self):
        for m in range(2, 9):
            for r in range(2, m + 1):
                res = maximize(cons.complete_rgraph(m, r))
                assert abs(res.value - float(lambda_complete(m, r))) <= 1e-9

    def test_matching(self):
        res = maximize(cons.matching(3, 2))
        assert abs(res.value - 1 / 27) <= 1e-9
        assert res.method == "support-enumeration"
        assert res.gap == 0.0

    def test_edgeless(self):
        res = maximize(RGraph(3, 4, ()))
        assert res.value == 0.0

    def test_edgeless_multistart(self):
        # 13 vertices is past the support limit: every start ascends a zero polynomial
        res = maximize(RGraph(2, 13, ()), restarts=4)
        assert res.method == "multistart-ascent"
        assert res.value == 0.0 and res.converged
        assert res.gap == 6 / 13  # C(13, 2) / 13^2 - 0

    def test_value_matches_maximizer(self):
        res = maximize(cons.turan_rgraph(6, 3, 3))
        assert res.value == evaluate(cons.turan_rgraph(6, 3, 3), res.maximizer)

    def test_dominates_random_points(self):
        rng = np.random.default_rng(3)
        h = cons.turan_rgraph(6, 3, 3)
        res = maximize(h)
        for _ in range(100):
            x = rng.dirichlet(np.ones(6))
            assert res.value >= evaluate(h, x) - 1e-9

    def test_monotone_in_edges(self):
        rng = random.Random(4)
        for _ in range(10):
            small = random_rgraph(rng, 5, 2, 0.3)
            pool = [e for e in itertools.combinations(range(5), 2) if e not in small.edges]
            extra = tuple(e for e in pool if rng.random() < 0.5)
            big = RGraph(2, 5, small.edges + extra)
            assert maximize(small).value <= maximize(big).value + 1e-9

    def test_all_supports_refused_past_the_budget(self, monkeypatch):
        monkeypatch.setitem(errors.CAPS, "support subsets", 2**3 - 1)
        assert maximize(cons.complete_graph(3), all_supports=True).gap == 0
        with pytest.raises(BudgetError, match="15 support subsets past the cap of 7"):
            maximize(cons.complete_graph(4), all_supports=True)
        # below SUPPORT_LIMIT the walk runs unasked, and it counts all the same
        with pytest.raises(BudgetError, match="15 support subsets"):
            maximize(cons.complete_graph(4))

    def test_ascent_steps_refused_past_the_budget(self, monkeypatch):
        # the ascent on the support {0..4} stalls towards the face x_4 = 0 and
        # reaches it by face dropping; all ascents on this graph take 337 steps
        g = RGraph(3, 5, CAPPED)
        res = maximize(g)
        assert res.converged and res.gap == 0.0
        monkeypatch.setitem(errors.CAPS, "ascent steps", 300)
        with pytest.raises(BudgetError, match="337 ascent steps past the cap of 300"):
            maximize(g)

    @pytest.mark.parametrize("restarts", [0, -5])
    def test_restarts_below_one_refused(self, restarts):
        # 13 vertices run multistart ascent, which would report that no
        # ascent failed to converge although none ran
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            maximize(cons.turan_graph(13, 3), restarts=restarts)

    def test_multistart_path(self):
        g, _ = __import__("extremal.rgraph", fromlist=["blowup"]).blowup(
            cons.complete_graph(3), [5, 5, 3]
        )
        res = maximize(g, seed=1)
        assert res.method == "multistart-ascent"
        assert res.value <= float(lambda_complete(13, 2))
        assert abs(res.value - 1 / 3) <= 1e-6  # blowup of K3 keeps its value


def _reference_ascent(E, x0, meter):
    """``_ascent`` as it was before face dropping, kept as the oracle: plain
    projected gradient with a backtracking line search; its steps tick
    ``meter``."""
    x = x0.copy()
    fx = _poly(E, x)
    converged = False
    for steps in range(1, lagrangian.ASCENT_MAX_ITER + 1):
        g = _poly_grad(E, x)
        free = x > 1e-14
        gf = g[free]
        mu = gf.sum() / gf.size if gf.size else 0.0
        resid = np.where(free, g - mu, np.maximum(g - mu, 0.0))
        if sqrt(resid @ resid) <= lagrangian.ASCENT_TOL:
            converged = True
            break
        t = 1.0
        moved = False
        while t > 1e-16:
            xn = project_to_simplex(x + t * g)
            fn = _poly(E, xn)
            if fn > fx and fn >= fx + 1e-4 * float(g @ (xn - x)):
                x, fx = xn, fn
                moved = True
                break
            t *= 0.5
        if not moved:
            converged = True
            break
    meter.tick(steps)
    return x, fx, converged


def _every_support_maximize(g):
    """The oracle for support enumeration: the uniform point, the unit vectors
    and an ascent on every support that contains an edge, pair-covered or not,
    read out as ``maximize`` reads out its best point."""
    m = g.n
    best_x = np.full(m, 1.0 / m)
    best_val = float(evaluate(g, best_x))
    for v in range(m):
        unit = np.zeros(m)
        unit[v] = 1.0
        uv = float(evaluate(g, unit))
        if uv > best_val:
            best_val, best_x = uv, unit
    converged = True
    for support in range(1, 1 << m):
        verts = [v for v in range(m) if support >> v & 1]
        pos = {v: i for i, v in enumerate(verts)}
        inside = [[pos[v] for v in e] for e in g.edges if all(support >> v & 1 for v in e)]
        if not inside:
            continue
        x0 = np.full(len(verts), 1.0 / len(verts))
        x, fx, conv = _reference_ascent(np.array(inside, dtype=np.intp), x0, Meter("ascent steps"))
        converged = converged and conv
        if fx > best_val:
            best_val, best_x = fx, np.zeros(m)
            best_x[verts] = x
    gap = 0.0 if converged else max(0.0, comb(m, g.r) / m**g.r - best_val)
    point = SimplexPoint(tuple(float(t) for t in project_to_simplex(best_x)))
    return float(evaluate(g, point)), converged, gap


def _clique_number(g):
    return max(
        k
        for k in range(1, g.n + 1)
        for c in itertools.combinations(range(g.n), k)
        if all(p in g.edges for p in itertools.combinations(c, 2))
    )


class TestPairCoveredSupports:
    def test_against_every_support(self, all_graphs_upto_7, all_3graphs_upto_6):
        """Ascending only the pair-covered supports gives what ascending every
        support with an edge by the reference ascent gives, on every class of
        2-graphs with at most 6 vertices and of 3-graphs with at most 5; for
        2-graphs that is the Motzkin-Straus value (1 - 1/omega)/2.  The
        reference ascent converges everywhere but on the capped class, whose
        optimum face dropping reaches exactly."""
        cases = [g for n in range(1, 7) for g in all_graphs_upto_7[n]]
        cases += [g for n in range(1, 6) for g in all_3graphs_upto_6[n]]
        assert len(cases) == (1 + 2 + 4 + 11 + 34 + 156) + (1 + 1 + 2 + 5 + 34)
        unconverged = []
        for g in cases:
            res = maximize(g)
            value, converged, gap = _every_support_maximize(g)
            assert abs(res.value - value) <= 1e-12, g.edges
            assert (res.converged, res.gap) == (True, 0.0), g.edges
            assert res.method == "support-enumeration"
            if not converged:
                unconverged.append(g)
            if g.r == 2:
                motzkin_straus = (1 - 1 / _clique_number(g)) / 2
                assert abs(res.value - motzkin_straus) <= 1e-12, g.edges
        assert [canonical_form(g) for g in unconverged] == [canonical_form(RGraph(3, 5, CAPPED))]


class TestFaceDropping:
    def test_against_reference_ascent(self, all_graphs_upto_7, all_3graphs_upto_6):
        """Every ascent that the reference stops within ``DROP_AFTER`` steps
        gives the same bits with face dropping; the others the same value
        within 1e-12 where the reference converged, and convergence no worse.
        Over the ascents of TestPairCoveredSupports and the random Dirichlet
        starts, only the full-support ascent of the capped class goes from
        unconverged to converged."""
        gated = mended = 0
        for g, E, x0 in _ascent_cases(all_graphs_upto_7, all_3graphs_upto_6):
            ref_meter, meter = Meter("ascent steps"), Meter("ascent steps")
            x_ref, fx_ref, conv_ref = _reference_ascent(E, x0, ref_meter)
            x, fx, conv = _ascent(E, x0, meter)
            if ref_meter.count <= lagrangian.DROP_AFTER:
                assert x.tobytes() == x_ref.tobytes(), E.tolist()
                assert (fx, conv, meter.count) == (fx_ref, conv_ref, ref_meter.count), E.tolist()
                gated += 1
                continue
            assert conv or not conv_ref, E.tolist()
            if conv_ref:
                assert abs(fx - fx_ref) <= 1e-12, E.tolist()
                continue
            # the capped reference stops 1.2e-12 below 1/16, which face dropping reaches
            mended += 1
            assert g is not None and canonical_form(g) == canonical_form(RGraph(3, 5, CAPPED))
            assert fx_ref < fx and abs(fx - 1 / 16) <= 1e-14
        assert mended == 1 and gated > 1000


class TestLambdaComplete:
    def test_values(self):
        assert lambda_complete(3, 2) == Fraction(1, 3)
        assert lambda_complete(4, 3) == Fraction(1, 16)
        assert lambda_complete(2, 2) == Fraction(1, 4)

    def test_range(self):
        with pytest.raises(ValueError):
            lambda_complete(2, 3)


class TestMaclaurin:
    def test_uniform_zero(self):
        assert abs(maclaurin_residual(4, 3, [0.25] * 4)) <= 1e-12

    def test_unit_zero(self):
        assert abs(maclaurin_residual(4, 3, [1.0, 0.0, 0.0, 0.0])) <= 1e-12

    def test_random_sweep(self):
        rng = np.random.default_rng(6)
        for m, r in [(3, 2), (4, 3), (5, 3), (6, 4)]:
            for _ in range(500):
                assert maclaurin_residual(m, r, rng.dirichlet(np.ones(m))) >= -1e-12

    def test_off_simplex_rejected(self):
        with pytest.raises(ValueError):
            maclaurin_residual(3, 2, [0.9, 0.9, 0.9])


class TestSemibipartiteResidual:
    def test_interior_zero(self):
        assert abs(semibipartite_residual(4, 0.25)) <= 1e-12
        # both sides equal 9/512 there
        assert 0.25 * 0.75**3 / 6 == pytest.approx(9 / 512)

    def test_endpoint_zero(self):
        for r in range(2, 9):
            assert abs(semibipartite_residual(r, 1.0)) <= 1e-12
            assert abs(semibipartite_residual(r, 1 / r)) <= 1e-12

    def test_grid_sweep(self):
        for r in range(2, 9):
            for x in np.linspace(0.0, 1.0, 2001):
                assert semibipartite_residual(r, float(x)) >= -1e-12
