"""Multilinear edge polynomials over the probability simplex.

``evaluate`` and ``gradient`` treat the edge polynomial as a function on all
of R^m (finite-difference oracles need off-simplex points); the simplex
constraint is enforced where it belongs, at ``SimplexPoint`` construction and
inside ``maximize``.  Exact arithmetic is used automatically when the input
weights are Fractions or ints, which is how the blowup identity is checked
without tolerances.

The maximizer is honest about its limits: for at most ``SUPPORT_LIMIT``
vertices (or more, when asked for ``all_supports``) it enumerates the supports
in which every pair of vertices lies in an edge inside the support
(Frankl–Rödl) and runs a projected-gradient ascent on each (certificate gap 0
when every inner problem converged), beyond that it falls back to seeded
multistart ascent and reports the complete-graph value as the remaining gap.
An ascent that has not converged after ``DROP_AFTER`` steps drops its
vanishing coordinates (weight below ``DROP_WEIGHT``, partial at most the mean)
each step, so it reaches an optimum on a face instead of crawling towards it;
ascents that stop sooner are untouched (see ``_ascent``).
One call refuses past ``CAPS["support subsets"]`` or ``CAPS["ascent steps"]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, inf, isfinite, prod, sqrt
from typing import Sequence

import numpy as np

from .errors import Meter
from .rgraph import RGraph, mask_to_tuple

SIMPLEX_TOL = 1e-12
ASCENT_TOL = 1e-10  # the ascent stops once its projected gradient is this short
ASCENT_MAX_ITER = 10_000
DROP_AFTER = 200  # steps; past them a stalled ascent drops its vanishing coordinates
DROP_WEIGHT = 1e-2  # below 1/64, so a drop never empties the support
SUPPORT_LIMIT = 12  # vertices; past it maximize runs multistart ascent instead


@dataclass(frozen=True)
class SimplexPoint:
    """Nonnegative weights summing to 1 within 1e-12."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not all(0 <= w < inf for w in self.weights):  # False for NaN too
            raise ValueError("simplex weights must be finite and nonnegative")
        if abs(sum(self.weights) - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"weights sum to {sum(self.weights)!r}, not 1")


@dataclass(frozen=True)
class LagrangianResult:
    value: float
    maximizer: SimplexPoint
    method: str  # "support-enumeration" | "multistart-ascent"
    gap: float
    converged: bool


def _weights(x) -> Sequence:
    if isinstance(x, SimplexPoint):
        return x.weights
    return x


def _is_exact(seq) -> bool:
    return all(isinstance(w, (int, Fraction)) for w in seq)


@lru_cache(maxsize=4096)
def _edge_array(g: RGraph) -> np.ndarray:
    return np.array(g.edges, dtype=np.intp).reshape(len(g.edges), g.r)


def _poly(E: np.ndarray, x: np.ndarray) -> float:
    """The float edge polynomial over an ``(m, r)`` edge array (0.0 for m = 0)."""
    return float(np.multiply.reduce(x[E], axis=1).sum())


def _poly_grad(E: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Its gradient: each edge adds the product of its other weights to each
    of its vertices, from prefix and suffix products (no division by zero).
    ``bincount`` sums the terms in edge order, as ``np.add.at`` did."""
    P = x[E]
    left = np.empty_like(P)
    left[:, 0] = 1.0
    np.multiply.accumulate(P[:, :-1], axis=1, out=left[:, 1:])
    right = np.empty_like(P)
    right[:, -1] = 1.0
    np.multiply.accumulate(P[:, :0:-1], axis=1, out=right[:, -2::-1])
    return np.bincount(E.ravel(), (left * right).ravel(), len(x))


def evaluate(g: RGraph, x) -> float | Fraction:
    """The edge polynomial: sum over edges of the product of vertex weights.

    Exact (Fraction) arithmetic when all weights are exact, floats otherwise.
    """
    w = _weights(x)
    if len(w) != g.n:
        raise ValueError(f"need {g.n} weights, got {len(w)}")
    if _is_exact(w):
        return sum((prod(Fraction(w[v]) for v in e) for e in g.edges), Fraction(0))
    return _poly(_edge_array(g), np.asarray(w, dtype=float))


def gradient(g: RGraph, x) -> np.ndarray | tuple:
    """Per-vertex partials; component i is the link polynomial of vertex i."""
    w = _weights(x)
    if len(w) != g.n:
        raise ValueError(f"need {g.n} weights, got {len(w)}")
    if _is_exact(w):
        out = [Fraction(0)] * g.n
        for e in g.edges:
            vals = [Fraction(w[v]) for v in e]
            for i, v in enumerate(e):
                out[v] += prod(vals[:i] + vals[i + 1 :])
        return tuple(out)
    return _poly_grad(_edge_array(g), np.asarray(w, dtype=float))


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the standard simplex (sort-based: Held, Wolfe
    and Crowder 1974; Duchi et al. 2008).

    One pass over the entries in decreasing order keeps the running sum s and,
    at position i (from 1), the cut c_i = (s - 1)/i; the last cut below its
    entry is subtracted.  The pass is in Python floats, since numpy's call
    overhead dominates on the 5-20 entries the ascent projects.  It gives the
    same bits as ``np.cumsum`` over ``-np.sort(-v)`` divided by ``np.arange``:
    cumsum adds in the same order, an int divisor is exact as a double, and
    the same last index is picked (the order of equal entries changes neither
    the sums nor the cut; a zero sum of either sign gives s - 1 = -1).

    In exact arithmetic position 1 always qualifies.  In floats it fails only
    when ``a_1 - 1.0`` rounds back to ``a_1``, which needs |a_1| > 2^53; if no
    position qualifies the uniform point is returned, so ``[1e17, 0]`` gives
    ``[0.5, 0.5]``, not ``[1, 0]``.  A non-finite entry, or a sum that overflows, raises
    ``ValueError``.
    """
    s = 0.0
    cut = None
    for i, a in enumerate(sorted(v.tolist(), reverse=True), 1):
        s += a
        c = (s - 1.0) / i
        if a > c:
            cut = c
    if not isfinite(s):
        raise ValueError("cannot project a vector with a non-finite entry or sum")
    if cut is None:
        return np.full(len(v), 1.0 / len(v))
    return np.maximum(v - cut, 0.0)


def lambda_complete(m: int, r: int) -> Fraction:
    """Exact simplex maximum of the complete r-graph polynomial: C(m,r)/m^r."""
    if m < r or r < 2:
        raise ValueError(f"need m >= r >= 2, got m={m}, r={r}")
    return Fraction(comb(m, r), m**r)


def _check_on_simplex(x: Sequence) -> None:
    if not all(-1e-9 <= w < inf for w in x) or abs(sum(x) - 1.0) > 1e-9:
        raise ValueError("point is not on the simplex")


def maclaurin_residual(m: int, r: int, x) -> float:
    """Slack of the complete-graph bound
    ``L + C(m,r)/(m^(r-1)(m-1)) * sum (x_i - 1/m)^2 <= C(m,r)/m^r``;
    nonnegative up to rounding, zero at the uniform point and at unit vectors.
    """
    if m < r or r < 2 or m < 2:
        raise ValueError(f"need m >= r >= 2, got m={m}, r={r}")
    w = _weights(x)
    if len(w) != m:
        raise ValueError(f"need {m} weights, got {len(w)}")
    _check_on_simplex(w)
    from .constructions import complete_rgraph

    val = evaluate(complete_rgraph(m, r), [float(t) for t in w])
    coef = comb(m, r) / (m ** (r - 1) * (m - 1))
    spread = sum((float(t) - 1.0 / m) ** 2 for t in w)
    return comb(m, r) / m**r - val - coef * spread


def semibipartite_residual(r: int, x: float) -> float:
    """Slack of the one-variable semibipartite density bound; nonnegative on
    [0, 1] with equality at x = 1/r and x = 1."""
    if r < 2:
        raise ValueError("need r >= 2")
    if not -1e-12 <= x <= 1 + 1e-12:
        raise ValueError("x must lie in [0, 1]")
    lhs = x * (1 - x) ** (r - 1) / factorial(r - 1)
    lhs += (1 - 1 / r) ** (r - 3) * (x - 1 / r) ** 2 / factorial(r)
    rhs = (1 - 1 / r) ** (r - 1) / factorial(r)
    return rhs - lhs


# ---------------------------------------------------------------------------
# maximization


def _ascent(E: np.ndarray, x0: np.ndarray, meter: Meter) -> tuple[np.ndarray, float, bool]:
    """Projected-gradient ascent from ``x0``; its gradient steps tick ``meter``
    once it stops.

    Face dropping: once more than ``DROP_AFTER`` steps have passed without
    convergence, each step zeroes every free coordinate below ``DROP_WEIGHT``
    whose partial is at most the mean ``mu`` on the free set, renormalizes and
    goes on to the next step.  Without it an optimum on a face where such a
    partial ties the mean is only crawled towards: on the 5-vertex 3-graph of
    every triple through 0, plus 123, the full-support ascent runs to
    ``ASCENT_MAX_ITER``.  The stopping test
    is unchanged, so ``converged`` is still a first-order point of the whole
    support, and a dropped coordinate whose partial exceeds the mean returns
    through the projection.  The gate keeps every ascent that stops within
    ``DROP_AFTER`` steps bit for bit as it was, and spares them the extra
    array operations."""
    x = x0.copy()
    fx = _poly(E, x)
    converged = False
    for steps in range(1, ASCENT_MAX_ITER + 1):
        g = _poly_grad(E, x)
        free = x > 1e-14
        gf = g[free]
        mu = gf.sum() / gf.size if gf.size else 0.0
        resid = np.where(free, g - mu, np.maximum(g - mu, 0.0))
        if sqrt(resid @ resid) <= ASCENT_TOL:
            converged = True
            break
        if steps > DROP_AFTER:
            drop = free & (x < DROP_WEIGHT) & (g <= mu)
            if drop.any():
                x = np.where(drop, 0.0, x)
                x /= x.sum()
                fx = _poly(E, x)
                continue
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
            converged = True  # no ascent direction left at working precision
            break
    meter.tick(steps)
    return x, fx, converged


def maximize(
    g: RGraph,
    *,
    restarts: int = 64,
    seed: int = 0,
    all_supports: bool = False,
) -> LagrangianResult:
    """Best simplex value found for the edge polynomial of ``g``.

    The uniform point and all unit vectors are always evaluated, so the result
    dominates both.  Support enumeration ascends only the supports S in which
    every pair of vertices lies in a common edge inside S, in increasing mask
    order.  This loses nothing (Frankl and Rödl, *Hypergraphs do not jump*,
    Combinatorica 4, 1984; for 2-graphs these supports are the cliques of
    Motzkin and Straus, 1965).  Take an optimum x with minimal support S and
    suppose i, j in S share no edge inside S.  No term of the polynomial then
    holds both x_i and x_j, so it is linear along x + t(e_i - e_j), and moving
    all of x_j onto i (or all of x_i onto j) loses no value.  The support
    shrinks, against minimality.  So some optimum has a pair-covered support,
    and the ascent on that support, started at its uniform point, looks for it.

    Support enumeration runs when ``g`` has at most ``SUPPORT_LIMIT`` vertices
    or ``all_supports`` is set; it passes over all ``2^m - 1`` nonempty vertex
    subsets of ``g``, which count against ``CAPS["support subsets"]`` before
    the walk starts.  Otherwise ``restarts`` seeded ascents start from random
    points, and the gap is the distance from the best value to the
    complete-graph value; ``restarts`` below 1 raises ``ValueError``.  The
    gradient steps of every ascent count against ``CAPS["ascent steps"]``;
    past either cap the call raises ``BudgetError``.
    """
    m = g.n
    if m < 1:
        raise ValueError("maximize needs at least one vertex")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    meter = Meter("ascent steps")
    edges = [(mk, mask_to_tuple(mk)) for mk in g.edge_masks]

    best_x = np.full(m, 1.0 / m)
    best_val = float(evaluate(g, best_x))
    all_converged = True
    for v in range(m):
        unit = np.zeros(m)
        unit[v] = 1.0
        uv = float(evaluate(g, unit))
        if uv > best_val:
            best_val, best_x = uv, unit

    if all_supports or m <= SUPPORT_LIMIT:
        method = "support-enumeration"
        Meter("support subsets").tick((1 << m) - 1)
        for support in range(1, 1 << m):
            inside = [(mk, vs) for mk, vs in edges if mk & ~support == 0]
            if not inside:
                continue
            # reach[v]: the union of the edges inside the support through v
            reach = [0] * m
            for mk, vs in inside:
                for v in vs:
                    reach[v] |= mk
            verts = mask_to_tuple(support)
            if any(reach[v] != support for v in verts):
                continue
            pos = {v: i for i, v in enumerate(verts)}
            k = len(verts)
            E = np.array([[pos[v] for v in vs] for _, vs in inside], dtype=np.intp)
            x0 = np.full(k, 1.0 / k)
            x, fx, conv = _ascent(E, x0, meter)
            all_converged = all_converged and conv
            if fx > best_val:
                full = np.zeros(m)
                full[list(verts)] = x
                best_val, best_x = fx, full
        gap = 0.0 if all_converged else max(0.0, comb(m, g.r) / m**g.r - best_val)
    else:
        method = "multistart-ascent"
        rng = np.random.default_rng(seed)
        E = _edge_array(g)
        for _ in range(restarts):
            x0 = rng.dirichlet(np.ones(m))
            x, fx, conv = _ascent(E, x0, meter)
            all_converged = all_converged and conv
            if fx > best_val:
                best_val, best_x = fx, x
        gap = max(0.0, comb(m, g.r) / m**g.r - best_val)

    best_x = project_to_simplex(best_x)
    point = SimplexPoint(tuple(float(t) for t in best_x))
    return LagrangianResult(float(evaluate(g, point)), point, method, gap, all_converged)

