"""Value algorithms: n-stage iteration, discounted fixed points, the
vanishing-discount limit with power-law extrapolation, convergence-rate
fitting and operator perturbation checks."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Iterable, Sequence

import numpy as np

from .errors import IterationBudgetError, checked_count
from .game import DiscretizedGame, MatrixGameSolution, _check_hint
from .shapley import ShapleyOperator

__all__ = [
    "value_iteration", "n_stage_series",
    "discounted_value", "DiscountedResult", "discounted_apply",
    "discounted_value_detailed",
    "PowerLawFit", "default_lambda_grid", "vanishing_discount",
    "RateFit", "rate_fit",
    "DeviationCheck", "iterate_deviation_check",
]

INCREMENT_FLOOR = 1e-12
# iteration budget of the discounted fixed point, read at each call
MAX_FIXED_POINT_ITERATIONS = 10 ** 6


def _n_stage_values(op: ShapleyOperator, horizons: list[int]) -> dict[int, np.ndarray]:
    """The n-stage values v_n = T^n(0) / n at positive ``horizons``, off one
    hinted orbit x_0 = 0, x_{t+1} = Psi(x_t), which stops once every horizon
    has its value.

    Each application comes with per-state gaps g_t, and the exact T(x_t)
    lies within g_t of x_{t+1}.  So with s = x_{t+1} - x_t, lo = min(s - g_t)
    and hi = max(s + g_t), x_t + lo <= T(x_t) <= x_t + hi, and T, monotone
    and additively homogeneous, keeps T^m(x_t) in x_t + m[lo, hi] coordinate
    by coordinate.  T is nonexpansive and x_t is within D_t = sum_{r<t}
    max g_r of T^t(0), so for a horizon n > t + 1 the continuation
    (x_t + (n - t) s) / n of the last step is within
    D_t / n + (n - t) / n * max_k max(s_k - lo, hi - s_k) of the exact v_n.
    Once that bound is within ``op.tol`` (the orbit has settled on an
    invariant half-line, Kohlberg 1980) it is n's value.  Every other
    horizon gets the plain orbit's x_n / n, itself within the mean gap of
    the exact v_n.
    """
    pending = sorted(horizons)
    out = {}
    x, hints, drift = np.zeros(op.dim), None, 0.0
    for t in count():
        nxt, gaps, hints = op.apply_with_gaps(x, hints)
        if pending[0] == t + 1:
            out[pending.pop(0)] = nxt / (t + 1)
        if pending:
            s = nxt - x
            lo, hi = float((s - gaps).min()), float((s + gaps).max())
            width = max(float(s.max()) - lo, hi - float(s.min()))
            for n in pending:
                if drift / n + (n - t) / n * width <= op.tol:
                    out[n] = (x + (n - t) * s) / n
            pending = [n for n in pending if n not in out]
        if not pending:
            return out
        x, drift = nxt, drift + float(gaps.max())


def value_iteration(op: ShapleyOperator, n: int) -> np.ndarray:
    """Value of the n-stage averaged game, within ``op.tol`` of the exact
    T^n(0) / n.

    The hinted orbit of 0 stops at the first step whose certified box
    around v_n is within ``op.tol`` and returns the continuation of that
    step (see :func:`_n_stage_values`); where the box never closes, as
    where the value depends on the initial state, it is the plain orbit:
    n hinted applications to 0, divided by n.
    """
    n = checked_count(n, 1, "n", ValueError)
    return _n_stage_values(op, [n])[n]


def n_stage_series(op: ShapleyOperator, ns: Sequence[int]) -> list[tuple[int, np.ndarray]]:
    """n-stage values at several horizons, in increasing order, off a single
    orbit: each is ``np.array_equal`` to :func:`value_iteration` at its
    horizon, within ``op.tol`` of the exact value, and the plain orbit's
    wherever its box does not close."""
    wanted = {checked_count(n, 1, "n", ValueError) for n in ns}
    if not wanted:
        raise ValueError("need at least one horizon n")
    values = _n_stage_values(op, list(wanted))
    return [(n, values[n]) for n in sorted(wanted)]


@dataclass(frozen=True)
class DiscountedResult:
    value: np.ndarray
    # operator applications, rejected policy-evaluation candidates included
    iterations: int
    error_bound: float  # on the distance to the fixed point, solver slack aside
    # per-state solutions of the final operator application: the hints of
    # a further application near the fixed point
    hints: tuple[MatrixGameSolution, ...]


def discounted_apply(op: ShapleyOperator, lam: float, f: np.ndarray,
                     hints: Sequence[MatrixGameSolution] | None):
    """The discounted map f -> lam * Psi(((1-lam)/lam) f), with the gaps and
    solutions that :meth:`ShapleyOperator.apply_with_gaps` returns."""
    psi, gaps, hints = op.apply_with_gaps(((1.0 - lam) / lam) * f, hints)
    return lam * psi, gaps, hints


def _policy_value(game: DiscretizedGame, lam: float,
                  sols: Sequence[MatrixGameSolution]) -> np.ndarray:
    """lam-discounted value of the stationary profile that plays the
    strategies of ``sols`` in every state: the solution w of
    (I - (1-lam) P) w = lam r, where P_k = sum_ij p_i q_j rho_k[i, j, :]
    and r_k = p g_k q.  P is row-stochastic, so for lam > 0 the matrix is
    strictly diagonally dominant and nonsingular."""
    P = np.array([s.col_strategy @ np.tensordot(s.row_strategy, rho, 1)
                  for s, rho in zip(sols, game.rho)])
    r = np.array([s.row_strategy @ g @ s.col_strategy for s, g in zip(sols, game.g)])
    return np.linalg.solve(np.eye(game.states) - (1.0 - lam) * P, lam * r)


def _checked_profile(op: ShapleyOperator, hints: Sequence[MatrixGameSolution],
                     ) -> Sequence[MatrixGameSolution]:
    """``hints`` if they hold one solution per state of ``op`` whose
    strategies fit that state's payoff matrix; else raises as an
    application with these hints would."""
    hints = op._check_hints(hints)
    for k, (h, g) in enumerate(zip(hints, op.game.g)):
        if h is None:
            raise ValueError(f"no hint for state {k}")
        _check_hint(h, g.shape)
    return hints


def discounted_value_detailed(op: ShapleyOperator, lam: float, eps: float,
                              hints: Sequence[MatrixGameSolution] | None = None,
                              ) -> DiscountedResult:
    """Discounted value, the fixed point of :func:`discounted_apply`, T.

    The iteration starts, if ``hints`` are given, at the exact
    lam-discounted value of the stationary profile that plays them
    (:func:`_policy_value`, one d x d solve), else at 0.  Where
    that profile is still optimal at lam, as the last one of a nearby
    discount usually is (Bewley & Kohlberg 1976), the start is the fixed
    point and one application confirms it.

    T contracts with factor (1 - lam), so at a point x the residual
    ``step = |T(x) - x|`` bounds the distance of T(x) to the fixed point
    by ``step * (1 - lam) / lam``; iteration stops, returning T(x), once
    that bound is at most ``eps``, plus matrix-game solver slack.  At
    ``lam = 1`` the map is constant, so it stops after one application:
    the one-shot value.

    From x the iteration moves to T(x), a contraction step, except where
    the contraction runs near its modulus, that is where the step has
    shrunk by less than (1 - lam)^2 since the previous point.  There it
    tries a policy-evaluation step (Hoffman & Karp 1966): the candidate is
    the exact value of the stationary profile that plays, in every state,
    the solutions of the application at x (:func:`_policy_value`, one
    d x d solve).  The candidate w is kept only if its residual
    |T(w) - w| is below x's; otherwise the iteration steps to T(x) as
    usual.  This safeguard stops policy evaluation cycling on its own
    (Filar & Tolwinski 1991); games whose steps shrink fast never take
    the gate, and their iterates are the plain contraction's.

    ``iterations`` counts operator applications, a rejected candidate's
    included.  ``hints`` are per-state solutions, one per state, that hint
    the first application (see :meth:`ShapleyOperator.apply_with_gaps`);
    each later one is hinted by the application at the point it moves
    from.  Hints that do not fit the game raise ``ValueError`` (a count or
    a missing state) or :class:`MatrixGameError` (a strategy length).  More
    than ``MAX_FIXED_POINT_ITERATIONS`` applications raise
    :class:`IterationBudgetError`.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"discount factor must be in (0, 1], got {lam}")
    if not eps > 0:
        raise ValueError("eps must be positive")
    if hints is not None:
        f = _policy_value(op.game, lam, _checked_profile(op, hints))
    else:
        f = np.zeros(op.dim)
    last = np.inf  # the step at the point f moved from
    fallback = None  # T(x) and its hints while f is a candidate from x
    for it in range(1, MAX_FIXED_POINT_ITERATIONS + 1):
        fn, _, h = discounted_apply(op, lam, f, hints)
        step = float(np.abs(fn - f).max())
        if fallback is not None and step >= last:  # rejected: step to T(x)
            (f, hints), fallback = fallback, None
            continue
        if step * (1.0 - lam) <= eps * lam:
            return DiscountedResult(fn, it, step * (1.0 - lam) / lam, h)
        if step >= (1.0 - lam) ** 2 * last:
            fallback, f = (fn, h), _policy_value(op.game, lam, h)
        else:
            fallback, f = None, fn
        hints, last = h, step
    raise IterationBudgetError(
        f"discounted fixed point at lam={lam} did not reach step "
        f"{eps * lam / (1.0 - lam):.3e} within {MAX_FIXED_POINT_ITERATIONS} iterations")


def discounted_value(op: ShapleyOperator, lam: float, eps: float = 1e-9) -> np.ndarray:
    return discounted_value_detailed(op, lam, eps).value


@dataclass(frozen=True)
class PowerLawFit:
    """Vanishing-discount extrapolation v_lam ~ limit + c * lam^alpha.

    ``residual`` is the worst log-space deviation of the fitted curve from
    the measured sup-norm increments.  Flat curves use the sentinel
    c = 0, alpha = 0.
    """
    limit: np.ndarray
    coefficient: float
    exponent: float
    residual: float

    def __post_init__(self):
        if not 0.0 <= self.exponent <= 4.0:
            raise ValueError("exponent out of range [0, 4]")
        if self.residual < 0.0:
            raise ValueError("residual must be nonnegative")


def default_lambda_grid() -> np.ndarray:
    """Geometric grid 0.2 * 0.7^j, 12 points (smallest ~ 0.004).

    Starting higher contaminates the power-law fit with next-order terms of
    the expansion; starting at 0.2 keeps the benchmark coefficient within a
    few percent of its limit value while the fixed points stay affordable.
    """
    return 0.2 * 0.7 ** np.arange(12)


def fit_power_law(lams: np.ndarray, values: np.ndarray) -> PowerLawFit:
    """Fit sup-norm increments against the smallest-lambda value.

    The model is the exact finite-sample one, ``c * (lam^alpha -
    lam_min^alpha)``, free of the bias that anchoring at lam_min puts into
    a plain power law.  Its log is fitted by variable projection (Golub &
    Pereyra 1973): for each alpha the best log c is the mean of
    ``log incr - log(lam^alpha - lam_min^alpha)``, so only alpha is
    searched, first on the scan 1/16, 2/16, ..., 4, then by golden section
    down to 1e-10 between the best scan point's neighbours (0 and 4 at the
    ends).  The model vanishes at alpha = 0, the search's lower end, and
    increments that do not decay as lambda falls run the search there: c
    then grows without bound and the fit is meaningless.  The limit is the
    smallest-lambda value corrected per coordinate by the fitted power law.
    """
    lams = np.asarray(lams, dtype=float)
    values = np.asarray(values, dtype=float)
    vmin = values[-1]
    lam_min = lams[-1]
    incr = np.max(np.abs(values - vmin), axis=1)
    mask = incr > INCREMENT_FLOOR
    if mask.sum() < 2:
        return PowerLawFit(limit=vmin.copy(), coefficient=0.0, exponent=0.0,
                           residual=0.0)
    lam, Y = lams[mask], np.log(incr[mask])

    def sse(alpha):  # at the best log c, for a scalar alpha or a column of them
        r = Y - np.log(lam ** alpha - lam_min ** alpha)
        r = r - r.mean(axis=-1, keepdims=True)
        return (r * r).sum(axis=-1)

    scan = np.arange(1, 65) / 16.0
    best = scan[np.argmin(sse(scan[:, None]))]
    lo, hi = best - 1 / 16, min(best + 1 / 16, 4.0)
    x = lo + (3 - 5 ** 0.5) / 2 * (hi - lo)
    fx = sse(x)
    while hi - lo > 1e-10:
        y = lo + hi - x  # the mirror of x, the bracket's other golden point
        fy = sse(y)
        if fy < fx:
            x, fx, y = y, fy, x
        lo, hi = (y, hi) if y < x else (lo, y)  # the worse point becomes an end
    alpha = float(x)
    basis = lam ** alpha - lam_min ** alpha
    logc = np.mean(Y - np.log(basis))
    per_coord = (basis @ (values[mask] - vmin)) / (basis @ basis)
    limit = vmin - per_coord * lam_min ** alpha
    return PowerLawFit(limit=limit, coefficient=float(np.exp(logc)), exponent=alpha,
                       residual=float(np.abs(Y - logc - np.log(basis)).max()))


def vanishing_discount(op: ShapleyOperator,
                       lam_grid: Sequence[float] | None = None,
                       eps: float = 1e-6) -> PowerLawFit:
    """Sweep the discounted values down a decreasing lambda grid and
    extrapolate their limit by :func:`fit_power_law` in lambda.

    Each fixed point after the first is given the previous one's
    solutions as hints, so it starts at the exact value, at the new
    lambda, of the stationary profile that ended the previous one (see
    :func:`discounted_value_detailed`).  For small lambda the optimal
    stationary profiles of a finite game stay constant on intervals of
    lambda (Bewley & Kohlberg 1976), so that start is usually the next
    fixed point, whatever the limit.
    """
    lams = default_lambda_grid() if lam_grid is None else np.asarray(lam_grid, float)
    if len(lams) < 4:
        raise ValueError("lambda grid needs at least 4 points")
    if not (np.all(lams > 0) and np.all(np.diff(lams) < 0)):
        raise ValueError("lambda grid must be positive and decreasing")
    values, hints = [], None
    for lam in lams:
        r = discounted_value_detailed(op, float(lam), eps, hints=hints)
        values.append(r.value)
        hints = r.hints
    return fit_power_law(lams, np.array(values))


@dataclass(frozen=True)
class RateFit:
    """Empirical convergence exponent theta of ||v_n - v_inf|| ~ c / n^theta."""
    theta: float | None
    residual: float
    points_used: int

    @property
    def already_converged(self) -> bool:
        """Too few points were left to fit, and ``theta`` is None."""
        return self.theta is None


def rate_fit(series: Iterable[tuple[int, np.ndarray]], v_inf) -> RateFit:
    """Least-squares slope of log error against log n, negated.

    Points whose error is below the increment floor are dropped; if fewer
    than four remain the series is reported as already converged rather
    than fitted.
    """
    v_inf = np.asarray(v_inf, dtype=float)
    ns, errs = [], []
    for n, vn in series:
        checked_count(n, 1, "n", ValueError)
        e = float(np.abs(np.asarray(vn, float) - v_inf).max())
        if e > INCREMENT_FLOOR:
            ns.append(float(n))
            errs.append(e)
    if len(ns) < 4:
        return RateFit(theta=None, residual=0.0, points_used=len(ns))
    X = np.log(np.array(ns))
    Y = np.log(np.array(errs))
    slope, intercept = np.polyfit(X, Y, 1)
    residual = float(np.abs(Y - (slope * X + intercept)).max())
    return RateFit(theta=float(-slope), residual=residual, points_used=len(ns))


@dataclass(frozen=True)
class DeviationCheck:
    passed: bool
    deviation: float  # |f1_n - f2_n|, the two orbits' disagreement after n steps
    bound: float
    # max over t < n of |T1(f2_t) - T2(f2_t)|: the operators' disagreement
    # along op2's orbit, the only points the bound telescopes over
    distance: float


def iterate_deviation_check(op1: ShapleyOperator, op2: ShapleyOperator,
                            n: int) -> DeviationCheck:
    """Verify that the n-th iterates f1_n = T1^n(0) and f2_n = T2^n(0) of
    two operators stay within n * distance (+ solver slack) of each other.

    Step t splits f1_{t+1} - f2_{t+1} into (T1(f1_t) - T1(f2_t)) +
    (T1(f2_t) - T2(f2_t)).  T1 is nonexpansive, so the first term is at
    most |f1_t - f2_t|, and summing over t < n gives |f1_n - f2_n| <=
    sum_t |T1(f2_t) - T2(f2_t)|.  Only op2's orbit enters, so ``distance``
    is the largest disagreement there: each step applies op1 at f2_t as
    well as advancing both orbits, 3n applications on three hint chains,
    each hinted by its own previous step.  The computed f1_{t+1} and
    T1(f2_t) are each within op1's ``tol`` of the exact ones, so the
    computed values telescope the same way with 2 * op1.tol per step,
    and ``bound`` is n * distance + 2n * max(op1.tol, op2.tol).
    """
    if op1.dim != op2.dim:
        raise ValueError("operators must share the state space")
    n = checked_count(n, 1, "n", ValueError)
    f1 = f2 = np.zeros(op1.dim)
    hints1 = hints2 = hints12 = None
    dist = 0.0
    for _ in range(n):
        at_f2, _, hints12 = op1.apply_with_gaps(f2, hints12)
        f1, _, hints1 = op1.apply_with_gaps(f1, hints1)
        f2, _, hints2 = op2.apply_with_gaps(f2, hints2)
        dist = max(dist, float(np.abs(at_f2 - f2).max()))
    deviation = float(np.abs(f1 - f2).max())
    bound = n * dist + 2.0 * n * max(op1.tol, op2.tol)
    return DeviationCheck(passed=deviation <= bound, deviation=deviation,
                          bound=bound, distance=dist)
