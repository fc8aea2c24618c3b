"""Value algorithms: n-stage iteration, discounted fixed points, the
vanishing-discount limit with power-law extrapolation, convergence-rate
fitting, operator perturbation checks, and Monte-Carlo rollout of
stationary strategies."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import GameSpecError, IterationBudgetError
from .game import DiscretizedGame, MatrixGameSolution
from .shapley import ShapleyOperator

__all__ = [
    "value_iteration", "n_stage_series",
    "discounted_value", "DiscountedResult", "discounted_value_detailed",
    "PowerLawFit", "default_lambda_grid", "vanishing_discount",
    "RateFit", "rate_fit",
    "operator_distance", "DeviationCheck", "iterate_deviation_check",
    "SimulationResult", "simulate",
]

INCREMENT_FLOOR = 1e-12
# iteration budget of the discounted fixed point, read at each call
MAX_FIXED_POINT_ITERATIONS = 10 ** 6


def value_iteration(op: ShapleyOperator, n: int) -> np.ndarray:
    """Value of the n-stage averaged game: n operator applications to 0,
    divided by n.  Each application is hinted by the previous one's
    solutions."""
    if n < 1:
        raise ValueError("n must be >= 1")
    f = np.zeros(op.dim)
    hints = None
    for _ in range(n):
        f, _, hints = op.apply_with_gaps(f, hints)
    return f / n


def n_stage_series(op: ShapleyOperator, ns: Sequence[int]) -> list[tuple[int, np.ndarray]]:
    """n-stage values at several horizons in a single iteration pass, with
    the same hinted applications as :func:`value_iteration`."""
    wanted = sorted(set(int(n) for n in ns))
    if not wanted or wanted[0] < 1:
        raise ValueError("horizons must be positive")
    out = []
    f = np.zeros(op.dim)
    hints = None
    k = 0
    for n in range(1, wanted[-1] + 1):
        f, _, hints = op.apply_with_gaps(f, hints)
        if n == wanted[k]:
            out.append((n, f / n))
            k += 1
    return out


@dataclass(frozen=True)
class DiscountedResult:
    value: np.ndarray
    discount: float
    iterations: int
    last_step: float  # sup-norm change of the final iteration
    # per-state solutions of the final operator application: the hints of
    # a further application near the fixed point
    hints: tuple[MatrixGameSolution, ...]


def discounted_value_detailed(op: ShapleyOperator, lam: float, eps: float,
                              start: np.ndarray | None = None,
                              hints: Sequence[MatrixGameSolution] | None = None,
                              ) -> DiscountedResult:
    """Discounted value via the contraction f -> lam * Psi(((1-lam)/lam) f).

    The map contracts with factor (1 - lam), so stopping once
    ``step * (1 - lam) <= eps * lam`` guarantees a true error of at most
    ``eps`` plus matrix-game solver slack.  At ``lam = 1`` the map is
    constant, so it stops after one application: the one-shot value.
    ``hints`` are per-state solutions that hint the first application (see
    :meth:`ShapleyOperator.apply_with_gaps`); each later one is hinted by
    its predecessor.  More than ``MAX_FIXED_POINT_ITERATIONS`` steps raise
    :class:`IterationBudgetError`.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"discount factor must be in (0, 1], got {lam}")
    if not eps > 0:
        raise ValueError("eps must be positive")
    f = np.zeros(op.dim) if start is None else np.asarray(start, dtype=float).copy()
    for it in range(1, MAX_FIXED_POINT_ITERATIONS + 1):
        psi, _, hints = op.apply_with_gaps(((1.0 - lam) / lam) * f, hints)
        fn = lam * psi
        step = float(np.abs(fn - f).max())
        f = fn
        if step * (1.0 - lam) <= eps * lam:
            return DiscountedResult(f, lam, it, step, hints)
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

    Ordinary least squares on the log-log points initializes (c, alpha);
    the estimate is then refined against the exact finite-sample model
    ``c * (lam^alpha - lam_min^alpha)``, which removes the bias the
    subtraction of v at lam_min induces near the bottom of the grid.  The
    limit is the smallest-lambda value corrected per coordinate by the
    fitted power law.
    """
    from scipy.optimize import least_squares

    lams = np.asarray(lams, dtype=float)
    values = np.asarray(values, dtype=float)
    vmin = values[-1]
    lam_min = lams[-1]
    incr = np.max(np.abs(values - vmin), axis=1)
    mask = incr > INCREMENT_FLOOR
    if mask.sum() < 2:
        return PowerLawFit(limit=vmin.copy(), coefficient=0.0, exponent=0.0,
                           residual=0.0)
    X = np.log(lams[mask])
    Y = np.log(incr[mask])
    slope, intercept = np.polyfit(X, Y, 1)

    def resid(theta):
        logc, alpha = theta
        return Y - logc - np.log(np.maximum(np.exp(alpha * X) - lam_min ** alpha,
                                            1e-300))

    sol = least_squares(resid, x0=[intercept, float(np.clip(slope, 0.05, 4.0))],
                        method="lm")
    logc, alpha = sol.x
    alpha = float(np.clip(alpha, 0.0, 4.0))
    coeff = float(np.exp(logc))
    residual = float(np.abs(resid((logc, alpha))).max())

    basis = lams[mask] ** alpha - lam_min ** alpha
    denom = float(basis @ basis)
    deltas = values[mask] - vmin
    per_coord = (basis @ deltas) / denom
    limit = vmin - per_coord * lam_min ** alpha
    return PowerLawFit(limit=limit, coefficient=coeff, exponent=alpha,
                       residual=residual)


def vanishing_discount(op: ShapleyOperator,
                       lam_grid: Sequence[float] | None = None,
                       eps: float = 1e-6) -> PowerLawFit:
    """Sweep the discounted values down a decreasing lambda grid and
    extrapolate their common limit with n-stage values.

    Each fixed point warm-starts from the previous one scaled geometrically,
    which keeps the contraction iterations short at small lambda, and its
    first application is hinted by the previous fixed point's solutions.
    """
    lams = default_lambda_grid() if lam_grid is None else np.asarray(lam_grid, float)
    if len(lams) < 4:
        raise ValueError("lambda grid needs at least 4 points")
    if not (np.all(lams > 0) and np.all(np.diff(lams) < 0)):
        raise ValueError("lambda grid must be positive and decreasing")
    values = []
    guess = hints = None
    for j, lam in enumerate(lams):
        if guess is not None:
            guess = guess * (lam / lams[j - 1])
        r = discounted_value_detailed(op, float(lam), eps, start=guess, hints=hints)
        values.append(r.value)
        guess, hints = r.value, r.hints
    return fit_power_law(lams, np.array(values))


@dataclass(frozen=True)
class RateFit:
    """Empirical convergence exponent theta of ||v_n - v_inf|| ~ c / n^theta."""
    theta: float | None
    residual: float
    points_used: int
    already_converged: bool = False


def rate_fit(series: Iterable[tuple[int, np.ndarray]], v_inf) -> RateFit:
    """Least-squares slope of log error against log n, negated.

    Points whose error is below the increment floor are dropped; if fewer
    than four remain the series is reported as already converged rather
    than fitted.
    """
    v_inf = np.asarray(v_inf, dtype=float)
    ns, errs = [], []
    for n, vn in series:
        e = float(np.abs(np.asarray(vn, float) - v_inf).max())
        if e > INCREMENT_FLOOR:
            ns.append(float(n))
            errs.append(e)
    if len(ns) < 4:
        return RateFit(theta=None, residual=0.0, points_used=len(ns),
                       already_converged=True)
    X = np.log(np.array(ns))
    Y = np.log(np.array(errs))
    slope, intercept = np.polyfit(X, Y, 1)
    residual = float(np.abs(Y - (slope * X + intercept)).max())
    return RateFit(theta=float(-slope), residual=residual, points_used=len(ns))


def operator_distance(op1: ShapleyOperator, op2: ShapleyOperator,
                      extra_samples: Iterable[np.ndarray] = ()) -> float:
    """Largest sup-norm disagreement over sampled value vectors.

    The samples are 0, +/- ones, 16 vectors uniform in [-1, 1]^d drawn
    with seed 0, then ``extra_samples``.  A lower bound on the true sup
    over all vectors.  Each operator's solutions at one sample
    hint its solves at the next.
    """
    if op1.dim != op2.dim:
        raise GameSpecError("operators must share the state space")
    d = op1.dim
    rng = np.random.default_rng(0)
    samples = [np.zeros(d), np.ones(d), -np.ones(d)]
    samples.extend(rng.uniform(-1.0, 1.0, (16, d)))
    samples.extend(np.asarray(s, dtype=float) for s in extra_samples)
    dist = 0.0
    hints1 = hints2 = None
    for f in samples:
        v1, _, hints1 = op1.apply_with_gaps(f, hints1)
        v2, _, hints2 = op2.apply_with_gaps(f, hints2)
        dist = max(dist, float(np.abs(v1 - v2).max()))
    return dist


@dataclass(frozen=True)
class DeviationCheck:
    passed: bool
    deviation: float
    bound: float
    distance: float


def iterate_deviation_check(op1: ShapleyOperator, op2: ShapleyOperator,
                            n: int) -> DeviationCheck:
    """Verify that n-fold iterates of two operators stay within
    n * distance (+ solver slack) of each other.

    The distance is :func:`operator_distance` over its fixed samples and
    both iterate trajectories, which is what
    the inductive argument behind the bound actually telescopes over.
    Each trajectory's applications are hinted by its previous step.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    f1 = np.zeros(op1.dim)
    f2 = np.zeros(op2.dim)
    hints1 = hints2 = None
    trajectory = []
    for _ in range(n):
        trajectory.append(f1)
        trajectory.append(f2)
        f1, _, hints1 = op1.apply_with_gaps(f1, hints1)
        f2, _, hints2 = op2.apply_with_gaps(f2, hints2)
    deviation = float(np.abs(f1 - f2).max())
    dist = operator_distance(op1, op2, extra_samples=trajectory)
    bound = n * dist + 2.0 * n * max(op1.tol, op2.tol)
    return DeviationCheck(passed=deviation <= bound, deviation=deviation,
                          bound=bound, distance=dist)


@dataclass(frozen=True)
class SimulationResult:
    mean: float
    halfwidth: float  # 1.96 * standard error over trials
    trials: int
    horizon: int


def _check_policy(policy, sizes, who: str) -> list[np.ndarray]:
    out = []
    if len(policy) != len(sizes):
        raise GameSpecError(f"{who} policy must cover every state")
    for k, (pk, nk) in enumerate(zip(policy, sizes)):
        pk = np.asarray(pk, dtype=float)
        if pk.shape != (nk,) or pk.min() < 0 or abs(pk.sum() - 1.0) > 1e-9:
            raise GameSpecError(
                f"{who} policy for state {k} is not a distribution over {nk} actions")
        out.append(pk / pk.sum())
    return out


def _pick(cum: np.ndarray, u: float) -> int:
    return min(int(np.searchsorted(cum, u, side="right")), len(cum) - 1)


def simulate(game: DiscretizedGame, row_policy, col_policy, n: int,
             start_state: int, seed: int, trials: int) -> SimulationResult:
    """Monte-Carlo estimate of the n-stage average payoff of a stationary
    mixed profile.

    Reproducible: trial t draws an (n, 3) block of uniforms from
    ``np.random.default_rng([seed, t])`` up front; at each stage the three
    columns select the row action, the column action, and the next state
    by inverse CDF.  The halfwidth is a normal-approximation 95% confidence
    radius over the per-trial averages.
    """
    if trials < 1 or n < 1:
        raise ValueError("trials and n must be >= 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if not 0 <= start_state < game.states:
        raise GameSpecError(f"start state {start_state} out of range")
    rows = _check_policy(row_policy, [g.shape[0] for g in game.g], "row")
    cols = _check_policy(col_policy, [g.shape[1] for g in game.g], "column")
    row_cum = [np.cumsum(p) for p in rows]
    col_cum = [np.cumsum(p) for p in cols]
    rho_cum = [np.cumsum(r, axis=2) for r in game.rho]
    means = np.empty(trials)
    for t in range(trials):
        u = np.random.default_rng([seed, t]).random((n, 3))
        state = start_state
        total = 0.0
        for step in range(n):
            i = _pick(row_cum[state], u[step, 0])
            j = _pick(col_cum[state], u[step, 1])
            total += game.g[state][i, j]
            state = _pick(rho_cum[state][i, j], u[step, 2])
        means[t] = total / n
    mean = float(means.mean())
    if trials > 1:
        halfwidth = float(1.96 * means.std(ddof=1) / np.sqrt(trials))
    else:
        halfwidth = 0.0
    return SimulationResult(mean=mean, halfwidth=halfwidth, trials=trials,
                            horizon=n)
