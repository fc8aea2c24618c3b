import math

import numpy as np
import pytest

from sgve import bench
from sgve import game as game_module
from sgve import values as values_module
from sgve.errors import GameSpecError, IterationBudgetError, MatrixGameError
from sgve.game import DiscretizedGame, MatrixGameSolution, discretize
from sgve.shapley import ShapleyOperator
from sgve.values import (DeviationCheck, PowerLawFit, default_lambda_grid,
                         discounted_value, discounted_value_detailed,
                         fit_power_law, iterate_deviation_check,
                         n_stage_series, rate_fit, value_iteration,
                         vanishing_discount)

TOL = 1e-9
EXP_QUARTER = 0.2840254166877414  # e^{1/4} - 1


@pytest.fixture(scope="module")
def exshap_op():
    return ShapleyOperator(discretize(bench.exshap_spec(), 201), tol=1e-6)


@pytest.fixture(scope="module")
def exshap_op_coarse():
    return ShapleyOperator(discretize(bench.exshap_spec(), 51), tol=1e-6)


def constant_operator(d: int, c: float) -> ShapleyOperator:
    nx = ny = 3
    rho = np.zeros((nx, ny, d))
    rho[:, :, 0] = 1.0
    game = DiscretizedGame(
        states=d,
        grids_x=(np.linspace(0, 1, nx)[:, None],) * d,
        grids_y=(np.linspace(0, 1, ny)[:, None],) * d,
        g=(np.full((nx, ny), c),) * d, rho=(rho,) * d)
    return ShapleyOperator(game, tol=TOL)


def test_value_iteration_constant_game():
    op = constant_operator(3, -1.25)
    for n in (1, 2, 10):
        assert np.allclose(value_iteration(op, n), -1.25, atol=2 * TOL)


def test_value_iteration_one_stage_benchmark(exshap_op):
    v1 = value_iteration(exshap_op, 1)
    assert v1[0] == 0.0
    assert abs(v1[1] - 0.5) <= 1e-12


@pytest.fixture(scope="module")
def common_limit_ops():
    """The five random 3-state games of acceptance criterion 4."""
    rng = np.random.default_rng(bench._SEED + 4)
    return [ShapleyOperator(bench.random_discretized_game(rng, states=3, max_actions=5),
                            tol=TOL) for _ in range(5)]


def test_value_iteration_matches_unhinted_loop(common_limit_ops):
    n = 200
    for op in common_limit_ops:
        f = np.zeros(op.dim)
        for _ in range(n):
            f, gaps, _ = op.apply_with_gaps(f)
        assert gaps.max() <= TOL
        assert np.abs(value_iteration(op, n) - f / n).max() <= 2 * TOL


@pytest.mark.parametrize("seed", [101, 303])
def test_value_iteration_within_tol_of_an_unhinted_orbit(seed, monkeypatch):
    # a hint that still certifies is returned with its own gap, up to tol,
    # where the support solve reaches ~1e-16.  Each apply moves the orbit
    # by at most its gap and the operator is nonexpansive, so the n-stage
    # values stay within tol, plus the unhinted gaps, of an unhinted orbit
    op = ShapleyOperator(bench.random_discretized_game(np.random.default_rng(seed),
                                                       states=3), tol=TOL)
    n = 100
    f, slack = np.zeros(op.dim), 0.0
    for _ in range(n):
        f, gaps, _ = op.apply_with_gaps(f)
        slack += gaps.max()
    solves = []
    real = game_module._support_solve

    def support_solve(A, sol):
        solves.append(A.shape)
        return real(A, sol)

    monkeypatch.setattr(game_module, "_support_solve", support_solve)
    assert np.abs(value_iteration(op, n) - f / n).max() <= TOL + slack / n
    # most hinted solves return their hint's strategies, with no support solve
    assert len(solves) < n


def test_value_iteration_warm_start_skips_lps(common_limit_ops, monkeypatch):
    # guards the warm start: without hints every iterate of a state that is
    # not a pure saddle would solve an LP (up to 600 per game here)
    calls = []
    real = game_module.linprog

    def linprog(*args, **kwargs):
        calls.append(kwargs["method"])
        return real(*args, **kwargs)

    monkeypatch.setattr(game_module, "linprog", linprog)
    for op in common_limit_ops:
        calls.clear()
        value_iteration(op, 200)
        assert len(calls) <= 2 * op.dim


def test_n_stage_series_matches_value_iteration(exshap_op_coarse):
    series = dict(n_stage_series(exshap_op_coarse, [1, 3, 5]))
    assert np.array_equal(series[5], value_iteration(exshap_op_coarse, 5))
    assert sorted(series) == [1, 3, 5]
    # numpy integers are horizons too
    assert np.array_equal(series[5], value_iteration(exshap_op_coarse, np.int64(5)))
    assert sorted(dict(n_stage_series(exshap_op_coarse, np.array([1, 3, 5])))) == [1, 3, 5]


def count_applies(monkeypatch) -> list[ShapleyOperator]:
    """The operators of every apply made from here on, one entry each."""
    calls = []
    real = ShapleyOperator.apply_with_gaps

    def apply_with_gaps(self, f, hints=None):
        calls.append(self)
        return real(self, f, hints)

    monkeypatch.setattr(ShapleyOperator, "apply_with_gaps", apply_with_gaps)
    return calls


def plain_orbit(op: ShapleyOperator, n: int) -> np.ndarray:
    """n hinted applications to 0, divided by n, with no early stop."""
    f, hints = np.zeros(op.dim), None
    for _ in range(n):
        f, _, hints = op.apply_with_gaps(f, hints)
    return f / n


def random_small_horizon_op(seed: int) -> ShapleyOperator:
    """A 3-state game shaped like perfbench's random-small horizon game:
    payoffs uniform in [0, 2] on 5x5, 1x4 and 4x5 stage games, Dirichlet
    transition rows."""
    rng = np.random.default_rng(seed)
    shapes = ((5, 5), (1, 4), (4, 5))
    game = DiscretizedGame(
        states=3,
        grids_x=tuple(np.linspace(0, 1, nx)[:, None] for nx, _ in shapes),
        grids_y=tuple(np.linspace(0, 1, ny)[:, None] for _, ny in shapes),
        g=tuple(rng.uniform(0.0, 2.0, s) for s in shapes),
        rho=tuple(rng.dirichlet(np.full(3, 4.0), s) for s in shapes))
    return ShapleyOperator(game, tol=TOL)


def absorbing_op() -> ShapleyOperator:
    """Two absorbing states paying 0 and 1 and a payoff-free 2x2 state whose
    action pair (i, j) moves to the paying one with probability I[i, j],
    else to the other: values (0, 1, 1/2), which depend on the state."""
    grids = (np.zeros((1, 1)), np.zeros((1, 1)), np.linspace(0, 1, 2)[:, None])
    game = DiscretizedGame(
        states=3, grids_x=grids, grids_y=grids,
        g=(np.zeros((1, 1)), np.ones((1, 1)), np.zeros((2, 2))),
        rho=(np.eye(3)[0].reshape(1, 1, 3), np.eye(3)[1].reshape(1, 1, 3),
             np.stack([1.0 - np.eye(2), np.eye(2), np.zeros((2, 2))], axis=2)))
    return ShapleyOperator(game, tol=TOL)


def test_value_iteration_stops_on_the_half_line(common_limit_ops, monkeypatch):
    # the orbits of these games settle on a half-line x + s*eta within 40
    # steps, and the continuation of that step is within tol of v_4096
    n = 4096
    for op in [*common_limit_ops, random_small_horizon_op(3001)]:
        plain = plain_orbit(op, n)
        calls = count_applies(monkeypatch)
        v = value_iteration(op, n)
        monkeypatch.undo()
        assert len(calls) <= 40
        assert np.abs(v - plain).max() <= op.tol


def test_state_dependent_values_keep_the_plain_orbit(monkeypatch):
    # x_t = (0, t, (t - 1) / 2): the step spread never closes the box
    op = absorbing_op()
    n = 60
    plain = plain_orbit(op, n)
    assert np.allclose(plain * n, [0, n, (n - 1) / 2])
    calls = count_applies(monkeypatch)
    assert np.array_equal(value_iteration(op, n), plain)
    assert len(calls) == n
    assert np.array_equal(dict(n_stage_series(op, [5, n]))[n], plain)


def test_n_stage_series_matches_value_iteration_across_the_early_stop(
        common_limit_ops, monkeypatch):
    op = common_limit_ops[0]
    calls = count_applies(monkeypatch)
    value_iteration(op, 4096)
    t = len(calls) - 1  # the step whose box closed
    monkeypatch.undo()
    horizons = [1, 2, t, t + 1, 200, 4096]
    series = n_stage_series(op, horizons)
    assert [n for n, _ in series] == horizons
    for n, vn in series:
        assert np.array_equal(vn, value_iteration(op, n))


def test_iterate_deviation_check_iterates_the_whole_orbit(common_limit_ops, monkeypatch):
    # it checks the orbits themselves, so it takes no early stop: each step
    # advances both orbits and applies op1 at op2's point
    op1, op2 = common_limit_ops[:2]
    calls = count_applies(monkeypatch)
    n = 100
    assert iterate_deviation_check(op1, op2, n).passed
    assert [sum(c is op for c in calls) for op in (op1, op2)] == [2 * n, n]


def test_discounted_benchmark_closed_form(exshap_op):
    v = discounted_value(exshap_op, 0.5, eps=1e-5)
    assert v[0] == 0.0
    assert abs(v[1] - EXP_QUARTER) <= 1e-5


def test_discounted_constant_game():
    op = constant_operator(2, 0.75)
    for lam in (0.05, 0.4, 1.0):
        v = discounted_value(op, lam, eps=1e-9)
        assert np.allclose(v, 0.75, atol=1e-8)


def test_discounted_lambda_one_is_one_shot(exshap_op_coarse):
    v = discounted_value(exshap_op_coarse, 1.0)
    assert np.array_equal(v, exshap_op_coarse.apply(np.zeros(2)))


def test_discounted_argument_errors(exshap_op_coarse):
    for lam in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            discounted_value(exshap_op_coarse, lam)
    for eps in (0.0, float("nan")):
        with pytest.raises(ValueError):
            discounted_value(exshap_op_coarse, 0.5, eps=eps)


def test_discounted_iteration_budget(exshap_op_coarse, monkeypatch):
    monkeypatch.setattr(values_module, "MAX_FIXED_POINT_ITERATIONS", 2)
    with pytest.raises(IterationBudgetError, match="within 2 iterations"):
        discounted_value_detailed(exshap_op_coarse, 0.05, 1e-6)


def _value_2x2(A: np.ndarray) -> np.ndarray:
    """Closed-form values of 2x2 matrix games stacked on the leading axes;
    the mixed formula divides by zero only where a pure saddle makes it
    unused."""
    a, b, c, d = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
    lower = np.maximum(np.minimum(a, b), np.minimum(c, d))
    upper = np.minimum(np.maximum(a, c), np.maximum(b, d))
    return np.where(lower == upper, lower, (a * d - b * c) / (a + d - b - c))


def _two_action_game(seed: int) -> DiscretizedGame:
    """A random 3-state game with 2x2 stage games; its chain mixes slowly."""
    return bench.random_discretized_game(np.random.default_rng(seed), 3, max_actions=2)


def test_policy_evaluation_steps_reach_the_contraction_fixed_point():
    # slowly mixing random games with 2x2 stage games: the plain
    # contraction from 0, by the closed-form stage values and independent
    # of the kernel, needs ~21000 steps at lam = 1e-3 for its own bound to
    # reach 1e-10; the safeguarded iteration lands within its error bound
    # of that reference in at most 20 applications
    games = [_two_action_game(seed) for seed in (5, 6)]
    lams = np.array([0.05, 0.01, 1e-3])
    g = np.stack([np.stack(game.g) for game in games])
    rho = np.stack([np.stack(game.rho) for game in games]).reshape(len(games), -1, 3)
    lam_axis = lams[:, None, None, None, None]
    f = np.zeros((len(lams), len(games), 3))
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            cont = (rho @ f[..., None]).reshape(*f.shape, 2, 2)
            fn = _value_2x2(lam_axis * g + (1 - lam_axis) * cont)
            bound = (1 - lams) / lams * np.abs(fn - f).max(axis=(1, 2))
            f = fn
            if bound.max() <= 1e-10:
                break
    for b, game in enumerate(games):
        op = ShapleyOperator(game, tol=TOL)
        for x, lam in enumerate(lams):
            r = discounted_value_detailed(op, float(lam), 1e-6)
            assert r.iterations <= 20
            assert r.error_bound <= 1e-6
            assert np.abs(r.value - f[x, b]).max() <= r.error_bound + bound[x] + 2 * TOL


def test_exshap_keeps_the_plain_contraction(exshap_op, monkeypatch):
    # exshap's steps shrink by 0.09-0.21 per application, below the gate's
    # (1 - lam)^2, so it never tries a policy-evaluation step
    calls = []
    real = values_module._policy_value
    monkeypatch.setattr(values_module, "_policy_value",
                        lambda *args: calls.append(args) or real(*args))
    counts = [discounted_value_detailed(exshap_op, lam, 1e-6).iterations
              for lam in (0.5, 0.05)]
    assert counts == [7, 10]
    assert calls == []


def _plain_contraction(op, lam, eps):
    """The contraction alone, hinted as the safeguarded iteration hints it."""
    f, hints, n = np.zeros(op.dim), None, 0
    while True:
        fn, _, hints = values_module.discounted_apply(op, lam, f, hints)
        n += 1
        step = np.abs(fn - f).max()
        f = fn
        if step * (1 - lam) <= eps * lam:
            return f, n


def test_rejected_candidates_fall_back_to_the_contraction(monkeypatch):
    # a candidate far from the fixed point always has the larger residual:
    # each one costs an application, and the iterates are the plain
    # contraction's
    op = ShapleyOperator(_two_action_game(5), tol=TOL)
    plain, n = _plain_contraction(op, 0.05, 1e-6)
    candidates = []

    def far(game, lam, sols):
        candidates.append(lam)
        return np.full(game.states, 100.0)

    monkeypatch.setattr(values_module, "_policy_value", far)
    r = discounted_value_detailed(op, 0.05, 1e-6)
    assert len(candidates) > n // 2
    assert r.iterations == n + len(candidates)
    assert np.array_equal(r.value, plain)
    assert r.error_bound <= 1e-6


def test_warm_fixed_point_at_an_optimal_profile_takes_one_application():
    # the optimal stationary profile of this game is the same at lam = 0.01
    # and 0.009: the hints of the first fixed point play it, so the second
    # starts at its exact value, which the closed-form 2x2 operator,
    # independent of the kernel, maps to itself, and one application meets
    # the stopping rule
    game = _two_action_game(5)
    op = ShapleyOperator(game, tol=TOL)
    lam = 0.009
    hints = discounted_value_detailed(op, 0.01, 1e-6).hints
    w = values_module._policy_value(game, lam, hints)
    stage = np.stack([lam * g + (1 - lam) * (rho @ w) for g, rho in zip(game.g, game.rho)])
    assert np.abs(_value_2x2(stage) - w).max() <= 1e-12
    r = discounted_value_detailed(op, lam, 1e-6, hints=hints)
    assert r.iterations == 1
    assert r.error_bound <= 1e-6
    assert np.abs(r.value - w).max() <= r.error_bound + 2 * TOL


def test_hints_that_do_not_fit_raise_before_the_start(exshap_op_coarse):
    op = exshap_op_coarse
    hints = discounted_value_detailed(op, 0.5, 1e-6).hints
    short = MatrixGameSolution(0.0, np.full(3, 1 / 3), np.full(3, 1 / 3), 0.0)
    for bad, error, match in ((hints[:1], ValueError, "one hint per state"),
                              ((hints[0], None), ValueError, "no hint for state 1"),
                              ((short, hints[1]), MatrixGameError, "hint strategies")):
        with pytest.raises(error, match=match):
            discounted_value_detailed(op, 0.4, 1e-6, hints=bad)


def test_iteration_budget_counts_candidate_applications(monkeypatch):
    op = ShapleyOperator(_two_action_game(5), tol=TOL)
    n = discounted_value_detailed(op, 1e-3, 1e-6).iterations
    monkeypatch.setattr(values_module, "MAX_FIXED_POINT_ITERATIONS", n - 1)
    with pytest.raises(IterationBudgetError, match=f"within {n - 1} iterations"):
        discounted_value_detailed(op, 1e-3, 1e-6)


def test_fixed_point_residual_and_bound():
    rng = np.random.default_rng(21)
    op = ShapleyOperator(bench.random_discretized_game(rng, 3), tol=TOL)
    psi0 = np.abs(op.apply(np.zeros(3))).max()
    for lam in (0.2, 0.6):
        eps = 1e-7
        v = discounted_value(op, lam, eps)
        residual = np.abs(v - lam * op.apply(((1 - lam) / lam) * v)).max()
        assert residual <= eps + 2 * TOL
        assert np.abs(v).max() <= psi0 + eps + 2 * TOL


def test_iterate_offset_bound():
    rng = np.random.default_rng(22)
    op = ShapleyOperator(bench.random_discretized_game(rng, 3), tol=TOL)
    n = 7
    base = np.zeros(3)
    for _ in range(n):
        base = op.apply(base)
    for _ in range(5):
        f0 = rng.uniform(-4, 4, 3)
        f = f0.copy()
        for _ in range(n):
            f = op.apply(f)
        assert np.abs(f / n - base / n).max() <= np.abs(f0).max() / n + 2 * TOL


# ---------------------------------------------------------------------------
# power-law fitting
# ---------------------------------------------------------------------------

def test_fit_power_law_recovers_sqrt():
    lams = 0.5 * 0.7 ** np.arange(12)
    vs = np.array([[1.0 + 2.0 * l ** 0.5] for l in lams])
    fit = fit_power_law(lams, vs)
    assert fit.coefficient == pytest.approx(2.0, rel=1e-6)
    assert fit.exponent == pytest.approx(0.5, abs=1e-6)
    assert fit.limit[0] == pytest.approx(1.0, abs=1e-9)


def test_fit_power_law_pairs_its_exponent_with_the_best_coefficient():
    # v = 0.3 + 2 lam^6 decays faster than the largest exponent, 4: the fit
    # must return the best c for the exponent it reports, not the c of 6
    lams = default_lambda_grid()
    vs = 0.3 + 2.0 * lams ** 6
    fit = fit_power_law(lams, vs[:, None])
    assert type(fit.exponent) is float and 0.0 <= fit.exponent <= 4.0
    incr = np.abs(vs - vs[-1])
    used = incr > 1e-12  # the fit's increment floor drops the three smallest
    best_logc = np.mean(np.log(incr[used]) - np.log(lams[used] ** fit.exponent
                                                    - lams[-1] ** fit.exponent))
    assert math.log(fit.coefficient) == pytest.approx(best_logc, abs=1e-12)


def test_fit_power_law_flat_sentinel():
    lams = 0.5 * 0.7 ** np.arange(6)
    vs = np.tile([[3.0, -1.0]], (6, 1))
    fit = fit_power_law(lams, vs)
    assert fit.coefficient == 0.0
    assert fit.exponent == 0.0
    assert np.array_equal(fit.limit, [3.0, -1.0])


def test_power_law_fit_invariants():
    with pytest.raises(ValueError):
        PowerLawFit(limit=np.zeros(1), coefficient=1.0, exponent=5.0, residual=0.0)
    with pytest.raises(ValueError):
        PowerLawFit(limit=np.zeros(1), coefficient=1.0, exponent=1.0, residual=-1.0)


def test_vanishing_discount_benchmark(exshap_op_coarse):
    fit = vanishing_discount(exshap_op_coarse, eps=1e-6)
    target = math.exp(0.5) - 1.0
    assert np.abs(fit.limit).max() <= 1e-2
    assert 0.8 <= fit.exponent <= 1.2
    assert abs(fit.coefficient - target) <= 0.1 * target


def count_fixed_point_iterations(monkeypatch) -> list[int]:
    """The ``iterations`` of every discounted fixed point the sweep solves
    from here on, one entry each."""
    iterations = []
    real = values_module.discounted_value_detailed

    def counted(*args, **kwargs):
        r = real(*args, **kwargs)
        iterations.append(r.iterations)
        return r

    monkeypatch.setattr(values_module, "discounted_value_detailed", counted)
    return iterations


def test_vanishing_discount_sweep_starts_at_the_last_profile(exshap_op, monkeypatch):
    # each fixed point after the first starts at the exact value of the
    # profile that ended the one before: the default-grid sweep takes at
    # most 40 applications and its fit stays within acceptance criterion
    # 3's bounds
    iterations = count_fixed_point_iterations(monkeypatch)
    fit = vanishing_discount(exshap_op, eps=1e-6)
    assert len(iterations) == 12
    assert sum(iterations) <= 40
    target = math.exp(0.5) - 1.0
    assert np.abs(fit.limit).max() <= 1e-2
    assert 0.8 <= fit.exponent <= 1.2
    assert abs(fit.coefficient - target) <= 0.1 * target


def test_vanishing_discount_grid_validation(exshap_op_coarse):
    with pytest.raises(ValueError):
        vanishing_discount(exshap_op_coarse, lam_grid=[0.5, 0.25, 0.1])
    with pytest.raises(ValueError):
        vanishing_discount(exshap_op_coarse, lam_grid=[0.5, 0.25, 0.1, 0.2])


def test_vanishing_discount_profile_start_on_a_constant_game(monkeypatch):
    # v_lam = -1.25 for every lam, a nonzero limit: after the first fixed
    # point, each start, the value of the previous fixed point's profile,
    # is the next one, so one application meets the stopping rule
    op = constant_operator(3, -1.25)
    iterations = count_fixed_point_iterations(monkeypatch)
    fit = vanishing_discount(op)
    assert len(iterations) == 12
    assert iterations[1:] == [1] * 11
    assert np.allclose(fit.limit, -1.25, atol=1e-6)


def test_discounted_error_bound_holds():
    op = constant_operator(2, 0.75)
    for lam in (0.05, 0.4, 1.0):
        r = discounted_value_detailed(op, lam, 1e-6)
        assert r.error_bound <= 1e-6
        assert np.abs(r.value - 0.75).max() <= r.error_bound + 2 * TOL


def test_rate_fit_synthetic():
    ns = [8, 16, 32, 64, 128, 256]
    inv_sqrt = [(n, np.array([1.0 / math.sqrt(n)])) for n in ns]
    inv_lin = [(n, np.array([1.0 / n])) for n in ns]
    assert rate_fit(inv_sqrt, np.zeros(1)).theta == pytest.approx(0.5, abs=1e-9)
    assert rate_fit(inv_lin, np.zeros(1)).theta == pytest.approx(1.0, abs=1e-9)


def test_rate_fit_converged_series():
    series = [(n, np.zeros(2)) for n in (1, 2, 4, 8)]
    fit = rate_fit(series, np.zeros(2))
    assert fit.already_converged
    assert fit.theta is None


def test_rate_fit_benchmark(exshap_op_coarse):
    fit = vanishing_discount(exshap_op_coarse, eps=1e-6)
    series = n_stage_series(exshap_op_coarse, [16, 64, 256, 1024])
    rf = rate_fit(series, fit.limit)
    assert not rf.already_converged
    assert 0.5 <= rf.theta <= 1.5


# ---------------------------------------------------------------------------
# operator distance / perturbation transfer
# ---------------------------------------------------------------------------

def shifted_payoff(game: DiscretizedGame, delta: float) -> DiscretizedGame:
    return DiscretizedGame(states=game.states, grids_x=game.grids_x,
                           grids_y=game.grids_y,
                           g=tuple(gk + delta for gk in game.g),
                           rho=game.rho, controller=game.controller)


def test_deviation_distance_of_an_operator_to_itself():
    rng = np.random.default_rng(30)
    op = ShapleyOperator(bench.random_discretized_game(rng, 2), tol=TOL)
    assert iterate_deviation_check(op, op, 12).distance <= 2 * TOL


def test_deviation_distance_of_a_constant_shift():
    rng = np.random.default_rng(31)
    game = bench.random_discretized_game(rng, 3)
    op = ShapleyOperator(game, tol=TOL)
    for eps in (1e-3, 0.2):
        op2 = ShapleyOperator(shifted_payoff(game, eps), tol=TOL)
        dist = iterate_deviation_check(op, op2, 10).distance
        assert abs(dist - eps) <= 2 * TOL


def test_deviation_distance_of_a_zeroed_payoff(exshap_op_coarse):
    # at f2_0 = 0 the zeroed game's value is 0 and the other's the one-shot value
    game = exshap_op_coarse.game
    zeroed = DiscretizedGame(states=game.states, grids_x=game.grids_x,
                             grids_y=game.grids_y,
                             g=tuple(np.zeros_like(gk) for gk in game.g),
                             rho=game.rho)
    op0 = ShapleyOperator(zeroed, tol=1e-6)
    one_shot = np.abs(exshap_op_coarse.apply(np.zeros(2))).max()
    check = iterate_deviation_check(exshap_op_coarse, op0, 5)
    assert check.distance >= one_shot - 1e-12


@pytest.mark.parametrize("smooth", [False, True])
@pytest.mark.parametrize("seed", [35, 36])
def test_deviation_distance_is_the_largest_gap_on_the_second_orbit(seed, smooth):
    # criterion 6's perturbations of a random game, eps or eps * x * y on
    # the unit box: the distance is max_t |T1(f2_t) - T2(f2_t)| over op2's
    # orbit, recomputed here with op1 unhinted, so within 2 * tol
    rng = np.random.default_rng(seed)
    game = bench.random_discretized_game(rng, 3)
    eps = float(rng.choice([1e-3, 1e-2]))
    pert = DiscretizedGame(
        states=game.states, grids_x=game.grids_x, grids_y=game.grids_y,
        g=tuple(gk + eps * (np.outer(gx[:, 0], gy[:, 0]) if smooth else 1.0)
                for gk, gx, gy in zip(game.g, game.grids_x, game.grids_y)),
        rho=game.rho)
    op1, op2 = ShapleyOperator(game, tol=TOL), ShapleyOperator(pert, tol=TOL)
    n = 30
    check = iterate_deviation_check(op1, op2, n)
    assert check.passed
    want, f, hints = 0.0, np.zeros(3), None
    for _ in range(n):
        nxt, _, hints = op2.apply_with_gaps(f, hints)
        want = max(want, float(np.abs(op1.apply_with_gaps(f)[0] - nxt).max()))
        f = nxt
    assert abs(check.distance - want) <= 2 * TOL
    assert check.bound == n * check.distance + 2 * n * TOL


def test_deviation_check_identical():
    rng = np.random.default_rng(32)
    op = ShapleyOperator(bench.random_discretized_game(rng, 2), tol=TOL)
    check = iterate_deviation_check(op, op, 12)
    assert check.passed
    assert check.deviation <= 2 * 12 * TOL


def test_deviation_check_constant_shift():
    rng = np.random.default_rng(33)
    game = bench.random_discretized_game(rng, 3)
    op1 = ShapleyOperator(game, tol=TOL)
    eps = 5e-3
    op2 = ShapleyOperator(shifted_payoff(game, eps), tol=TOL)
    check = iterate_deviation_check(op1, op2, 10)
    assert check.passed
    # a constant shift accumulates exactly eps per stage
    assert check.deviation == pytest.approx(10 * eps, abs=20 * TOL + 1e-10)


def test_deviation_check_random_perturbation():
    rng = np.random.default_rng(34)
    game = bench.random_discretized_game(rng, 3)
    bumps = tuple(rng.uniform(-1e-3, 1e-3, gk.shape) for gk in game.g)
    pert = DiscretizedGame(states=game.states, grids_x=game.grids_x,
                           grids_y=game.grids_y,
                           g=tuple(gk + bk for gk, bk in zip(game.g, bumps)),
                           rho=game.rho)
    check = iterate_deviation_check(ShapleyOperator(game, tol=TOL),
                                    ShapleyOperator(pert, tol=TOL), 50)
    assert isinstance(check, DeviationCheck)
    assert check.passed


@pytest.mark.parametrize("call, error, match", [
    (lambda op: value_iteration(op, 0), ValueError, "n must be an integer >= 1, got 0"),
    (lambda op: n_stage_series(op, []), ValueError, "need at least one horizon n"),
    (lambda op: n_stage_series(op, [2, 0]), ValueError, "n must be an integer >= 1, got 0"),
    (lambda op: value_iteration(op, 2.5), ValueError, "n must be an integer >= 1, got 2.5"),
    (lambda op: n_stage_series(op, [1, 2.5]), ValueError,
     "n must be an integer >= 1, got 2.5"),
    (lambda op: value_iteration(op, True), ValueError, "n must be an integer >= 1, got True"),
    (lambda op: rate_fit([(0, [1.0]), (1, [0.5]), (2, [0.3]), (4, [0.2])], [0.0]),
     ValueError, "n must be an integer >= 1, got 0"),
    (lambda op: rate_fit([(True, [1.0]), (2, [0.5])], [0.0]),
     ValueError, "n must be an integer >= 1, got True"),
    (lambda op: rate_fit([(1, [1.0]), (2.5, [0.5])], [0.0]),
     ValueError, "n must be an integer >= 1, got 2.5"),
    (lambda op: iterate_deviation_check(op, constant_operator(3, 0.5), 10),
     GameSpecError, "operators must share the state space"),
    (lambda op: iterate_deviation_check(op, op, 0),
     ValueError, "n must be an integer >= 1, got 0"),
    (lambda op: iterate_deviation_check(op, op, 2.5),
     ValueError, "n must be an integer >= 1, got 2.5"),
], ids=["value-iteration-n", "no-horizons", "zero-horizon",
        "value-iteration-fraction", "series-fraction", "value-iteration-bool",
        "rate-fit-zero-horizon", "rate-fit-bool-horizon", "rate-fit-fraction",
        "state-spaces", "deviation-n", "deviation-fraction"])
def test_values_input_checks(call, error, match):
    with pytest.raises(error, match=match):
        call(constant_operator(2, 0.5))
