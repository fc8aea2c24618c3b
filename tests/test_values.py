import math

import numpy as np
import pytest

from sgve import bench
from sgve import game as game_module
from sgve import values as values_module
from sgve.errors import GameSpecError, IterationBudgetError
from sgve.game import DiscretizedGame, discretize
from sgve.shapley import ShapleyOperator
from sgve.values import (DeviationCheck, PowerLawFit, discounted_value,
                         discounted_value_detailed,
                         fit_power_law, iterate_deviation_check,
                         n_stage_series, operator_distance, rate_fit,
                         simulate, value_iteration, vanishing_discount)

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


def test_vanishing_discount_grid_validation(exshap_op_coarse):
    with pytest.raises(ValueError):
        vanishing_discount(exshap_op_coarse, lam_grid=[0.5, 0.25, 0.1])
    with pytest.raises(ValueError):
        vanishing_discount(exshap_op_coarse, lam_grid=[0.5, 0.25, 0.1, 0.2])


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


def test_operator_distance_self_is_zero():
    rng = np.random.default_rng(30)
    op = ShapleyOperator(bench.random_discretized_game(rng, 2), tol=TOL)
    assert operator_distance(op, op) <= 2 * TOL


def test_operator_distance_constant_shift():
    rng = np.random.default_rng(31)
    game = bench.random_discretized_game(rng, 3)
    op = ShapleyOperator(game, tol=TOL)
    for eps in (1e-3, 0.2):
        op2 = ShapleyOperator(shifted_payoff(game, eps), tol=TOL)
        dist = operator_distance(op, op2)
        assert abs(dist - eps) <= 2 * TOL


def test_operator_distance_payoff_zeroed(exshap_op_coarse):
    game = exshap_op_coarse.game
    zeroed = DiscretizedGame(states=game.states, grids_x=game.grids_x,
                             grids_y=game.grids_y,
                             g=tuple(np.zeros_like(gk) for gk in game.g),
                             rho=game.rho)
    op0 = ShapleyOperator(zeroed, tol=1e-6)
    one_shot = np.abs(exshap_op_coarse.apply(np.zeros(2))).max()
    assert operator_distance(exshap_op_coarse, op0) >= one_shot - 1e-12


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


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def uniform_policies(game: DiscretizedGame):
    rows = [np.full(gk.shape[0], 1.0 / gk.shape[0]) for gk in game.g]
    cols = [np.full(gk.shape[1], 1.0 / gk.shape[1]) for gk in game.g]
    return rows, cols


def chain_average(game: DiscretizedGame, rows, cols, n: int, start: int) -> float:
    """Exact n-stage average by propagating the state distribution."""
    d = game.states
    P = np.zeros((d, d))
    r = np.zeros(d)
    for k in range(d):
        joint = np.outer(rows[k], cols[k])
        r[k] = (joint * game.g[k]).sum()
        P[k] = np.einsum("ij,ijl->l", joint, game.rho[k])
    dist = np.zeros(d)
    dist[start] = 1.0
    total = 0.0
    for _ in range(n):
        total += dist @ r
        dist = dist @ P
    return total / n


def test_simulate_constant_game():
    op = constant_operator(2, 0.5)
    rows, cols = uniform_policies(op.game)
    result = simulate(op.game, rows, cols, n=8, start_state=0, seed=1, trials=5)
    assert result.mean == 0.5
    assert result.halfwidth == 0.0


def test_simulate_benchmark_hand_rollout():
    # player 1 pins x = 1, player 2 pins y = 0: one payoff of 1, then
    # absorption at the zero-payoff state
    game = discretize(bench.exshap_spec(), 2)
    rows = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]   # x = 0 / x = 1
    cols = [np.array([1.0, 0.0]), np.array([1.0, 0.0])]   # y = 0
    for n in (1, 4, 8):
        result = simulate(game, rows, cols, n=n, start_state=1, seed=7, trials=3)
        assert result.mean == 1.0 / n
        assert result.halfwidth == 0.0


def test_simulate_reproducible():
    rng = np.random.default_rng(40)
    game = bench.random_discretized_game(rng, 3)
    rows, cols = uniform_policies(game)
    a = simulate(game, rows, cols, n=10, start_state=0, seed=5, trials=20)
    b = simulate(game, rows, cols, n=10, start_state=0, seed=5, trials=20)
    assert a == b


def test_simulate_invalid_distribution():
    game = constant_operator(2, 0.0).game
    rows, cols = uniform_policies(game)
    bad = [np.array([0.5, 0.2, 0.2]), rows[1]]
    with pytest.raises(GameSpecError):
        simulate(game, bad, cols, n=3, start_state=0, seed=0, trials=1)


def test_simulate_agrees_with_chain_oracle():
    # frozen seeds: the halfwidth is a 95% normal radius, so at least 95%
    # of these reproducible runs must cover the exact chain value
    rng = np.random.default_rng(55)
    hits = 0
    runs = 20
    for run in range(runs):
        game = bench.random_discretized_game(rng, states=3, max_actions=4)
        rows = [rng.dirichlet(np.ones(gk.shape[0])) for gk in game.g]
        cols = [rng.dirichlet(np.ones(gk.shape[1])) for gk in game.g]
        exact = chain_average(game, rows, cols, n=20, start=0)
        result = simulate(game, rows, cols, n=20, start_state=0,
                          seed=1000 + run, trials=200)
        if abs(result.mean - exact) <= max(result.halfwidth, 1e-12):
            hits += 1
    assert hits >= 0.95 * runs
