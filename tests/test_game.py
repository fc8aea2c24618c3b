import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgve import bench, expr, parametric
from sgve import game as game_module
from sgve.errors import EvalDomainError, GameSpecError, MatrixGameError
from sgve.game import (DiscretizedGame, GameSpec, MatrixGameSolution,
                       discretize, matrix_game_bruteforce, solve_matrix_game,
                       solve_matrix_game_stack, uniform_grid)
from sgve.gamefile import builtin_game_file, game_spec_from_document

TOL = 1e-9


def certificate_holds(A, sol, slack=1e-12):
    A = np.asarray(A, float)
    lower = (sol.row_strategy @ A).min()
    upper = (A @ sol.col_strategy).max()
    return (lower >= sol.value - sol.duality_gap - slack
            and upper <= sol.value + sol.duality_gap + slack)


def test_symmetric_game():
    sol = solve_matrix_game([[1, -1], [-1, 1]], TOL)
    assert abs(sol.value) <= 2 * TOL
    assert np.allclose(sol.row_strategy, [0.5, 0.5], atol=1e-8)
    assert np.allclose(sol.col_strategy, [0.5, 0.5], atol=1e-8)
    assert certificate_holds([[1, -1], [-1, 1]], sol)


def test_one_by_one():
    sol = solve_matrix_game([[3.25]], TOL)
    assert sol.value == 3.25
    assert sol.row_strategy.tolist() == [1.0]
    assert sol.col_strategy.tolist() == [1.0]
    assert sol.duality_gap == 0.0


def test_two_by_two_mixed():
    A = [[3, 1], [0, 2]]
    sol = solve_matrix_game(A, TOL)
    # p * 3 + (1-p) * 0 = p * 1 + (1-p) * 2 at the equalizer p = 1/2
    assert abs(sol.value - 1.5) <= 2 * TOL
    assert np.allclose(sol.row_strategy, [0.5, 0.5], atol=1e-8)
    assert certificate_holds(A, sol)


def test_strategies_are_distributions():
    rng = np.random.default_rng(3)
    for _ in range(25):
        A = rng.uniform(-4, 4, rng.integers(1, 7, 2))
        sol = solve_matrix_game(A, TOL)
        for s in (sol.row_strategy, sol.col_strategy):
            assert s.min() >= 0
            assert abs(s.sum() - 1.0) <= 1e-12
        assert sol.duality_gap <= TOL
        assert certificate_holds(A, sol)


def test_bruteforce_examples():
    assert matrix_game_bruteforce([[3, 1], [0, 2]]) == pytest.approx(1.5, abs=1e-12)
    # saddle point: row 1 / column 0 entry is both row-min-max and col-max-min
    assert matrix_game_bruteforce([[0, 5], [2, 3]]) == 2.0
    assert matrix_game_bruteforce([[7.0]]) == 7.0


def test_bruteforce_size_limit():
    with pytest.raises(MatrixGameError):
        matrix_game_bruteforce(np.zeros((7, 3)))


def test_bruteforce_agrees_with_lp():
    rng = np.random.default_rng(11)
    for _ in range(60):
        A = rng.uniform(-5, 5, rng.integers(2, 7, 2))
        lp = solve_matrix_game(A, TOL).value
        assert abs(lp - matrix_game_bruteforce(A)) <= 2 * TOL


def test_player_swap_antisymmetry():
    rng = np.random.default_rng(5)
    for _ in range(20):
        A = rng.uniform(-3, 3, rng.integers(2, 6, 2))
        v = solve_matrix_game(A, TOL).value
        w = solve_matrix_game(-A.T, TOL).value
        assert abs(v + w) <= 2 * TOL


def test_constant_shift():
    rng = np.random.default_rng(7)
    for _ in range(15):
        A = rng.uniform(-2, 2, (4, 5))
        c = rng.uniform(-10, 10)
        base = solve_matrix_game(A, TOL)
        shifted = solve_matrix_game(A + c, TOL)
        assert abs(shifted.value - base.value - c) <= 2 * TOL
        # the unshifted optimal pair remains a valid certificate after shifting
        lower = (base.row_strategy @ (A + c)).min()
        upper = ((A + c) @ base.col_strategy).max()
        assert lower >= shifted.value - 2 * TOL - base.duality_gap
        assert upper <= shifted.value + 2 * TOL + base.duality_gap


def test_value_monotone_in_entries():
    rng = np.random.default_rng(9)
    for _ in range(15):
        A = rng.uniform(-2, 2, (3, 4))
        B = A + rng.uniform(0, 1, A.shape)
        va = solve_matrix_game(A, TOL).value
        vb = solve_matrix_game(B, TOL).value
        assert va <= vb + 2 * TOL


@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_certificates_hold_on_random_matrices(m, n, seed):
    A = np.random.default_rng(seed).uniform(-6, 6, (m, n))
    sol = solve_matrix_game(A, TOL)
    assert sol.duality_gap <= TOL
    assert certificate_holds(A, sol)


def test_solver_input_errors():
    with pytest.raises(MatrixGameError):
        solve_matrix_game([[np.nan, 1.0]], TOL)
    with pytest.raises(MatrixGameError):
        solve_matrix_game(np.zeros((0, 2)), TOL)
    for tol in (0.0, np.nan):
        with pytest.raises(MatrixGameError):
            solve_matrix_game([[1.0]], tol=tol)


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

_X = expr.parse("x", ["x", "y"])
_ONE = expr.parse("1", ["x", "y"])


def _one_state_spec(**changes) -> GameSpec:
    return GameSpec(**{"states": 1, "x_box": ((0.0, 1.0),), "y_box": ((0.0, 1.0),),
                       "payoff": (_X,), "transition": ((_ONE,),), **changes})


def _one_state_game(g, rho) -> DiscretizedGame:
    grid = np.zeros((2, 1))
    return DiscretizedGame(states=1, grids_x=(grid,), grids_y=(grid,),
                           g=(np.asarray(g, dtype=float),),
                           rho=(np.asarray(rho, dtype=float),))


def _two_state_game(**changes) -> DiscretizedGame:
    grid = np.zeros((2, 1))
    return DiscretizedGame(**{"states": 2, "grids_x": (grid, grid), "grids_y": (grid, grid),
                              "g": (np.zeros((2, 2)),) * 2,
                              "rho": (np.full((2, 2, 2), 0.5),) * 2, **changes})


@pytest.mark.parametrize("make, match", [
    (lambda: _one_state_spec(states=0), "states must be an integer >= 1, got 0"),
    (lambda: _one_state_spec(states=2.0), "states must be an integer >= 1, got 2.0"),
    (lambda: _one_state_spec(payoff=(_X, _X)), "one payoff expression per state"),
    (lambda: _one_state_spec(transition=()), "d x d expression table"),
    (lambda: _one_state_spec(transition=((_ONE, _ONE),)), "d x d expression table"),
    (lambda: _one_state_spec(controller=("p1", "p2")), "controller tags must cover"),
    (lambda: _one_state_spec(x_box=((1.0, 1.0),)), r"bad box bounds \(1.0, 1.0\)"),
    (lambda: _one_state_spec(y_box=((0.0, math.inf),)), r"bad box bounds \(0.0, inf\)"),
    (lambda: _one_state_game(np.zeros((2, 2)), np.ones((2, 1, 1))),
     "tensor shape mismatch in state 0"),
    (lambda: DiscretizedGame(states=0, grids_x=(), grids_y=(), g=(), rho=()),
     "states must be an integer >= 1, got 0"),
    (lambda: _two_state_game(states=2.0), "states must be an integer >= 1, got 2.0"),
    (lambda: _two_state_game(g=(np.zeros((2, 2)),)), "g needs one entry per state: 1 for 2"),
    (lambda: _two_state_game(rho=(np.ones((2, 2, 2)),) * 3), "rho needs one entry per state"),
    (lambda: _two_state_game(grids_x=(np.zeros((2, 1)),)), "grids_x needs one entry"),
    (lambda: _two_state_game(grids_y=()), "grids_y needs one entry per state: 0 for 2"),
    (lambda: _two_state_game(controller=("p1",)), "controller needs one entry per state"),
    (lambda: _two_state_game(grids_x=(np.zeros((2, 1)), np.zeros((3, 1)))),
     r"state 1: grids of 3 and 2 points for a \(2, 2\) payoff"),
    (lambda: _two_state_game(grids_y=(np.zeros((1, 1)), np.zeros((2, 1)))),
     r"state 0: grids of 2 and 1 points"),
    (lambda: _one_state_game(np.zeros(2), np.ones((2, 1))), "tensor shape mismatch in state 0"),
    (lambda: discretize(_one_state_spec(), 5.9),
     "grid resolution must be an integer >= 2, got 5.9"),
    (lambda: discretize(_one_state_spec(), "7"),
     "grid resolution must be an integer >= 2, got '7'"),
], ids=["no-states", "fractional-states", "payoff-count", "transition-rows",
        "transition-columns", "controller-count", "empty-box", "infinite-box",
        "tensor-shapes", "no-grid-states", "fractional-grid-states", "g-count", "rho-count",
        "grids-x-count", "grids-y-count", "controller-tags", "x-grid-rows", "y-grid-rows",
        "flat-payoff", "fractional-resolution", "text-resolution"])
def test_game_input_checks(make, match):
    with pytest.raises(GameSpecError, match=match):
        make()


def test_two_state_game_of_the_input_checks_builds():
    # every case above changes one field of this game, which is valid
    assert _two_state_game(controller=("p1", None)).states == 2


def test_payoff_bound_is_the_largest_absolute_payoff():
    game = _one_state_game([[1.0, -3.5], [2.0, 0.0]], np.ones((2, 2, 1)))
    assert game.payoff_bound() == 3.5


def test_uniform_grid_endpoints():
    pts = uniform_grid(((0.0, 1.0),), 2)
    assert pts.tolist() == [[0.0], [1.0]]
    pts = uniform_grid(((0.0, 1.0), (2.0, 4.0)), 3)
    assert pts.shape == (9, 2)
    assert pts[0].tolist() == [0.0, 2.0]
    assert pts[-1].tolist() == [1.0, 4.0]
    with pytest.raises(GameSpecError):
        uniform_grid(((0.0, 1.0),), 1)


def test_discretize_benchmark_game():
    game = discretize(bench.exshap_spec(), 41)
    assert game.states == 2
    assert game.g[0].shape == (41, 41)
    # absorbing state: payoff identically zero, self-transition one
    assert not game.g[0].any()
    assert (game.rho[0][:, :, 0] == 1.0).all()
    # complement construction keeps every row sum exactly at one
    for k in range(2):
        assert (game.rho[k].sum(axis=2) == 1.0).all()
        assert game.rho[k].min() >= 0.0
        assert game.rho[k].max() <= 1.0


def test_discretize_rejects_bad_rows():
    spec = GameSpec(
        states=1,
        x_box=((0.0, 1.0),), y_box=((0.0, 1.0),),
        payoff=(expr.parse("x", ["x", "y"]),),
        transition=((expr.parse("0.9999", ["x", "y"]),),),
    )
    with pytest.raises(GameSpecError):
        discretize(spec, 3)


def test_discretize_renormalizes_float_noise():
    spec = GameSpec(
        states=1,
        x_box=((0.0, 1.0),), y_box=((0.0, 1.0),),
        payoff=(expr.parse("x", ["x", "y"]),),
        transition=((expr.parse("1.0000000001", ["x", "y"]),),),
    )
    game = discretize(spec, 3)
    assert (game.rho[0] == 1.0).all()


def test_exact_row_sums_normalizes_vectors_and_rows():
    rng = np.random.default_rng(13)
    eps = np.finfo(float).eps
    for width in range(1, 9):
        rows = rng.gamma(1.0, size=(500, width))
        if width > 1:
            rows[::7, -1] = -1e-13  # float noise below zero is clipped
        out = game_module._exact_row_sums(rows)
        assert out.shape == rows.shape
        assert out.min() >= 0.0
        if width > 1:
            assert not out[::7, -1].any()
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 2 * eps
        if width <= 2:
            assert (out.sum(axis=1) == 1.0).all()
        for row, normalized in zip(rows[:20], out):
            vec = game_module._exact_row_sums(row)
            assert vec.shape == (width,)
            assert vec.min() >= 0.0 and abs(vec.sum() - 1.0) <= 2 * eps
            assert np.array_equal(vec, normalized)


def test_discretize_negative_probability():
    spec = GameSpec(
        states=2,
        x_box=((0.0, 1.0),), y_box=((0.0, 1.0),),
        payoff=(expr.parse("0", ["x", "y"]),) * 2,
        transition=(
            (expr.parse("1.5", ["x", "y"]), expr.parse("-0.5", ["x", "y"])),
            (expr.parse("0", ["x", "y"]), expr.parse("1", ["x", "y"])),
        ),
    )
    with pytest.raises(GameSpecError):
        discretize(spec, 3)


def test_discretize_domain_error_at_node():
    spec = GameSpec(
        states=1,
        x_box=((0.0, 1.0),), y_box=((0.0, 1.0),),
        payoff=(expr.parse("log(x)", ["x", "y"]),),
        transition=((expr.parse("1", ["x", "y"]),),),
    )
    with pytest.raises(EvalDomainError):
        discretize(spec, 3)


@pytest.mark.parametrize("payoff", ["1/(1/(x-x))", "exp(-1/x)", "exp(log(x))"])
def test_discretize_rejects_nonfinite_intermediate(payoff):
    # each is finite or absent at x = 0 only through an infinite intermediate
    spec = GameSpec(
        states=1,
        x_box=((0.0, 1.0),), y_box=((0.0, 1.0),),
        payoff=(expr.parse(payoff, ["x", "y"]),),
        transition=((expr.parse("1", ["x", "y"]),),),
    )
    with pytest.raises(EvalDomainError, match=r"payoff\[0\]: .* at x=0\.0, y=0\.0"):
        discretize(spec, 5)


def test_grid_evaluation_matches_scalar_eval():
    for name in ("exshap", "mckinsey"):
        spec, _ = game_spec_from_document(builtin_game_file(name))
        game = discretize(spec, 5)
        for k in range(spec.states):
            xs = game.grids_x[k][:, 0]
            ys = game.grids_y[k][:, 0]
            for i, x in enumerate(xs):
                for j, y in enumerate(ys):
                    direct = expr.evaluate(spec.payoff[k], {"x": x, "y": y})
                    assert game.g[k][i, j] == direct, (name, k, i, j)


def _log_sources(monkeypatch, failing=()):
    """Log the whole-matrix sources that run, ``"tableau"`` for the numpy
    simplex and ``"lp"`` for the HiGHS LP, in order; those named in
    ``failing`` give up.  Double oracle's restricted solves are logged as
    ``"tableau"`` too, so tests that read the log use games it skips."""
    calls = []

    def logged(name, real):
        def solve(A):
            calls.append(name)
            return None if name in failing else real(A)
        return solve

    monkeypatch.setattr(game_module, "_tableau_solve",
                        logged("tableau", game_module._tableau_solve))
    monkeypatch.setattr(game_module, "_lp_solve", logged("lp", game_module._lp_solve))
    return calls


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_lp_fallback_certifies(monkeypatch, failing):
    # after the pure pair come the hint's supports, the whole-matrix tableau
    # and the HiGHS LP; when the first `failing` of them fail, the next one
    # certifies.  The stale hint's support (row 0, column 0) brackets [1, 3]
    A = [[3, 1], [0, 2]]
    hint = solve_matrix_game(A, TOL) if failing == 0 else MatrixGameSolution(
        3.0, np.array([1.0, 0.0]), np.array([1.0, 0.0]), 0.0)
    calls = _log_sources(monkeypatch, failing=("tableau",) if failing == 2 else ())
    sol = solve_matrix_game(A, TOL, hint=hint)
    assert calls == ["tableau", "lp"][:failing]
    assert abs(sol.value - 1.5) <= 2 * TOL
    assert sol.duality_gap <= TOL
    assert certificate_holds(A, sol)


def test_real_lp_fallback_certifies(monkeypatch):
    # at entries ~1e8 a gap of 1e-9 is at the float limit: the tableau and
    # its support solve stop at gaps 1.5e-8 and 7.5e-9 on this game, and
    # HiGHS's simplex certifies it (scipy 1.17)
    A = np.random.default_rng(9).uniform(-1, 1, (3, 3)) * 1e8
    calls = _log_sources(monkeypatch)
    sol = solve_matrix_game(A, TOL)
    assert calls == ["tableau", "lp"]
    assert sol.duality_gap <= TOL
    assert certificate_holds(A, sol)
    assert sol.value == pytest.approx(_column_lp_value(A), rel=1e-12)


def test_last_resort_lp_certifies(monkeypatch):
    # with the tableau switched off, the HiGHS LP, last in the stream,
    # solves every game that has no pure saddle, one LP per game
    calls = _log_sources(monkeypatch, failing=("tableau",))
    rng = np.random.default_rng(17)
    for _ in range(20):
        A = rng.uniform(-1, 1, rng.integers(2, 7, 2))
        calls.clear()
        sol = solve_matrix_game(A, TOL)
        saddle = A.min(axis=1).max() == A.max(axis=0).min()
        assert calls == ([] if saddle else ["tableau", "lp"])
        assert sol.duality_gap <= TOL
        assert certificate_holds(A, sol)
        assert abs(sol.value - matrix_game_bruteforce(A)) <= 2 * TOL


def test_lp_failed_on_all_attempts(monkeypatch):
    calls = _log_sources(monkeypatch, failing=("tableau", "lp"))
    with pytest.raises(MatrixGameError,
                       match="could not certify requested duality gap") as err:
        solve_matrix_game([[3, 1], [0, 2]], TOL)
    # the pure pair (row 0, column 1) brackets the value by [1, 2]
    assert err.value.best_gap == 0.5
    assert calls == ["tableau", "lp"]


def test_lp_failure_status_leaves_the_pure_pair_gap(monkeypatch):
    # HiGHS does report failure (status 4 on a McKinsey grid): the real
    # _lp_solve then returns no candidate, and with the tableau off the
    # error reports the gap of the pure pair (row 0, column 1), bracket [1, 2]
    methods = []

    def linprog(*args, **kwargs):
        methods.append(kwargs["method"])
        return SimpleNamespace(success=False, status=4)

    monkeypatch.setattr(game_module, "linprog", linprog)
    calls = _log_sources(monkeypatch, failing=("tableau",))
    with pytest.raises(MatrixGameError,
                       match="could not certify requested duality gap") as err:
        solve_matrix_game([[3, 1], [0, 2]], TOL)
    assert err.value.best_gap == 0.5
    assert calls == ["tableau", "lp"] and methods == ["highs"]


def test_lp_best_gap_when_no_configuration_certifies(monkeypatch):
    # the tableau and the LP both return the pure profile (row 0, column 0)
    # of matching pennies, whose certified gap is 1
    def linprog(*args, **kwargs):
        return SimpleNamespace(success=True, x=np.array([1.0, 0.0, 0.0]),
                               ineqlin=SimpleNamespace(marginals=np.array([-1.0, 0.0])))

    monkeypatch.setattr(game_module, "linprog", linprog)
    monkeypatch.setattr(game_module, "_tableau_solve",
                        lambda B: (np.array([1.0, 0.0]), np.array([1.0, 0.0])))
    with pytest.raises(MatrixGameError) as err:
        solve_matrix_game([[1, -1], [-1, 1]], TOL)
    assert err.value.best_gap == 1.0


# fully mixed 3x3 game (a skewed rock-paper-scissors): every row and column
# is in the optimal support, so no pure saddle exists
_MIXED = np.array([[0.0, -1.0, 2.0], [1.5, 0.0, -1.0], [-1.0, 1.0, 0.0]])


def _forbid_lp(monkeypatch):
    def linprog(*args, **kwargs):
        raise AssertionError("linprog called")

    monkeypatch.setattr(game_module, "linprog", linprog)


def test_hint_certifies_perturbed_game_without_lp(monkeypatch):
    rng = np.random.default_rng(7)
    hint = solve_matrix_game(_MIXED, TOL)
    A = _MIXED + rng.uniform(-1e-3, 1e-3, _MIXED.shape)
    expected = solve_matrix_game(A, TOL)
    _forbid_lp(monkeypatch)
    sol = solve_matrix_game(A, TOL, hint=hint)
    assert sol.duality_gap <= TOL
    assert certificate_holds(A, sol)
    assert abs(sol.value - expected.value) <= 2 * TOL


def test_stale_hint_falls_back_to_tableau(monkeypatch):
    # the hint's support (row 0, column 0) is not optimal for _MIXED
    stale = MatrixGameSolution(0.0, np.array([1.0, 0.0, 0.0]),
                               np.array([1.0, 0.0, 0.0]), 0.0)
    calls = _log_sources(monkeypatch)
    sol = solve_matrix_game(_MIXED, TOL, hint=stale)
    assert calls == ["tableau"]
    assert sol.duality_gap <= TOL
    assert certificate_holds(_MIXED, sol)
    assert abs(sol.value - matrix_game_bruteforce(_MIXED)) <= 2 * TOL


def test_hinted_solves_match_bruteforce(monkeypatch):
    # each matrix is solved with two hints: the solution of a 1e-3
    # perturbation, and the solution of the previous matrix of its shape
    calls = _log_sources(monkeypatch)
    rng = np.random.default_rng(29)
    previous = {}
    hinted = []  # per hinted solve of a game without a pure saddle: no tableau?
    for _ in range(200):
        A = rng.uniform(-1, 1, rng.integers(1, 7, 2))
        near = solve_matrix_game(A + rng.uniform(-1e-3, 1e-3, A.shape), TOL)
        exact = matrix_game_bruteforce(A)
        for hint in (near, previous.get(A.shape)):
            if hint is None:
                continue
            before = len(calls)
            sol = solve_matrix_game(A, TOL, hint=hint)
            if A.min(axis=1).max() != A.max(axis=0).min():  # no pure saddle
                hinted.append(len(calls) == before)
            assert abs(sol.value - exact) <= 2 * TOL
            assert sol.duality_gap <= TOL
            assert certificate_holds(A, sol)
        previous[A.shape] = sol
    # the hint path is exercised: over half of these certify without the tableau
    assert len(hinted) >= 150 and sum(hinted) > len(hinted) / 2


def test_hint_of_wrong_shape_raises():
    hint = solve_matrix_game([[3, 1], [0, 2]], TOL)
    for A in (_MIXED, [[3, 1, 2], [0, 2, 1]], [[1.0]]):
        with pytest.raises(MatrixGameError, match="hint strategies"):
            solve_matrix_game(A, TOL, hint=hint)


def test_pure_saddle_ignores_mixed_hint(monkeypatch):
    A = np.array([[1.0, 2.0], [0.0, 3.0]])  # saddle at row 0, column 0
    hint = MatrixGameSolution(1.5, np.array([0.5, 0.5]), np.array([0.5, 0.5]), 0.0)
    _forbid_lp(monkeypatch)
    sol = solve_matrix_game(A, TOL, hint=hint)
    assert sol.value == 1.0
    assert sol.duality_gap == 0.0
    assert sol.row_strategy.tolist() == [1.0, 0.0]
    assert sol.col_strategy.tolist() == [1.0, 0.0]


def test_hint_that_is_no_probability_vector_is_not_returned():
    # p @ A and A @ q are both (0.75, 0.75), a gap of 0 at 0.75, but the
    # strategies sum to 1/2: the hint's supports give the value, 1.5
    A = [[3.0, 1.0], [0.0, 2.0]]
    hint = MatrixGameSolution(0.75, np.array([0.25, 0.25]), np.array([0.125, 0.375]), 0.0)
    sol = solve_matrix_game(A, TOL, hint=hint)
    assert abs(sol.value - 1.5) <= 2 * TOL
    assert sol.duality_gap <= TOL
    assert certificate_holds(A, sol)


def test_all_zero_hint_has_no_support_and_solves_as_cold(monkeypatch):
    # the zero strategies bracket [[1, -1], [-1, 1]] at 0 with gap 0 but
    # are no probability vectors, and their supports are empty, so neither
    # entry gets a support solve from the hint; both return the cold solve's
    # value and gap
    A = np.array([[1.0, -1.0], [-1.0, 1.0]])
    zero = MatrixGameSolution(0.0, np.zeros(2), np.zeros(2), 0.0)
    cold = solve_matrix_game(A, TOL)
    support_solves = []
    real = game_module._support_solve

    def support_solve(B, sol):
        support_solves.append((sol is zero, real(B, sol)))
        return support_solves[-1][1]

    monkeypatch.setattr(game_module, "_support_solve", support_solve)
    sol = solve_matrix_game(A, TOL, hint=zero)
    values, gaps = solve_matrix_game_stack(A[None], TOL, hint=zero)
    assert [r for from_hint, r in support_solves if from_hint] == [None, None]
    for value, gap in ((sol.value, sol.duality_gap), (values[0], gaps[0])):
        assert np.array_equal([value, gap], [cold.value, cold.duality_gap])


@pytest.mark.parametrize("row, col", [((0.0, 0.0), (0.5, 0.5)),
                                      ((0.5, 0.5), (0.0, 0.0)),
                                      ((1.0, 0.0), (0.0, 0.0))],
                         ids=["empty-row", "empty-column", "pure-row-empty-column"])
def test_one_sided_empty_hint_has_no_support_solve(row, col):
    # with one support empty, the other side cannot be cut to zero
    # actions, so only _support_solve's empty-support branch keeps this
    # hint from a nonsquare kernel; both entries solve as cold
    A = np.array([[1.0, -1.0], [-1.0, 1.0]])
    hint = MatrixGameSolution(0.0, np.array(row), np.array(col), 0.0)
    cold = solve_matrix_game(A, TOL)
    assert game_module._support_solve(A, hint) is None
    sol = solve_matrix_game(A, TOL, hint=hint)
    values, gaps = solve_matrix_game_stack(A[None], TOL, hint=hint)
    for value, gap in ((sol.value, sol.duality_gap), (values[0], gaps[0])):
        assert np.array_equal([value, gap], [cold.value, cold.duality_gap])


@pytest.mark.parametrize("bad", [-0.5, math.nan])
def test_hint_with_a_negative_or_nan_entry_is_not_returned(bad):
    # with p = q = (0.75, 0.75, -0.5) the bracket is inverted: p @ A is at
    # least 4 and A @ q at most -1, which would read as value 1.5 at gap 0.
    # The value is 1, from the first two rows and columns
    A = np.array([[2.0, 0.0, 5.0], [0.0, 2.0, 5.0], [-5.0, -5.0, -5.0]])
    s = np.array([0.75, 0.75, bad]) if bad < 0 else np.array([0.5, bad, 0.5])
    sol = solve_matrix_game(A, TOL, hint=MatrixGameSolution(1.5, s, s.copy(), 0.0))
    for mix in (sol.row_strategy, sol.col_strategy):
        assert not np.array_equal(mix, s, equal_nan=True)
        assert mix.min() >= 0.0
    assert abs(sol.value - 1.0) <= 2 * TOL
    assert sol.duality_gap <= TOL
    assert certificate_holds(A, sol)


def test_hint_that_certifies_is_returned_without_a_support_solve(monkeypatch):
    # a constant shift leaves a game's optimal strategies in place, so the
    # hint certifies A + 7 with no equalization system solved
    hint = solve_matrix_game(_MIXED, TOL)

    def equalizing_mixes(B):
        raise AssertionError("support solve")

    monkeypatch.setattr(game_module, "_equalizing_mixes", equalizing_mixes)
    calls = _log_sources(monkeypatch)
    sol = solve_matrix_game(_MIXED + 7.0, TOL, hint=hint)
    assert calls == []
    for mix, given in ((sol.row_strategy, hint.row_strategy),
                       (sol.col_strategy, hint.col_strategy)):
        assert np.array_equal(mix, given)
        assert mix is not given and not np.shares_memory(mix, given)
    assert abs(sol.value - (hint.value + 7.0)) <= 2 * TOL
    assert sol.duality_gap <= TOL
    assert certificate_holds(_MIXED + 7.0, sol)


def test_exact_pure_saddle_beats_a_hint_that_certifies(monkeypatch):
    # the hint's own gap is within tol, but the pure pair comes first and
    # is an exact saddle: value 1 at gap 0
    A = np.array([[1.0, 2.0], [0.0, 3.0]])
    s = np.array([1.0 - 1e-12, 1e-12])
    assert game_module._certify(A, s, s).duality_gap <= TOL
    _forbid_lp(monkeypatch)
    sol = solve_matrix_game(A, TOL, hint=MatrixGameSolution(1.0, s, s.copy(), 0.0))
    assert sol.value == 1.0
    assert sol.duality_gap == 0.0
    assert sol.row_strategy.tolist() == [1.0, 0.0]
    assert sol.col_strategy.tolist() == [1.0, 0.0]


def test_hint_that_no_longer_certifies_gets_its_support_solve():
    # the hint's strategies are 1e-3 off for the perturbed game, but their
    # supports are right: the result is the support solve, bit for bit
    hint = solve_matrix_game(_MIXED, TOL)
    A = _MIXED + np.random.default_rng(7).uniform(-1e-3, 1e-3, _MIXED.shape)
    assert game_module._certify(A, hint.row_strategy, hint.col_strategy).duality_gap > TOL
    sol = solve_matrix_game(A, TOL, hint=hint)
    expected = game_module._support_solve(A, hint)
    assert sol.value == expected.value
    assert sol.duality_gap == expected.duality_gap <= TOL
    assert np.array_equal(sol.row_strategy, expected.row_strategy)
    assert np.array_equal(sol.col_strategy, expected.col_strategy)


def _stack_case(rng, case):
    """A seeded stack of one kind, its hint, and whether its games go on to
    :func:`solve_matrix_game`."""
    s = int(rng.integers(1, 6))
    m, n = (int(k) for k in rng.integers(2, 8, 2))
    if case == "pure":  # u_i + v_j has a saddle at (argmax u, argmin v)
        u, v = rng.uniform(-1, 1, (s, m, 1)), rng.uniform(-1, 1, (s, 1, n))
        return u + v, solve_matrix_game(rng.uniform(-1, 1, (m, n)), TOL), False
    if case == "thin":  # a single row or a single column
        return rng.uniform(-1, 1, (s, 1, n) if rng.integers(2) else (s, m, 1)), None, False
    if case == "no mix":  # strategies summing to 1/2 that bracket a false gap 0
        hint = MatrixGameSolution(0.75, np.array([0.25, 0.25]), np.array([0.125, 0.375]), 0.0)
        return np.array([[3.0, 1.0], [0.0, 2.0]]) + rng.uniform(-5, 5, (s, 1, 1)), hint, True
    # constant shifts of _MIXED, which its own solution certifies, or of
    # perturbations of it, which neither the pure pairs nor the stale hint
    # (row 0 against column 0) certify
    stack = _MIXED + rng.uniform(-5, 5, (s, 1, 1))
    if case == "certifies":
        return stack, solve_matrix_game(_MIXED, TOL), False
    stack += rng.uniform(-1e-2, 1e-2, stack.shape)
    return stack, None if case == "cold" else MatrixGameSolution(
        0.0, np.eye(3)[0], np.eye(3)[0], 0.0), True


@pytest.mark.parametrize("case", ["pure", "thin", "certifies", "fails", "cold", "no mix"])
def test_stack_matches_solve_matrix_game_bit_for_bit(monkeypatch, case):
    # a game that neither its pure pair nor the hint's own strategies
    # certify goes on to the rest of the candidate stream, whichever entry
    # it came in by; the stack never restarts one from the input checks
    entered, restarted = [], []
    real = game_module._solve_uncertified

    def solve(A, tol, hint, pure):
        entered.append(A.shape)
        return real(A, tol, hint, pure)

    monkeypatch.setattr(game_module, "_solve_uncertified", solve)
    monkeypatch.setattr(game_module, "solve_matrix_game",
                        lambda *args: restarted.append(args) or solve_matrix_game(*args))
    rng = np.random.default_rng(47)
    fallbacks = expected_fallbacks = 0
    for _ in range(100):
        stack, hint, falls = _stack_case(rng, case)
        entered.clear()
        values, gaps = solve_matrix_game_stack(stack, TOL, hint)
        fallbacks += len(entered)
        expected_fallbacks += len(stack) if falls else 0
        assert values.shape == gaps.shape == (len(stack),)
        for k, A in enumerate(stack):
            sol = solve_matrix_game(A.copy(), TOL, hint)
            assert np.array_equal(values[k], sol.value)
            assert np.array_equal(gaps[k], sol.duality_gap)
        assert len(entered) == (2 * len(stack) if falls else 0)
    assert fallbacks == expected_fallbacks
    assert restarted == []


def test_stack_rejects_nonfinite_entries_and_misfit_hints():
    stack = np.stack([_MIXED, _MIXED + 1.0])
    for bad in (np.nan, np.inf):
        broken = stack.copy()
        broken[1, 2, 0] = bad
        with pytest.raises(MatrixGameError, match="nonfinite"):
            solve_matrix_game_stack(broken, TOL)
    hint = solve_matrix_game([[3, 1], [0, 2]], TOL)
    # the pure pairs of these stacks certify, so only the check can raise
    for misfit in (np.zeros((2, 3, 2)), np.zeros((2, 2, 3)), np.zeros((1, 1, 1))):
        with pytest.raises(MatrixGameError, match="hint strategies"):
            solve_matrix_game_stack(misfit, TOL, hint)
    for shape in ((3, 3), (0, 2, 2), (2, 0, 3)):
        with pytest.raises(MatrixGameError, match="3-D and nonempty"):
            solve_matrix_game_stack(np.zeros(shape), TOL)


_MISFIT = MatrixGameSolution(0.0, np.full(3, 1 / 3), np.full(2, 0.5), 0.0)


@pytest.mark.parametrize("entry", ["matrix", "stack"])
@pytest.mark.parametrize("payoff, tol, hint, message", [
    ([[3, 1], [0, 2]], 0.0, None, "tol must be positive"),
    ([[3, 1], [0, 2]], math.nan, None, "tol must be positive"),
    ([[3, math.inf], [0, 2]], TOL, None, "payoff {entry} contains nonfinite entries"),
    ([[3, 1], [math.nan, 2]], TOL, None, "payoff {entry} contains nonfinite entries"),
    (np.zeros((2, 0)), TOL, None, "payoff {entry} must be {ndim}-D and nonempty"),
    ([[3, 1], [0, 2]], TOL, _MISFIT, "hint strategies of lengths (3,) and (2,) "
                                     "do not fit a (2, 2) payoff matrix"),
    # the checks run in one order: entries, then tol, then the hint
    ([[math.nan]], 0.0, _MISFIT, "payoff {entry} contains nonfinite entries"),
    ([[1.0]], 0.0, _MISFIT, "tol must be positive"),
], ids=["tol-zero", "tol-nan", "infinite", "nan", "empty", "misfit-hint",
        "entries-first", "tol-before-hint"])
def test_both_kernel_entries_check_their_input_alike(entry, payoff, tol, hint, message):
    A = np.asarray(payoff, dtype=float)
    if entry == "matrix":
        call, ndim = (lambda: solve_matrix_game(A, tol, hint)), 2
    else:
        call, ndim = (lambda: solve_matrix_game_stack(A[None], tol, hint)), 3
    with pytest.raises(MatrixGameError) as err:
        call()
    assert str(err.value) == message.format(entry=entry, ndim=ndim)


def _count_support_solves(monkeypatch):
    """Patches ``_support_solve`` to record the solutions it is given."""
    seen = []
    real = game_module._support_solve

    def support_solve(A, sol):
        seen.append(sol)
        return real(A, sol)

    monkeypatch.setattr(game_module, "_support_solve", support_solve)
    return seen


def test_cold_solution_that_certifies_gets_no_support_solve(monkeypatch):
    # the whole-matrix tableau certifies _MIXED: its own strategies are
    # returned, and the support solve that would follow them never runs
    seen = _count_support_solves(monkeypatch)
    _forbid_lp(monkeypatch)
    sol = solve_matrix_game(_MIXED, TOL)
    assert seen == []
    p, q = game_module._tableau_solve(_MIXED)
    assert np.array_equal(sol.row_strategy, p)
    assert np.array_equal(sol.col_strategy, q)
    expected = game_module._certify(_MIXED, p, q)
    assert sol.value == expected.value
    assert sol.duality_gap == expected.duality_gap <= TOL
    assert certificate_holds(_MIXED, sol)


def test_degenerate_tableau_solution_that_misses_tol_gets_its_support_solve(monkeypatch):
    # the {-1, 0, 1} game of the pivot-cap test: its degenerate basic
    # solution stops at a gap of ~2e-16, above a tol of 1e-16, and the
    # support solve on its supports, which follows it, certifies gap 0
    A = np.random.default_rng(41).integers(-1, 2, (10, 10)).astype(float)
    tol = 1e-16
    tableau = game_module._certify(A, *game_module._tableau_solve(A))
    assert tableau.duality_gap > tol
    seen = _count_support_solves(monkeypatch)
    _forbid_lp(monkeypatch)
    sol = solve_matrix_game(A, tol)
    assert len(seen) == 1
    assert np.array_equal(seen[0].row_strategy, tableau.row_strategy)
    assert np.array_equal(seen[0].col_strategy, tableau.col_strategy)
    expected = game_module._support_solve(A, tableau)
    assert sol.value == expected.value
    assert sol.duality_gap == expected.duality_gap <= tol
    assert certificate_holds(A, sol)


def test_pure_pair_candidate_is_its_own_certificate(monkeypatch):
    # at an unbounded tol the pure pair, the first candidate, is returned;
    # its hand-built bracket must be what _certify computes for it
    _forbid_lp(monkeypatch)
    rng = np.random.default_rng(31)
    for t in range(300):
        shape = rng.integers(1, 9, 2)
        A = (rng.uniform(-1, 1, shape) if t % 2
             else rng.integers(-3, 4, shape).astype(float))
        sol = solve_matrix_game(A, np.inf)
        i, j = A.min(axis=1).argmax(), A.max(axis=0).argmin()
        assert np.array_equal(sol.row_strategy, np.eye(A.shape[0])[i])
        assert np.array_equal(sol.col_strategy, np.eye(A.shape[1])[j])
        ref = game_module._certify(A, sol.row_strategy, sol.col_strategy)
        assert (np.array([sol.value, sol.duality_gap]).tobytes()
                == np.array([ref.value, ref.duality_gap]).tobytes())


def test_near_saddle_returns_pure_pair(monkeypatch):
    # maximin 1 (row 0) and minimax 1 + 2e-10 (column 0): no exact saddle,
    # but the pure pair's gap of 1e-10 is within tol, so no LP runs
    A = np.array([[1.0, 2.0], [1.0 + 2e-10, 0.0]])
    _forbid_lp(monkeypatch)
    sol = solve_matrix_game(A, TOL)
    assert sol.row_strategy.tolist() == [1.0, 0.0]
    assert sol.col_strategy.tolist() == [1.0, 0.0]
    assert sol.duality_gap == 0.5 * (A[1, 0] - 1.0)
    assert certificate_holds(A, sol)


def test_pure_saddle_keeps_a_huge_value():
    # the value of a closed bracket is its end, not half the sum of both ends
    sol = solve_matrix_game([[1e308]], TOL)
    assert sol.value == 1e308
    assert sol.duality_gap == 0.0


def test_unbounded_bracket_reports_a_finite_gap(monkeypatch):
    # the pure pair brackets [-1e308, 1e308]: its half-width is finite
    # even though the width overflows.  The tableau certifies this matrix,
    # so it and the LP are made to fail to leave the pure pair the best
    _log_sources(monkeypatch, failing=("tableau", "lp"))
    with pytest.raises(MatrixGameError) as err:
        solve_matrix_game([[1e308, -1e308], [-1e308, 1e308]], TOL)
    assert err.value.best_gap == 1e308


@pytest.mark.parametrize("big", [1e15, 1e308])
def test_entries_beyond_highs_matrix_bound_certify(monkeypatch, big):
    # the tableau gets A scaled by a power of two, as HiGHS, which refuses
    # entries of 1e15 or more, would: the shift B - min B + 1 overflows on
    # the second matrix.  The strategies are certified against A itself
    _forbid_lp(monkeypatch)
    sol = solve_matrix_game([[big, 0.0], [0.0, big]], TOL)
    assert sol.value == big / 2
    assert sol.duality_gap == 0.0
    sol = solve_matrix_game([[big, -big], [-big, big]], TOL)
    assert sol.value == 0.0
    assert sol.duality_gap == 0.0


def test_singular_support_hint_falls_through_to_tableau(monkeypatch):
    # rows 0 and 1 agree on columns 0 and 1, so the equalization system of
    # the hinted support pair is singular and the tableau certifies 0.5
    A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    hint = MatrixGameSolution(0.5, np.array([0.5, 0.5, 0.0]),
                              np.array([0.5, 0.5]), 0.0)
    mixes = []
    real = game_module._equalizing_mixes

    def equalizing_mixes(B):
        mixes.append(real(B))
        return mixes[-1]

    monkeypatch.setattr(game_module, "_equalizing_mixes", equalizing_mixes)
    calls = _log_sources(monkeypatch)
    sol = solve_matrix_game(A, TOL, hint=hint)
    assert mixes[0] is None
    assert calls == ["tableau"]
    assert abs(sol.value - 0.5) <= TOL
    assert sol.duality_gap <= TOL
    assert certificate_holds(A, sol)


def _column_lp_value(A):
    # the column player's LP, independent of the kernel's row-player LP:
    # minimize u s.t. A q <= u 1, q in the simplex
    from scipy.optimize import linprog
    m, n = A.shape
    c = np.zeros(n + 1)
    c[-1] = 1.0
    res = linprog(c, A_ub=np.hstack([A, -np.ones((m, 1))]), b_ub=np.zeros(m),
                  A_eq=np.append(np.ones(n), 0.0)[None], b_eq=[1.0],
                  bounds=[(0, None)] * n + [(None, None)])
    assert res.success
    return res.fun


def test_tableau_solve_matches_oracles():
    rng = np.random.default_rng(41)
    for _ in range(30):
        A = rng.uniform(-1, 1, rng.integers(8, 13, 2))
        sol = game_module._certify(A, *game_module._tableau_solve(A))
        assert sol.duality_gap <= TOL
        assert abs(sol.value - _column_lp_value(A)) <= 2 * TOL
        B = A[:rng.integers(2, 7), :rng.integers(2, 7)]
        sub = game_module._certify(B, *game_module._tableau_solve(B))
        assert sub.duality_gap <= TOL
        assert abs(sub.value - matrix_game_bruteforce(B)) <= 2 * TOL


def test_double_oracle_past_the_size_cap_falls_through_to_tableau(monkeypatch):
    # a dense 60x60 random game, above the crossover, has an optimal support
    # of about 30 actions a side, more than double oracle may grow its
    # restricted game to; the tableau on the whole matrix then certifies
    A = np.random.default_rng(43).uniform(-1, 1, (60, 60))
    expected = _column_lp_value(A)
    sides = []
    real = game_module._tableau_solve

    def tableau_solve(B):
        sides.append(max(B.shape))
        return real(B)

    monkeypatch.setattr(game_module, "_tableau_solve", tableau_solve)
    _forbid_lp(monkeypatch)
    sol = solve_matrix_game(A, TOL)
    assert max(sides[:-1]) == game_module._DO_MAX_SIDE
    assert sides[-1] == 60
    assert sol.duality_gap <= TOL
    assert certificate_holds(A, sol)
    assert abs(sol.value - expected) <= 2 * TOL


def test_games_on_both_sides_of_the_crossover_certify_without_lp(monkeypatch):
    # the whole-matrix tableau below the crossover, double oracle above it;
    # on these dense games double oracle passes its size cap, so the tableau
    # certifies them too.  The 50x50 game runs no double-oracle round
    rng = np.random.default_rng(47)
    shapes = [(40, 40), (50, 50), (51, 51), (80, 80),
              (40, 80), (80, 40), (50, 70), (70, 60)]
    games = [rng.uniform(-1, 1, shape) for shape in shapes]
    expected = [_column_lp_value(A) for A in games]
    rounds = []
    real = game_module._double_oracle

    def double_oracle(A, start):
        for batch in real(A, start):
            rounds.append(A.shape)
            yield batch

    monkeypatch.setattr(game_module, "_double_oracle", double_oracle)
    _forbid_lp(monkeypatch)
    for A, value in zip(games, expected):
        sol = solve_matrix_game(A, TOL)
        assert sol.duality_gap <= TOL
        assert certificate_holds(A, sol)
        assert abs(sol.value - value) <= 2 * TOL
    assert set(rounds) == {(51, 51), (80, 80), (70, 60)}


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_double_oracle_stops_when_no_best_response_is_new(monkeypatch, seed):
    # the optimum of this 60x60 game sits in its dominant k x k block (rows
    # past k lowered, columns past k raised).  Double oracle grows from the
    # pure pair inside the block until neither best response is new; at tol
    # 1e-300 nothing certifies a gap of ~1e-16, so the whole-matrix tableau
    # and the LP follow and the stream raises
    rng = np.random.default_rng(seed)
    k = int(rng.integers(3, 9))
    A = rng.uniform(-1, 1, (60, 60))
    A[k:] -= 10.0
    A[:, k:] += 10.0
    calls = _log_sources(monkeypatch)
    rounds = []
    real = game_module._double_oracle

    def double_oracle(A, start):
        for batch in real(A, start):
            rounds.append(batch)
            yield batch

    monkeypatch.setattr(game_module, "_double_oracle", double_oracle)
    with pytest.raises(MatrixGameError) as err:
        solve_matrix_game(A, 1e-300)
    # one restricted solve per round, so none gave up; each round adds at
    # most one action a side to the 1x1 start, so the size cap did not end
    # it either
    assert calls == ["tableau"] * len(rounds) + ["tableau", "lp"]
    assert len(rounds) < game_module._DO_MAX_SIDE
    assert math.isfinite(err.value.best_gap) and 0 < err.value.best_gap < 1e-12


def test_whole_tableau_certifies_the_201_point_grids(monkeypatch):
    # Dantzig's rule takes its most pivots on these (341-529), well within
    # its budget; double oracle, which certifies them first, is switched off
    monkeypatch.setattr(game_module, "_double_oracle", lambda A, start: iter(()))
    _forbid_lp(monkeypatch)
    for z in (0.25, 0.5, 1.0):
        A = parametric.mckinsey_payoff_matrix(z, 201)
        sol = solve_matrix_game(A, TOL)
        assert sol.duality_gap <= TOL
        assert certificate_holds(A, sol)


def test_stale_hint_grows_by_double_oracle_without_lp(monkeypatch):
    # the supports of the z = 0.5 grid no longer certify at z = 0.55; double
    # oracle grows them into the new supports
    hint = solve_matrix_game(parametric.mckinsey_payoff_matrix(0.5, 201), TOL)
    A = parametric.mckinsey_payoff_matrix(0.55, 201)
    stale = game_module._support_solve(A, hint)
    assert stale is None or stale.duality_gap > TOL
    expected = _column_lp_value(A)
    _forbid_lp(monkeypatch)
    sol = solve_matrix_game(A, TOL, hint=hint)
    assert sol.duality_gap <= TOL
    assert certificate_holds(A, sol)
    assert abs(sol.value - expected) <= 2 * TOL


def test_tableau_pivot_cap_falls_through_to_lp(monkeypatch):
    # the ties of a {-1, 0, 1} payoff make degenerate pivots.  With no
    # Dantzig budget Bland's rule picks every pivot: it takes another path
    # than Dantzig's and certifies too.  With no pivots allowed at all the
    # tableau gives up, and the stream falls through to the HiGHS LP
    A = np.random.default_rng(41).integers(-1, 2, (10, 10)).astype(float)
    expected = _column_lp_value(A)
    dantzig = game_module._tableau_solve(A)
    monkeypatch.setattr(game_module, "_TABLEAU_PIVOTS", 0)
    bland = game_module._tableau_solve(A)
    assert not all(np.array_equal(d, b) for d, b in zip(dantzig, bland))
    calls = _log_sources(monkeypatch)
    default = game_module._TABLEAU_MAX_PIVOTS
    for cap, sources in ((default, ["tableau"]), (0, ["tableau", "lp"])):
        monkeypatch.setattr(game_module, "_TABLEAU_MAX_PIVOTS", cap)
        calls.clear()
        sol = solve_matrix_game(A, TOL)
        assert calls == sources
        assert sol.duality_gap <= TOL
        assert certificate_holds(A, sol)
        assert abs(sol.value - expected) <= 2 * TOL
    # above the crossover, with no pivots allowed, double oracle's first
    # restricted solve gives up, then the whole-matrix tableau, and the
    # HiGHS LP certifies; at the default cap no LP runs
    big = np.random.default_rng(41).integers(-1, 2, (60, 60)).astype(float)
    expected = _column_lp_value(big)
    for cap in (0, default):
        monkeypatch.setattr(game_module, "_TABLEAU_MAX_PIVOTS", cap)
        calls.clear()
        sol = solve_matrix_game(big, TOL)
        if cap == 0:
            assert calls == ["tableau", "tableau", "lp"]
        else:
            assert "lp" not in calls
        assert sol.duality_gap <= TOL
        assert certificate_holds(big, sol)
        assert abs(sol.value - expected) <= 2 * TOL


@pytest.mark.parametrize("transpose", [False, True])
def test_support_solve_cuts_the_longer_side(monkeypatch, transpose):
    # the hint weights two rows and three columns; the support solve keeps
    # the two heaviest columns, 0 and 1, whose 2x2 kernel [[2, 0], [0, 1]]
    # solves the game: value 2/3, gap 0.  The game -A^T with the hint's
    # strategies swapped cuts the rows by the same rule
    A = np.array([[2.0, 0.0, 3.0], [0.0, 1.0, 3.0], [-1.0, -1.0, -1.0]])
    p, q = np.array([0.6, 0.4, 0.0]), np.array([0.5, 0.3, 0.2])
    if transpose:
        A, p, q = -A.T, q, p
    calls = _log_sources(monkeypatch)
    sol = solve_matrix_game(A, TOL, hint=MatrixGameSolution(0.0, p, q, 0.0))
    assert calls == []
    assert sol.duality_gap == 0.0
    assert abs(sol.value - (-2 / 3 if transpose else 2 / 3)) <= 2 * TOL
    kept = sol.row_strategy if transpose else sol.col_strategy
    assert kept.nonzero()[0].tolist() == [0, 1]
    assert certificate_holds(A, sol)


def test_bland_rule_leaves_the_first_basic_variable(monkeypatch):
    # with no Dantzig budget Bland's rule picks every pivot.  On this
    # degenerate game the second pivot (column 1 entering) ties all three
    # rows at ratio 1/2; the rule drops the tied row whose basic variable
    # comes first, column 0's, and ends at row mix (0, 0, 1).  The plain
    # minimum ratio drops the first row's slack and ends at (1/2, 0, 1/2)
    A = np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    monkeypatch.setattr(game_module, "_TABLEAU_PIVOTS", 0)
    p, q = game_module._tableau_solve(A)
    assert p.tolist() == [0.0, 0.0, 1.0]
    assert q.tolist() == [0.0, 1.0]


def test_kernel_leaves_its_inputs_alone(monkeypatch):
    # A and the hint's strategies are bitwise unchanged on every exit of
    # the stream: the pure pair, the hint's support solve, double oracle,
    # the whole-matrix tableau and the HiGHS LP
    calls = _log_sources(monkeypatch)
    shapes = []
    real = game_module._tableau_solve

    def tableau_solve(B):
        shapes.append(B.shape)
        return real(B)

    def solve(A, hint=None):
        inputs = [A] if hint is None else [A, hint.row_strategy, hint.col_strategy]
        before = [x.tobytes() for x in inputs]
        calls.clear()
        shapes.clear()
        sol = solve_matrix_game(A, TOL, hint=hint)
        assert [x.tobytes() for x in inputs] == before
        assert sol.duality_gap <= TOL
        assert certificate_holds(A, sol)
        return sol

    mixed = MatrixGameSolution(1.5, np.array([0.5, 0.5]), np.array([0.5, 0.5]), 0.0)
    assert solve(np.array([[1.0, 2.0], [0.0, 3.0]]), mixed).duality_gap == 0.0
    solve(_MIXED + 1e-3, solve(_MIXED))
    assert calls == []  # the hint certified
    stale = MatrixGameSolution(0.0, np.array([1.0, 0.0, 0.0]),
                               np.array([1.0, 0.0, 0.0]), 0.0)
    solve(_MIXED.copy(), stale)
    assert calls == ["tableau"]
    monkeypatch.setattr(game_module, "_tableau_solve", tableau_solve)
    grid = parametric.mckinsey_payoff_matrix(0.55, 201)
    solve(grid, solve_matrix_game(parametric.mckinsey_payoff_matrix(0.5, 201), TOL))
    assert shapes and grid.shape not in shapes  # double oracle certified
    calls = _log_sources(monkeypatch, failing=("tableau",))
    solve(_MIXED.copy(), stale)
    assert calls == ["tableau", "lp"]


def test_successive_hinted_solves_of_one_support_size_match_bruteforce(monkeypatch):
    # two fully mixed 3x3 games, each certified by its hint's support solve
    # on the same 3x3 support: neither solve may see the other's system
    calls = _log_sources(monkeypatch)
    rng = np.random.default_rng(53)
    games = [_MIXED, _MIXED.T * -2.0 + 0.5]
    hints = [solve_matrix_game(A + rng.uniform(-1e-3, 1e-3, A.shape), TOL)
             for A in games]
    calls.clear()
    for A, hint in zip(games, hints):
        sol = solve_matrix_game(A, TOL, hint=hint)
        assert (sol.row_strategy > 0).all() and (sol.col_strategy > 0).all()
        assert abs(sol.value - matrix_game_bruteforce(A)) <= 2 * TOL
        assert sol.duality_gap <= TOL
    assert calls == []


@pytest.mark.parametrize("z, points", [(0.95, 33), (0.7999999999999999, 27),
                                       (0.39999999999999997, 28)])
def test_mckinsey_grids_certify_at_tight_tol(monkeypatch, z, points):
    # HiGHS's simplex, support solve included, stops above 1e-9 on the first
    # two grids (best gaps 2.6e-8 and 2.1e-8) and ends in an unknown model
    # status on the third; the tableau certifies all three
    _forbid_lp(monkeypatch)
    A = parametric.mckinsey_payoff_matrix(z, points)
    sol = solve_matrix_game(A, TOL)
    assert sol.duality_gap <= TOL
    assert certificate_holds(A, sol)
