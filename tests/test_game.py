from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgve import bench, expr, parametric
from sgve import game as game_module
from sgve.errors import EvalDomainError, GameSpecError, MatrixGameError
from sgve.game import (GameSpec, MatrixGameSolution, discretize,
                       matrix_game_bruteforce, solve_matrix_game, uniform_grid)
from sgve.gamefile import game_spec_from_document

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
        spec, _ = game_spec_from_document(bench.builtin_game_file(name))
        game = discretize(spec, 5)
        for k in range(spec.states):
            xs = game.grids_x[k][:, 0]
            ys = game.grids_y[k][:, 0]
            for i, x in enumerate(xs):
                for j, y in enumerate(ys):
                    direct = expr.evaluate(spec.payoff[k], {"x": x, "y": y})
                    assert game.g[k][i, j] == direct, (name, k, i, j)


def _fail_lp_configs(monkeypatch, failing):
    """Make the ``_LP_CONFIGS`` entries of the chosen indices report
    failure; return the log of the indices run."""
    calls = []
    real = game_module.linprog

    def linprog(*args, method, options, **kwargs):
        calls.append(game_module._LP_CONFIGS.index(
            {"method": method, "options": options}))
        if calls[-1] in failing:
            return SimpleNamespace(success=False)
        return real(*args, method=method, options=options, **kwargs)

    monkeypatch.setattr(game_module, "linprog", linprog)
    return calls


def _no_double_oracle(monkeypatch):
    """Make the double-oracle source find nothing, so that every game the
    hint does not certify goes to the LP list."""
    monkeypatch.setattr(game_module, "_double_oracle", lambda A, start: iter(()))


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_lp_fallback_certifies(monkeypatch, failing):
    calls = _fail_lp_configs(monkeypatch, range(failing))
    A = [[3, 1], [0, 2]]
    sol = solve_matrix_game(A, TOL)
    assert calls == list(range(failing + 1))
    assert abs(sol.value - 1.5) <= 2 * TOL
    assert sol.duality_gap <= TOL
    assert certificate_holds(A, sol)


def test_real_lp_fallback_certifies(monkeypatch):
    # on scipy 1.17 presolve-off simplex stops at gap 2.4e-8 on this grid,
    # support solve included; the interior-point run certifies
    _no_double_oracle(monkeypatch)
    calls = _fail_lp_configs(monkeypatch, ())
    A = parametric.mckinsey_payoff_matrix(1.0, 7)
    sol = solve_matrix_game(A, TOL)
    assert calls == [0, 1]
    assert sol.duality_gap <= TOL
    assert certificate_holds(A, sol)


def test_last_resort_lp_certifies(monkeypatch):
    # on scipy 1.17 only the tight-tolerance simplex certifies these: the
    # 201-point grids stop at gaps 2.9e-9 to 3.0e-8 before it, and on the
    # 28-point grid both earlier configurations report an unknown status.
    # Double oracle certifies all of them without an LP, so it is switched off
    _no_double_oracle(monkeypatch)
    calls = _fail_lp_configs(monkeypatch, ())
    for z in (0.25, 0.5, 1.0):
        A = parametric.mckinsey_payoff_matrix(z, 201)
        sol = solve_matrix_game(A, TOL)
        assert calls[-1] == 2
        assert sol.duality_gap <= TOL
        assert certificate_holds(A, sol)
    calls.clear()
    z = np.linspace(0.05, 1, 20)[7]
    value = parametric.mckinsey_grid_value(z, 28)
    assert calls == [0, 1, 2]
    assert abs(value - parametric.mckinsey_value(z)) <= 1e-2


def test_lp_failed_on_all_attempts(monkeypatch):
    calls = _fail_lp_configs(monkeypatch, range(len(game_module._LP_CONFIGS)))
    with pytest.raises(MatrixGameError,
                       match="could not certify requested duality gap") as err:
        solve_matrix_game([[3, 1], [0, 2]], TOL)
    # the pure pair (row 0, column 1) brackets the value by [1, 2]
    assert err.value.best_gap == 0.5
    assert calls == [0, 1, 2]


def test_lp_best_gap_when_no_configuration_certifies(monkeypatch):
    # every configuration returns the pure profile (row 0, column 0) of
    # matching pennies, whose certified gap is 1
    def linprog(*args, **kwargs):
        return SimpleNamespace(success=True, x=np.array([1.0, 0.0, 0.0]),
                               ineqlin=SimpleNamespace(marginals=np.array([-1.0, 0.0])))

    monkeypatch.setattr(game_module, "linprog", linprog)
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


def test_stale_hint_falls_back_to_lp(monkeypatch):
    # the hint's support (row 0, column 0) is not optimal for _MIXED
    stale = MatrixGameSolution(0.0, np.array([1.0, 0.0, 0.0]),
                               np.array([1.0, 0.0, 0.0]), 0.0)
    calls = _fail_lp_configs(monkeypatch, ())
    sol = solve_matrix_game(_MIXED, TOL, hint=stale)
    assert calls == [0]
    assert sol.duality_gap <= TOL
    assert certificate_holds(_MIXED, sol)
    assert abs(sol.value - matrix_game_bruteforce(_MIXED)) <= 2 * TOL


def test_hinted_solves_match_bruteforce(monkeypatch):
    # each matrix is solved with two hints: the solution of a 1e-3
    # perturbation, and the solution of the previous matrix of its shape
    calls = _fail_lp_configs(monkeypatch, ())
    rng = np.random.default_rng(29)
    previous = {}
    hinted = []  # per hinted solve of a game without a pure saddle: LP-free?
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
    # the hint path is exercised: over half of these certify without an LP
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
    # even though the width overflows.  The LP certifies this matrix, so
    # every configuration is made to fail to leave the pure pair the best
    _fail_lp_configs(monkeypatch, range(len(game_module._LP_CONFIGS)))
    with pytest.raises(MatrixGameError) as err:
        solve_matrix_game([[1e308, -1e308], [-1e308, 1e308]], TOL)
    assert err.value.best_gap == 1e308


@pytest.mark.parametrize("big", [1e15, 1e308])
def test_entries_beyond_highs_matrix_bound_certify(big):
    # HiGHS refuses entries of 1e15 or more; the LP gets A scaled by a
    # power of two and the strategies are certified against A itself
    sol = solve_matrix_game([[big, 0.0], [0.0, big]], TOL)
    assert sol.value == big / 2
    assert sol.duality_gap == 0.0
    sol = solve_matrix_game([[big, -big], [-big, big]], TOL)
    assert sol.value == 0.0
    assert sol.duality_gap == 0.0


def test_singular_support_hint_falls_through_to_lp(monkeypatch):
    # rows 0 and 1 agree on columns 0 and 1, so the equalization system of
    # the hinted support pair is singular and only the LP certifies 0.5
    A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    hint = MatrixGameSolution(0.5, np.array([0.5, 0.5, 0.0]),
                              np.array([0.5, 0.5]), 0.0)
    mixes = []
    real = game_module._equalizing_mixes

    def equalizing_mixes(B):
        mixes.append(real(B))
        return mixes[-1]

    monkeypatch.setattr(game_module, "_equalizing_mixes", equalizing_mixes)
    calls = _fail_lp_configs(monkeypatch, ())
    sol = solve_matrix_game(A, TOL, hint=hint)
    assert mixes[0] is None
    assert calls == [0]
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


def test_double_oracle_past_the_size_cap_falls_through_to_lp(monkeypatch):
    # a dense 60x60 random game has an optimal support of about 30 actions
    # a side, more than double oracle may grow its restricted game to
    A = np.random.default_rng(43).uniform(-1, 1, (60, 60))
    sides = []
    real = game_module._tableau_solve

    def tableau_solve(B):
        sides.append(max(B.shape))
        return real(B)

    monkeypatch.setattr(game_module, "_tableau_solve", tableau_solve)
    calls = _fail_lp_configs(monkeypatch, ())
    sol = solve_matrix_game(A, TOL)
    assert max(sides) == game_module._DO_MAX_SIDE
    assert calls == [0]
    assert sol.duality_gap <= TOL
    assert certificate_holds(A, sol)
    assert abs(sol.value - _column_lp_value(A)) <= 2 * TOL


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
    # the ties of a {-1, 0, 1} payoff make degenerate pivots; with the pivot
    # cap too small for this 10x10 game the restricted solve gives up, and
    # double oracle ends at once instead of looping
    A = np.random.default_rng(41).integers(-1, 2, (10, 10)).astype(float)
    assert game_module._tableau_solve(A) is not None
    monkeypatch.setattr(game_module, "_TABLEAU_PIVOTS", 5)
    assert game_module._tableau_solve(A) is None
    restricted = []
    real = game_module._tableau_solve

    def tableau_solve(B):
        restricted.append(B.shape)
        return real(B)

    monkeypatch.setattr(game_module, "_tableau_solve", tableau_solve)
    calls = _fail_lp_configs(monkeypatch, ())
    sol = solve_matrix_game(A, TOL, hint=MatrixGameSolution(
        0.0, np.full(10, 0.1), np.full(10, 0.1), 0.0))
    assert restricted == [(10, 10)]
    assert calls == [0]
    assert sol.duality_gap <= TOL
    assert certificate_holds(A, sol)


@pytest.mark.parametrize("z, points", [(0.95, 33), (0.7999999999999999, 27)])
def test_mckinsey_grids_certify_at_tight_tol(z, points):
    # every LP configuration, support solve included, stops above 1e-9 on
    # these grids (best gaps 2.6e-8 and 2.1e-8); double oracle certifies
    A = parametric.mckinsey_payoff_matrix(z, points)
    sol = solve_matrix_game(A, TOL)
    assert sol.duality_gap <= TOL
    assert certificate_holds(A, sol)
