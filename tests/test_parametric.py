import numpy as np
import pytest

from sgve import bench, expr
from sgve.errors import GameSpecError
from sgve.game import discretize, solve_matrix_game
from sgve.gamefile import game_spec_from_document
from sgve.parametric import (ConvexGameSpec, SeparableSpec, convex_value,
                             convexity_spot_check, mckinsey_grid_value,
                             mckinsey_payoff_matrix, mckinsey_value,
                             payoff_grid, separable_value)

UNIT = ((0.0, 1.0),)
TOL = 1e-9


def sep_xy() -> SeparableSpec:
    """g = x*y written in the basis a = (1, x), b = (1, y)."""
    return SeparableSpec(
        a=(expr.parse("1", ["x"]), expr.parse("x", ["x"])),
        b=(expr.parse("1", ["y"]), expr.parse("y", ["y"])),
        m=((expr.parse("0", []), expr.parse("0", [])),
           (expr.parse("0", []), expr.parse("1", []))),
        x_box=UNIT, y_box=UNIT)


_ONE = expr.parse("1", [])


@pytest.mark.parametrize("a, b, m, match", [
    ((), (_ONE,), ((),), "basis sizes must be >= 1"),
    ((_ONE,), (), ((),), "basis sizes must be >= 1"),
    ((_ONE,), (_ONE,), ((_ONE,), (_ONE,)), "coefficient table must be I x J"),
    ((_ONE,), (_ONE,), ((_ONE, _ONE),), "coefficient table must be I x J"),
], ids=["no-a", "no-b", "m-rows", "m-columns"])
def test_separable_spec_input_checks(a, b, m, match):
    with pytest.raises(GameSpecError, match=match):
        SeparableSpec(a=a, b=b, m=m, x_box=UNIT, y_box=UNIT)


def test_separable_value_xy():
    # the y = 0 column dominates for the minimizer
    assert abs(separable_value(sep_xy(), {}, 9, TOL)) <= 2 * TOL


def test_separable_matches_direct_matrix():
    spec = sep_xy()
    grid = np.linspace(0, 1, 9)
    direct = np.outer(grid, grid)
    v_sep = separable_value(spec, {}, 9, TOL)
    v_direct = solve_matrix_game(direct, TOL).value
    assert abs(v_sep - v_direct) <= 2 * TOL


def test_separable_saddle_product():
    # g = (x - 1/2)(y - 1/2) has a saddle at the midpoint
    spec = SeparableSpec(
        a=(expr.parse("x - 0.5", ["x"]),),
        b=(expr.parse("y - 0.5", ["y"]),),
        m=((expr.parse("1", []),),),
        x_box=UNIT, y_box=UNIT)
    assert abs(separable_value(spec, {}, 9, TOL)) <= 2 * TOL


def test_separable_basis_reparameterization_invariance():
    # a = (1, 2x) with halved coefficient leaves the payoff pointwise equal
    other = SeparableSpec(
        a=(expr.parse("1", ["x"]), expr.parse("2*x", ["x"])),
        b=(expr.parse("1", ["y"]), expr.parse("y", ["y"])),
        m=((expr.parse("0", []), expr.parse("0", [])),
           (expr.parse("0", []), expr.parse("0.5", []))),
        x_box=UNIT, y_box=UNIT)
    assert abs(separable_value(sep_xy(), {}, 7, TOL)
               - separable_value(other, {}, 7, TOL)) <= 2 * TOL


def test_separable_player_swap_antisymmetry():
    spec = SeparableSpec(
        a=(expr.parse("1", ["x"]), expr.parse("x^2", ["x"])),
        b=(expr.parse("1", ["y"]), expr.parse("exp(y)", ["y"])),
        m=((expr.parse("0.3", []), expr.parse("-1", [])),
           (expr.parse("1", []), expr.parse("0.1", []))),
        x_box=UNIT, y_box=UNIT)
    # exchange roles: new maximizer uses b, minimizer uses a, M -> -M^T
    swapped = SeparableSpec(
        a=(expr.parse("1", ["x"]), expr.parse("exp(x)", ["x"])),
        b=(expr.parse("1", ["y"]), expr.parse("y^2", ["y"])),
        m=((expr.parse("-0.3", []), expr.parse("-1", [])),
           (expr.parse("1", []), expr.parse("-0.1", []))),
        x_box=UNIT, y_box=UNIT)
    v = separable_value(spec, {}, 7, TOL)
    w = separable_value(swapped, {}, 7, TOL)
    assert abs(v + w) <= 2 * TOL


def test_separable_parametric_coefficient():
    # g = z * x * y: value 0 for either sign of z on the unit box
    spec = SeparableSpec(
        a=(expr.parse("x", ["x"]),), b=(expr.parse("y", ["y"]),),
        m=((expr.parse("z", ["z"]),),), x_box=UNIT, y_box=UNIT)
    assert abs(separable_value(spec, {"z": 2.0}, 5, TOL)) <= 2 * TOL
    assert abs(separable_value(spec, {"z": -2.0}, 5, TOL)) <= 2 * TOL


# ---------------------------------------------------------------------------
# convex-payoff reduction
# ---------------------------------------------------------------------------

def quadratic_spec() -> ConvexGameSpec:
    return ConvexGameSpec(payoff=expr.parse("(y-x)^2", ["x", "y"]),
                          x_box=UNIT, y_box=UNIT)


def test_convex_value_quadratic():
    spec = quadratic_spec()
    assert convexity_spot_check(spec, {}) <= 1e-9
    cv = convex_value(spec, {}, resolution=33, tol=TOL)
    # mixing x in {0, 1} equally leaves the minimizer the variance 1/4
    assert cv == pytest.approx(0.25, abs=2e-2)
    full = solve_matrix_game(payoff_grid(spec, {}, 33), TOL).value
    assert cv <= full + 2 * TOL
    assert cv >= full - 2 * TOL - 1e-3


def test_convex_value_dummy_maximizer():
    spec = ConvexGameSpec(payoff=expr.parse("(y-0.25)^2 + 1", ["x", "y"]),
                          x_box=UNIT, y_box=UNIT)
    cv = convex_value(spec, {}, resolution=33, tol=TOL)
    # minimizer moves to the grid point at 0.25
    assert cv == pytest.approx(1.0, abs=1e-3)


def test_convex_value_linear_payoff_matches_separable():
    spec = ConvexGameSpec(payoff=expr.parse("x*y", ["x", "y"]),
                          x_box=UNIT, y_box=UNIT)
    cv = convex_value(spec, {}, resolution=9, tol=TOL)
    assert abs(cv - separable_value(sep_xy(), {}, 9, TOL)) <= 2 * TOL


def test_convexity_spot_check_rejects_concave():
    spec = ConvexGameSpec(payoff=expr.parse("-(y-x)^2", ["x", "y"]),
                          x_box=UNIT, y_box=UNIT)
    with pytest.raises(GameSpecError):
        convexity_spot_check(spec, {})


def test_convex_value_budget_and_dimension_limits():
    spec = quadratic_spec()
    with pytest.raises(GameSpecError):
        convex_value(spec, {}, resolution=66, tol=TOL)
    wide = ConvexGameSpec(payoff=expr.parse("(y1-x)^2 + y2^2 + y3^2",
                                            ["x", "y1", "y2", "y3"]),
                          x_box=UNIT, y_box=UNIT * 3)
    with pytest.raises(GameSpecError):
        convex_value(wide, {}, resolution=3, tol=TOL)


# ---------------------------------------------------------------------------
# benchmark closed form
# ---------------------------------------------------------------------------

def test_mckinsey_closed_form_values():
    assert mckinsey_value(1.0) == pytest.approx(0.7213475204444817, abs=1e-15)
    assert mckinsey_value(0.5) == pytest.approx(0.6165758655941079, abs=1e-15)
    # small-z limit is 1/2
    assert mckinsey_value(1e-8) == pytest.approx(0.5, abs=1e-8)


def test_mckinsey_domain():
    for z in (0.0, -0.5, 1.0001):
        with pytest.raises(ValueError):
            mckinsey_value(z)
        with pytest.raises(ValueError):
            mckinsey_grid_value(z, 11)


def test_mckinsey_matrix_is_the_bench_document_payoff():
    # one payoff text: the z = 1 matrix is the bench:mckinsey game's grid,
    # and the grid's resolution rule is every other grid's
    spec = game_spec_from_document(bench.mckinsey_game_file())[0]
    for points in (2, 7, 51):
        assert np.array_equal(mckinsey_payoff_matrix(1.0, points),
                              discretize(spec, points).g[0])
    with pytest.raises(GameSpecError, match="grid resolution must be an integer >= 2, got 1"):
        mckinsey_payoff_matrix(0.5, 1)


def test_mckinsey_grid_close_to_oracle():
    for z in (0.25, 0.5, 1.0):
        assert abs(mckinsey_grid_value(z, 201) - mckinsey_value(z)) <= 5e-3


def test_mckinsey_refinement_does_not_worsen():
    # both grids sit at the certificate noise floor here, so the comparison
    # is only meaningful up to the certified duality gaps
    for z in (0.25, 1.0):
        coarse = solve_matrix_game(mckinsey_payoff_matrix(z, 101), 1e-6)
        fine = solve_matrix_game(mckinsey_payoff_matrix(z, 201), 1e-6)
        err_coarse = abs(coarse.value - mckinsey_value(z))
        err_fine = abs(fine.value - mckinsey_value(z))
        assert err_fine <= err_coarse + coarse.duality_gap + fine.duality_gap


def test_mckinsey_minimax_sandwich():
    for z in (0.3, 0.8):
        A = mckinsey_payoff_matrix(z, 51)
        v = mckinsey_grid_value(z, 51)
        assert A.min(axis=1).max() - 1e-12 <= v <= A.max(axis=0).min() + 1e-12
