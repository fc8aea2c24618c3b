import numpy as np
import pytest

from sgve import bench
from sgve import game as game_module
from sgve.errors import GameSpecError
from sgve.game import DiscretizedGame, discretize
from sgve.shapley import ShapleyOperator, check_properties

TOL = 1e-9


def constant_game(d: int, c: float, nx: int = 3, ny: int = 3) -> DiscretizedGame:
    rho = np.zeros((nx, ny, d))
    rho[:, :, 0] = 1.0
    gx = np.linspace(0, 1, nx)[:, None]
    gy = np.linspace(0, 1, ny)[:, None]
    return DiscretizedGame(
        states=d,
        grids_x=(gx,) * d, grids_y=(gy,) * d,
        g=tuple(np.full((nx, ny), c) for _ in range(d)),
        rho=(rho,) * d)


def tagged(game: DiscretizedGame, tags) -> DiscretizedGame:
    return DiscretizedGame(states=game.states, grids_x=game.grids_x,
                           grids_y=game.grids_y, g=game.g, rho=game.rho,
                           controller=tuple(tags))


def test_constant_game_shift():
    op = ShapleyOperator(constant_game(3, 2.5), tol=TOL)
    out = op.apply(np.zeros(3))
    assert np.allclose(out, 2.5, atol=2 * TOL)


def test_benchmark_absorbing_component_exact():
    # the benchmark's optimal mixtures are continuum densities, so its grid
    # matrices are LP-degenerate; certificates need the looser benchmark tol
    op = ShapleyOperator(discretize(bench.exshap_spec(), 21), tol=1e-6)
    rng = np.random.default_rng(0)
    for _ in range(5):
        f = rng.uniform(-3, 3, 2)
        assert op.apply(f)[0] == f[0]


def test_benchmark_second_component_at_zero():
    # the state-2 matrix at f = 0 has an exact pure saddle worth 1/2
    op = ShapleyOperator(discretize(bench.exshap_spec(), 201), tol=1e-6)
    out = op.apply(np.zeros(2))
    assert abs(out[1] - 0.5) <= 1e-12


def test_dimension_mismatch():
    op = ShapleyOperator(constant_game(2, 0.0), tol=TOL)
    with pytest.raises(GameSpecError):
        op.apply(np.zeros(3))
    with pytest.raises(GameSpecError):
        op.apply(np.array([np.inf, 0.0]))


def random_game(rng, d=3, max_actions=6):
    return bench.random_discretized_game(rng, states=d, max_actions=max_actions)


def y_independent_game(rng, d=2, nx=4):
    """Tensors constant along the column axis: player 2 is a dummy."""
    base = random_game(rng, d=d, max_actions=nx)
    g = tuple(np.repeat(gk[:, :1], gk.shape[1], axis=1) for gk in base.g)
    rho = tuple(np.repeat(rk[:, :1, :], rk.shape[1], axis=1) for rk in base.rho)
    return DiscretizedGame(states=d, grids_x=base.grids_x, grids_y=base.grids_y,
                           g=g, rho=rho)


def test_mdp_form_matches_general_on_dummy_column_player():
    rng = np.random.default_rng(42)
    for _ in range(5):
        game = y_independent_game(rng)
        pure = ShapleyOperator(tagged(game, ["p1"] * game.states), form="mdp", tol=TOL)
        mixed = ShapleyOperator(game, form="general", tol=TOL)
        f = rng.uniform(-2, 2, game.states)
        assert np.abs(pure.apply(f) - mixed.apply(f)).max() <= 2 * TOL


def test_perfect_info_form_matches_general():
    rng = np.random.default_rng(43)
    game = y_independent_game(rng, d=3)
    # state-wise control tags: dummy opponent either way, so mixing is moot
    pure = ShapleyOperator(tagged(game, ["p1", "p2", "p1"]),
                           form="perfectInfo", tol=TOL)
    mixed = ShapleyOperator(game, form="general", tol=TOL)
    for _ in range(5):
        f = rng.uniform(-2, 2, 3)
        out_pure = pure.apply(f)
        out_mixed = mixed.apply(f)
        assert np.abs(out_pure[0] - out_mixed[0]).max() <= 2 * TOL
        assert np.abs(out_pure[2] - out_mixed[2]).max() <= 2 * TOL
        # a p2-controlled state of a dummy-column game is a one-row min
        A = pure.state_matrix(1, f)
        assert out_pure[1] == A.max(axis=0).min()


def test_single_state_mdp_dominant_action():
    g = np.array([[1.0], [2.0]])
    rho = np.ones((2, 1, 1))
    game = DiscretizedGame(states=1, grids_x=(np.array([[0.0], [1.0]]),),
                           grids_y=(np.array([[0.0]]),), g=(g,), rho=(rho,),
                           controller=("p1",))
    op = ShapleyOperator(game, form="mdp", tol=TOL)
    f = np.zeros(1)
    for n in (1, 4, 9):
        f = np.zeros(1)
        for _ in range(n):
            f = op.apply(f)
        assert f[0] / n == 2.0


def dummy_opponent_game(rng, tags):
    """Random game whose untagged player is a dummy in every state: a
    p1-tagged state is constant along columns, a p2-tagged one along rows."""
    d = len(tags)
    base = random_game(rng, d=d)
    g, rho = [], []
    for gk, rk, tag in zip(base.g, base.rho, tags):
        axis = 1 if tag == "p1" else 0
        g.append(np.repeat(gk.take([0], axis=axis), gk.shape[axis], axis=axis))
        rho.append(np.repeat(rk.take([0], axis=axis), rk.shape[axis], axis=axis))
    return DiscretizedGame(states=d, grids_x=base.grids_x, grids_y=base.grids_y,
                           g=tuple(g), rho=tuple(rho), controller=tuple(tags))


@pytest.mark.parametrize("form, tag_choices", [
    ("mdp", [["p1"] * 3, ["p2"] * 3]),
    ("perfectInfo", [["p1", "p2", "p1"], ["p2", "p2", "p1"]]),
])
def test_pure_forms_equal_general_bit_for_bit(form, tag_choices):
    rng = np.random.default_rng(45)
    for tags in tag_choices:
        for _ in range(10):
            game = dummy_opponent_game(rng, tags)
            tagged_op = ShapleyOperator(game, form=form, tol=TOL)
            general_op = ShapleyOperator(game, form="general", tol=TOL)
            f = rng.uniform(-2, 2, game.states)
            values, gaps, _ = tagged_op.apply_with_gaps(f)
            general_values, general_gaps, _ = general_op.apply_with_gaps(f)
            assert np.array_equal(values, general_values)
            assert np.array_equal(gaps, general_gaps)
            assert not gaps.any()
            # the exact saddle check returns the pure max (min) itself
            for k, tag in enumerate(tags):
                A = tagged_op.state_matrix(k, f)
                pure = A.min(axis=1).max() if tag == "p1" else A.max(axis=0).min()
                assert values[k] == pure


def test_switching_form_matches_general():
    rng = np.random.default_rng(44)
    d, nx, ny = 2, 4, 5
    for tags in (("p1", "p1"), ("p1", "p2"), ("p2", "p2")):
        for _ in range(10):
            g, rho = [], []
            for tag in tags:
                g.append(rng.uniform(-1, 1, (nx, ny)))
                # transitions depend on the controlling player only
                if tag == "p1":
                    rows = rng.dirichlet(np.ones(d), size=nx)
                    rho.append(np.repeat(rows[:, None, :], ny, axis=1))
                else:
                    cols = rng.dirichlet(np.ones(d), size=ny)
                    rho.append(np.repeat(cols[None, :, :], nx, axis=0))
            gx, gy = np.linspace(0, 1, nx)[:, None], np.linspace(0, 1, ny)[:, None]
            game = DiscretizedGame(states=d, grids_x=(gx,) * d, grids_y=(gy,) * d,
                                   g=tuple(g), rho=tuple(rho), controller=tags)
            switching = ShapleyOperator(game, form="switching", tol=TOL)
            general = ShapleyOperator(game, form="general", tol=TOL)
            f = rng.uniform(-2, 2, d)
            assert np.abs(switching.apply(f) - general.apply(f)).max() <= 2 * TOL


def test_switching_matching_pennies_is_mixed():
    # one absorbing state: the value is the mixed value 0, not the pure
    # max-of-inner-min -1
    g = np.array([[1.0, -1.0], [-1.0, 1.0]])
    grid = np.array([[0.0], [1.0]])
    game = DiscretizedGame(states=1, grids_x=(grid,), grids_y=(grid,), g=(g,),
                           rho=(np.ones((2, 2, 1)),), controller=("p1",))
    op = ShapleyOperator(game, form="switching", tol=TOL)
    values, gaps, _ = op.apply_with_gaps(np.zeros(1))
    assert abs(values[0]) <= TOL
    assert gaps[0] <= TOL


def test_shifted_vector_reuses_hints(monkeypatch):
    # Psi(f + c) solves the matrices of Psi(f) plus c: the hinted supports
    # certify every state, so no LP runs
    rng = np.random.default_rng(46)
    op = ShapleyOperator(random_game(rng), tol=TOL)
    f = rng.uniform(-2, 2, op.dim)
    values, gaps, hints = op.apply_with_gaps(f)
    assert len(hints) == op.dim
    assert [h.value for h in hints] == values.tolist()

    def linprog(*args, **kwargs):
        raise AssertionError("linprog called")

    monkeypatch.setattr(game_module, "linprog", linprog)
    for c in (-10.0, 0.7, 10.0):
        shifted, shifted_gaps, _ = op.apply_with_gaps(f + c, hints)
        assert shifted_gaps.max() <= TOL
        assert np.abs(shifted - (values + c)).max() <= 2 * TOL


def test_hint_count_must_match_states():
    op = ShapleyOperator(constant_game(2, 1.0), tol=TOL)
    _, _, hints = op.apply_with_gaps(np.zeros(2))
    with pytest.raises(GameSpecError, match="one hint per state"):
        op.apply_with_gaps(np.zeros(2), hints[:1])


def test_form_tag_validation():
    game = constant_game(2, 0.0)
    with pytest.raises(GameSpecError):
        ShapleyOperator(game, form="perfectInfo")
    with pytest.raises(GameSpecError):
        ShapleyOperator(tagged(game, ["p1", "p2"]), form="mdp")
    with pytest.raises(GameSpecError):
        ShapleyOperator(game, form="makeBelieve")


def test_properties_on_translation_pair():
    rng = np.random.default_rng(1)
    op = ShapleyOperator(random_game(rng), tol=TOL)
    f = rng.uniform(-1, 1, 3)
    report = check_properties(op, [(f, f + 1.0), (f, f.copy())])
    assert report.additive_homogeneity <= report.slack(TOL)
    assert report.nonexpansiveness <= report.slack(TOL)
    assert report.ordered_pairs == 2
    assert report.monotonicity <= report.slack(TOL)


def test_properties_random_games():
    rng = np.random.default_rng(2)
    for _ in range(10):
        op = ShapleyOperator(random_game(rng, d=int(rng.integers(1, 4))), tol=TOL)
        d = op.dim
        f = rng.uniform(-2, 2, d)
        pairs = [(f, f + rng.uniform(0, 1, d)),
                 (rng.uniform(-2, 2, d), rng.uniform(-2, 2, d))]
        report = check_properties(op, pairs)
        slack = report.slack(TOL)
        assert report.monotonicity <= slack
        assert report.additive_homogeneity <= slack
        assert report.nonexpansiveness <= slack


def test_nonexpansive_against_general_bound():
    rng = np.random.default_rng(6)
    op = ShapleyOperator(random_game(rng), tol=TOL)
    for _ in range(10):
        f = rng.uniform(-3, 3, 3)
        g = rng.uniform(-3, 3, 3)
        lhs = np.abs(op.apply(f) - op.apply(g)).max()
        assert lhs <= np.abs(f - g).max() + 2 * TOL
