"""Built-in benchmark games with analytic oracles, plus the acceptance
suite binding them to solver runs.

Two closed forms anchor everything:

* the parametric square game ``(1+x)(1+yz)/(2(1+xy)^2)`` with value
  ``z/(2 ln(1+z))``;
* the two-state absorbing game built on it (``bench:exshap``), whose
  discounted values are ``(0, lam (e^{(1-lam)/2} - 1) / (1-lam))``.

Every criterion returns a :class:`CriterionResult`; the CLI prints them as
a table and the test suite asserts them one by one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from . import parametric, pf, values
from .errors import GameSpecError
from .game import DiscretizedGame, GameSpec, _exact_row_sums, discretize, \
    matrix_game_bruteforce, solve_matrix_game
from .shapley import ShapleyOperator, check_properties

__all__ = [
    "CriterionResult", "SUITES", "run_suite", "run_criteria",
    "exshap_game_file", "exshap_spec",
    "builtin_game_file",
    "random_discretized_game", "perron_root", "kl_dual_grid_max",
    "kl_dual_certified_slack",
]

_SEED = 20260801  # fixed so bench output is byte-identical across runs
# duality-gap tolerance of the benchmark-grid solves of criteria 1-4 and 6;
# the other criteria state their own tolerances
GRID_TOL = 1e-6
# the oracle perron_root's power iteration: its stopping step and its budget
PERRON_TOL = 1e-13
PERRON_MAX_ITERATIONS = 200_000


# ---------------------------------------------------------------------------
# benchmark catalog
# ---------------------------------------------------------------------------

def exshap_game_file() -> dict:
    """The two-state absorbing benchmark as a plain game-file document."""
    stay = "(1+x)*y/(2*(1+x*y)^2)"
    return {
        "states": 2,
        "actions": {"x": [[0.0, 1.0]], "y": [[0.0, 1.0]]},
        "payoff": ["0", "(1+x)/(2*(1+x*y)^2)"],
        "transition": [["1", "0"],
                       [f"1 - {stay}", stay]],
    }


def mckinsey_game_file() -> dict:
    """The parametric square benchmark at z = 1, as a one-state absorbing
    game file (one-shot value shows up as the lam = 1 solve)."""
    return {
        "states": 1,
        "actions": {"x": [[0.0, 1.0]], "y": [[0.0, 1.0]]},
        "payoff": [parametric._MCKINSEY_PAYOFF.format(z=1.0)],
        "transition": [["1"]],
    }


def builtin_game_file(name: str) -> dict:
    if name == "exshap":
        return exshap_game_file()
    if name == "mckinsey":
        return mckinsey_game_file()
    raise GameSpecError(f"unknown builtin benchmark {name!r}")


def exshap_spec() -> GameSpec:
    from .gamefile import game_spec_from_document
    return game_spec_from_document(exshap_game_file())[0]


def exshap_discounted_exact(lam: float) -> float:
    """Closed-form second-state discounted value of bench:exshap, in plain
    ``math`` so that the oracle shares no code with the solver."""
    return lam * (math.exp((1 - lam) / 2) - 1) / (1 - lam)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def random_discretized_game(rng: np.random.Generator, states: int,
                            max_actions: int = 5) -> DiscretizedGame:
    """Random dense game: payoffs uniform on [-1, 1], Dirichlet transition
    rows."""
    g, rho, gx, gy = [], [], [], []
    for _ in range(states):
        nx = int(rng.integers(2, max_actions + 1))
        ny = int(rng.integers(2, max_actions + 1))
        g.append(rng.uniform(-1.0, 1.0, (nx, ny)))
        rho.append(_exact_row_sums(rng.gamma(1.0, 1.0, (nx, ny, states))))
        gx.append(np.linspace(0.0, 1.0, nx)[:, None])
        gy.append(np.linspace(0.0, 1.0, ny)[:, None])
    return DiscretizedGame(states=states, grids_x=tuple(gx), grids_y=tuple(gy),
                           g=tuple(g), rho=tuple(rho))


def perron_root(A: np.ndarray) -> float:
    """Dominant eigenvalue of a positive matrix by power iteration."""
    v = np.ones(A.shape[0])
    rho = 0.0
    for _ in range(PERRON_MAX_ITERATIONS):
        w = A @ v
        v_new = w / np.linalg.norm(w)
        rho_new = float(v_new @ (A @ v_new))
        if abs(rho_new - rho) <= PERRON_TOL:
            return rho_new
        v, rho = v_new, rho_new
    return rho


def _simplex_grid(d: int, subdivisions: int) -> np.ndarray:
    """All probability vectors with entries that are multiples of 1/G."""
    G = subdivisions
    if d == 1:
        return np.array([[1.0]])
    ranges = [np.arange(G + 1)] * (d - 1)
    mesh = np.stack([m.ravel() for m in np.meshgrid(*ranges, indexing="ij")], axis=-1)
    mesh = mesh[mesh.sum(axis=1) <= G]
    last = G - mesh.sum(axis=1, keepdims=True)
    return np.hstack([mesh, last]) / G


def kl_dual_grid_max(p: np.ndarray, h: np.ndarray, subdivisions: int) -> float:
    """Maximum of <q, h> - KL(q || p) over the simplex grid.

    Independent route to log sum_j p_j e^{h_j}: always a lower bound, and
    the bound tightens as the grid refines.
    """
    p = np.asarray(p, dtype=float)
    h = np.asarray(h, dtype=float)
    qs = _simplex_grid(len(p), subdivisions)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = qs * (np.log(qs) - np.log(p)[None, :])
    terms = np.where(qs > 0, terms, 0.0)  # 0 log 0 = 0
    vals = qs @ h - terms.sum(axis=1)
    return float(vals.max())


def kl_dual_certified_slack(p: np.ndarray, h: np.ndarray,
                            subdivisions: int) -> float:
    """A priori bound on the gap between the grid maximum and the true
    supremum, from rounding the maximizer to the grid.

    Combines the Lipschitz part in <q, h + log p> with the Fannes-Audenaert
    continuity of entropy at total variation d/(2G).
    """
    p = np.asarray(p, dtype=float)
    h = np.asarray(h, dtype=float)
    d = len(p)
    G = subdivisions
    lin = float(np.abs(h + np.log(p)).max()) * d / G
    t = min(d / (2.0 * G), 1.0 - 1.0 / d)
    h2 = -t * math.log(t) - (1 - t) * math.log(1 - t) if 0 < t < 1 else 0.0
    return lin + t * math.log(max(d - 1, 1)) + h2


# ---------------------------------------------------------------------------
# acceptance criteria
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    summary: str
    details: tuple[str, ...] = ()


def _result(index, name, passed, summary, details=()):
    return CriterionResult(index, name, bool(passed), summary, tuple(details))


def criterion_1_mckinsey_oracle() -> CriterionResult:
    tol = 5e-3
    details, worst = [], 0.0
    for z in (0.25, 0.5, 1.0):
        grid = parametric.mckinsey_grid_value(z, resolution=201, tol=GRID_TOL)
        closed = parametric.mckinsey_value(z)
        err = abs(grid - closed)
        worst = max(worst, err)
        details.append(f"z={z}: grid={grid:.6f} closed={closed:.6f} err={err:.2e}")
    return _result(1, "mckinsey-oracle", worst <= tol,
                   f"max |grid - closed| = {worst:.2e} <= {tol:g}", details)


def criterion_2_discounted_oracle() -> CriterionResult:
    tol = 1e-2
    op = ShapleyOperator(discretize(exshap_spec(), 201), tol=GRID_TOL)
    details, worst = [], 0.0
    for lam in (0.1, 0.25, 0.5, 0.9):
        v = values.discounted_value(op, lam, eps=1e-5)
        exact = exshap_discounted_exact(lam)
        err = abs(v[1] - exact)
        worst = max(worst, err)
        details.append(f"lam={lam}: v2={v[1]:.6f} closed={exact:.6f} err={err:.2e}")
    return _result(2, "discounted-oracle", worst <= tol,
                   f"max |v_lam - closed| = {worst:.2e} <= {tol:g}", details)


def criterion_3_vanishing_fit() -> CriterionResult:
    op = ShapleyOperator(discretize(exshap_spec(), 201), tol=GRID_TOL)
    fit = values.vanishing_discount(op, eps=1e-6)
    c_target = math.exp(0.5) - 1.0
    lim_err = float(np.abs(fit.limit).max())
    ok = (lim_err <= 1e-2 and 0.8 <= fit.exponent <= 1.2
          and abs(fit.coefficient - c_target) <= 0.1 * c_target)
    return _result(
        3, "vanishing-discount-fit", ok,
        f"|limit|={lim_err:.2e} (<=1e-2), alpha={fit.exponent:.3f} (in [0.8,1.2]), "
        f"c={fit.coefficient:.4f} (within 10% of {c_target:.4f})",
        (f"residual={fit.residual:.3f}",))


def criterion_4_common_limit() -> CriterionResult:
    tol = 5e-2
    rng = np.random.default_rng(_SEED + 4)
    cases = [("exshap", ShapleyOperator(discretize(exshap_spec(), 101), tol=GRID_TOL))]
    for i in range(5):
        game = random_discretized_game(rng, states=3, max_actions=5)
        cases.append((f"random-{i}", ShapleyOperator(game, tol=1e-9)))
    details, worst = [], 0.0
    for name, op in cases:
        fit = values.vanishing_discount(op, eps=1e-6)
        vn = values.value_iteration(op, 4096)
        gap = float(np.abs(vn - fit.limit).max())
        worst = max(worst, gap)
        details.append(f"{name}: |v_4096 - limit| = {gap:.2e}")
    return _result(4, "common-limit", worst <= tol,
                   f"max over games = {worst:.2e} <= {tol:g}", details)


def criterion_5_operator_properties() -> CriterionResult:
    tol = 1e-9
    rng = np.random.default_rng(_SEED + 5)
    worst_mono = worst_homo = worst_nonexp = 0.0
    slack = 0.0
    failures = 0
    for _ in range(100):
        d = int(rng.integers(1, 5))
        game = random_discretized_game(rng, states=d, max_actions=10)
        op = ShapleyOperator(game, tol=tol)
        f = rng.uniform(-2, 2, d)
        pairs = [(f, f + rng.uniform(0, 2, d)),           # ordered
                 (rng.uniform(-2, 2, d), rng.uniform(-2, 2, d)),
                 (f, f.copy())]
        try:
            report = check_properties(op, pairs)
        except Exception:  # a hard failure fails the criterion outright
            failures += 1
            continue
        worst_mono = max(worst_mono, report.monotonicity)
        worst_homo = max(worst_homo, report.additive_homogeneity)
        worst_nonexp = max(worst_nonexp, report.nonexpansiveness)
        slack = max(slack, report.slack(tol))
    ok = (failures == 0 and worst_mono <= slack and worst_homo <= slack
          and worst_nonexp <= slack)
    return _result(
        5, "operator-properties", ok,
        f"violations mono={worst_mono:.2e} homo={worst_homo:.2e} "
        f"nonexp={worst_nonexp:.2e} all <= {slack:.2e}; hard failures={failures}")


def _perturbed_payoff_spec(base: GameSpec, eps: float, smooth: bool) -> GameSpec:
    """Shift every payoff by eps (constant) or by eps * x * y (size eps on
    the unit box)."""
    bump: ex.Expr = ex.Num(eps)
    if smooth:
        bump = ex.BinOp("*", bump, ex.BinOp("*", ex.Var("x"), ex.Var("y")))
    payoff = tuple(ex.BinOp("+", pk, bump) for pk in base.payoff)
    return GameSpec(states=base.states, x_box=base.x_box, y_box=base.y_box,
                    payoff=payoff, transition=base.transition,
                    controller=base.controller)


def criterion_6_perturbation_transfer() -> CriterionResult:
    resolution = 51
    base_spec = exshap_spec()
    base_op = ShapleyOperator(discretize(base_spec, resolution), tol=GRID_TOL)
    base_fit = values.vanishing_discount(base_op, eps=1e-6)
    details = []
    ok = True
    for eps in (1e-3, 1e-2):
        for smooth in (False, True):
            spec = _perturbed_payoff_spec(base_spec, eps, smooth)
            op = ShapleyOperator(discretize(spec, resolution), tol=GRID_TOL)
            fit = values.vanishing_discount(op, eps=1e-6)
            shift = float(np.abs(fit.limit - base_fit.limit).max())
            shift_ok = shift <= eps + 1e-3
            checks = [values.iterate_deviation_check(base_op, op, n)
                      for n in (10, 100)]
            dev_ok = all(c.passed for c in checks)
            ok = ok and shift_ok and dev_ok
            kind = "eps*x*y" if smooth else "eps"
            details.append(
                f"eps={eps:g} ({kind}): limit shift={shift:.2e} <= {eps + 1e-3:g}; "
                f"deviation checks n=10,100: {[c.passed for c in checks]}")
    return _result(6, "perturbation-transfer", ok,
                   "limit shifts bounded by eps + 1e-3; iterate deviation "
                   "checks pass for n <= 100", details)


def criterion_7_matrix_oracle() -> CriterionResult:
    tol = 1e-9
    rng = np.random.default_rng(_SEED + 7)
    worst = 0.0
    for t in range(200):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        if t % 4 == 0:  # integer payoffs exercise ties and degeneracy
            A = rng.integers(-3, 4, (m, n)).astype(float)
        else:
            A = rng.uniform(-5.0, 5.0, (m, n))
        kernel = solve_matrix_game(A, tol).value
        brute = matrix_game_bruteforce(A)
        worst = max(worst, abs(kernel - brute))
    return _result(7, "matrix-game-oracle", worst <= 2 * tol,
                   f"max |kernel - bruteforce| = {worst:.2e} <= {2 * tol:.1e} "
                   f"over 200 matrices")


def criterion_8_perron_frobenius() -> CriterionResult:
    rng = np.random.default_rng(_SEED + 8)
    worst_err = worst_dep = 0.0
    for _ in range(20):
        A = rng.uniform(0.1, 1.0, (3, 3))
        T = pf.min_linear([[tuple(row)] for row in A])  # singleton families
        rho = perron_root(A)
        g1 = pf.growth_rate(T, np.ones(3), 10_000)
        g2 = pf.growth_rate(T, rng.uniform(0.2, 5.0, 3), 10_000)
        worst_err = max(worst_err, float(np.abs(g1 - rho).max()))
        worst_dep = max(worst_dep, float(np.abs(g1 - g2).max()))
    ok = worst_err <= 1e-4 and worst_dep <= 1e-6
    return _result(8, "perron-frobenius-growth", ok,
                   f"max |growth - perron root| = {worst_err:.2e} <= 1e-4; "
                   f"max start-vector dependence = {worst_dep:.2e} <= 1e-6")


def criterion_9_kl_duality() -> CriterionResult:
    rng = np.random.default_rng(_SEED + 9)
    grids = (50, 100, 200)
    ok = True
    worst_gap = {G: 0.0 for G in grids}
    for _ in range(100):
        p = rng.uniform(0.05, 1.0, 3)
        p /= p.sum()
        h = rng.uniform(-3.0, 3.0, 3)
        lse = pf.log_sum_exp(np.log(p) + h)
        gaps = []
        for G in grids:
            gap = lse - kl_dual_grid_max(p, h, G)
            slack = kl_dual_certified_slack(p, h, G)
            ok = ok and -1e-12 <= gap <= slack
            worst_gap[G] = max(worst_gap[G], gap)
            gaps.append(gap)
        ok = ok and gaps[0] >= gaps[1] - 1e-15 and gaps[1] >= gaps[2] - 1e-15
    summary = ", ".join(f"G={G}: worst gap {worst_gap[G]:.2e}" for G in grids)
    return _result(9, "kl-duality", ok,
                   f"gaps within certified slack and shrinking: {summary}")


def criterion_10_convex_reduction() -> CriterionResult:
    spec = parametric.ConvexGameSpec(
        payoff=ex.parse("(y-x)^2", ["x", "y"]),
        x_box=((0.0, 1.0),), y_box=((0.0, 1.0),))
    parametric.convexity_spot_check(spec, {})
    cv = parametric.convex_value(spec, {}, resolution=65, tol=1e-9)
    full = solve_matrix_game(parametric.payoff_grid(spec, {}, 65), 1e-9).value
    ok = abs(cv - 0.25) <= 2e-2 and abs(cv - full) <= 1e-3
    return _result(10, "convex-payoff-reduction", ok,
                   f"convex_value={cv:.6f} (0.25 +/- 2e-2), "
                   f"full grid value={full:.6f}, |diff|={abs(cv - full):.2e}")


_CRITERIA = {
    1: criterion_1_mckinsey_oracle,
    2: criterion_2_discounted_oracle,
    3: criterion_3_vanishing_fit,
    4: criterion_4_common_limit,
    5: criterion_5_operator_properties,
    6: criterion_6_perturbation_transfer,
    7: criterion_7_matrix_oracle,
    8: criterion_8_perron_frobenius,
    9: criterion_9_kl_duality,
    10: criterion_10_convex_reduction,
}

SUITES = {
    "mckinsey": (1, 10),
    "exshap": (2, 3, 4),
    "properties": (5, 6, 7),
    "pf": (8, 9),
    "all": tuple(range(1, 11)),
}


def run_criteria(indices) -> list[CriterionResult]:
    return [_CRITERIA[i]() for i in indices]


def run_suite(name: str) -> list[CriterionResult]:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return run_criteria(SUITES[name])
