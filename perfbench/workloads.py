"""The three workloads: how each builds its inputs from a seed, the
operations of one round, and the checks on every output.

A round calls only public sgve functions, through their module attributes
so the tracer sees them, and checks each result against ``oracles`` or a
property the method must have.  Checks that cost as much as the operation
itself run in the first round of a run only.
"""
from __future__ import annotations

import sys
import time
import traceback
from collections import defaultdict
from typing import Callable, NamedTuple

import numpy as np

import oracles
import reference
import sgve.bench
import sgve.expr
import sgve.game
import sgve.gamefile
import sgve.parametric
import sgve.pf
import sgve.shapley
import sgve.values

# paper-grid
RESOLUTION = 201
GRID_TOL = 1e-6          # duality-gap tolerance on the benchmark grids
EPS = 1e-6               # fixed-point accuracy, as the CLI default
MCKINSEY_Z = (0.25, 0.5, 1.0)
PAPER_DISCOUNTS = (0.5, 0.05)
CURVE_POINTS = 3         # seeded discount factors of the CLI curve
# random-small.  Shapes are fixed and every multi-action stage game is drawn
# without a pure saddle, while single-row or single-column states always
# have one; with transition rows near uniform the continuation shifts rarely
# change that, so a seed changes the entries but hardly the number of LPs.
HORIZON = 200
RANDOM_DISCOUNT = 0.05
RANDOM_EPS = 1e-4
RANDOM_SWEEP = 0.4 * 0.7 ** np.arange(4)
DIRICHLET = 4.0
HORIZON_SHAPES = (((5, 5), (1, 4), (4, 5)),)
PROPERTY_GAMES = 12      # 1 to 4 states in turn, 1 to 10 actions
MATRIX_TOL = 1e-9
# pf-growth
PF_D, PF_F, PF_N = 30, 8, 500
LINEAR_MAPS, RECT_MAPS, SMALL_N = 4, 2, 4000


class Round:
    """Times and tallies one pass over a workload's operations.

    ``reference`` holds the time of the reference slice run just before
    each operation, which gauges the host's speed at that moment.
    """

    def __init__(self, run_cli: Callable[[list[str]], str]):
        self.run_cli = run_cli
        self.phases: dict[str, float] = defaultdict(float)
        self.applies = 0
        self.apply_s = 0.0
        self.reference: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def call(self, phase: str, fn, *args, applies=None):
        """One operation; returns None, counted as failed, if it raises."""
        self.attempted += 1
        self.reference.append(reference.reference_slice())
        start = time.perf_counter()
        try:
            out = fn(*args)
        except Exception:
            self.failed += 1
            print(f"perfbench: {phase} failed:\n{traceback.format_exc()}",
                  file=sys.stderr)
            return None
        finally:
            dt = time.perf_counter() - start
            self.phases[phase] += dt
        if applies is not None:
            self.applies += applies(out)
            self.apply_s += dt
        return out

    def check(self, ok, message: str) -> None:
        if not ok:
            self.wrong.append(message)

    @property
    def solve_s(self) -> float:
        return sum(self.phases.values())


def _shapley_inputs(op):
    return op.game.g, op.game.rho


def _sup(a) -> float:
    return float(np.abs(np.asarray(a, dtype=float)).max())


# ---------------------------------------------------------------------------
# paper-grid
# ---------------------------------------------------------------------------

def build_paper_grid(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    spec, form = sgve.gamefile.game_spec_from_document(sgve.bench.exshap_game_file())
    game = sgve.game.discretize(spec, RESOLUTION)
    parse = sgve.expr.parse
    separable = sgve.parametric.SeparableSpec(  # (x-y)^2 = x^2 - 2xy + y^2
        a=tuple(parse(s, ["x"]) for s in ("1", "x", "x^2")),
        b=tuple(parse(s, ["y"]) for s in ("1", "y", "y^2")),
        m=tuple(tuple(parse(s, []) for s in row)
                for row in (("0", "0", "1"), ("0", "-2", "0"), ("1", "0", "0"))),
        x_box=((0.0, 1.0),), y_box=((0.0, 1.0),))
    lams = sorted(np.round(rng.uniform(0.4, 0.7, CURVE_POINTS), 3), reverse=True)
    return {"op": sgve.shapley.ShapleyOperator(game, form=form, tol=GRID_TOL),
            "separable": separable,
            "curve_grid": ",".join(repr(float(x)) for x in lams)}


def _cli_lines(text: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in text.splitlines())


def solve_paper_grid(inp: dict, rec: Round, ref: dict) -> None:
    first = not ref
    for z in MCKINSEY_Z:
        v = rec.call("oneshot", sgve.parametric.mckinsey_grid_value,
                     z, RESOLUTION, GRID_TOL)
        if v is not None:
            rec.check(abs(v - oracles.mckinsey_value(z)) <= 1e-5,
                      f"mckinsey z={z}: {v!r} vs closed form")
            if first:
                lp = oracles.matrix_game_value(oracles.mckinsey_matrix(z, RESOLUTION))
                rec.check(abs(v - lp) <= 1e-5, f"mckinsey z={z}: {v!r} vs LP {lp!r}")
    v = rec.call("oneshot", sgve.parametric.separable_value,
                 inp["separable"], {}, RESOLUTION, MATRIX_TOL)
    if v is not None:
        rec.check(abs(v - oracles.SEPARABLE_VALUE) <= 1e-6, f"separable: {v!r}")

    op = inp["op"]
    for lam in PAPER_DISCOUNTS:
        r = rec.call("discounted", sgve.values.discounted_value_detailed,
                     op, lam, EPS, applies=lambda r: r.iterations)
        if r is None:
            continue
        exact = oracles.exshap_discounted(lam)
        rec.check(abs(r.value[0]) <= 1e-12 and abs(r.value[1] - exact) <= 1e-4,
                  f"exshap lam={lam}: {r.value!r} vs (0, {exact!r})")
        if first:
            res = oracles.discounted_residual(*_shapley_inputs(op), lam, r.value)
            rec.check(res <= 1e-5, f"exshap lam={lam}: oracle residual {res:.3e}")

    fit = rec.call("sweep", sgve.values.vanishing_discount, op)
    if fit is not None:
        c = oracles.EXSHAP_COEFFICIENT
        rec.check(_sup(fit.limit) <= 1e-2 and 0.8 <= fit.exponent <= 1.2
                  and abs(fit.coefficient - c) <= 0.1 * c,
                  f"exshap sweep: {fit!r}")

    out = rec.call("cli_solve", rec.run_cli, ["solve", "bench:exshap", "--lambda", "0.5"])
    if out is not None:
        got = _cli_lines(out)
        rec.check(abs(float(got["state 0"])) <= 1e-12
                  and abs(float(got["state 1"]) - oracles.exshap_discounted(0.5)) <= 1e-4
                  and float(got["fixed-point residual"]) <= 2 * EPS
                  and float(got["max duality gap"]) <= GRID_TOL,
                  f"sgve solve output: {out!r}")

    out = rec.call("cli_curve", rec.run_cli,
                   ["curve", "bench:exshap", "--lambda-grid", inp["curve_grid"]])
    if out is not None:
        rows = [line.split(",") for line in out.splitlines()]
        lams = [float(x) for x in inp["curve_grid"].split(",")]
        ok = (rows[0] == ["lambda", "v0", "v1", "iterations", "residual"]
              and len(rows) == len(lams) + 1)
        for lam, row in zip(lams, rows[1:]):
            ok = ok and (float(row[0]) == lam and abs(float(row[1])) <= 1e-12
                         and abs(float(row[2]) - oracles.exshap_discounted(lam)) <= 1e-4
                         and float(row[4]) <= EPS)
        rec.check(ok, f"sgve curve output: {out!r}")
        ref.setdefault("curve", out)
        rec.check(out == ref["curve"], "sgve curve output differs between passes")
    ref["done"] = True


# ---------------------------------------------------------------------------
# random-small
# ---------------------------------------------------------------------------

def _has_saddle(a: np.ndarray) -> bool:
    return a.min(axis=1).max() == a.max(axis=0).min()


def random_game(rng, shapes) -> sgve.game.DiscretizedGame:
    """Uniform payoffs in [0, 2], redrawn while a stage game with two or
    more actions per player has a pure saddle; Dirichlet transition rows.

    A discounted solve takes about log(|v| / eps) / lam iterations, so with
    payoffs centred on 0 the count follows how close the seed puts the value
    to 0 (122 to 165 at lam = 0.05 over twelve seeds); centred on 1, the
    same games shifted by 1 take 170 to 179.
    """
    d = len(shapes)
    g, rho = [], []
    for nx, ny in shapes:
        gk = rng.uniform(0.0, 2.0, (nx, ny))
        while min(nx, ny) > 1 and _has_saddle(gk):
            gk = rng.uniform(0.0, 2.0, (nx, ny))
        g.append(gk)
        r = rng.gamma(DIRICHLET, 1.0, (nx, ny, d))
        rho.append(r / r.sum(axis=2, keepdims=True))
    return sgve.game.DiscretizedGame(
        states=d, grids_x=tuple(np.linspace(0, 1, s[0])[:, None] for s in shapes),
        grids_y=tuple(np.linspace(0, 1, s[1])[:, None] for s in shapes),
        g=tuple(g), rho=tuple(rho))


def property_shapes(i: int):
    """Game i of the property phase: 1 + i % 4 states; every fourth state
    has a single row or column, the others 2 to 10 actions per player."""
    shapes = []
    for k in range(1 + i % 4):
        nx, ny = 2 + (3 * i + 5 * k) % 9, 2 + (5 * i + 3 * k + 4) % 9
        if (i + k) % 4 == 3:
            nx, ny = (1, ny) if k % 2 else (nx, 1)
        shapes.append((nx, ny))
    return tuple(shapes)


def build_random_small(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    horizon = [sgve.shapley.ShapleyOperator(random_game(rng, s), tol=MATRIX_TOL)
               for s in HORIZON_SHAPES]
    cases = []
    for i in range(PROPERTY_GAMES):
        shapes = property_shapes(i)
        d = len(shapes)
        op = sgve.shapley.ShapleyOperator(random_game(rng, shapes), tol=MATRIX_TOL)
        f = rng.uniform(-2, 2, d)
        pairs = [(f, f + rng.uniform(0, 2, d)),         # ordered
                 (rng.uniform(-2, 2, d), rng.uniform(-2, 2, d)),
                 (f, f.copy())]
        cases.append((op, pairs))
    return {"horizon": horizon, "properties": cases}


def _check_trajectory(op, v_h, rec: Round) -> None:
    """n-stage iterates re-derived by n_stage_series, with sampled steps
    f_{t+1} = Psi(f_t) re-checked by the oracle LP."""
    ts = (1, HORIZON // 2, HORIZON - 1)
    series = dict(sgve.values.n_stage_series(op, sorted({*ts, *(t + 1 for t in ts)})))
    rec.check(_sup(series[HORIZON] - v_h) <= 1e-8,
              "n_stage_series and value_iteration disagree at the horizon")
    g, rho = _shapley_inputs(op)
    step = _sup(oracles.shapley(g, rho, np.zeros(op.dim)) - series[1])
    for t in ts:
        step = max(step, _sup(oracles.shapley(g, rho, t * series[t])
                              - (t + 1) * series[t + 1]))
    rec.check(step <= 1e-6, f"oracle Psi disagrees with an n-stage step by {step:.3e}")


def solve_random_small(inp: dict, rec: Round, ref: dict) -> None:
    first = not ref
    for k, op in enumerate(inp["horizon"]):
        bound = op.game.payoff_bound()
        v = rec.call("horizon", sgve.values.value_iteration, op, HORIZON,
                     applies=lambda _: HORIZON)
        if v is not None:
            rec.check(_sup(v) <= bound, f"game {k}: |v_n| above the payoff bound")
            if first:
                _check_trajectory(op, v, rec)
        r = rec.call("discounted", sgve.values.discounted_value_detailed,
                     op, RANDOM_DISCOUNT, RANDOM_EPS, applies=lambda r: r.iterations)
        if r is not None:
            res = oracles.discounted_residual(*_shapley_inputs(op), RANDOM_DISCOUNT,
                                              r.value)
            rec.check(res <= RANDOM_DISCOUNT * RANDOM_EPS + 1e-7,
                      f"game {k}: oracle fixed-point residual {res:.3e}")
        fit = rec.call("sweep", sgve.values.vanishing_discount, op, RANDOM_SWEEP,
                       RANDOM_EPS)
        if fit is not None:
            rec.check(np.isfinite(fit.limit).all() and _sup(fit.limit) <= bound,
                      f"game {k}: sweep limit {fit.limit!r}")
            if v is not None:
                gap = _sup(fit.limit - v)
                rec.check(gap <= 0.05, f"game {k}: |limit - v_n| = {gap:.3e}")
    for k, (op, pairs) in enumerate(inp["properties"]):
        rep = rec.call("property", sgve.shapley.check_properties, op, pairs,
                       applies=lambda _: 6 * len(pairs))
        if rep is not None:
            slack = rep.slack(MATRIX_TOL)
            rec.check(max(rep.monotonicity, rep.additive_homogeneity,
                          rep.nonexpansiveness) <= slack,
                      f"property game {k}: {rep!r}")
        if first:
            f = pairs[1][0]
            diff = _sup(op.apply(f) - oracles.shapley(*_shapley_inputs(op), f))
            rec.check(diff <= 1e-7, f"property game {k}: Psi off the oracle by {diff:.3e}")
    ref["done"] = True


# ---------------------------------------------------------------------------
# pf-growth
# ---------------------------------------------------------------------------

def build_pf_growth(seed: int) -> dict:
    rng = np.random.default_rng(seed)

    def families(d, f):
        return [rng.uniform(0.1, 1.0, (f, d)) for _ in range(d)]

    big = []
    for maker, reduce in ((sgve.pf.min_linear, min), (sgve.pf.max_linear, max)):
        fam = families(PF_D, PF_F)
        starts = [np.ones(PF_D), rng.uniform(0.2, 5.0, PF_D)]
        big.append((maker(fam), fam, reduce, starts))
    linear = []
    for _ in range(LINEAR_MAPS):
        A = rng.uniform(0.1, 1.0, (3, 3))
        linear.append((sgve.pf.min_linear([[tuple(row)] for row in A]), A,
                       [np.ones(3), rng.uniform(0.2, 5.0, 3)]))
    rect = []
    for k in range(RECT_MAPS):
        maker, reduce = ((sgve.pf.min_linear, min), (sgve.pf.max_linear, max))[k % 2]
        fam = families(3, 2)
        rect.append((maker(fam), fam, reduce))
    return {"big": big, "linear": linear, "rect": rect}


def solve_pf_growth(inp: dict, rec: Round, ref: dict) -> None:
    for T, fam, reduce, starts in inp["big"]:
        chis = [rec.call("growth", sgve.pf.growth_rate, T, e, PF_N,
                         applies=lambda _: PF_N) for e in starts]
        if any(c is None for c in chis):
            continue
        lo, hi = oracles.collatz_wielandt(fam, reduce)
        rec.check(_sup(chis[0] - chis[1]) <= 1e-9 * hi,
                  f"{reduce.__name__}-linear d={PF_D}: start vectors disagree")
        rec.check(all(lo * (1 - 1e-9) <= c <= hi * (1 + 1e-9)
                      for c in np.concatenate(chis)),
                  f"{reduce.__name__}-linear d={PF_D}: growth outside [{lo!r}, {hi!r}]")
    for k, (T, A, starts) in enumerate(inp["linear"]):
        rho = oracles.perron_root(A)
        for e in starts:
            chi = rec.call("growth", sgve.pf.growth_rate, T, e, SMALL_N,
                           applies=lambda _: SMALL_N)
            if chi is not None:
                rec.check(_sup(chi - rho) <= 1e-9 * rho,
                          f"linear map {k}: growth {chi!r} vs Perron root {rho!r}")
    for k, (T, fam, reduce) in enumerate(inp["rect"]):
        chi = rec.call("growth", sgve.pf.growth_rate, T, np.ones(3), SMALL_N,
                       applies=lambda _: SMALL_N)
        if chi is not None:
            want = oracles.selection_growth(fam, reduce)
            rec.check(_sup(chi - want) <= 1e-9 * want,
                      f"rectangular map {k}: growth {chi!r} vs selections {want!r}")
    ref["done"] = True


class Workload(NamedTuple):
    build: Callable[[int], dict]
    solve: Callable[[dict, Round, dict], None]
    # report times at the reference speed (reference.py).  The slice gauges
    # call-bound work in the run process; paper-grid's time is HiGHS
    # pivoting on 201x201 LPs and child interpreters, which the host's slow
    # stretches hardly touch, and dividing by the slice widened its spread
    # (see README.md), so it reports wall-clock time
    gauged: bool


WORKLOADS = {
    "paper-grid": Workload(build_paper_grid, solve_paper_grid, gauged=False),
    "random-small": Workload(build_random_small, solve_random_small, gauged=True),
    "pf-growth": Workload(build_pf_growth, solve_pf_growth, gauged=True),
}
