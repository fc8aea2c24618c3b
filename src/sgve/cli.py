"""Command-line driver.

Commands::

    sgve solve FILE (--lambda L | --n N) [--resolution R] [--tol T] [--eps E]
    sgve curve FILE (--lambda-grid L1,L2,... | --n-grid N1,N2,...) [--out CSV]
    sgve bench --suite {mckinsey,exshap,properties,pf,all}
    sgve growth MAPFILE [--n N] [--e E1,E2,...]

FILE is a JSON game document or a builtin pseudo-path like
``bench:exshap``.  Exit codes: 0 success, 2 usage or input error,
3 numerical failure.  Identical invocations produce byte-identical output.
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import values
from .bench import SUITES, run_suite
from .errors import IterationBudgetError, MatrixGameError, PositivityError, SgveError
from .game import discretize
from .gamefile import game_spec_from_document, load_game_document, load_monotone_map
from .pf import _checked_start, growth_bracket, growth_rates
from .shapley import ShapleyOperator

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

_NUMERICAL_ERRORS = (MatrixGameError, IterationBudgetError, PositivityError)


def _list_of(kind: type):
    """argparse type: a nonempty comma-separated list of ``kind``."""
    def parse(text: str) -> list:
        try:
            items = [kind(t) for t in text.split(",") if t.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a comma-separated {kind.__name__} list: {text!r}")
        if not items:
            raise argparse.ArgumentTypeError("empty list")
        return items
    return parse


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a float: {text!r}")
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive: {text!r}")
    return value


def _build_operator(path: str, resolution: int, tol: float) -> ShapleyOperator:
    spec, kind = game_spec_from_document(load_game_document(path))
    return ShapleyOperator(discretize(spec, resolution), form=kind, tol=tol)


def _cmd_solve(args) -> int:
    op = _build_operator(args.file, args.resolution, args.tol)
    if args.discount is not None:
        result = values.discounted_value_detailed(op, args.discount, args.eps)
        v = result.value
        # one extra application certifies the fixed point independently
        fv, gaps, _ = values.discounted_apply(op, args.discount, v, result.hints)
        tail = [f"iterations: {result.iterations}",
                f"fixed-point residual: {float(np.abs(fv - v).max())!r}",
                f"max duality gap: {float(gaps.max())!r}"]
    else:
        v = values.value_iteration(op, args.stages)
        tail = [f"iterations: {args.stages}", f"duality-gap tolerance: {args.tol!r}"]
    for k, vk in enumerate(v):
        print(f"state {k}: {float(vk)!r}")
    print(*tail, sep="\n")
    return EXIT_OK


def _write_csv(rows: list[list[str]], out: str | None) -> None:
    text = "\n".join(",".join(row) for row in rows) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _cmd_curve(args) -> int:
    op = _build_operator(args.file, args.resolution, args.tol)
    d = op.dim
    header_v = [f"v{k}" for k in range(d)]
    if args.lambda_grid is not None:
        rows = [["lambda", *header_v, "iterations", "residual"]]
        for lam in args.lambda_grid:
            res = values.discounted_value_detailed(op, lam, args.eps)
            rows.append([repr(lam), *[repr(float(x)) for x in res.value],
                         str(res.iterations), repr(res.error_bound)])
    else:
        rows = [["n", *header_v, "iterations"]]
        for n, vn in values.n_stage_series(op, args.n_grid):
            rows.append([repr(float(n)), *[repr(float(x)) for x in vn], str(n)])
    _write_csv(rows, args.out)
    return EXIT_OK


def _cmd_bench(args) -> int:
    results = run_suite(args.suite)
    failed = 0
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        print(f"[{tag}] {r.index:2d} {r.name}: {r.summary}")
        for line in r.details:
            print(f"        {line}")
        failed += 0 if r.passed else 1
    if failed:
        print(f"{failed} criteria FAILED")
        return EXIT_NUMERICAL
    print(f"all {len(results)} criteria passed")
    return EXIT_OK


def _cmd_growth(args) -> int:
    T = load_monotone_map(args.mapfile)
    e = _checked_start(T, np.ones(T.d) if args.start is None else args.start, [args.n])
    bracket = growth_bracket(T)
    if bracket is not None:
        print("growth rate:", " ".join([repr(bracket.rate)] * T.d))
        print(f"collatz-wielandt bracket: {bracket.lo!r} {bracket.hi!r}")
        return EXIT_OK
    ns = [args.n, args.n // 2] if args.n >= 2 else [args.n]
    chi, *half = growth_rates(T, e, ns)
    print("growth rate:", " ".join(repr(float(x)) for x in chi))
    if half:
        diag = float(np.abs(chi - half[0]).max())
        print(f"cauchy difference vs n/2: {diag!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgve",
        description="Finite-state zero-sum stochastic game values and "
                    "positive-cone growth rates.")
    sub = parser.add_subparsers(dest="command", required=True)

    # the game, its grid and the accuracies shared by solve and curve
    game = argparse.ArgumentParser(add_help=False)
    game.add_argument("file", help="game JSON path or bench:<name>")
    game.add_argument("--resolution", type=int, default=201,
                      help="grid points per action dimension (default 201)")
    game.add_argument("--tol", type=_positive_float, default=1e-6,
                      help="duality-gap tolerance per matrix game (default 1e-6)")
    game.add_argument("--eps", type=_positive_float, default=1e-6,
                      help="fixed-point accuracy for discounted values (default 1e-6)")

    solve = sub.add_parser("solve", parents=[game],
                           help="discounted or n-stage values of a game")
    group = solve.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambda", dest="discount", type=float,
                       help="discount factor in (0, 1]")
    group.add_argument("--n", dest="stages", type=int, help="horizon length")
    solve.set_defaults(run=_cmd_solve)

    curve = sub.add_parser("curve", parents=[game],
                           help="value curves over a parameter grid as CSV")
    group = curve.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambda-grid", dest="lambda_grid", type=_list_of(float),
                       help="comma-separated discount factors")
    group.add_argument("--n-grid", dest="n_grid", type=_list_of(int),
                       help="comma-separated horizons")
    curve.add_argument("--out", default=None, help="CSV output path (default stdout)")
    curve.set_defaults(run=_cmd_curve)

    bench = sub.add_parser("bench", help="run the acceptance benchmark suites")
    bench.add_argument("--suite", required=True, choices=sorted(SUITES))
    bench.set_defaults(run=_cmd_bench)

    growth = sub.add_parser(
        "growth", help="geometric growth rate of a monotone map",
        description="Growth rate of a monotone map.  A min/max-linear map whose "
                    "Collatz-Wielandt bracket policy iteration closes prints the "
                    "rate and the bracket; any other map iterates its log-space "
                    "conjugate from --e for --n steps and prints the estimate and "
                    "its difference from the one at n/2.")
    growth.add_argument("mapfile", help="monotone-map JSON path")
    growth.add_argument("--n", type=int, default=10_000,
                        help="iteration horizon when no bracket closes (default 10000)")
    growth.add_argument("--e", dest="start", type=_list_of(float), default=None,
                        help="starting vector when no bracket closes (default all ones)")
    growth.set_defaults(run=_cmd_growth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (SgveError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:  # the options asked for a grid that does not fit
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
