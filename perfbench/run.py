"""sgve benchmark: one seeded workload, timed end to end or per layer.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 30 --trace 0

Run from the root of an sgve checkout.  The run builds the workload's inputs
from the seed and repeats whole rounds of the same operations, each waiting
for the last (one caller, closed loop), until ``--seconds`` have passed.
Every output is checked (see workloads.py).  A solve time is the mean per
round after the first, which warms up; on the workloads marked ``gauged``
it is taken at the reference speed of reference.py, so that the host's own
swings in speed are divided out.  The last line of standard output is one
JSON object with the counts and the metrics:

* ``--trace 0``: the end-to-end metrics of BENCHMARK.json, untraced;
* ``--trace 1``: rounds alternate untraced and traced; the per-layer
  metrics are medians over the traced rounds, the phase times come from
  the untraced ones, and ``trace.overhead_s`` is the traced round time
  minus the untraced one.

A copy of the result, with machine information, goes to
``perfbench/results/<workload>-seed<seed>-trace<t>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import checkout
import reference

SETUP_PROBES = 5
PHASES = ("oneshot", "discounted", "sweep", "horizon", "property",
          "cli_solve", "cli_curve", "growth")
RESULTS = checkout.ROOT / "perfbench" / "results"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("paper-grid", "random-small", "pf-growth"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of one fresh interpreter that imports sgve and builds the
    inputs, from spawn to exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "perfbench/setup_probe.py", workload, str(seed)],
                   cwd=checkout.ROOT, env=checkout.child_env(), check=True, timeout=120)
    return time.perf_counter() - start


def host_slowness(rounds) -> float:
    """Mean reference slice time of ``rounds`` over ``REFERENCE_S``."""
    return statistics.fmean(s for r in rounds for s in r.reference) / reference.REFERENCE_S


def round_times(rounds, slowness: float) -> tuple[dict[str, float], float]:
    """Mean time per round of each phase, divided by ``slowness``, and the
    rate of operator applications, multiplied by it.

    With the host's slowness these are times at the reference speed (see
    reference.py): the raw times follow the shared host's load, which
    swings by up to 1.7 times over seconds to minutes; README.md gives the
    figures.  With 1 they are wall-clock times.
    """
    phases: dict[str, float] = {}
    for r in rounds:
        for phase, dt in r.phases.items():
            phases[phase] = phases.get(phase, 0.0) + dt / len(rounds) / slowness
    apply_s = sum(r.apply_s for r in rounds)
    return phases, sum(r.applies for r in rounds) / apply_s * slowness if apply_s else 0.0


def cli_runner(tracer):
    """Runs one sgve command in a fresh interpreter and returns its stdout;
    under a tracer the command runs through cli_trace.py instead."""
    def run(args: list[str]) -> str:
        if tracer is None:
            cmd = [sys.executable, "-c",
                   "from sgve.cli import main; raise SystemExit(main())", *args]
        else:
            stats = RESULTS / "cli-stats.json"
            cmd = [sys.executable, "perfbench/cli_trace.py", str(stats), *args]
        proc = subprocess.run(cmd, cwd=checkout.ROOT, env=checkout.child_env(),
                              capture_output=True, text=True, timeout=120)
        if tracer is not None:
            tracer.merge(json.loads(stats.read_text()))
            stats.unlink()
        if proc.returncode != 0:
            raise RuntimeError(f"sgve {' '.join(args)} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")
        return proc.stdout
    return run


def machine_info() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "nproc": checkout.nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(),
            "blas_threads": {var: os.environ[var] for var in checkout.BLAS_VARS}}


def unit_of(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    return "payoff" if name == "game.max_gap" else "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout.prepare()
    import oracles
    import workloads
    from tracer import Tracer

    RESULTS.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    problems = [f"oracle self-test: {p}" for p in oracles.self_test()]

    ref: dict = {}
    rounds, tracers, setups = [], [], []
    solving = 0.0
    while True:
        # set-up probes spread over the run, so their median sees the
        # host's load over the run and not at one moment
        if len(setups) < SETUP_PROBES and solving >= len(setups) * args.seconds / SETUP_PROBES:
            setups.append(setup_probe(args.workload, args.seed))
        tracer = Tracer() if args.trace and len(rounds) % 2 else None
        rec = workloads.Round(cli_runner(tracer))
        start = time.perf_counter()
        if tracer is not None:
            tracer.install()
        try:
            workload.solve(workload.build(args.seed), rec, ref)
        finally:
            if tracer is not None:
                tracer.uninstall()
        solving += time.perf_counter() - start
        rounds.append(rec)
        tracers.append(tracer)
        problems.extend(rec.wrong)
        if (solving >= args.seconds and len(setups) == SETUP_PROBES
                and len(rounds) >= 2 + 2 * args.trace):
            break

    # the first round warms up: lazy imports, first calls, first-round checks
    plain = [r for r, t in zip(rounds[1:], tracers[1:]) if t is None]
    slowness = host_slowness(plain)
    divisor = slowness if workload.gauged else 1.0
    phases, applies_per_s = round_times(plain, divisor)
    solve_s = sum(phases.values())
    if args.trace:
        traced = [t for t in tracers if t is not None]
        layers = [t.layer_metrics() for t in traced]
        metrics = {name: (statistics.median(m[name] for m in layers), unit_of(name))
                   for name in layers[0]}
        for phase in PHASES:
            metrics[f"phase.{phase}_s"] = (phases.get(phase, 0.0), "s")
        traced_phases, _ = round_times(
            [r for r, t in zip(rounds, tracers) if t is not None], divisor)
        metrics["trace.overhead_s"] = (sum(traced_phases.values()) - solve_s, "s")
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "solve_s": (solve_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "applies_per_s": (applies_per_s, "1/s"),
        }
        for name, value in phases.items():
            print(f"{args.workload} {name}_s {value:.6g} s")
        print(f"{args.workload} wall-clock solve_s {solve_s * divisor:.6g} s "
              f"(host slowness {slowness:.4g}, divided out: {workload.gauged})")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    for p in problems:
        print(f"perfbench: CHECK FAILED: {p}", file=sys.stderr)

    result = {"correct": not problems,
              "attempted": sum(r.attempted for r in rounds),
              "failed": sum(r.failed for r in rounds),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": len(rounds), "machine": machine_info(),
              "phases": phases, "slowness": slowness, "gauged": workload.gauged,
              "setup_probes_s": setups,
              "round_solve_s": [r.solve_s for r in rounds],
              "problems": problems, "result": result}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
