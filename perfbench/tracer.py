"""Per-layer spans and counts, recorded from outside the program.

``Tracer.install()`` replaces the public functions each layer calls into
with timing wrappers, at every module binding the workloads reach, and
``uninstall()`` puts the originals back; no sgve source is changed.  A
span's self time is its duration minus the spans it directly encloses.
"""
from __future__ import annotations

import statistics
import time
import types
from collections import defaultdict

import numpy as np

import sgve.cli
import sgve.expr
import sgve.game
import sgve.gamefile
import sgve.parametric
import sgve.pf
import sgve.shapley
import sgve.values

# plain spans: name reported -> the module bindings wrapped; the matrix-game
# kernel, linprog, the operator apply, the pf step and expr.evaluate are
# wrapped in install() because they also count
_SPANS = {
    "gamefile.parse": [(sgve.gamefile, "game_spec_from_document"),
                       (sgve.cli, "game_spec_from_document")],
    "game.discretize": [(sgve.game, "discretize"), (sgve.cli, "discretize")],
    "shapley": [(sgve.shapley, "check_properties")],
    "values": [(sgve.values, name) for name in (
        "value_iteration", "n_stage_series", "discounted_value",
        "discounted_value_detailed", "vanishing_discount")],
    "values.fit": [(sgve.values, "fit_power_law")],
    "parametric": [(sgve.parametric, name) for name in (
        "separable_value", "mckinsey_grid_value")],
    "pf": [(sgve.pf, "growth_rate")],
    "cli": [(sgve.cli, "main")],
}
# per-round counts that must repeat exactly between runs of one seed
COUNTS = ("game.discretize_cells", "expr.evaluate_calls", "game.kernel_calls",
          "game.kernel_cells", "game.lp_calls", "game.lp_free_calls",
          "game.lp_retries", "shapley.applies", "values.iterations", "pf.steps")


class Tracer:
    """Spans and counts of one traced round."""

    def __init__(self):
        self.total = defaultdict(float)   # span name -> summed duration
        self.child = defaultdict(float)   # span name -> time in direct children
        self.count = defaultdict(int)
        self.samples = defaultdict(list)  # span name -> per-call durations
        self.max_gap = 0.0
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def _enter(self, name):
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame, sample=False) -> None:
        name, start, inner = frame
        dt = time.perf_counter() - start
        self._stack.pop()
        self.total[name] += dt
        self.child[name] += inner
        if self._stack:
            self._stack[-1][2] += dt
        if sample:
            self.samples[name].append(dt)

    def _wrap(self, name, fn, count=None, sample=False):
        def traced(*args, **kwargs):
            if count:
                self.count[count] += 1
            frame = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._leave(frame, sample)
            self._after(name, fn, args, out)
            return out
        return traced

    def _after(self, name, fn, args, out):
        """Counts read off a call's arguments and result."""
        if name == "game.discretize":
            self.count["game.discretize_cells"] += sum(
                r.shape[0] * r.shape[1] * (r.shape[2] + 1) for r in out.rho)
        elif name == "values":
            # discounted_value and vanishing_discount reach the
            # iterations through discounted_value_detailed
            if isinstance(out, sgve.values.DiscountedResult):
                self.count["values.iterations"] += out.iterations
            elif fn.__name__ == "value_iteration":
                self.count["values.iterations"] += args[1]
            elif fn.__name__ == "n_stage_series":
                self.count["values.iterations"] += max(args[1])

    def _kernel(self, fn):
        def traced(A, *args, **kwargs):
            lp_before = self.count["game.lp_calls"]
            frame = self._enter("game.kernel")
            try:
                out = fn(A, *args, **kwargs)
            finally:
                self._leave(frame, sample=True)
            lps = self.count["game.lp_calls"] - lp_before
            self.count["game.kernel_calls"] += 1
            self.count["game.kernel_cells"] += np.size(A)
            self.count["game.lp_free_calls"] += lps == 0
            self.count["game.lp_retries"] += max(lps - 1, 0)
            self.max_gap = max(self.max_gap, out.duality_gap)
            return out
        return traced

    def _make_conjugate(self, fn):
        def traced(T):
            return self._wrap("pf.step", fn(T), count="pf.steps", sample=True)
        return traced

    # -- install / uninstall -------------------------------------------------

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        for name, sites in _SPANS.items():
            for owner, attr in sites:
                self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))
        for owner in (sgve.shapley, sgve.parametric):
            self._patch(owner, "solve_matrix_game", self._kernel(owner.solve_matrix_game))
        self._patch(sgve.game, "linprog",
                    self._wrap("game.lp", sgve.game.linprog, count="game.lp_calls"))
        op = sgve.shapley.ShapleyOperator
        self._patch(op, "apply_with_gaps", self._wrap(
            "shapley.apply", op.apply_with_gaps, count="shapley.applies"))
        self._patch(sgve.pf, "make_conjugate", self._make_conjugate(sgve.pf.make_conjugate))
        # expr.evaluate recurses through its module global, so top-level
        # calls are counted through a stand-in module at each caller
        proxy = types.SimpleNamespace(**vars(sgve.expr))
        proxy.evaluate = self._wrap("expr.evaluate", sgve.expr.evaluate,
                                    count="expr.evaluate_calls")
        for owner in (sgve.parametric, sgve.pf):
            self._patch(owner, "ex", proxy)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- results -------------------------------------------------------------

    def merge(self, other: dict) -> None:
        """Add the dump of a tracer from another process."""
        for key in ("total", "child", "count", "samples"):
            mine = getattr(self, key)
            for name, value in other[key].items():
                mine[name] += value
        self.max_gap = max(self.max_gap, other["max_gap"])

    def dump(self) -> dict:
        return {"total": dict(self.total), "child": dict(self.child),
                "count": dict(self.count), "samples": dict(self.samples),
                "max_gap": self.max_gap}

    def self_time(self, name: str) -> float:
        return self.total[name] - self.child[name]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of everything recorded since construction."""
        s = self.self_time

        def median_us(name):
            return 1e6 * statistics.median(self.samples[name]) if self.samples[name] else 0.0

        out = {name: float(self.count[name]) for name in COUNTS}
        out.update({
            "gamefile.parse_s": self.total["gamefile.parse"],
            "game.discretize_s": self.total["game.discretize"],
            "expr.evaluate_s": self.total["expr.evaluate"],
            "parametric.self_s": s("parametric"),
            "game.kernel_s": self.total["game.kernel"],
            "game.kernel_call_us": median_us("game.kernel"),
            "game.kernel_self_s": s("game.kernel"),
            "game.lp_s": self.total["game.lp"],
            "game.max_gap": self.max_gap,
            "shapley.apply_s": self.total["shapley.apply"],
            "shapley.self_s": s("shapley.apply") + s("shapley"),
            "values.self_s": s("values"),
            "values.fit_s": self.total["values.fit"],
            "pf.step_us": median_us("pf.step"),
            "pf.self_s": s("pf"),
            "cli.import_s": self.total["cli.import"],
            "cli.self_s": s("cli"),
        })
        return out
