"""A fixed reference slice that gauges how fast the host runs right now.

A shared host runs the same code up to 1.7 times slower for stretches of a
second to minutes, whatever the benchmark does.  run.py times one reference
slice before every operation and reports the solve times at the reference
speed: measured time x ``REFERENCE_S`` / the run's mean slice time.  The
slice is made of the kinds of work sgve does (small matrix-game LPs on
HiGHS, a larger one, log-sum-exp over weight arrays, interpreted
arithmetic) on fixed inputs, and calls nothing of sgve, so a change to sgve
cannot change the work it does.
"""
from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linprog

# a mean slice time on the 2-core host the figures in README.md come from;
# it only sets the scale, so that a time at the reference speed reads as
# seconds of that host
REFERENCE_S = 0.025

_rng = np.random.default_rng(20130108)
_GAMES = ([_rng.uniform(-1.0, 1.0, (5, 5)) for _ in range(4)]
          + [_rng.uniform(-1.0, 1.0, (40, 40))])
_LOG_WEIGHTS = [np.log(_rng.uniform(0.1, 1.0, (8, 30))) for _ in range(30)]
_LSE_STEPS = 16
_LOOP = 12000


def _game_lp(A: np.ndarray) -> float:
    m, n = A.shape
    res = linprog(np.r_[np.zeros(n), 1.0], A_ub=np.hstack([A, -np.ones((m, 1))]),
                  b_ub=np.zeros(m), A_eq=np.r_[np.ones(n), 0.0][None, :], b_eq=[1.0],
                  bounds=[(0, None)] * n + [(None, None)], method="highs",
                  options={"presolve": False})
    return float(res.x[-1])


def _lse_steps() -> float:
    h = np.zeros(30)
    for _ in range(_LSE_STEPS):
        rows = []
        for logw in _LOG_WEIGHTS:
            M = logw + h
            m = M.max(axis=1)
            rows.append((m + np.log(np.exp(M - m[:, None]).sum(axis=1))).min())
        h = np.array(rows)
        h -= h.max()
    return float(h.sum())


def _interpreted() -> float:
    acc, table = 0.0, {}
    for i in range(_LOOP):
        table[i % 97] = acc
        acc = (acc * 0.5 + i % 7) / (1.0 + table.get(i % 89, 0.0) * 1e-3)
    return acc


def reference_slice() -> float:
    """Wall time of one reference slice."""
    start = time.perf_counter()
    for A in _GAMES:
        _game_lp(A)
    _lse_steps()
    _interpreted()
    return time.perf_counter() - start
