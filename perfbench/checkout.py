"""Locate the sgve sources of the checkout and fix the process environment.

Every benchmark script imports this module first: it caps the BLAS thread
pools before numpy is imported and puts ``src/`` of the checkout (the
current directory) first on ``sys.path``, so the benchmark always measures
the sources next to it and never an installed copy.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """Environment for subprocesses: same thread cap, checkout sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def prepare() -> None:
    """Exit with code 2 unless run from the root of an sgve checkout."""
    if not (SRC / "sgve" / "__init__.py").is_file():
        print(f"perfbench: no sgve sources under {SRC}; run from the root "
              "of an sgve checkout", file=sys.stderr)
        raise SystemExit(2)
    cap = str(nproc())
    for var in BLAS_VARS:
        os.environ[var] = cap
    sys.path.insert(0, str(SRC))
