"""Checks made apart from the solver: closed forms, a second LP, eigenvalues,
policy enumeration and Collatz-Wielandt brackets.

Nothing here calls sgve.  The matrix-game oracle solves the column player's
LP (sgve solves the row player's), with presolve on (sgve turns it off), so
a shared modelling slip cannot hide in both.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linprog


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def mckinsey_value(z: float) -> float:
    """Value of (1+x)(1+yz)/(2(1+xy)^2) on the unit square."""
    return z / (2.0 * math.log1p(z))


def exshap_discounted(lam: float) -> float:
    """Second-state discounted value of bench:exshap."""
    return lam * math.expm1((1.0 - lam) / 2.0) / (1.0 - lam)


def mckinsey_matrix(z: float, resolution: int) -> np.ndarray:
    """The same payoff on the uniform grid of the unit square."""
    x = np.linspace(0.0, 1.0, resolution)[:, None]
    y = np.linspace(0.0, 1.0, resolution)[None, :]
    return (1 + x) * (1 + y * z) / (2 * (1 + x * y) ** 2)


EXSHAP_COEFFICIENT = math.exp(0.5) - 1.0  # vanishing-discount slope at 0
SEPARABLE_VALUE = 0.25                    # (x-y)^2 on the unit square


# ---------------------------------------------------------------------------
# matrix games and the Shapley operator
# ---------------------------------------------------------------------------

def matrix_game_value(A) -> float:
    """min over q in the simplex of max_i (A q)_i, as one HiGHS LP."""
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    c = np.zeros(n + 1)
    c[-1] = 1.0
    res = linprog(c, A_ub=np.hstack([A, -np.ones((m, 1))]), b_ub=np.zeros(m),
                  A_eq=np.hstack([np.ones((1, n)), np.zeros((1, 1))]), b_eq=[1.0],
                  bounds=[(0, None)] * n + [(None, None)], method="highs")
    if not res.success:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    return float(res.x[-1])


def shapley(g, rho, f) -> np.ndarray:
    """Psi(f)_k = value of g[k] + rho[k] @ f, state by state."""
    f = np.asarray(f, dtype=float)
    return np.array([matrix_game_value(gk + rk @ f) for gk, rk in zip(g, rho)])


def discounted_residual(g, rho, lam: float, v) -> float:
    """sup-norm of lam * Psi((1-lam)/lam * v) - v."""
    v = np.asarray(v, dtype=float)
    return float(np.abs(lam * shapley(g, rho, (1.0 - lam) / lam * v) - v).max())


# ---------------------------------------------------------------------------
# positive cone
# ---------------------------------------------------------------------------

def perron_root(A) -> float:
    return float(np.abs(np.linalg.eigvals(np.asarray(A, dtype=float))).max())


def selection_growth(families, reduce) -> float:
    """reduce (min or max) over row selections of the selection's Perron
    root; the growth rate of a min/max-linear map with rectangular
    families."""
    return reduce(perron_root(np.array(rows))
                  for rows in itertools.product(*families))


def cone_map(families, reduce, x) -> np.ndarray:
    """T(x)_i = reduce over the family of coordinate i of <p, x>."""
    return np.array([reduce(np.asarray(fam) @ x) for fam in families])


def collatz_wielandt(families, reduce, steps: int = 400) -> tuple[float, float]:
    """Bracket min_i T(e)_i/e_i <= chi <= max_i T(e)_i/e_i, with e a
    normalised power iterate so the bracket is tight."""
    e = np.ones(len(families))
    for _ in range(steps):
        e = cone_map(families, reduce, e)
        e /= e.max()
    ratio = cone_map(families, reduce, e) / e
    return float(ratio.min()), float(ratio.max())


# ---------------------------------------------------------------------------
# self-test on hand-solved inputs
# ---------------------------------------------------------------------------

def self_test() -> list[str]:
    """Failures of the oracles on inputs solved by hand (empty when sound)."""
    cases = [
        ("matching pennies", matrix_game_value([[1, -1], [-1, 1]]), 0.0),
        ("2x2 mixed", matrix_game_value([[3, -1], [-2, 1]]), 1.0 / 7.0),
        ("rock-paper-scissors",
         matrix_game_value([[0, -1, 1], [1, 0, -1], [-1, 1, 0]]), 0.0),
        ("pure saddle", matrix_game_value([[1, 2], [0, 3]]), 1.0),
        ("absorbing Psi",
         shapley([np.zeros((1, 1)), np.array([[1.0, -1.0], [-1.0, 1.0]])],
                 [np.ones((1, 1, 2)) * [1.0, 0.0],
                  np.ones((2, 2, 2)) * [0.0, 1.0]], [2.0, 3.0])[1], 3.0),
        ("perron [[2,1],[1,2]]", perron_root([[2, 1], [1, 2]]), 3.0),
        ("min selection", selection_growth(
            [[(2, 0), (3, 0)], [(0, 1), (0, 5)]], min), 2.0),
        ("max selection", selection_growth(
            [[(2, 0), (3, 0)], [(0, 1), (0, 5)]], max), 5.0),
        ("CW lower diag(2,3)", collatz_wielandt([[(2, 0)], [(0, 3)]], min)[0], 2.0),
        ("CW upper diag(2,3)", collatz_wielandt([[(2, 0)], [(0, 3)]], min)[1], 3.0),
        ("mckinsey z=1", mckinsey_value(1.0), 1.0 / (2.0 * math.log(2.0))),
        ("exshap lam=1/2", exshap_discounted(0.5), math.exp(0.25) - 1.0),
    ]
    return [f"{name}: got {got!r}, expected {want!r}"
            for name, got, want in cases if abs(got - want) > 1e-9]
