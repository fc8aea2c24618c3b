"""Parametric one-shot games: separable payoffs via moment convexification,
the convex-payoff finite-support reduction, and the rational-payoff
benchmark game whose value is transcendental in the parameter.

The benchmark payoff is ``(1+x)(1+yz) / (2(1+xy)^2)`` on the unit square;
its mixed value is ``z / (2 ln(1+z))`` for z in (0, 1], which the grid
solver must reproduce as the mesh refines.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import expr as ex
from .errors import GameSpecError
from .game import (_product_bindings, action_variables, solve_matrix_game,
                   uniform_grid)

__all__ = [
    "SeparableSpec", "separable_value",
    "ConvexGameSpec", "convexity_spot_check", "convex_value",
    "payoff_grid",
    "mckinsey_payoff_matrix", "mckinsey_value", "mckinsey_grid_value",
]

CONVEX_SUPPORT_POINT_LIMIT = 65  # grids past this blow up the enumeration


@dataclass(frozen=True)
class SeparableSpec:
    """Payoff sum_{ij} m_ij(z) * a_i(x, z) * b_j(y, z) over action boxes.

    ``a`` are expressions in the x-variables (plus parameters), ``b`` in the
    y-variables, and the coefficient table ``m`` in the parameters alone.
    """
    a: tuple[ex.Expr, ...]
    b: tuple[ex.Expr, ...]
    m: tuple[tuple[ex.Expr, ...], ...]
    x_box: tuple[tuple[float, float], ...]
    y_box: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.a or not self.b:
            raise GameSpecError("basis sizes must be >= 1")
        if len(self.m) != len(self.a) or any(len(r) != len(self.b) for r in self.m):
            raise GameSpecError("coefficient table must be I x J")


def separable_value(spec: SeparableSpec, z: Mapping[str, float],
                    resolution: int, tol: float = 1e-9) -> float:
    """Grid value of a separable parametric game at parameter z.

    Builds the bilinear matrix over the basis images of the action grids
    and solves the induced finite matrix game; by linearity of mixing this
    equals the minimax over the (discretized) moment polytopes, so no
    polytope is ever materialized.
    """
    xs = uniform_grid(spec.x_box, resolution)
    ys = uniform_grid(spec.y_box, resolution)
    zb = dict(z)
    bx = {**dict(zip(action_variables("x", xs.shape[1]), xs.T)), **zb}
    by = {**dict(zip(action_variables("y", ys.shape[1]), ys.T)), **zb}
    A = np.array([ex.evaluate(ai, bx) for ai in spec.a])  # (I, nx)
    B = np.array([ex.evaluate(bj, by) for bj in spec.b])  # (J, ny)
    M = np.array([[ex.evaluate(mij, zb) for mij in row] for row in spec.m])
    G = A.T @ M @ B
    return solve_matrix_game(G, tol).value


@dataclass(frozen=True)
class ConvexGameSpec:
    """One-shot game whose payoff is declared convex in the minimizer's
    action; the declaration is trusted but spot-checkable."""
    payoff: ex.Expr  # in x-vars, y-vars, and parameter names
    x_box: tuple[tuple[float, float], ...]
    y_box: tuple[tuple[float, float], ...]


def convexity_spot_check(spec: ConvexGameSpec, z: Mapping[str, float]) -> float:
    """Worst midpoint-convexity violation of y -> g(x, y, z) on 64 random
    segments drawn with seed 0; raises :class:`GameSpecError` above 1e-9,
    a slack genuinely convex payoffs stay within."""
    rng = np.random.default_rng(0)
    p, q = len(spec.x_box), len(spec.y_box)
    # per segment, in stream order: x, then the endpoints y1 and y2
    lo, hi = np.array(spec.x_box + spec.y_box + spec.y_box).T
    draws = rng.uniform(lo, hi, (64, p + 2 * q))
    x, y1, y2 = draws[:, :p], draws[:, p:p + q], draws[:, p + q:]
    y = np.stack([(y1 + y2) / 2, y1, y2])  # (3, 64, q)
    bind = {**dict(z), **dict(zip(action_variables("x", p), x.T)),
            **dict(zip(action_variables("y", q), np.moveaxis(y, -1, 0)))}
    gm, g1, g2 = ex.evaluate(spec.payoff, bind)
    worst = float(np.max(gm - (g1 + g2) / 2, initial=0.0))
    if worst > 1e-9:
        raise GameSpecError(
            f"payoff declared convex in y violates midpoint convexity by {worst:.3e}")
    return worst


def payoff_grid(spec: ConvexGameSpec, z: Mapping[str, float],
                 resolution: int) -> np.ndarray:
    xs = uniform_grid(spec.x_box, resolution)
    ys = uniform_grid(spec.y_box, resolution)
    return ex.evaluate(spec.payoff, {**dict(z), **_product_bindings(xs, ys)})


def convex_value(spec: ConvexGameSpec, z: Mapping[str, float],
                 resolution: int, tol: float = 1e-9) -> float:
    """Value via maximizer supports of at most q+1 grid points.

    With the payoff convex in y, the maximizer has an optimal mixture
    supported on q+1 points (q = dimension of the minimizer's box), so the
    value is the best restricted matrix game over all such supports.  Each
    restriction can only lower the value, so the result never exceeds the
    full grid value; convexity makes the two agree up to discretization.
    Maximizer grids of more than ``CONVEX_SUPPORT_POINT_LIMIT`` (65)
    points are refused.
    """
    q = len(spec.y_box)
    if q > 2:
        raise GameSpecError("convex-payoff reduction supports y-dimension <= 2")
    G = payoff_grid(spec, z, resolution)
    nx = G.shape[0]
    if nx > CONVEX_SUPPORT_POINT_LIMIT:
        raise GameSpecError(f"support enumeration budget exceeded: {nx} > "
                            f"{CONVEX_SUPPORT_POINT_LIMIT} grid points")
    best = -math.inf
    for support in itertools.combinations(range(nx), min(q + 1, nx)):
        sub = G[list(support), :]
        # cheap upper bound: the restricted value is at most min_j max_i
        if sub.max(axis=0).min() <= best:
            continue
        val = solve_matrix_game(sub, tol).value
        best = max(best, val)
    return best


def mckinsey_payoff_matrix(z: float, resolution: int) -> np.ndarray:
    """Benchmark payoff (1+x)(1+yz) / (2(1+xy)^2) on uniform unit grids."""
    x = np.linspace(0.0, 1.0, resolution)
    X, Y = np.meshgrid(x, x, indexing="ij")
    return (1 + X) * (1 + Y * z) / (2 * (1 + X * Y) ** 2)


def mckinsey_value(z: float) -> float:
    """Closed-form value z / (2 ln(1+z)) of the benchmark game, z in (0, 1]."""
    if not 0.0 < z <= 1.0:
        raise ValueError(f"parameter must be in (0, 1], got {z}")
    return z / (2.0 * math.log1p(z))


def mckinsey_grid_value(z: float, resolution: int = 201,
                        tol: float = 1e-6) -> float:
    """Mixed value of the benchmark game on a uniform grid; converges to
    the closed form as the grid refines."""
    if not 0.0 < z <= 1.0:
        raise ValueError(f"parameter must be in (0, 1], got {z}")
    return solve_matrix_game(mckinsey_payoff_matrix(z, resolution), tol).value
