"""Concrete stochastic games and one-shot matrix-game solving.

A :class:`GameSpec` describes a game symbolically (expressions over action
coordinates); :func:`discretize` turns it into a :class:`DiscretizedGame`
holding dense payoff and transition tensors over uniform action grids.  The
kernel of everything downstream is :func:`solve_matrix_game`, which returns a
gap-certified mixed value of a finite zero-sum matrix game, reusing the
supports of a previous solution when they still certify.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import expr as ex
from .errors import EvalDomainError, GameSpecError, MatrixGameError

__all__ = [
    "GameSpec", "DiscretizedGame", "MatrixGameSolution",
    "action_variables", "uniform_grid", "discretize",
    "solve_matrix_game", "matrix_game_bruteforce",
]

# pre-normalization row-sum deviations beyond this signal a wrong transition
# formula rather than float noise
ROW_SUM_TOLERANCE = 1e-6
_NEGATIVE_CLAMP = 1e-12
# strategy weights above this count as the support _support_solve equalizes
_SUPPORT_THRESHOLD = 1e-9


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call: the import
    is most of the CLI's start-up time, and many commands solve no LP:
    ``sgve growth``, and ``sgve solve`` and ``sgve curve`` on the exshap
    benchmark, whose games double oracle certifies."""
    from scipy.optimize import linprog as scipy_linprog
    return scipy_linprog(*args, **kwargs)


def action_variables(prefix: str, dim: int) -> tuple[str, ...]:
    """Variable names for one player's action box: ``x`` if scalar, else
    ``x1..xp``."""
    if dim == 1:
        return (prefix,)
    return tuple(f"{prefix}{i + 1}" for i in range(dim))


@dataclass(frozen=True)
class GameSpec:
    """Symbolic stochastic game over rectangular action boxes.

    ``payoff[k]`` and ``transition[k][k2]`` are expressions in the action
    variables of both players (``x``/``x1..xp`` and ``y``/``y1..yq``).
    ``controller[k]`` optionally tags who controls state ``k`` ("p1"/"p2").
    The tags only declare the game class (MDP, perfect information,
    switching control) that a tagged operator form checks; every form
    solves each state for its certified mixed value.
    """
    states: int
    x_box: tuple[tuple[float, float], ...]
    y_box: tuple[tuple[float, float], ...]
    payoff: tuple[ex.Expr, ...]
    transition: tuple[tuple[ex.Expr, ...], ...]
    controller: tuple[str | None, ...] | None = None

    def __post_init__(self):
        d = self.states
        if d < 1:
            raise GameSpecError("state count must be >= 1")
        if len(self.payoff) != d:
            raise GameSpecError("need one payoff expression per state")
        if len(self.transition) != d or any(len(row) != d for row in self.transition):
            raise GameSpecError("transition must be a d x d expression table")
        if self.controller is not None and len(self.controller) != d:
            raise GameSpecError("controller tags must cover every state")
        for lo, hi in self.x_box + self.y_box:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise GameSpecError(f"bad box bounds ({lo}, {hi})")


@dataclass(frozen=True)
class DiscretizedGame:
    """Finite tensors of a stochastic game on action grids.

    ``g[k]`` has shape (nx_k, ny_k); ``rho[k]`` has shape (nx_k, ny_k, d)
    with nonnegative rows normalized by :func:`_exact_row_sums`.  Immutable
    after construction.
    """
    states: int
    grids_x: tuple[np.ndarray, ...]  # each (nx_k, p)
    grids_y: tuple[np.ndarray, ...]  # each (ny_k, q)
    g: tuple[np.ndarray, ...]
    rho: tuple[np.ndarray, ...]
    controller: tuple[str | None, ...] | None = None

    def __post_init__(self):
        for k in range(self.states):
            nx, ny = self.g[k].shape
            if self.rho[k].shape != (nx, ny, self.states):
                raise GameSpecError(f"tensor shape mismatch in state {k}")

    def payoff_bound(self) -> float:
        return max(float(np.abs(gk).max()) for gk in self.g)


@dataclass(frozen=True)
class MatrixGameSolution:
    """Certified mixed solution of a zero-sum matrix game.

    The certificate brackets the true value:
    ``min_j (row_strategy @ A)_j >= value - duality_gap`` and
    ``max_i (A @ col_strategy)_i <= value + duality_gap``.
    """
    value: float
    row_strategy: np.ndarray
    col_strategy: np.ndarray
    duality_gap: float


def uniform_grid(box: Sequence[tuple[float, float]], resolution: int) -> np.ndarray:
    """Product of uniform meshes of ``resolution`` points (>= 2) on every
    coordinate of the box, endpoints included.

    Returns a (resolution ** dim, dim) array in row-major order of the
    coordinate meshes.
    """
    resolution = int(resolution)
    if resolution < 2:
        raise GameSpecError("grid resolution must be >= 2 per dimension")
    axes = [np.linspace(lo, hi, resolution) for lo, hi in box]
    pts = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=-1)
    return pts.reshape(-1, len(box))


def _product_bindings(xs: np.ndarray, ys: np.ndarray) -> dict[str, np.ndarray]:
    """Action-variable bindings over the product of two point lists: each
    x-coordinate runs down axis 0 and each y-coordinate along axis 1."""
    bind = {name: xs[:, i, None]
            for i, name in enumerate(action_variables("x", xs.shape[1]))}
    bind.update((name, ys[:, j])
                for j, name in enumerate(action_variables("y", ys.shape[1])))
    return bind


def _exact_row_sums(r: np.ndarray) -> np.ndarray:
    """Clip to nonnegative and scale each row (last axis, so a 1-D vector
    is one row) to sum to one.

    The float residual of the division is pushed into the row's largest
    entry, up to four times in case the correction itself rounds.  Rows
    come out nonnegative with float sums within 2.2e-16 (one machine
    epsilon) of 1.0, and exactly 1.0 for rows of at most two entries.
    Longer rows can stay one epsilon off: 2-10% of random gamma rows of
    3 to 10 entries do.
    """
    r = np.clip(r, 0.0, None)
    r /= r.sum(axis=-1, keepdims=True)
    for _ in range(4):
        resid = 1.0 - r.sum(axis=-1)
        if not resid.any():
            break
        idx = r.argmax(axis=-1)[..., None]
        np.put_along_axis(r, idx,
                          np.take_along_axis(r, idx, -1) + resid[..., None], -1)
    return r


def discretize(spec: GameSpec, resolution: int) -> DiscretizedGame:
    """Evaluate a symbolic game on uniform action grids.

    Both action boxes get :func:`uniform_grid` meshes of ``resolution``
    points per coordinate.  An expression that is nonfinite anywhere on
    the grid raises :class:`EvalDomainError` naming its slot and the first
    offending grid node.  Transition rows whose
    pre-normalization sum deviates from one by more than ``ROW_SUM_TOLERANCE``
    (or with entries below ``-1e-12``) raise :class:`GameSpecError`; smaller
    deviations are silently renormalized by :func:`_exact_row_sums`.
    """
    xs = uniform_grid(spec.x_box, resolution)
    ys = uniform_grid(spec.y_box, resolution)
    bind = _product_bindings(xs, ys)

    def on_grid(e: ex.Expr, what: str) -> np.ndarray:
        try:
            return ex.evaluate(e, bind)
        except EvalDomainError as exc:
            raise EvalDomainError(f"{what}: {exc}") from None

    d = spec.states
    g, rho = [], []
    for k in range(d):
        g.append(on_grid(spec.payoff[k], f"payoff[{k}]"))
        rk = np.stack([on_grid(spec.transition[k][k2], f"transition[{k}][{k2}]")
                       for k2 in range(d)], axis=-1)
        if rk.min() < -_NEGATIVE_CLAMP:
            raise GameSpecError(
                f"state {k}: negative transition probability {rk.min():.3e}")
        dev = float(np.abs(rk.sum(axis=2) - 1.0).max())
        if dev > ROW_SUM_TOLERANCE:
            raise GameSpecError(
                f"state {k}: transition row sums deviate from 1 by {dev:.3e}")
        rho.append(_exact_row_sums(rk))
    return DiscretizedGame(
        states=d,
        grids_x=tuple(xs for _ in range(d)),
        grids_y=tuple(ys for _ in range(d)),
        g=tuple(g),
        rho=tuple(rho),
        controller=spec.controller,
    )


def _bracketed(p: np.ndarray, q: np.ndarray, lower: float,
               upper: float) -> MatrixGameSolution:
    """(p, q) guaranteeing ``lower`` (p against every column) and ``upper``
    (q against every row).  A closed bracket's value is its end: halving
    the sum of the two ends could overflow, and so could their difference,
    so the gap halves each end first."""
    value = lower if lower == upper else 0.5 * (lower + upper)
    return MatrixGameSolution(value, p, q, max(0.5 * upper - 0.5 * lower, 0.0))


def _certify(A: np.ndarray, p: np.ndarray, q: np.ndarray) -> MatrixGameSolution:
    return _bracketed(p, q, float((p @ A).min()), float((A @ q).max()))


# presolve-off simplex first: on large dense game LPs interior point takes
# several times as long (about 7x on a 201x201 McKinsey grid).  On scipy 1.17
# simplex stops above a 1e-9 gap on many McKinsey payoff grids, support solve
# included (z = 1 at 7 points: 2.4e-8), where interior point certifies.  Last
# comes simplex at the tightest feasibility tolerances HiGHS accepts: it
# certifies the 201-point grids and a 28-point one on which both runs above
# end in an unknown model status.  Tightening the first entry instead would
# change the supports, and the LP count, of solves that certify today
_LP_CONFIGS = (
    {"method": "highs", "options": {"presolve": False}},
    {"method": "highs-ipm", "options": {"presolve": True}},
    {"method": "highs", "options": {"presolve": False,
                                    "primal_feasibility_tolerance": 1e-10,
                                    "dual_feasibility_tolerance": 1e-10}},
)


# HiGHS's default large_matrix_value: it refuses matrices with entries this large
_HIGHS_LARGE_MATRIX_VALUE = 1e15


def _lp_solve(A: np.ndarray, config: dict) -> MatrixGameSolution | None:
    """One LP run: maximize v s.t. p^T A >= v 1, p in the simplex.

    A matrix with an entry of ``_HIGHS_LARGE_MATRIX_VALUE`` or more goes to
    HiGHS times the power of two that brings its entries below 1; the
    strategies do not depend on the scale and are certified against A.
    """
    m, n = A.shape
    largest = np.abs(A).max()
    scaled = (np.ldexp(A, -math.frexp(largest)[1])
              if largest >= _HIGHS_LARGE_MATRIX_VALUE else A)
    c = np.zeros(m + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-scaled.T, np.ones((n, 1))])
    A_eq = np.zeros((1, m + 1))
    A_eq[0, :m] = 1.0
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(n), A_eq=A_eq, b_eq=[1.0],
                  bounds=[(0, None)] * m + [(None, None)], **config)
    if not res.success:
        return None
    p = _exact_row_sums(res.x[:m])
    q = _exact_row_sums(np.abs(np.asarray(res.ineqlin.marginals, dtype=float)))
    return _certify(A, p, q)


def _equalizing_mixes(B: np.ndarray) -> np.ndarray | None:
    """Row and column mixes equalizing the square kernel B, as the rows of
    a (2, k) array normalized by :func:`_exact_row_sums`, or None.

    The row mix p solves ``[B^T -1; 1 0] (p, v) = (0, 1)`` and the column
    mix the same system with B; both are one stacked solve.  The two
    bordered matrices have the same determinant, so they are singular
    together.
    """
    k = B.shape[0]
    M = np.zeros((2, k + 1, k + 1))
    M[0, :k, :k] = B.T
    M[1, :k, :k] = B
    M[:, :k, k] = -1.0
    M[:, k, :k] = 1.0
    rhs = np.zeros((2, k + 1, 1))
    rhs[:, k] = 1.0
    try:
        mixes = np.linalg.solve(M, rhs)[:, :k, 0]
    except np.linalg.LinAlgError:
        return None
    if mixes.min() < -1e-10:
        return None
    return _exact_row_sums(mixes)


def _support_solve(A: np.ndarray,
                   sol: MatrixGameSolution) -> MatrixGameSolution | None:
    """Equalizing strategies on the square support pair of ``sol``,
    certified against the full matrix; None if the support is empty or its
    equalization system has no nonnegative solution.

    The support pair is the rows and columns whose weight exceeds
    ``_SUPPORT_THRESHOLD``, the longer side cut to its k heaviest (k the
    length of the shorter side), each in ascending order.
    """
    rows = np.flatnonzero(sol.row_strategy > _SUPPORT_THRESHOLD)
    cols = np.flatnonzero(sol.col_strategy > _SUPPORT_THRESHOLD)
    k = min(len(rows), len(cols))
    if k == 0:
        return None
    if len(rows) > k:
        rows = rows[np.argsort(sol.row_strategy[rows])[::-1][:k]]
        rows.sort()
    if len(cols) > k:
        cols = cols[np.argsort(sol.col_strategy[cols])[::-1][:k]]
        cols.sort()
    mixes = _equalizing_mixes(A[np.ix_(rows, cols)])
    if mixes is None:
        return None
    p = np.zeros(A.shape[0])
    p[rows] = mixes[0]
    q = np.zeros(A.shape[1])
    q[cols] = mixes[1]
    return _certify(A, p, q)


# double oracle runs only on games whose shorter side has at least
# _DO_MIN_SIDE actions, so smaller games keep the LP path and the
# strategies it returns, and gives up once a player's restricted action
# set passes _DO_MAX_SIDE: a dense game with a large support costs far more
# rounds than one LP (a random 50x50 game ~15 ms against ~5 ms)
_DO_MIN_SIDE = 8
_DO_MAX_SIDE = 24
# Dantzig's rule can cycle on a degenerate tableau; past this many pivots
# the restricted solve gives up instead
_TABLEAU_PIVOTS = 200


def _tableau_solve(B: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Optimal row and column mixes of the matrix game B, or None if the
    simplex passes ``_TABLEAU_PIVOTS`` pivots.

    A dense tableau simplex (Dantzig's rule) on ``max 1^T y`` subject to
    ``(B - min B + 1) y <= 1``, ``y >= 0``: the shifted matrix is positive,
    so the slack basis is feasible and the LP bounded.  The column mix is
    y and the row mix the duals, the slacks' reduced costs, each
    normalized by :func:`_exact_row_sums`.
    """
    m, n = B.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = B - B.min() + 1.0
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = 1.0
    T[m, :n] = -1.0
    basis = np.arange(n, n + m)
    for _ in range(_TABLEAU_PIVOTS):
        e = T[m, :-1].argmin()
        if T[m, e] >= -1e-12:
            y = np.zeros(n + m)
            y[basis] = T[:m, -1]
            return _exact_row_sums(T[m, n:n + m]), _exact_row_sums(y[:n])
        col = T[:m, e]
        ratios = np.full(m, np.inf)
        pos = col > 1e-12
        ratios[pos] = np.maximum(T[:m, -1][pos], 0.0) / col[pos]
        r = ratios.argmin()
        pivot = T[r] / T[r, e]
        T -= T[:, e, None] * pivot
        T[r] = pivot
        basis[r] = e
    return None


def _double_oracle(A: np.ndarray, start: MatrixGameSolution):
    """Candidate batches of double oracle (McMahan, Gordon & Blum 2003) on
    A, from the supports of ``start``.

    Each round solves the game restricted to the current rows and columns
    by :func:`_tableau_solve`, yields its strategies, embedded and
    certified against A, with the equalizing strategies on their supports,
    and adds each player's best response against A.  It ends when the
    restricted solve gives up, when neither best response is new, or when
    a side passes ``_DO_MAX_SIDE``.
    """
    rows = np.flatnonzero(start.row_strategy > _SUPPORT_THRESHOLD)
    cols = np.flatnonzero(start.col_strategy > _SUPPORT_THRESHOLD)
    while True:
        mixes = _tableau_solve(A[np.ix_(rows, cols)])
        if mixes is None:
            return
        p = np.zeros(A.shape[0])
        p[rows] = mixes[0]
        q = np.zeros(A.shape[1])
        q[cols] = mixes[1]
        sol = _certify(A, p, q)
        yield [sol, _support_solve(A, sol)]
        i, j = (A @ q).argmax(), (p @ A).argmin()
        if i in rows and j in cols:
            return
        rows = np.union1d(rows, [i])
        cols = np.union1d(cols, [j])
        if max(len(rows), len(cols)) > _DO_MAX_SIDE:
            return


def _candidate_batches(A: np.ndarray, hint: MatrixGameSolution | None,
                       pure: MatrixGameSolution):
    """The sources of :func:`solve_matrix_game` after the pure pair, in
    order, one batch of candidates per step."""
    if hint is not None:
        yield [_support_solve(A, hint)]
    if min(A.shape) >= _DO_MIN_SIDE:
        yield from _double_oracle(A, pure if hint is None else hint)
    for config in _LP_CONFIGS:
        # degenerate games can leave a simplex basic solution with a gap
        # far above machine precision; the support solve often repairs it
        lp = _lp_solve(A, config)
        yield [] if lp is None else [lp, _support_solve(A, lp)]


def solve_matrix_game(A, tol: float = 1e-9,
                      hint: MatrixGameSolution | None = None) -> MatrixGameSolution:
    """Gap-certified mixed value of the zero-sum game with payoff matrix A.

    One stream of candidates, each certified against A, so the certificate
    is independent of how a candidate was found.  The first is the pure
    pair, the maximin row against the minimax column; an exact pure saddle
    has gap 0.  Then the sources are visited in order: ``hint`` (a
    solution of a nearby game of the same shape, say the previous
    iterate's), double oracle on games whose sides both have at least
    ``_DO_MIN_SIDE`` actions, then each LP configuration of
    ``_LP_CONFIGS``.  The hint adds the equalizing strategies on its
    supports.  Double oracle starts from the hint's supports, else from
    the pure pair; each of its rounds adds the restricted game's solution
    and the equalizing strategies on that solution's supports, then grows
    the restricted game by both players' best responses, until it runs out
    of new best responses or passes ``_DO_MAX_SIDE`` actions a side.  An
    LP run adds its solution, then the equalizing strategies on that
    solution's supports.  The candidate with the smallest gap is kept
    (ties go to the earlier one) and returned as soon as its gap is within
    ``tol``; only then does the stream stop, so a game that double oracle
    certifies imports no ``scipy.optimize``.
    Raises :class:`MatrixGameError` if the hint's strategy lengths do not
    match A, or if no candidate certifies a duality gap within ``tol``;
    the error's ``best_gap`` is then the smallest gap reached.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise MatrixGameError("payoff matrix must be 2-D and nonempty")
    if not np.isfinite(A).all():
        raise MatrixGameError("payoff matrix contains nonfinite entries")
    if not tol > 0:
        raise MatrixGameError("tol must be positive")
    if hint is not None and (np.shape(hint.row_strategy) != (A.shape[0],)
                             or np.shape(hint.col_strategy) != (A.shape[1],)):
        raise MatrixGameError(
            f"hint strategies of lengths {np.shape(hint.row_strategy)} and "
            f"{np.shape(hint.col_strategy)} do not fit a {A.shape} payoff matrix")

    # the pure pair, maximin row against minimax column, opens the stream:
    # its bracket is the row minimum and column maximum it is built from
    row_min = A.min(axis=1)
    col_max = A.max(axis=0)
    i, j = row_min.argmax(), col_max.argmin()
    p = np.zeros(A.shape[0])
    p[i] = 1.0
    q = np.zeros(A.shape[1])
    q[j] = 1.0
    best = _bracketed(p, q, float(row_min[i]), float(col_max[j]))
    batches = _candidate_batches(A, hint, best)
    while best.duality_gap > tol:
        found = next(batches, None)
        if found is None:
            raise MatrixGameError("could not certify requested duality gap",
                                  best_gap=best.duality_gap)
        for sol in found:
            if sol is not None and sol.duality_gap < best.duality_gap:
                best = sol
    return best


def matrix_game_bruteforce(A, max_size: int = 6) -> float:
    """Exact mixed value by exhaustive support enumeration (test oracle).

    Solves the square equalization systems of every support pair and returns
    the first value whose strategies certify optimality against the whole
    matrix.  Only intended for matrices up to ``max_size`` x ``max_size``.
    """
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    if m > max_size or n > max_size:
        raise MatrixGameError(f"bruteforce limited to {max_size}x{max_size}")
    maximin, minimax = A.min(axis=1).max(), A.max(axis=0).min()
    if maximin == minimax:  # exact pure saddle
        return float(maximin)

    feas = 1e-10
    cert = 1e-9
    for k in range(2, min(m, n) + 1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                B = A[np.ix_(rows, cols)]
                # [B^T -1; 1 0] (p, v) = (0, 1): row mix equalizes the support
                M = np.zeros((k + 1, k + 1))
                M[:k, :k] = B.T
                M[:k, k] = -1.0
                M[k, :k] = 1.0
                rhs = np.zeros(k + 1)
                rhs[k] = 1.0
                try:
                    pv = np.linalg.solve(M, rhs)
                except np.linalg.LinAlgError:
                    continue
                p_s, v = pv[:k], pv[k]
                if p_s.min() < -feas:
                    continue
                M[:k, :k] = B
                try:
                    qu = np.linalg.solve(M, rhs)
                except np.linalg.LinAlgError:
                    continue
                q_s, u = qu[:k], qu[k]
                if q_s.min() < -feas or abs(u - v) > cert:
                    continue
                p = np.zeros(m)
                p[list(rows)] = np.clip(p_s, 0.0, None)
                q = np.zeros(n)
                q[list(cols)] = np.clip(q_s, 0.0, None)
                p /= p.sum()
                q /= q.sum()
                lower = (p @ A).min()
                upper = (A @ q).max()
                if lower >= v - cert and upper <= v + cert:
                    return float(0.5 * (lower + upper))
    raise MatrixGameError("support enumeration found no certified solution")
