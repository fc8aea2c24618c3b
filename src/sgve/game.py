"""Concrete stochastic games and one-shot matrix-game solving.

A :class:`GameSpec` describes a game symbolically (expressions over action
coordinates); :func:`discretize` turns it into a :class:`DiscretizedGame`
holding dense payoff and transition tensors over uniform action grids.  The
kernel of everything downstream is :func:`solve_matrix_game`, which returns a
gap-certified mixed value of a finite zero-sum matrix game, reusing the
strategies of a previous solution, or else their supports, when they still
certify.  It computes a candidate only when every one before it missed the
tolerance: a solver's solution that certifies is returned without the
support solve that would refine it.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import expr as ex
from .errors import EvalDomainError, GameSpecError, MatrixGameError, checked_count

__all__ = [
    "GameSpec", "DiscretizedGame", "MatrixGameSolution",
    "action_variables", "uniform_grid", "discretize",
    "solve_matrix_game", "solve_matrix_game_stack", "matrix_game_bruteforce",
]

# pre-normalization row-sum deviations beyond this signal a wrong transition
# formula rather than float noise
ROW_SUM_TOLERANCE = 1e-6
_NEGATIVE_CLAMP = 1e-12
# _supports: the rows and the columns a solution weights above this, ascending
_SUPPORT_THRESHOLD = 1e-9
# one machine epsilon: how far from 1.0 the float sum of a strategy may be
_EPS = float(np.finfo(float).eps)
# the longest side whose supports the oracle matrix_game_bruteforce enumerates
BRUTEFORCE_MAX_SIZE = 6


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call: the import
    is most of the CLI's start-up time, and only the last-resort LP of
    :func:`solve_matrix_game` needs it, on games the numpy simplex does
    not certify."""
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
        d = checked_count(self.states, 1, "states", GameSpecError)
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
        d = checked_count(self.states, 1, "states", GameSpecError)
        for name in ("g", "rho", "grids_x", "grids_y", "controller"):
            entries = getattr(self, name)
            if entries is not None and len(entries) != d:
                raise GameSpecError(
                    f"{name} needs one entry per state: {len(entries)} for {d} states")
        for k in range(d):
            if np.ndim(self.g[k]) != 2 or np.shape(self.rho[k]) != (*self.g[k].shape, d):
                raise GameSpecError(f"tensor shape mismatch in state {k}")
            if (len(self.grids_x[k]), len(self.grids_y[k])) != self.g[k].shape:
                raise GameSpecError(
                    f"state {k}: grids of {len(self.grids_x[k])} and "
                    f"{len(self.grids_y[k])} points for a {self.g[k].shape} payoff")

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
    resolution = checked_count(resolution, 2, "grid resolution", GameSpecError)
    axes = [np.linspace(lo, hi, resolution) for lo, hi in box]
    pts = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=-1)
    return pts.reshape(-1, len(box))


def _bindings(prefix: str, points: np.ndarray) -> dict[str, np.ndarray]:
    """One player's action variables bound to the coordinates on the last
    axis of ``points``."""
    return dict(zip(action_variables(prefix, points.shape[-1]),
                    np.moveaxis(points, -1, 0)))


def _product_bindings(xs: np.ndarray, ys: np.ndarray) -> dict[str, np.ndarray]:
    """Action-variable bindings over the product of two point lists: each
    x-coordinate runs down axis 0 and each y-coordinate along axis 1."""
    return {**_bindings("x", xs[:, None]), **_bindings("y", ys)}


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
    r = np.maximum(r, 0.0, order="C")
    r /= np.add.reduce(r, axis=-1, keepdims=True)
    rows = r.reshape(-1, r.shape[-1])  # a view: r is a fresh array
    index = np.arange(len(rows))
    for _ in range(4):
        resid = 1.0 - np.add.reduce(rows, axis=1)
        if not np.count_nonzero(resid):
            break
        rows[index, rows.argmax(axis=1)] += resid
    return r


def _is_mix(v: np.ndarray) -> bool:
    """Whether v is a probability vector by the rule of
    :func:`_exact_row_sums`: entries nonnegative and a float sum within one
    machine epsilon of 1.0.  A NaN entry fails the second test, whatever
    Python's ``min`` makes of it."""
    return min(v.tolist()) >= 0.0 and bool(abs(np.add.reduce(v) - 1.0) <= _EPS)


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


def _half_width(lower: float, upper: float) -> float:
    """The duality gap of the bracket [lower, upper]: their difference
    could overflow, so each end is halved first."""
    return max(0.5 * upper - 0.5 * lower, 0.0)


def _bracketed(p: np.ndarray, q: np.ndarray, lower: float,
               upper: float) -> MatrixGameSolution:
    """(p, q) guaranteeing ``lower`` (p against every column) and ``upper``
    (q against every row).  A closed bracket's value is its end: halving
    the sum of the two ends could overflow."""
    value = lower if lower == upper else 0.5 * (lower + upper)
    return MatrixGameSolution(value, p, q, _half_width(lower, upper))


def _pure_pair(A: np.ndarray, i, j, lower: float, upper: float) -> MatrixGameSolution:
    """Row i against column j of A, with the bracket they guarantee."""
    p = np.zeros(A.shape[0])
    p[i] = 1.0
    q = np.zeros(A.shape[1])
    q[j] = 1.0
    return _bracketed(p, q, lower, upper)


# the kernel calls ufunc reductions and basic indexing directly, as pf's
# _REDUCE does: on the tiny games of an operator apply, the Python wrappers
# of ndarray.min/max/sum, np.clip, np.ix_ and np.flatnonzero cost more than
# their arithmetic
def _certify(A: np.ndarray, p: np.ndarray, q: np.ndarray) -> MatrixGameSolution:
    return _bracketed(p, q, float(np.minimum.reduce(p @ A)),
                      float(np.maximum.reduce(A @ q)))


def _embedded(A: np.ndarray, rows, cols, p_sub, q_sub) -> MatrixGameSolution:
    """Mixes on the rows and columns of a submatrix, zero elsewhere,
    certified against A."""
    p = np.zeros(A.shape[0])
    p[rows] = p_sub
    q = np.zeros(A.shape[1])
    q[cols] = q_sub
    return _certify(A, p, q)


# HiGHS refuses entries this large (its default large_matrix_value), and
# the tableau's shift B - min B + 1 overflows near the float limit
_LARGE_ENTRY = 1e15


def _scaled(A: np.ndarray) -> np.ndarray:
    """A, or A times the power of two that brings its entries below 1 if
    one is ``_LARGE_ENTRY`` or more: optimal strategies ignore the scale."""
    largest = np.maximum.reduce(np.abs(A), axis=None)
    return np.ldexp(A, -math.frexp(largest)[1]) if largest >= _LARGE_ENTRY else A


def _lp_solve(A: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Row and column mixes from HiGHS's presolve-off simplex on maximize v
    s.t. p^T A >= v 1, p in the simplex, or None if it reports failure.
    The last resort: at the float limit (entries ~1e8 at tol 1e-9) it
    certifies some games that the tableau does not."""
    m, n = A.shape
    res = linprog(np.append(np.zeros(m), -1.0),
                  A_ub=np.hstack([-_scaled(A).T, np.ones((n, 1))]), b_ub=np.zeros(n),
                  A_eq=np.append(np.ones(m), 0.0)[None], b_eq=[1.0],
                  bounds=[(0, None)] * m + [(None, None)],
                  method="highs", options={"presolve": False})
    if not res.success:
        return None
    return (_exact_row_sums(res.x[:m]),
            _exact_row_sums(np.abs(np.asarray(res.ineqlin.marginals, dtype=float))))


@functools.lru_cache(maxsize=8)
def _bordered_system(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The borders of :func:`_equalizing_mixes`' two stacked systems of
    size k + 1, with a zero k x k block, and their right-hand side, both
    read-only.  At most eight sizes are kept, 2(k + 2)(k + 1) floats each."""
    M = np.zeros((2, k + 1, k + 1))
    M[:, :k, k] = -1.0
    M[:, k, :k] = 1.0
    rhs = np.zeros((2, k + 1, 1))
    rhs[:, k] = 1.0
    M.flags.writeable = rhs.flags.writeable = False
    return M, rhs


def _equalizing_mixes(B: np.ndarray) -> np.ndarray | None:
    """Row and column mixes equalizing the square kernel B, as the rows of
    a (2, k) array normalized by :func:`_exact_row_sums`, or None.

    The row mix p solves ``[B^T -1; 1 0] (p, v) = (0, 1)`` and the column
    mix the same system with B; both are one stacked solve.  The two
    bordered matrices have the same determinant, so they are singular
    together.
    """
    k = B.shape[0]
    bordered, rhs = _bordered_system(k)
    M = bordered.copy()
    M[0, :k, :k] = B.T
    M[1, :k, :k] = B
    try:
        mixes = np.linalg.solve(M, rhs)[:, :k, 0]
    except np.linalg.LinAlgError:
        return None
    if np.minimum.reduce(mixes, axis=None) < -1e-10:
        return None
    return _exact_row_sums(mixes)


def _supports(sol: MatrixGameSolution) -> list[np.ndarray]:
    return [(sol.row_strategy > _SUPPORT_THRESHOLD).nonzero()[0],
            (sol.col_strategy > _SUPPORT_THRESHOLD).nonzero()[0]]


def _support_solve(A: np.ndarray,
                   sol: MatrixGameSolution) -> MatrixGameSolution | None:
    """Equalizing strategies on the square support pair of ``sol``,
    certified against the full matrix; None if either support is empty or
    the equalization system has no nonnegative solution.

    The support pair is :func:`_supports`, the longer side cut to its k
    heaviest (k the length of the shorter side), in ascending order.  At
    k = 0 that cut, ``[-0:]``, would keep the whole other side and build a
    kernel that is not square, so an empty support returns None first.
    """
    sides = _supports(sol)
    k = min(len(sides[0]), len(sides[1]))
    if k == 0:
        return None
    for s, w in enumerate((sol.row_strategy, sol.col_strategy)):
        if len(sides[s]) > k:
            sides[s] = np.sort(sides[s][np.argsort(w[sides[s]])[-k:]])
    rows, cols = sides
    mixes = _equalizing_mixes(A[rows[:, None], cols])
    return None if mixes is None else _embedded(A, rows, cols, *mixes)


# double oracle runs only on games whose shorter side passes _DO_CROSSOVER.
# The whole-matrix tableau is faster on dense games of every size up to 80
# (a random 50x50 game: 2.0 ms against 12 ms) and on cold McKinsey grids up
# to 55 points, but from 51 points on double oracle from the previous
# iterate's supports wins (`sgve curve bench:mckinsey --resolution 55`:
# 26-32 ms against 68-72 ms).  It gives up once a player's restricted
# action set passes _DO_MAX_SIDE: a dense game with a large support costs
# more rounds than the whole tableau
_DO_CROSSOVER = 50
_DO_MAX_SIDE = 24
# Dantzig's rule takes the fewest pivots but can cycle on a degenerate
# tableau: past _TABLEAU_PIVOTS pivots per action of the game the simplex
# switches to Bland's rule, which cannot (Bland 1977), and past
# _TABLEAU_MAX_PIVOTS per action it gives up.  Dantzig's rule has needed at
# most 1.7 pivots per action on seeded random games and McKinsey grids up
# to 201 points, and 3.7 on a dense random 300x300 game
_TABLEAU_PIVOTS = 10
_TABLEAU_MAX_PIVOTS = 100


def _tableau_solve(B: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Optimal row and column mixes of the matrix game B, or None if the
    simplex passes ``_TABLEAU_MAX_PIVOTS`` pivots per action.

    A dense tableau simplex on ``max 1^T y`` subject to
    ``(S - min S + 1) y <= 1``, ``y >= 0``, where S is B through
    :func:`_scaled`: the shifted matrix is positive, so the slack basis is
    feasible and the LP bounded.  The first pivot enters the minimax
    column, where every reduced cost ties; Dantzig's rule picks the pivots
    after it, Bland's past ``_TABLEAU_PIVOTS`` per action.  The column mix
    is y and the row mix the duals, the slacks' reduced costs, each
    normalized by :func:`_exact_row_sums`.
    """
    m, n = B.shape
    S = _scaled(B)
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = S - np.minimum.reduce(S, axis=None) + 1.0
    T.reshape(-1)[n:m * (n + m + 2):n + m + 2] = 1.0  # the slacks' identity
    T[:m, -1] = 1.0
    T[m, :n] = -1.0
    basis = np.arange(n, n + m)
    costs, rhs = T[m, :-1], T[:m, -1]  # views: T changes in place
    ratios = np.empty(m)
    # every reduced cost starts tied at -1; the minimax column, the one
    # whose largest entry is smallest, gains the most on the first pivot
    e = np.maximum.reduce(T[:m, :n], axis=0).argmin()
    for pivots in range(_TABLEAU_MAX_PIVOTS * (m + n)):
        if costs[e] >= -1e-12:
            y = np.zeros(n + m)
            y[basis] = rhs
            return _exact_row_sums(T[m, n:n + m]), _exact_row_sums(y[:n])
        bland = pivots >= _TABLEAU_PIVOTS * (m + n)
        if bland:  # Bland's rule: the first improving column
            e = (costs < -1e-12).argmax()
        col = T[:m, e]
        ratios.fill(np.inf)
        np.divide(np.maximum(rhs, 0.0), col, out=ratios, where=col > 1e-12)
        r = ratios.argmin()
        if bland:  # of the tied rows, the one with the first basic variable
            ties = np.flatnonzero(ratios == ratios[r])
            r = ties[basis[ties].argmin()]
        pivot = T[r] / T[r, e]
        T -= T[:, e, None] * pivot
        T[r] = pivot
        basis[r] = e
        e = costs.argmin()  # Dantzig's rule: the steepest improving column
    return None


def _with(support: np.ndarray, k) -> np.ndarray:
    """The ascending ``support`` with index k in it."""
    return support if k in support else np.insert(support, support.searchsorted(k), k)


def _double_oracle(A: np.ndarray, start: MatrixGameSolution):
    """The solutions of double oracle (McMahan, Gordon & Blum 2003) on A,
    from the supports of ``start``, one per round.

    Each round solves the game restricted to the current rows and columns
    by :func:`_tableau_solve`, yields its strategies, embedded and
    certified against A, and adds each player's best response against A.
    It ends when the restricted solve gives up, when neither best response
    is new, or when a side passes ``_DO_MAX_SIDE``.
    """
    rows, cols = _supports(start)
    while True:
        mixes = _tableau_solve(A[rows[:, None], cols])
        if mixes is None:
            return
        sol = _embedded(A, rows, cols, *mixes)
        yield sol
        i, j = (A @ sol.col_strategy).argmax(), (sol.row_strategy @ A).argmin()
        if i in rows and j in cols:
            return
        # a sorted insert, not np.union1d, whose np.unique imports numpy.ma
        rows, cols = _with(rows, i), _with(cols, j)
        if max(len(rows), len(cols)) > _DO_MAX_SIDE:
            return


def _candidates(A: np.ndarray, hint: MatrixGameSolution | None, pure: tuple):
    """The sources of :func:`solve_matrix_game` after the pure pair and the
    hint's own strategies, in order, one candidate (or None) at a time.
    ``pure`` holds the pure pair's row, column and bracket, for
    :func:`_pure_pair` to build it only if double oracle starts from it."""
    if hint is not None:
        yield _support_solve(A, hint)
    oracle = (_double_oracle(A, _pure_pair(A, *pure) if hint is None else hint)
              if min(A.shape) > _DO_CROSSOVER else ())
    mixes = (solve(A) for solve in (_tableau_solve, _lp_solve))
    whole = (_certify(A, *m) for m in mixes if m is not None)
    # degenerate games can leave a basic solution with a gap far above
    # machine precision; the support solve on its supports, which the
    # stream reaches only if that gap misses tol, often repairs it
    for sol in itertools.chain(oracle, whole):
        yield sol
        yield _support_solve(A, sol)


def _check_hint(hint: MatrixGameSolution | None, shape: tuple) -> None:
    """Raise :class:`MatrixGameError` unless ``hint`` is None or its
    strategies fit payoff matrices of ``shape``."""
    if hint is not None and (np.shape(hint.row_strategy) != shape[:1]
                             or np.shape(hint.col_strategy) != shape[1:]):
        raise MatrixGameError(
            f"hint strategies of lengths {np.shape(hint.row_strategy)} and "
            f"{np.shape(hint.col_strategy)} do not fit a {shape} payoff matrix")


def _checked(A, tol: float, hint: MatrixGameSolution | None, what: str) -> np.ndarray:
    """A as a float array, after the input checks both kernel entries share."""
    A = np.asarray(A, dtype=float)
    ndim = 2 if what == "matrix" else 3
    if A.ndim != ndim or A.size == 0:
        raise MatrixGameError(f"payoff {what} must be {ndim}-D and nonempty")
    if not np.logical_and.reduce(np.isfinite(A), axis=None):
        raise MatrixGameError(f"payoff {what} contains nonfinite entries")
    if not tol > 0:
        raise MatrixGameError("tol must be positive")
    _check_hint(hint, A.shape[-2:])
    return A


def solve_matrix_game(A, tol: float = 1e-9,
                      hint: MatrixGameSolution | None = None) -> MatrixGameSolution:
    """Gap-certified mixed value of the zero-sum game with payoff matrix A.

    One stream of candidates, each certified against A, so the certificate
    is independent of how a candidate was found.  The first is the pure
    pair, the maximin row against the minimax column; an exact pure saddle
    has gap 0.  Then come, in order: the strategies of ``hint`` (a solution
    of a nearby game of the same shape, say the previous iterate's), as
    new arrays, but only if their gap is within ``tol`` and both are
    probability vectors (entries nonnegative, float sum within one machine
    epsilon of 1, the rule :func:`_exact_row_sums` delivers); the
    equalizing strategies on the hint's supports; on games whose sides
    both have more than ``_DO_CROSSOVER`` actions, the rounds of
    :func:`_double_oracle` from the hint's supports, else the pure pair's;
    the numpy simplex :func:`_tableau_solve` on the whole matrix; and last
    one HiGHS LP, :func:`_lp_solve`.  Each double-oracle round, the simplex
    and the LP add their solution, then the equalizing strategies on its
    supports.  The stream stops at the first candidate whose gap is within
    ``tol`` and returns it, the best so far, since every candidate before
    it missed ``tol``.  A candidate is computed only when the stream
    reaches it, so a solution that certifies gets no support solve, and a
    game that the simplex certifies imports no ``scipy.optimize``.
    Raises :class:`MatrixGameError` if the hint's strategy lengths do not
    match A, or if no candidate certifies a duality gap within ``tol``;
    the error's ``best_gap`` is then the smallest gap reached.
    """
    A = _checked(A, tol, hint, "matrix")

    # the pure pair, maximin row against minimax column, opens the stream:
    # its bracket is the row minimum and column maximum it is built from,
    # and its strategies are built only if it is returned
    row_min = np.minimum.reduce(A, axis=1)
    col_max = np.maximum.reduce(A, axis=0)
    i, j = row_min.argmax(), col_max.argmin()
    lower, upper = float(row_min[i]), float(col_max[j])
    if _half_width(lower, upper) <= tol:
        return _pure_pair(A, i, j, lower, upper)
    if hint is not None:
        # copies: the solution returned shares no array with the hint.  The
        # gap is tested first: it is what fails on the hints of a discounted
        # iteration, which would otherwise pay for both tests
        sol = _certify(A, hint.row_strategy.astype(float), hint.col_strategy.astype(float))
        if sol.duality_gap <= tol and _is_mix(sol.row_strategy) and _is_mix(sol.col_strategy):
            return sol
    return _solve_uncertified(A, tol, hint, (i, j, lower, upper))


def _solve_uncertified(A: np.ndarray, tol: float, hint: MatrixGameSolution | None,
                       pure: tuple) -> MatrixGameSolution:
    """:func:`solve_matrix_game` on a checked game that neither its pure
    pair, whose row, column and bracket ``pure`` holds, nor the hint's own
    strategies certify within ``tol``: the rest of the candidate stream,
    from the equalizing strategies on the hint's supports on."""
    best_gap = _half_width(*pure[2:])
    for sol in _candidates(A, hint, pure):
        if sol is not None and sol.duality_gap < best_gap:
            best_gap = sol.duality_gap
            if best_gap <= tol:
                return sol
    raise MatrixGameError("could not certify requested duality gap", best_gap=best_gap)


def solve_matrix_game_stack(As, tol: float = 1e-9, hint: MatrixGameSolution | None = None,
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Values and certified duality gaps of a stack of same-shape matrix
    games that share one hint, each ``np.array_equal`` to
    ``solve_matrix_game(As[i], tol, hint)``'s value and gap.

    The checks, the pure pairs and the certificate of the hint's own
    strategies run once for the whole (s, m, n) stack; a game that neither
    certifies within ``tol`` goes on where :func:`solve_matrix_game` would,
    to the rest of its candidate stream.  Raises :class:`MatrixGameError`
    as that does, for any game.
    """
    As = _checked(As, tol, hint, "stack")
    # the brackets of each game's pure pair, then of the hint's strategies
    row_min = np.minimum.reduce(As, axis=2)
    col_max = np.maximum.reduce(As, axis=1)
    brackets = [zip(np.maximum.reduce(row_min, axis=1).tolist(),
                    np.minimum.reduce(col_max, axis=1).tolist())]
    if hint is not None:
        p, q = hint.row_strategy.astype(float), hint.col_strategy.astype(float)
        if _is_mix(p) and _is_mix(q):
            brackets.append(zip(np.minimum.reduce(p @ As, axis=1).tolist(),
                                np.maximum.reduce(As @ q, axis=1).tolist()))
    values, gaps = np.empty(len(As)), np.empty(len(As))
    for k, pairs in enumerate(zip(*brackets)):
        for lower, upper in pairs:
            gap = _half_width(lower, upper)
            if gap <= tol:
                values[k] = lower if lower == upper else 0.5 * (lower + upper)
                gaps[k] = gap
                break
        else:
            pure = (row_min[k].argmax(), col_max[k].argmin(), *pairs[0])
            sol = _solve_uncertified(As[k], tol, hint, pure)
            values[k], gaps[k] = sol.value, sol.duality_gap
    return values, gaps


def matrix_game_bruteforce(A) -> float:
    """Exact mixed value by exhaustive support enumeration (test oracle).

    Solves the square equalization systems of every support pair and returns
    the first value whose strategies certify optimality against the whole
    matrix.  Only intended for games of up to ``BRUTEFORCE_MAX_SIZE`` actions a side.
    """
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    if max(m, n) > BRUTEFORCE_MAX_SIZE:
        raise MatrixGameError(f"bruteforce limited to {BRUTEFORCE_MAX_SIZE} actions a side")
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
