"""Order-preserving maps on the open positive cone and their geometric
growth rates.

A map built from per-coordinate finite families of nonnegative weight
vectors (min or max of linear forms) conjugates under entrywise log/exp
into an operator that is monotone and commutes with additive constants,
i.e. a dynamic programming operator.  A min/max-linear map whose bracket
(below) does not close is iterated through it in log space, so iterates
never overflow, and the min-linear conjugate,
``make_conjugate(min_linear(W))``, is the risk-sensitive operator
h -> min_p log sum_j p_j e^{h_j} in its stable log-sum-exp form.

The growth rate of a min/max-linear map is first sought by policy
iteration over row selections (Rothblum 1984; Cochet-Terrasson, Cohen,
Gaubert, McGettrick & Quadrat 1998), certified by the Collatz-Wielandt
bracket: for any x > 0, every coordinate's rate lies in
[min_i T(x)_i/x_i, max_i T(x)_i/x_i] (Horn & Johnson, Matrix Analysis, 8.1),
read off the products W @ x of the max-scaled weights.  Maps whose
bracket does not close, reducible ones such as diag(2, 3) among them,
maps whose T(x) underflows and explicit maps iterate the conjugate for n
steps instead.  An explicit map's conjugate is still the literal
:func:`log_glasses_apply`, which overflows: ``2*f1, 3*f2`` raises
:class:`PositivityError` at n = 10000.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from . import expr as ex
from .errors import EvalDomainError, GameSpecError, PositivityError, checked_count

__all__ = [
    "MonotoneMap", "min_linear", "max_linear", "explicit_map",
    "log_glasses_apply",
    "growth_rate", "growth_rates", "growth_bracket", "GrowthBracket",
    "log_sum_exp", "make_conjugate",
]

KINDS = ("minLinear", "maxLinear", "explicitExpr")
# what float() reads as a number but is none: JSON's true and "1.5"
_NOT_WEIGHTS = (bool, np.bool_, str, bytes)
# ufunc reductions: the Python wrappers of np.min and np.max cost ~10% of a step
_REDUCE = {"minLinear": np.minimum.reduce, "maxLinear": np.maximum.reduce}
# policy iteration: the row a coordinate prefers, and "strictly better"
_PREFER = {"minLinear": (np.argmin, np.less), "maxLinear": (np.argmax, np.greater)}
# a bracket is closed once log hi - log lo is at most BRACKET_TOL; policy
# iteration gives up after MAX_POLICY_STEPS Perron vectors, and each Perron
# vector takes at most MAX_SQUARINGS squarings
BRACKET_TOL = 1e-12
MAX_POLICY_STEPS = 100
MAX_SQUARINGS = 64


@dataclass(frozen=True)
class MonotoneMap:
    """Self-map of the interior of the nonnegative cone of R^d.

    ``weights[i]`` holds the finite family of weight vectors of coordinate
    i for the min/max-linear kinds, each finite, nonnegative and not all
    zero; ``exprs[i]`` holds an expression in f1..fd for the explicit
    kind.  Order preservation and subhomogeneity hold by construction for
    the linear kinds.  Nothing checks them for explicit ones, on the
    growth path or elsewhere.
    """
    d: int
    kind: str
    weights: tuple[tuple[tuple[float, ...], ...], ...] | None = None
    exprs: tuple[ex.Expr, ...] | None = None
    # linear kinds: the families as one read-only (d, F, d) array, F the largest
    # family size; smaller ones repeat their first vector, moving no min or max
    _padded: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        checked_count(self.d, 1, "d", GameSpecError)
        if self.kind not in KINDS:
            raise GameSpecError(f"unknown map kind {self.kind!r}")
        if self.kind == "explicitExpr":
            if self.exprs is None or len(self.exprs) != self.d:
                raise GameSpecError("explicit maps need one expression per coordinate")
            return
        if self.weights is None or len(self.weights) != self.d:
            raise GameSpecError("need one weight family per coordinate")
        families = []
        for i, fam in enumerate(self.weights):
            if len(fam) == 0:
                raise GameSpecError(f"coordinate {i} has no weight vectors")
            vectors = []
            for p in fam:
                if len(p) != self.d:
                    raise GameSpecError(f"weight vector of wrong length in coordinate {i}")
                try:
                    if any(isinstance(x, _NOT_WEIGHTS) for x in p):
                        raise TypeError
                    p = tuple(map(float, p))
                except (TypeError, ValueError, OverflowError):  # a sequence, a huge int
                    raise TypeError("weights must be numbers that convert to float") from None
                if not all(map(math.isfinite, p)):
                    raise GameSpecError(f"non-finite weight in coordinate {i}")
                if min(p) < 0:
                    raise GameSpecError(f"negative weight in coordinate {i}")
                if max(p) <= 0:
                    raise GameSpecError(
                        f"all-zero weight vector in coordinate {i}: "
                        "map would not preserve positivity")
                vectors.append(p)
            families.append(tuple(vectors))
        F = max(map(len, families))
        W = np.array([fam + fam[:1] * (F - len(fam)) for fam in families])
        W.flags.writeable = False
        object.__setattr__(self, "_padded", W)
        object.__setattr__(self, "weights", tuple(families))


def _linear_map(kind: str, weights) -> MonotoneMap:
    families = [list(fam) for fam in weights]
    return MonotoneMap(d=len(families), kind=kind, weights=families)


def min_linear(weights) -> MonotoneMap:
    """Map whose coordinate i is the minimum of <p, f> over its family."""
    return _linear_map("minLinear", weights)


def max_linear(weights) -> MonotoneMap:
    """Map whose coordinate i is the maximum of <p, f> over its family."""
    return _linear_map("maxLinear", weights)


def explicit_map(expressions: Sequence[str | ex.Expr]) -> MonotoneMap:
    """Map given coordinatewise by expressions in f1..fd."""
    d = len(expressions)
    names = [f"f{i + 1}" for i in range(d)]
    parsed = tuple(e if not isinstance(e, str) else ex.parse(e, names)
                   for e in expressions)
    return MonotoneMap(d=d, kind="explicitExpr", exprs=parsed)


def _coordinate_values(T: MonotoneMap, f: np.ndarray) -> np.ndarray:
    if T.kind == "explicitExpr":
        bind = {f"f{i + 1}": float(f[i]) for i in range(T.d)}
        return np.array([ex.evaluate(e, bind) for e in T.exprs])
    return _REDUCE[T.kind](T._padded @ f, axis=1)


def log_glasses_apply(T: MonotoneMap, h) -> np.ndarray:
    """Conjugate action log(T(exp(h))), computed literally.

    This is the unstable reference route: it materializes T(exp(h)) and
    fails loudly if the map leaves the open cone or the exponentials
    overflow.  An explicit map whose evaluation leaves the real domain on
    this positive argument (an overflowing product, say) has left the cone
    too.  Growth rates of min/max-linear maps use the stable log-space
    route instead; explicit maps have no other route.
    """
    h = np.asarray(h, dtype=float)
    with np.errstate(over="raise"):
        try:
            values = _coordinate_values(T, np.exp(h))
        except FloatingPointError:
            raise PositivityError("exp overflow; use the log-space route") from None
        except EvalDomainError as exc:
            raise PositivityError(
                f"map produced a nonfinite value on the open cone: {exc}") from None
    if not np.all(np.isfinite(values)) or np.any(values <= 0):
        raise PositivityError(
            "map produced a nonpositive or nonfinite value on the open cone")
    return np.log(values)


def log_sum_exp(a) -> np.ndarray | float:
    """Max-shifted log of the sum of exponentials along the last axis.

    A slice whose entries are all -inf gives -inf.
    """
    a = np.asarray(a, dtype=float)
    m = a.max(axis=-1)
    with np.errstate(invalid="ignore"):
        s = np.log(np.exp(a - m[..., None]).sum(axis=-1))
    return m + np.where(np.isfinite(m), s, 0.0)


def make_conjugate(T: MonotoneMap):
    """Log-coordinate application h -> log(T(exp(h))) as a callable.

    For the linear kinds this is one stable log-sum-exp over the log of
    the map's padded weights and a reduction over the family axis, so
    iterating never overflows; explicit maps take the literal route.
    """
    if T.kind == "explicitExpr":
        return lambda h: log_glasses_apply(T, h)
    with np.errstate(divide="ignore"):
        log_weights = np.log(T._padded)
    reduce = _REDUCE[T.kind]
    return lambda h: reduce(log_sum_exp(log_weights + h), axis=1)


class GrowthBracket(NamedTuple):
    """Collatz-Wielandt bracket lo <= chi_i <= hi on every coordinate's
    growth rate chi_i."""
    lo: float
    hi: float

    @property
    def rate(self) -> float:
        """The bracket's geometric midpoint."""
        return math.exp((math.log(self.lo) + math.log(self.hi)) / 2)


def _perron_vector(A: np.ndarray) -> np.ndarray | None:
    """Perron vector of a nonnegative A, scaled to a largest entry of 1;
    None unless it is finite and strictly positive.  The max-normalized
    powers B^(2^k) of B = A/max(A) + I converge, as the shift leaves the
    Perron root the only eigenvalue of largest modulus, periodic A
    included; the column holding their largest entry is returned."""
    B = A / A.max() + np.eye(len(A))
    for _ in range(MAX_SQUARINGS):
        B, C = B @ B, B
        B /= B.max()
        if np.abs(B - C).max() <= 1e-15:
            break
    x = B[:, B.argmax() % len(B)]
    return x if np.isfinite(x).all() and (x > 0).all() else None


def growth_bracket(T: MonotoneMap) -> GrowthBracket | None:
    """A closed Collatz-Wielandt bracket on the growth rate of a min- or
    max-linear map, found by policy iteration over row selections.

    The weights are scaled by their largest entry.  Each step takes the
    Perron vector x of the matrix of the selected rows and brackets the
    rate by the extremes of T(x)/x, T(x) reduced from the products W @ x
    that also pick the next rows.  The bracket holds for any x > 0 and
    any order-preserving, positively homogeneous T; once log hi - log lo
    is at most ``BRACKET_TOL`` it is returned, and every coordinate grows
    at one rate within it.  Otherwise each coordinate switches to a
    strictly better row (smaller for min, larger for max) and the step
    repeats.  None when T is explicit, a Perron vector is not strictly
    positive (a reducible map, such as diag(2, 3)), a T(x)_i is subnormal
    (no bracket is read off a product that lost relative accuracy), no
    row improves on an open bracket, or ``MAX_POLICY_STEPS`` pass.
    """
    if T.kind == "explicitExpr":
        return None
    scale = float(T._padded.max())
    W = T._padded / scale
    prefer, better = _PREFER[T.kind]
    rows = np.arange(T.d)
    selection = prefer(W.sum(axis=2), axis=1)  # the best rows at x = 1
    for _ in range(MAX_POLICY_STEPS):
        x = _perron_vector(W[rows, selection])
        if x is None:
            return None
        values = W @ x
        Tx = _REDUCE[T.kind](values, axis=1)
        if Tx.min() < np.finfo(float).tiny:
            return None
        r = np.log(Tx / x)
        if r.max() - r.min() <= BRACKET_TOL:
            return GrowthBracket(scale * math.exp(r.min()), scale * math.exp(r.max()))
        best = prefer(values, axis=1)
        switch = better(values[rows, best], values[rows, selection])
        if not switch.any():
            return None
        selection = np.where(switch, best, selection)
    return None


def _checked_start(T: MonotoneMap, e, ns: Sequence[int]) -> np.ndarray:
    """e as an array, after checking it and the horizons ``ns``."""
    if not ns:
        raise ValueError("need at least one horizon n")
    for n in ns:
        checked_count(n, 1, "n", ValueError)
    e = np.asarray(e, dtype=float)
    if e.shape != (T.d,):
        raise ValueError(f"starting vector must have length {T.d}")
    if not np.all(e > 0) or not np.isfinite(e).all():
        raise ValueError("starting vector must be finite and strictly positive")
    return e


def growth_rate(T: MonotoneMap, e, n: int) -> np.ndarray:
    """Per-coordinate geometric growth rate.

    When :func:`growth_bracket` closes a bracket, every coordinate gets its
    geometric midpoint, the rate to within ``BRACKET_TOL`` in logs, and
    e and n are only checked.  Otherwise this is :func:`growth_rates` at
    the one horizon n: the estimate after n conjugate steps from h = log e.
    """
    _checked_start(T, e, [n])
    bracket = growth_bracket(T)
    if bracket is None:
        return growth_rates(T, e, [n])[0]
    return np.full(T.d, bracket.rate)


def growth_rates(T: MonotoneMap, e, ns: Sequence[int]) -> list[np.ndarray]:
    """The n-step growth estimate at each horizon in ``ns``, all read off
    one orbit h_t = F(h_{t-1}) of the conjugate F from h_0 = log e.

    The estimate at n is the exponential of the average conjugate
    displacement over the tail window (n/2, n].  For a positively
    homogeneous map, which every min- and max-linear map is, the conjugate
    commutes with additive constants, so the window differences remove the
    starting-vector offset exactly: the estimate is invariant under
    rescaling e and converges to the growth rate whenever the time-average
    limit exists.  An explicit map need not be homogeneous (``f1 + 1`` is
    not), and then rescaling e can change it.
    """
    e = _checked_start(T, e, ns)
    step = make_conjugate(T)
    wanted = {t for n in ns for t in (n // 2, n)}
    orbit = accumulate(range(max(ns)), lambda h, _: step(h), initial=np.log(e))
    h = {t: ht for t, ht in enumerate(orbit) if t in wanted}
    return [np.exp((h[n] - h[n // 2]) / (n - n // 2)) for n in ns]

