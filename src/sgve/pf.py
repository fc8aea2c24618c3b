"""Order-preserving maps on the open positive cone and their geometric
growth rates.

A map built from per-coordinate finite families of nonnegative weight
vectors (min or max of linear forms) conjugates under entrywise log/exp
into an operator that is monotone and commutes with additive constants,
i.e. a dynamic programming operator.  Growth rates are computed entirely
through that conjugate in log space, so iterates never overflow, and the
min-linear conjugate admits the stable log-sum-exp representation used in
risk-sensitive control.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import expr as ex
from .errors import EvalDomainError, GameSpecError, PositivityError

__all__ = [
    "MonotoneMap", "min_linear", "max_linear", "explicit_map",
    "apply_map", "log_glasses_apply", "risk_sensitive_apply",
    "growth_rate", "ConeReport", "check_cone_properties",
    "log_sum_exp", "make_conjugate",
]

KINDS = ("minLinear", "maxLinear", "explicitExpr")


@dataclass(frozen=True)
class MonotoneMap:
    """Self-map of the interior of the nonnegative cone of R^d.

    ``weights[i]`` holds the finite family of weight vectors of coordinate
    i for the min/max-linear kinds; ``exprs[i]`` holds an expression in
    f1..fd for the explicit kind.  Order preservation and subhomogeneity
    are declared by construction for the linear kinds and property-tested
    for explicit ones.
    """
    d: int
    kind: str
    weights: tuple[tuple[tuple[float, ...], ...], ...] | None = None
    exprs: tuple[ex.Expr, ...] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise GameSpecError(f"unknown map kind {self.kind!r}")
        if self.kind == "explicitExpr":
            if self.exprs is None or len(self.exprs) != self.d:
                raise GameSpecError("explicit maps need one expression per coordinate")
            return
        if self.weights is None or len(self.weights) != self.d:
            raise GameSpecError("need one weight family per coordinate")
        for i, fam in enumerate(self.weights):
            if len(fam) == 0:
                raise GameSpecError(f"coordinate {i} has no weight vectors")
            for p in fam:
                if len(p) != self.d:
                    raise GameSpecError(f"weight vector of wrong length in coordinate {i}")
                if min(p) < 0:
                    raise GameSpecError(f"negative weight in coordinate {i}")
                if max(p) <= 0:
                    raise GameSpecError(
                        f"all-zero weight vector in coordinate {i}: "
                        "map would not preserve positivity")


def min_linear(weights) -> MonotoneMap:
    """Map whose coordinate i is the minimum of <p, f> over its family."""
    w = tuple(tuple(tuple(float(x) for x in p) for p in fam) for fam in weights)
    return MonotoneMap(d=len(w), kind="minLinear", weights=w)


def max_linear(weights) -> MonotoneMap:
    w = tuple(tuple(tuple(float(x) for x in p) for p in fam) for fam in weights)
    return MonotoneMap(d=len(w), kind="maxLinear", weights=w)


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
    reduce = np.min if T.kind == "minLinear" else np.max
    return np.array([reduce(np.asarray(fam, dtype=float) @ f) for fam in T.weights])


def apply_map(T: MonotoneMap, f) -> np.ndarray:
    """Evaluate T(f) for a strictly positive vector f."""
    f = np.asarray(f, dtype=float)
    if f.shape != (T.d,) or not np.all(f > 0) or not np.isfinite(f).all():
        raise PositivityError("argument must be a finite, strictly positive vector")
    return _coordinate_values(T, f)


def log_glasses_apply(T: MonotoneMap, h) -> np.ndarray:
    """Conjugate action log(T(exp(h))), computed literally.

    This is the unstable reference route: it materializes T(exp(h)) and
    fails loudly if the map leaves the open cone or the exponentials
    overflow.  An explicit map whose evaluation leaves the real domain on
    this positive argument (an overflowing product, say) has left the cone
    too.  Growth-rate computations use the stable log-space route instead.
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

    For the linear kinds the log weights are precomputed once as one
    (d, F, d) tensor, F the largest family size; smaller families are
    padded by repeating their first vector, which changes no min or max.
    The evaluation is one stable log-sum-exp and a reduction over the
    family axis, so iterating never overflows; explicit maps fall back to
    the literal route.
    """
    if T.kind == "explicitExpr":
        return lambda h: log_glasses_apply(T, h)
    F = max(len(fam) for fam in T.weights)
    W = np.array([fam + fam[:1] * (F - len(fam)) for fam in T.weights])
    with np.errstate(divide="ignore"):
        log_weights = np.log(W)
    if T.kind == "minLinear":
        return lambda h: log_sum_exp(log_weights + h).min(axis=1)
    return lambda h: log_sum_exp(log_weights + h).max(axis=1)


def risk_sensitive_apply(weight_sets, h) -> np.ndarray:
    """Coordinate i is the minimum over its weight vectors p of
    log sum_j p_j e^{h_j}, evaluated with the max-shift trick.

    This is the explicit representation of the log-conjugate of a
    min-linear map; zero weights contribute nothing and an all-zero
    vector is rejected.
    """
    T = min_linear(weight_sets)
    h = np.asarray(h, dtype=float)
    if h.shape != (T.d,):
        raise GameSpecError(f"argument must have length {T.d}")
    return make_conjugate(T)(h)


def growth_rate(T: MonotoneMap, e, n: int) -> np.ndarray:
    """Per-coordinate geometric growth rate estimate after n steps.

    Works on h = log e throughout and returns the exponential of the
    average conjugate displacement over the tail window (n/2, n].  The
    window differences remove the starting-vector offset exactly (the
    conjugate commutes with additive constants), so the estimate is
    invariant under rescaling e and converges to the growth rate whenever
    the time-average limit exists.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    e = np.asarray(e, dtype=float)
    if e.shape != (T.d,) or not np.all(e > 0) or not np.isfinite(e).all():
        raise PositivityError("starting vector must be finite and strictly positive")
    h = np.log(e)
    step = make_conjugate(T)
    half = n // 2
    for _ in range(half):
        h = step(h)
    anchor = h.copy()
    for _ in range(n - half):
        h = step(h)
    return np.exp((h - anchor) / (n - half))


@dataclass(frozen=True)
class ConeReport:
    """Worst violations of order preservation and positive subhomogeneity."""
    order: float
    subhomogeneity: float
    ordered_pairs: int
    pairs: int


def check_cone_properties(T: MonotoneMap,
                          samples: Iterable[tuple[Sequence[float], Sequence[float], float]],
                          ) -> ConeReport:
    """Test f <= g => T(f) <= T(g) and T(lam f) <= lam T(f) on samples of
    positive vector pairs with scalars lam >= 1."""
    order = sub = 0.0
    ordered = total = 0
    for f, g, lam in samples:
        f = np.asarray(f, dtype=float)
        g = np.asarray(g, dtype=float)
        if lam < 1.0:
            raise ValueError("subhomogeneity scalars must be >= 1")
        total += 1
        tf = apply_map(T, f)
        tg = apply_map(T, g)
        if np.all(f <= g):
            ordered += 1
            order = max(order, float((tf - tg).max()))
        elif np.all(g <= f):
            ordered += 1
            order = max(order, float((tg - tf).max()))
        sub = max(sub, float((apply_map(T, lam * f) - lam * tf).max()),
                  float((apply_map(T, lam * g) - lam * tg).max()))
    return ConeReport(order=order, subhomogeneity=sub,
                      ordered_pairs=ordered, pairs=total)
