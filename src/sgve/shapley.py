"""The one-shot dynamic programming operator of a discretized game.

For a value vector f, component k of the operator is the mixed value of the
matrix game ``A_k[i, j] = g[k][i, j] + sum_k' rho[k][i, j, k'] f[k']``,
solved in every form by :func:`solve_matrix_game`, whose docstring states
its sources, with a duality gap certified within ``tol``.  A caller that
applies the operator repeatedly passes the per-state solutions of one apply
as the kernel hints of the next, explicitly: the operator holds no state.
:meth:`ShapleyOperator.apply_stack` applies it to several vectors at once
with one hint per state, each state's games one stack for
:func:`solve_matrix_game_stack`.  The tagged forms (Markov decision
processes, perfect information, switching control) only declare the game
class, checked against the controller tags; they select no other formula.
Where the untagged player of a state is a dummy, the kernel's exact saddle
check returns the pure max (or min) with gap 0; switching control still
needs mixed strategies.

The operator is monotone, commutes with adding a constant to every
component, and is nonexpansive in the sup norm; :func:`check_properties`
measures violations of all three on sample pairs, up to solver-gap slack,
with two evaluations per pair.  A shift of f by a constant shifts every
state's matrix by that constant, which leaves its optimal strategies in
place: f's strategies, passed as hints, certify the shifts of f themselves,
and the strategies of an earlier vector are the better hints the smaller
its distance to f in the span seminorm, which ignores such shifts.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import GameSpecError
from .game import (DiscretizedGame, MatrixGameSolution, solve_matrix_game,
                   solve_matrix_game_stack)

__all__ = ["ShapleyOperator", "PropertyReport", "check_properties", "FORMS"]

FORMS = ("general", "mdp", "perfectInfo", "switching")


@dataclass(frozen=True)
class ShapleyOperator:
    """Evaluates the per-state matrix games of a discretized game.

    ``tol`` is the duality-gap tolerance passed to the matrix-game solver
    for every state, whatever the form; it must be positive.
    """
    game: DiscretizedGame
    form: str = "general"
    tol: float = 1e-9

    def __post_init__(self):
        if self.form not in FORMS:
            raise GameSpecError(f"unknown operator form {self.form!r}")
        if not self.tol > 0:  # NaN too
            raise GameSpecError(f"operator tol must be positive, got {self.tol}")
        tags = self.game.controller
        if self.form in ("mdp", "perfectInfo", "switching"):
            if tags is None or any(t not in ("p1", "p2") for t in tags):
                raise GameSpecError(
                    f"form {self.form!r} requires a p1/p2 controller tag on every state")
            if self.form == "mdp" and len(set(tags)) != 1:
                raise GameSpecError("mdp form requires a single effective player")

    @property
    def dim(self) -> int:
        return self.game.states

    def _check_input(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if f.shape != (self.dim,):
            raise ValueError(f"value vector must have length {self.dim}")
        if not np.isfinite(f).all():
            raise ValueError("value vector must be finite")
        return f

    def _check_hints(self, hints) -> Sequence[MatrixGameSolution | None]:
        if hints is None:
            return (None,) * self.dim
        if len(hints) != self.dim:
            raise ValueError(f"need one hint per state, got {len(hints)}")
        return hints

    def state_matrix(self, k: int, f: np.ndarray) -> np.ndarray:
        """Dense one-shot payoff matrix of state k with continuation f."""
        return self.game.g[k] + self.game.rho[k] @ f

    def apply_with_gaps(self, f, hints: Sequence[MatrixGameSolution] | None = None,
                        ) -> tuple[np.ndarray, np.ndarray, tuple[MatrixGameSolution, ...]]:
        """Operator value, per-state certified duality gaps and per-state
        solutions.

        ``hints``, if given, holds one previous solution per state (the
        solutions this method returned for a nearby vector), each the hint
        of its state's :func:`solve_matrix_game`.  The returned solutions
        are the hints of the next call.
        """
        f = self._check_input(f)
        hints = self._check_hints(hints)
        sols = tuple(solve_matrix_game(self.state_matrix(k, f), self.tol, hint=hints[k])
                     for k in range(self.dim))
        return (np.array([s.value for s in sols]),
                np.array([s.duality_gap for s in sols]), sols)

    def apply_stack(self, F, hints: Sequence[MatrixGameSolution] | None = None,
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Operator values and per-state certified duality gaps at every row
        of the (s, d) array ``F``, each of shape (s, d).

        Row i is ``np.array_equal`` to ``apply_with_gaps(F[i], hints)[:2]``:
        every row's state-k matrix is :meth:`state_matrix`'s, and the s
        matrices of state k are one stack of :func:`solve_matrix_game_stack`,
        hinted by ``hints[k]``.
        """
        F = np.asarray(F, dtype=float)
        if F.ndim != 2 or F.shape[0] == 0 or F.shape[1] != self.dim:
            raise ValueError(f"value vectors must be the rows of an (s, {self.dim}) "
                             f"array with s >= 1, got shape {F.shape}")
        if not np.isfinite(F).all():
            raise ValueError("value vectors must be finite")
        hints = self._check_hints(hints)
        values, gaps = np.empty(F.shape), np.empty(F.shape)
        for k in range(self.dim):
            values[:, k], gaps[:, k] = solve_matrix_game_stack(
                np.stack([self.state_matrix(k, f) for f in F]), self.tol, hints[k])
        return values, gaps

    def apply(self, f) -> np.ndarray:
        """One application of the operator to a value vector."""
        return self.apply_with_gaps(f)[0]


@dataclass(frozen=True)
class PropertyReport:
    """Worst observed violations over the sampled pairs.

    All three quantities would be <= 0 for the exact operator; the matrix
    game solver contributes at most twice its certified gap per comparison.
    """
    monotonicity: float
    additive_homogeneity: float
    nonexpansiveness: float
    max_gap: float
    ordered_pairs: int
    pairs: int

    def slack(self, tol: float) -> float:
        return 2.0 * (tol + self.max_gap)


_HOMOGENEITY_SHIFTS = (-10.0, -2.5, 0.7, 10.0)


def check_properties(op: ShapleyOperator,
                     samples: Iterable[tuple[Sequence[float], Sequence[float]]],
                     ) -> PropertyReport:
    """Measure order preservation, additive homogeneity, and sup-norm
    nonexpansiveness on the given pairs of value vectors.

    Monotonicity is only measurable on componentwise-ordered pairs; the
    report counts how many pairs qualified.  Homogeneity applies each
    shift in ``_HOMOGENEITY_SHIFTS`` to the first vector of every pair.

    Each pair (f, g) costs two evaluations.  The first is the operator at
    f, hinted by the solutions at the earlier pairs' f nearest to f in the
    span seminorm ``max(f - u) - min(f - u)`` (the first pair's is cold):
    optimal strategies ignore a constant shift, so an f seen before, or a
    shift of one, is certified by its own strategies.  The second is one
    :meth:`ShapleyOperator.apply_stack` at g and at every shift of f, all
    hinted by f's solutions, which certify the shifts within the solver's
    ``tol``.
    """
    mono = homo = nonexp = gap = 0.0
    ordered = total = 0
    shifts = np.array(_HOMOGENEITY_SHIFTS)[:, None]
    solved = []  # (f, the solutions at f) of every earlier pair
    for f, g in samples:
        f, g = op._check_input(f), op._check_input(g)
        total += 1
        hints = min(solved, key=lambda s: np.ptp(f - s[0]), default=(None, None))[1]
        pf, gf, hints_f = op.apply_with_gaps(f, hints)
        solved.append((f, hints_f))
        values, gaps = op.apply_stack(np.vstack([g, f + shifts]), hints_f)
        pg = values[0]
        gap = max(gap, gf.max(), gaps.max())
        nonexp = max(nonexp,
                     np.abs(pf - pg).max() - np.abs(f - g).max())
        if np.all(f <= g):
            ordered += 1
            mono = max(mono, (pf - pg).max())
        elif np.all(g <= f):
            ordered += 1
            mono = max(mono, (pg - pf).max())
        homo = max(homo, np.abs(values[1:] - (pf + shifts)).max())
    return PropertyReport(monotonicity=mono, additive_homogeneity=homo,
                          nonexpansiveness=nonexp, max_gap=gap,
                          ordered_pairs=ordered, pairs=total)
