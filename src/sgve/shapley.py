"""The one-shot dynamic programming operator of a discretized game.

For a value vector f, component k of the operator is the mixed value of the
matrix game ``A_k[i, j] = g[k][i, j] + sum_k' rho[k][i, j, k'] f[k']``,
solved and gap-certified by :func:`solve_matrix_game` in every form.
Repeated applications pass the per-state solutions of one apply as the
hints of the next: a state is solved by an exact pure saddle, else by the
equalizing strategies on its hinted supports if they certify within
``tol``, else, when both players have at least eight actions, by double
oracle grown from those supports, else by an LP.  The hints are passed
explicitly; the operator holds no state.  The
tagged forms (Markov decision processes, perfect information, switching
control) only declare the game class, checked against the controller tags;
they select no other formula.  Where the untagged player of a state is a
dummy, the kernel's exact saddle check returns the pure max (or min) with
gap 0; switching control still needs mixed strategies.

The operator is monotone, commutes with adding a constant to every
component, and is nonexpansive in the sup norm; :func:`check_properties`
measures violations of all three on sample pairs, up to solver-gap slack.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import GameSpecError
from .game import DiscretizedGame, MatrixGameSolution, solve_matrix_game

__all__ = ["ShapleyOperator", "PropertyReport", "check_properties", "FORMS"]

FORMS = ("general", "mdp", "perfectInfo", "switching")


@dataclass(frozen=True)
class ShapleyOperator:
    """Evaluates the per-state matrix games of a discretized game.

    ``tol`` is the duality-gap tolerance passed to the matrix-game solver
    for every state, whatever the form.
    """
    game: DiscretizedGame
    form: str = "general"
    tol: float = 1e-9

    def __post_init__(self):
        if self.form not in FORMS:
            raise GameSpecError(f"unknown operator form {self.form!r}")
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
            raise GameSpecError(f"value vector must have length {self.dim}")
        if not np.isfinite(f).all():
            raise GameSpecError("value vector must be finite")
        return f

    def state_matrix(self, k: int, f: np.ndarray) -> np.ndarray:
        """Dense one-shot payoff matrix of state k with continuation f."""
        return self.game.g[k] + self.game.rho[k] @ f

    def apply_with_gaps(self, f, hints: Sequence[MatrixGameSolution] | None = None,
                        ) -> tuple[np.ndarray, np.ndarray, tuple[MatrixGameSolution, ...]]:
        """Operator value, per-state certified duality gaps and per-state
        solutions.

        ``hints``, if given, holds one previous solution per state (the
        solutions this method returned for a nearby vector): a state whose
        hinted supports still certify within ``tol`` skips its LP.  The
        returned solutions are the hints of the next call.
        """
        f = self._check_input(f)
        if hints is None:
            hints = (None,) * self.dim
        elif len(hints) != self.dim:
            raise GameSpecError(f"need one hint per state, got {len(hints)}")
        sols = tuple(solve_matrix_game(self.state_matrix(k, f), self.tol, hint=hints[k])
                     for k in range(self.dim))
        return (np.array([s.value for s in sols]),
                np.array([s.duality_gap for s in sols]), sols)

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
    The solutions at f hint the solves at g and at every shift of f (the
    same matrices plus a constant, so the same supports); those at g hint
    the next pair.
    """
    mono = homo = nonexp = gap = 0.0
    ordered = total = 0
    hints = None
    for f, g in samples:
        f = np.asarray(f, dtype=float)
        g = np.asarray(g, dtype=float)
        total += 1
        pf, gf, hints_f = op.apply_with_gaps(f, hints)
        pg, gg, hints = op.apply_with_gaps(g, hints_f)
        gap = max(gap, gf.max(), gg.max())
        nonexp = max(nonexp,
                     np.abs(pf - pg).max() - np.abs(f - g).max())
        if np.all(f <= g):
            ordered += 1
            mono = max(mono, (pf - pg).max())
        elif np.all(g <= f):
            ordered += 1
            mono = max(mono, (pg - pf).max())
        for c in _HOMOGENEITY_SHIFTS:
            pc, gc, _ = op.apply_with_gaps(f + c, hints_f)
            gap = max(gap, gc.max())
            homo = max(homo, np.abs(pc - (pf + c)).max())
    return PropertyReport(monotonicity=mono, additive_homogeneity=homo,
                          nonexpansiveness=nonexp, max_gap=gap,
                          ordered_pairs=ordered, pairs=total)
