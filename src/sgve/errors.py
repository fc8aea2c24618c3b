"""Exception hierarchy shared across the package, its one count rule, and
one class per kind of bad input, raised by the check that owns it:
``ValueError`` for a bad argument to a computation (a value, start or hint
vector, a horizon), :class:`GameSpecError` for a bad game or map description,
:class:`MatrixGameError` for a bad matrix-game input; :class:`PositivityError`
only for a map's output leaving the open cone."""
import operator


class SgveError(Exception):
    """Base class for all package errors."""


class ExprSyntaxError(SgveError):
    """Malformed expression text.

    The byte offset of the offending token is stored in ``offset``.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownVariableError(SgveError):
    """Expression references an identifier outside the declared variable set."""

    def __init__(self, name: str, offset: int = -1):
        at = f" (at offset {offset})" if offset >= 0 else ""
        super().__init__(f"unknown variable '{name}'{at}")
        self.name = name
        self.offset = offset


class EvalDomainError(SgveError):
    """Evaluation left the real domain (log of a nonpositive number, division
    by zero, zero raised to a negative power, negative base with fractional
    exponent, or overflow)."""


class GameSpecError(SgveError):
    """Invalid game description: bad transition rows, unparseable payoffs,
    inconsistent controller tags, malformed JSON schema."""


class MatrixGameError(SgveError):
    """Invalid matrix-game input, or no candidate certified the requested
    duality gap.

    ``best_gap`` carries the smallest certified gap reached before giving
    up, and is None for invalid input.
    """

    def __init__(self, message: str, best_gap: float | None = None):
        if best_gap is not None:
            message = f"{message} (best certified gap {best_gap:.3e})"
        super().__init__(message)
        self.best_gap = best_gap


class IterationBudgetError(SgveError):
    """A fixed-point iteration exhausted its iteration budget."""


class PositivityError(SgveError):
    """A map declared as a self-map of the open positive cone produced a
    nonpositive or nonfinite value."""


def checked_count(value, least: int, what: str, error: type[Exception]) -> int:
    """The count ``value`` (states, d, a resolution, a horizon) as an int:
    an integer by ``operator.index``, not a bool, and >= ``least``.
    Anything else raises ``error`` with the one message for a bad count."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or n < least or isinstance(value, bool):
        raise error(f"{what} must be an integer >= {least}, got {value!r}")
    return n
