"""Exception types shared across the package."""

from __future__ import annotations


class ParseError(ValueError):
    """Malformed expression source.

    Carries the byte offset of the offending position and the set of token
    descriptions that would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: frozenset[str] = frozenset()):
        super().__init__(message)
        self.message = message
        self.offset = offset
        self.expected = expected

    def __str__(self) -> str:
        text = f"{self.message} (byte offset {self.offset})"
        if self.expected:
            text += "; expected " + " or ".join(sorted(self.expected))
        return text


class UnknownIdentifierError(ParseError):
    """Identifier other than `t`, `pow` and the builtin function names."""

    def __init__(self, name: str, offset: int, expected: frozenset[str] = frozenset()):
        super().__init__(f"unknown identifier {name!r}", offset, expected)
        self.name = name


class _AtPoint(Exception):
    """An evaluation error, with the point ``t`` where it was raised, or None.

    The message may or may not name that point.  Code that evaluates a body
    shifted to an offset (`expr.shifted`) names the absolute point again
    through `moved`, which leaves a message without ``t=...`` unchanged.
    """

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t

    def moved(self, t: float) -> "_AtPoint":
        """The same error, naming t in place of this error's point."""
        return type(self)(str(self).replace(f"t={self.t!r}", f"t={t!r}", 1), t)


class DomainError(_AtPoint, ValueError):
    """Evaluation at a point where the expression is undefined."""


class NonFiniteError(_AtPoint, ArithmeticError):
    """Evaluation overflowed to +/-inf or produced NaN."""


class NonDifferentiableError(_AtPoint, ArithmeticError):
    """No finite first derivative at the evaluation point."""


class PreconditionError(ValueError):
    """An operator was invoked outside its stated domain."""


class ConvergenceError(RuntimeError):
    """Quadrature tolerances were not met within the subdivision budget."""
