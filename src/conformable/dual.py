"""First-order dual numbers for forward-mode differentiation.

A ``Dual`` carries a value and the derivative of that value with respect to
the single free variable.  Arithmetic propagates derivatives by the chain
rule, so evaluating an expression tree on ``Dual.variable(t)`` yields the
exact derivative of the tree at ``t`` (up to floating-point rounding).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NonDifferentiableError


@dataclass(frozen=True)
class Dual:
    value: float
    deriv: float = 0.0

    @classmethod
    def variable(cls, t: float) -> "Dual":
        """The seed (t, 1): derivative of t with respect to itself."""
        return cls(float(t), 1.0)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Dual(self.value + other.value, self.deriv + other.deriv)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Dual(self.value - other.value, self.deriv - other.deriv)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Dual(other.value - self.value, other.deriv - self.deriv)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Dual(
            self.value * other.value,
            self.deriv * other.value + self.value * other.deriv,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _div(self, other)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _div(other, self)

    def __neg__(self) -> "Dual":
        return Dual(-self.value, -self.deriv)

    def __pow__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return power(self, other)

    def __rpow__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return power(other, self)

    def __abs__(self) -> "Dual":
        if self.value == 0.0:
            raise NonDifferentiableError("abs has no derivative at 0")
        sign = 1.0 if self.value > 0.0 else -1.0
        return Dual(abs(self.value), sign * self.deriv)


def _coerce(x) -> Dual | None:
    if isinstance(x, Dual):
        return x
    if isinstance(x, (int, float)):
        return Dual(float(x), 0.0)
    return None


def _div(num: Dual, den: Dual) -> Dual:
    if den.value == 0.0:
        raise DomainError("division by zero")
    v = num.value / den.value
    return Dual(v, (num.deriv - v * den.deriv) / den.value)


def power(base: Dual, expo: Dual) -> Dual:
    """base ** expo with the chain rule; negative bases need integer exponents."""
    return Dual(*power_pair(base.value, base.deriv, expo.value, expo.deriv))


def power_pair(b: float, db: float, e: float, de: float) -> tuple[float, float]:
    """`power` on (value, derivative) pairs of plain floats."""
    if de == 0.0:
        # Constant exponent: d/dt b^e = e * b^(e-1) * b'.
        if b > 0.0:
            return math.pow(b, e), e * math.pow(b, e - 1.0) * db
        if b == 0.0:
            if e == 0.0:
                return 1.0, 0.0
            if e == 1.0:
                return 0.0, db
            if e > 1.0:
                return 0.0, 0.0
            if e > 0.0:
                raise NonDifferentiableError(
                    f"x^{e!r} has no finite derivative at x = 0"
                )
            raise DomainError("zero base with non-positive exponent")
        if float(e).is_integer():
            return math.pow(b, e), e * math.pow(b, e - 1.0) * db
        raise DomainError("negative base with non-integer exponent")
    # Variable exponent: b^e = exp(e ln b) requires b > 0.
    if b <= 0.0:
        raise DomainError("variable exponent requires a positive base")
    v = math.pow(b, e)
    return v, v * (de * math.log(b) + e * db / b)


def sin(x: Dual) -> Dual:
    return Dual(math.sin(x.value), math.cos(x.value) * x.deriv)


def cos(x: Dual) -> Dual:
    return Dual(math.cos(x.value), -math.sin(x.value) * x.deriv)


def exp(x: Dual) -> Dual:
    v = math.exp(x.value)
    return Dual(v, v * x.deriv)


def ln(x: Dual) -> Dual:
    if x.value <= 0.0:
        raise DomainError(f"ln of non-positive value {x.value!r}")
    return Dual(math.log(x.value), x.deriv / x.value)


def sqrt(x: Dual) -> Dual:
    if x.value < 0.0:
        raise DomainError(f"sqrt of negative value {x.value!r}")
    if x.value == 0.0:
        raise NonDifferentiableError("sqrt has no finite derivative at 0")
    v = math.sqrt(x.value)
    return Dual(v, x.deriv / (2.0 * v))
