"""Numerical conformable calculus: derivative and integral operators of
order alpha in (0, 1], with both the original and the corrected convention
for the value at the lower terminal, plus a verification harness that
checks the operator identities numerically.

The harness (`conformable.verify`, with `run_all` and `VerificationReport`)
is imported on first use, so importing the package loads only the
operators.
"""

from .core import (
    EvalResult,
    TerminalMode,
    deriv_at_terminal,
    deriv_closed_form,
    deriv_limit,
    order_convert,
    right_limit,
)
from .errors import (
    ConvergenceError,
    DomainError,
    NonDifferentiableError,
    NonFiniteError,
    ParseError,
    PreconditionError,
    UnknownIdentifierError,
)
from .expr import (
    BinOp,
    Call,
    Const,
    Expr,
    FuncSpec,
    Neg,
    Var,
    evaluate,
    evaluate_body,
    evaluate_dual,
    parse,
    unparse,
)
from .quad import deriv_of_integral, integral, integral_of_deriv

__version__ = "0.1.0"

__all__ = [
    "BinOp",
    "Call",
    "Const",
    "ConvergenceError",
    "DomainError",
    "EvalResult",
    "Expr",
    "FuncSpec",
    "Neg",
    "NonDifferentiableError",
    "NonFiniteError",
    "ParseError",
    "PreconditionError",
    "TerminalMode",
    "UnknownIdentifierError",
    "Var",
    "VerificationReport",
    "deriv_at_terminal",
    "deriv_closed_form",
    "deriv_limit",
    "deriv_of_integral",
    "evaluate",
    "evaluate_body",
    "evaluate_dual",
    "integral",
    "integral_of_deriv",
    "order_convert",
    "parse",
    "right_limit",
    "run_all",
    "unparse",
]


def __getattr__(name: str):
    """Load the verification harness when one of its names is first used."""
    if name in ("verify", "run_all", "VerificationReport"):
        import importlib

        verify = importlib.import_module(".verify", __name__)
        return verify if name == "verify" else getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
