"""Numerical conformable calculus: derivative and integral operators of
order alpha in (0, 1], with both the original and the corrected convention
for the value at the lower terminal, plus a verification harness that
checks the operator identities numerically."""

from .core import (
    DEFAULT_SCHEDULE,
    EvalResult,
    LimitSchedule,
    Order,
    Terminal,
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
    register_function,
    unparse,
)
from .quad import QuadConfig, deriv_of_integral, integral, integral_of_deriv
from .verify import VerificationReport, run_all

__version__ = "0.1.0"
