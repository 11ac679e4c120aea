"""One-variable expression mini-language: parser, printer, compiled evaluation.

Implemented grammar (standard precedence, `^` binds tighter than unary
minus and associates to the right)::

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | 't' | IDENT '(' expr ')'
            | 'pow' '(' expr ',' expr ')' | '(' expr ')'

The only free variable is ``t``.  ``pow(a, b)`` is sugar for ``a^b``.
Numbers are double-precision literals (``2``, ``0.4``, ``1e-3``, ``.5``).
Source nested more than `MAX_DEPTH` levels deep (each operator, call and
parenthesised group is a level) is rejected with `ParseError`.

Evaluation lowers each body, once per path, to a straight-line Python
function: the float path gives f(t), the pair path (f(t), f'(t)) in forward
mode.  Each operation is declared once, in `_RULES`, and both paths are
read off it.  The function is compiled on the first evaluation of its path
and kept on the body's root node, so every spec built on that AST reuses
it, and an equal AST built apart compiles its own.  `shifted` rewrites a
body as a function of the offset from a lower terminal, and the root keeps
those shifted bodies too.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from typing import Callable, Union

from .errors import (
    DomainError,
    NonDifferentiableError,
    NonFiniteError,
    ParseError,
    UnknownIdentifierError,
)
from .record import Record

__all__ = [
    "BinOp",
    "Call",
    "Const",
    "Expr",
    "FuncSpec",
    "FUNCTIONS",
    "Neg",
    "Var",
    "evaluate",
    "evaluate_body",
    "evaluate_dual",
    "parse",
    "power_pair",
    "shifted",
    "unparse",
]

# Deepest accepted nesting.  Hashing, comparing, printing and lowering an
# AST recurse (up to three frames a level), so this stays well under the
# interpreter's recursion limit.
MAX_DEPTH = 100

# Entries of the memo of `parse`, keyed by source text.
PARSE_MEMO_SIZE = 1024

# Terminals per body whose shifted body (`shifted`) is kept on its root.
SHIFT_MEMO_SIZE = 16


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

# Non-field slots of every node, as the root of a body: its code per path
# and its shifted bodies by terminal.
_ROOT_SLOTS = ("_float_code", "_pair_code", "_shifts")


class Const(Record):
    __slots__ = _ROOT_SLOTS
    value: float


class Var(Record):
    """The free variable t."""

    __slots__ = _ROOT_SLOTS


class Neg(Record):
    __slots__ = _ROOT_SLOTS
    operand: Expr


class BinOp(Record):
    __slots__ = _ROOT_SLOTS
    op: str  # one of + - * / ^
    left: Expr
    right: Expr


class Call(Record):
    __slots__ = _ROOT_SLOTS
    func: str
    arg: Expr


Expr = Union[Const, Var, Neg, BinOp, Call]


class FuncSpec(Record):
    """An expression body, optionally carrying a jump at the lower terminal.

    With ``jump_at_terminal = c``, evaluation returns ``body(t) + c`` at
    exactly ``t = a`` and ``body(t)`` everywhere else.  Derivative-side
    evaluation (`evaluate_dual`) always uses the body.  The compiled code
    of each path is kept on the body's root node, not on the spec; specs
    built on one AST share it.
    """

    body: Expr
    jump_at_terminal: float | None = None

    @classmethod
    def from_source(cls, source: str, jump_at_terminal: float | None = None) -> "FuncSpec":
        return cls(parse(source), jump_at_terminal)


# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_OP_CHARS = "+-*/^(),"

_ATOM_EXPECTED = frozenset({"a number", "'t'", "a function name", "'('", "'-'"})
# What may follow a complete operand: an infix operator or a closing token.
_INFIX_EXPECTED = frozenset({"'+'", "'-'", "'*'", "'/'", "'^'"})
_CLOSE_EXPECTED = _INFIX_EXPECTED | {"')'"}


class _Token(Record):
    kind: str  # "number" | "ident" | "op" | "end"
    text: str
    pos: int  # character offset into the source
    value: float = 0.0


def _byte_offset(source: str, pos: int) -> int:
    return len(source[:pos].encode("utf-8"))


def _tokenize(source: str) -> list[_Token]:
    out: list[_Token] = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        m = _NUMBER_RE.match(source, i)
        if m is not None:
            text = m.group(0)
            out.append(_Token("number", text, i, float(text)))
            i = m.end()
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            out.append(_Token("ident", source[i:j], i))
            i = j
            continue
        if c in _OP_CHARS:
            out.append(_Token("op", c, i))
            i += 1
            continue
        raise ParseError(
            f"unexpected character {c!r}",
            _byte_offset(source, i),
            frozenset({"a number", "an identifier", "an operator"}),
        )
    out.append(_Token("end", "", n))
    return out


# --------------------------------------------------------------------------
# Parser (precedence climbing)
# --------------------------------------------------------------------------

_INFIX_BP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_BP = 25


class _Parser:
    def __init__(self, source: str):
        self._source = source
        self._tokens = _tokenize(source)
        self._i = 0

    def parse(self) -> Expr:
        node, _ = self._expr(0, 1)
        tok = self._peek()
        if tok.kind != "end":
            self._fail(tok, f"unexpected {tok.text!r} after expression",
                       _INFIX_EXPECTED | {"end of input"})
        return node

    def _peek(self) -> _Token:
        return self._tokens[self._i]

    def _advance(self) -> _Token:
        tok = self._tokens[self._i]
        if tok.kind != "end":
            self._i += 1
        return tok

    def _fail(self, tok: _Token, message: str, expected: frozenset[str]):
        raise ParseError(message, _byte_offset(self._source, tok.pos), expected)

    def _too_deep(self, tok: _Token):
        self._fail(tok, f"expression nests deeper than {MAX_DEPTH} levels", frozenset())

    def _expect_op(self, text: str, expected: frozenset[str]) -> None:
        tok = self._advance()
        if tok.kind != "op" or tok.text != text:
            shown = "end of input" if tok.kind == "end" else repr(tok.text)
            self._fail(tok, f"expected {text!r}, found {shown}", expected)

    # Each parsing method takes the nesting level of the node it starts
    # (the root is level 1) and returns the node with its height, so a
    # subtree of height h at level L reaches depth L + h - 1.

    def _expr(self, min_bp: int, level: int) -> tuple[Expr, int]:
        if level > MAX_DEPTH:
            self._too_deep(self._peek())
        lhs, height = self._prefix(level)
        while True:
            tok = self._peek()
            if tok.kind != "op" or tok.text not in _INFIX_BP:
                return lhs, height
            bp = _INFIX_BP[tok.text]
            if bp <= min_bp:
                return lhs, height
            self._advance()
            # '^' is right-associative: allow the same binding power on the right.
            rhs, rhs_height = self._expr(bp - 1 if tok.text == "^" else bp, level + 1)
            lhs, height = BinOp(tok.text, lhs, rhs), max(height, rhs_height) + 1
            if level + height - 1 > MAX_DEPTH:
                self._too_deep(tok)

    def _prefix(self, level: int) -> tuple[Expr, int]:
        tok = self._advance()
        if tok.kind == "number":
            return Const(tok.value), 1
        if tok.kind == "ident":
            return self._ident(tok, level)
        if tok.kind == "op":
            if tok.text == "-":
                operand, height = self._expr(_UNARY_BP, level + 1)
                return Neg(operand), height + 1
            if tok.text == "(":
                inner, height = self._expr(0, level + 1)
                self._expect_op(")", _CLOSE_EXPECTED)
                return inner, height + 1
            self._fail(tok, f"unexpected {tok.text!r}", _ATOM_EXPECTED)
        self._fail(tok, "unexpected end of input", _ATOM_EXPECTED)
        raise AssertionError("unreachable")

    def _ident(self, tok: _Token, level: int) -> tuple[Expr, int]:
        name = tok.text
        if name == "t":
            return Var(), 1
        if name == "pow":
            self._expect_op("(", frozenset({"'('"}))
            first, first_height = self._expr(0, level + 1)
            self._expect_op(",", _INFIX_EXPECTED | {"','"})
            second, second_height = self._expr(0, level + 1)
            self._expect_op(")", _CLOSE_EXPECTED)
            return BinOp("^", first, second), max(first_height, second_height) + 1
        if name in FUNCTIONS:
            self._expect_op("(", frozenset({"'('"}))
            arg, height = self._expr(0, level + 1)
            self._expect_op(")", _CLOSE_EXPECTED)
            return Call(name, arg), height + 1
        raise UnknownIdentifierError(name, _byte_offset(self._source, tok.pos), _NAMES_EXPECTED)


@lru_cache(maxsize=PARSE_MEMO_SIZE)
def parse(source: str) -> Expr:
    """Parse expression source into an AST; the sole free variable is `t`.

    Results are memoised by source text, so repeated text returns the same
    AST object; failures are not memoised.
    """
    return _Parser(source).parse()


# --------------------------------------------------------------------------
# Printer
# --------------------------------------------------------------------------

def _prec(node: Expr) -> int:
    if isinstance(node, BinOp):
        return _INFIX_BP[node.op]
    if isinstance(node, Neg):
        return _UNARY_BP
    return 99


def unparse(node: Expr) -> str:
    """Render an AST back to source.

    Round-trips structurally: ``parse(unparse(parse(s)))`` equals
    ``parse(s)``.  Constants are assumed non-negative and finite, which is
    all the parser ever produces (a leading minus parses as `Neg`).
    """
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return "t"
    if isinstance(node, Neg):
        inner = unparse(node.operand)
        if _prec(node.operand) < _UNARY_BP:
            inner = f"({inner})"
        return "-" + inner
    if isinstance(node, Call):
        return f"{node.func}({unparse(node.arg)})"
    if isinstance(node, BinOp):
        bp = _INFIX_BP[node.op]
        left = unparse(node.left)
        right = unparse(node.right)
        lp, rp = _prec(node.left), _prec(node.right)
        if lp < bp or (lp == bp and node.op == "^"):
            left = f"({left})"
        if rp < bp or (rp == bp and node.op != "^"):
            right = f"({right})"
        return f"{left}{node.op}{right}"
    raise TypeError(f"not an expression node: {node!r}")


# --------------------------------------------------------------------------
# Evaluation: compiled straight-line code per (body, path)
# --------------------------------------------------------------------------

def _pow_float(base: float, expo: float) -> float:
    """base^expo, the one statement of where ``^`` is real.

    A zero base refuses a negative exponent and a negative base a
    non-integer one; a NaN operand falls through and reads as non-finite.
    """
    if base > 0.0:
        return math.pow(base, expo)
    if base == 0.0:
        if expo < 0.0:
            raise DomainError("zero base with negative exponent")
        if expo == 0.0:
            return 1.0
        if expo > 0.0:
            return 0.0
    elif base < 0.0 and expo == expo and not float(expo).is_integer():
        raise DomainError("negative base with non-integer exponent")
    return math.pow(base, expo)


def _division_by_zero(t: float):
    raise DomainError(f"division by zero at t={t!r}", t)


def _abs_kink():
    raise NonDifferentiableError("abs has no derivative at 0")


def _sqrt_kink():
    raise NonDifferentiableError("sqrt has no finite derivative at 0")


def _ln_domain(x: float):
    raise DomainError(f"ln of non-positive value {x!r}")


def _sqrt_domain(x: float):
    raise DomainError(f"sqrt of negative value {x!r}")


def power_pair(b: float, db: float, e: float, de: float) -> tuple[float, float]:
    """b^e with its derivative, from the (value, derivative) pairs of b and e.

    The value has the domain of `_pow_float`; a variable exponent needs b > 0.
    """
    if de == 0.0:
        # Constant exponent: d/dt b^e = e * b^(e-1) * b'.
        if b > 0.0:
            return math.pow(b, e), e * math.pow(b, e - 1.0) * db
        v = _pow_float(b, e)
        if b != 0.0:
            return v, e * math.pow(b, e - 1.0) * db
        # Zero base, e >= 0 or NaN (_pow_float refused e < 0): the derivative rules.
        if e == 1.0:
            return v, db
        if 0.0 < e < 1.0:
            raise NonDifferentiableError(f"x^{e!r} has no finite derivative at x = 0")
        if e > 1.0 and db < 0.0 and not float(e).is_integer():
            # The base turns negative just right of this point.
            raise DomainError("negative base with non-integer exponent")
        return v, 0.0
    # Variable exponent: b^e = exp(e ln b) requires b > 0.
    if b <= 0.0:
        raise DomainError("variable exponent requires a positive base")
    v = math.pow(b, e)
    return v, v * (de * math.log(b) + e * db / b)


# Statement templates per operation ("u-" is negation, which no function
# name can clash with), each stated once, in the order of the (value,
# derivative) pair path.  A statement tagged "d " runs only on the pair path
# (derivatives and the kink guards), one tagged "f " only on the float path.
# {r} and {rd} name the node's value and derivative, {a}/{ad} and {b}/{bd}
# those of its operands.  The operations and their order are those of
# `_pow_float`, `power_pair` and forward-mode arithmetic on pairs.
_RULES: dict[str, tuple[str, ...]] = {
    "+": ("{r} = {a} + {b}", "d {rd} = {ad} + {bd}"),
    "-": ("{r} = {a} - {b}", "d {rd} = {ad} - {bd}"),
    "*": ("{r} = {a} * {b}", "d {rd} = {ad} * {b} + {a} * {bd}"),
    "/": ("if {b} == 0.0: _division_by_zero(t)", "{r} = {a} / {b}",
          "d {rd} = ({ad} - {r} * {bd}) / {b}"),
    "^": ("f {r} = _pow_float({a}, {b})", "d {r}, {rd} = _pow_pair({a}, {ad}, {b}, {bd})"),
    "u-": ("{r} = -{a}", "d {rd} = -{ad}"),
    "sin": ("{r} = _sin({a})", "d {rd} = _cos({a}) * {ad}"),
    "cos": ("{r} = _cos({a})", "d {rd} = -_sin({a}) * {ad}"),
    "exp": ("{r} = _exp({a})", "d {rd} = {r} * {ad}"),
    "ln": ("if {a} <= 0.0: _ln_domain({a})", "{r} = _log({a})", "d {rd} = {ad} / {a}"),
    "abs": ("d if {a} == 0.0: _abs_kink()", "{r} = _abs({a})",
            "d {rd} = (1.0 if {a} > 0.0 else -1.0) * {ad}"),
    "sqrt": ("if {a} < 0.0: _sqrt_domain({a})", "d if {a} == 0.0: _sqrt_kink()",
             "{r} = _sqrt({a})", "d {rd} = {ad} / (2.0 * {r})"),
}
# The builtin function names, each declared once by its rules, and what an
# unknown identifier is told was expected in its place.
FUNCTIONS = frozenset(name for name in _RULES if name.isidentifier())
_NAMES_EXPECTED = frozenset({"'t'", "'pow'"} | FUNCTIONS)

# The one globals dict of all generated functions.
_GLOBALS: dict = {
    "__builtins__": {},
    "_sin": math.sin, "_cos": math.cos, "_exp": math.exp, "_log": math.log,
    "_sqrt": math.sqrt, "_abs": abs,
    "_pow_float": _pow_float, "_pow_pair": power_pair,
    "_division_by_zero": _division_by_zero,
    "_ln_domain": _ln_domain, "_sqrt_domain": _sqrt_domain,
    "_abs_kink": _abs_kink, "_sqrt_kink": _sqrt_kink,
    "_inf": math.inf, "_ninf": -math.inf, "_nan": math.nan,
}


def _literal(value: float) -> str:
    """A constant as source: the repr of a finite float or a bound name.

    Converting first keeps anything but a float repr out of the source.
    """
    value = float(value)
    if not math.isfinite(value):
        return "_nan" if value != value else "_inf" if value > 0.0 else "_ninf"
    return repr(value)


def _deriv_of(operand: str) -> str:
    """The derivative of an operand: SSA value v<n> pairs with d<n>."""
    if operand.startswith("v"):
        return "d" + operand[1:]
    return "1.0" if operand == "t" else "0.0"


def _lower(body: Expr, pair: bool) -> str:
    """Source of ``_f(t)``: one path of `body` as straight-line SSA code.

    Lowers each node after its operands, left operand first.  Equal
    subtrees get one SSA name, as they compute equal values.
    """
    skip, own = ("f ", "d ") if pair else ("d ", "f ")
    lines = ["def _f(t):"]
    numbered: dict[tuple, str] = {}

    def operand(node: Expr) -> str:
        """The operand naming the value of `node`: a literal, t or v<n>."""
        if isinstance(node, Const):
            return _literal(node.value)
        if isinstance(node, Var):
            return "t"
        if isinstance(node, BinOp):
            op, a, b = node.op, operand(node.left), operand(node.right)
        elif isinstance(node, Neg):
            op, a, b = "u-", operand(node.operand), ""
        elif isinstance(node, Call):
            op, a, b = node.func, operand(node.arg), ""
        else:
            raise TypeError(f"not an expression node: {node!r}")
        name = numbered.get((op, a, b))
        if name is None:
            if op not in _RULES:
                raise UnknownIdentifierError(op, 0, _NAMES_EXPECTED)
            name = numbered[op, a, b] = f"v{len(numbered) + 1}"
            fields = dict(r=name, rd=_deriv_of(name), a=a, ad=_deriv_of(a), b=b, bd=_deriv_of(b))
            lines.extend("    " + line.removeprefix(own).format(**fields)
                         for line in _RULES[op] if not line.startswith(skip))
        return name

    root = operand(body)
    lines.append(f"    return {root}, {_deriv_of(root)}" if pair else f"    return {root}")
    return "\n".join(lines) + "\n"


def _code(body: Expr, pair: bool) -> Callable:
    """One path of `body` as a plain function of t, kept on its root node."""
    namespace: dict = {}
    exec(compile(_lower(body, pair), "<expr>", "exec"), _GLOBALS, namespace)
    fn = namespace["_f"]
    object.__setattr__(body, "_pair_code" if pair else "_float_code", fn)
    return fn


def evaluate_body(f: FuncSpec, t: float) -> float:
    """Evaluate the expression body at t, ignoring any jump decoration."""
    fn = f.body._float_code or _code(f.body, False)
    try:
        v = fn(float(t))
    except OverflowError as exc:
        raise NonFiniteError(f"overflow evaluating at t={t!r}", t) from exc
    except DomainError as exc:
        # The message stays as the rule wrote it; the point is kept beside it.
        if exc.t is None:
            exc.t = t
        raise
    if not math.isfinite(v):
        raise NonFiniteError(f"non-finite result {v!r} at t={t!r}", t)
    return v


def evaluate(f: FuncSpec, t: float, a: float) -> float:
    """Evaluate f at t; a jump decoration applies only at t = a exactly."""
    v = evaluate_body(f, t)
    if f.jump_at_terminal is not None and t == a:
        v = v + f.jump_at_terminal
        if not math.isfinite(v):
            raise NonFiniteError(f"non-finite result {v!r} at t={t!r}", t)
    return v


def evaluate_dual(f: FuncSpec, t: float) -> tuple[float, float]:
    """Evaluate the pair (f(t), f'(t)) in forward mode; jump decorations are ignored."""
    fn = f.body._pair_code or _code(f.body, True)
    try:
        value, deriv = fn(float(t))
    except OverflowError as exc:
        raise NonFiniteError(f"overflow evaluating at t={t!r}", t) from exc
    if not (math.isfinite(value) and math.isfinite(deriv)):
        raise NonFiniteError(f"non-finite dual result {(value, deriv)!r} at t={t!r}", t)
    return value, deriv


# --------------------------------------------------------------------------
# Terminal-relative bodies
# --------------------------------------------------------------------------

def _constant(node: Expr) -> float | None:
    """The value of a constant or a negated constant, else None."""
    if isinstance(node, Neg):
        value = _constant(node.operand)
        return None if value is None else -value
    return node.value if isinstance(node, Const) else None


def _shift(node: Expr, a: float) -> Expr:
    """`node` as a function of the offset d = t - a."""
    if isinstance(node, Var):
        return BinOp("+", Const(a), Var())
    if isinstance(node, BinOp):
        if node.op == "-" and isinstance(node.left, Var):
            c = _constant(node.right)
            if c is not None:
                return Var() if c == a else BinOp("+", Const(a - c), Var())
        return BinOp(node.op, _shift(node.left, a), _shift(node.right, a))
    if isinstance(node, Neg):
        return Neg(_shift(node.operand, a))
    if isinstance(node, Call):
        return Call(node.func, _shift(node.arg, a))
    return node


def shifted(f: FuncSpec, a: float) -> FuncSpec:
    """f_a(d) = f(a + d), the body of f as a function of the offset from a.

    A ``t - a`` subtree becomes exactly d, a ``t - c`` subtree (a - c) + d
    and any other ``t`` a + d, so near a no point rebuilds t - a from a
    rounded t.  A body with no ``t - c`` subtree gives the bits of f at
    a + d.  The jump decoration is dropped, and a = -0.0 is taken as 0.0.
    Built once per (body, a) and kept on the body's root, for up to
    `SHIFT_MEMO_SIZE` terminals.
    """
    a += 0.0  # one body for both zeros, which the memo cannot tell apart
    memo = f.body._shifts
    if memo is None:
        memo = {}
        object.__setattr__(f.body, "_shifts", memo)
    fa = memo.get(a)
    if fa is None:
        fa = FuncSpec(_shift(f.body, a))
        if len(memo) < SHIFT_MEMO_SIZE:
            memo[a] = fa
    return fa
