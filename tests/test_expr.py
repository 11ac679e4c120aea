import io
import keyword
import math
import pickle
import re
import struct
import sys
import tokenize

import pytest
from hypothesis import assume, given, settings, strategies as st

from conformable import expr
from conformable.errors import (
    DomainError,
    NonDifferentiableError,
    NonFiniteError,
    ParseError,
    UnknownIdentifierError,
)
from conformable.expr import (
    MAX_DEPTH,
    BinOp,
    Call,
    Const,
    FuncSpec,
    Neg,
    Var,
    evaluate,
    evaluate_body,
    evaluate_dual,
    parse,
    power_pair,
    unparse,
)


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------

def test_parse_power():
    assert parse("t^2") == BinOp("^", Var(), Const(2.0))


def test_parse_precedence():
    assert parse("2*t + sin(t)") == BinOp(
        "+", BinOp("*", Const(2.0), Var()), Call("sin", Var())
    )


def test_parse_power_right_associative():
    assert parse("2^3^2") == BinOp("^", Const(2.0), BinOp("^", Const(3.0), Const(2.0)))


def test_parse_unary_minus_binds_looser_than_power():
    assert parse("-t^2") == Neg(BinOp("^", Var(), Const(2.0)))


def test_parse_signed_exponent():
    assert parse("t^-2") == BinOp("^", Var(), Neg(Const(2.0)))


def test_parse_division_left_associative():
    assert parse("8/4/2") == BinOp("/", BinOp("/", Const(8.0), Const(4.0)), Const(2.0))


def test_parse_pow_function_sugar():
    assert parse("pow(t, 3)") == parse("t^3")


def test_parse_number_forms():
    assert parse("1e-3") == Const(1e-3)
    assert parse(".5") == Const(0.5)
    assert parse("2.75e+1") == Const(27.5)
    assert parse("1.e5") == Const(1e5)
    assert parse("\u0663") == Const(3.0)  # ARABIC-INDIC DIGIT THREE


def test_parse_truncated_input_offset():
    with pytest.raises(ParseError) as exc:
        parse("t +")
    assert exc.value.offset == 3
    assert exc.value.expected  # a non-empty expected-token set


def test_parse_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as exc:
        parse("2*sinh(t)")
    assert exc.value.name == "sinh"
    assert exc.value.offset == 2
    assert "'t'" in exc.value.expected


def test_parse_bare_unknown_variable():
    with pytest.raises(UnknownIdentifierError):
        parse("x + 1")


def test_parse_missing_close_paren():
    with pytest.raises(ParseError) as exc:
        parse("sin(t")
    assert exc.value.offset == 5


def test_parse_trailing_garbage():
    with pytest.raises(ParseError) as exc:
        parse("1 2")
    assert exc.value.offset == 2


@pytest.mark.parametrize(
    "source, op, offset", [("*t", "*", 0), (")", ")", 0), ("t+*1", "*", 2), ("sin(,)", ",", 4)]
)
def test_parse_operator_where_an_operand_belongs(source, op, offset):
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert type(exc.value) is ParseError
    assert exc.value.message == f"unexpected {op!r}"
    assert exc.value.offset == offset
    assert exc.value.expected == {"a number", "'t'", "a function name", "'('", "'-'"}


def test_parse_unexpected_character():
    with pytest.raises(ParseError) as exc:
        parse("t % 2")
    assert exc.value.offset == 2


# str.isdigit() holds for superscripts, which no number pattern matches.
@pytest.mark.parametrize(
    "source, char, offset",
    [("t*\u00b2", "\u00b2", 2), ("\u00bd", "\u00bd", 0), ("\u0663*\u00b2", "\u00b2", 3)],
)
def test_parse_digit_like_character_is_unexpected(source, char, offset):
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert type(exc.value) is ParseError
    assert exc.value.offset == offset
    assert str(exc.value).startswith(f"unexpected character {char!r} ")


def test_parse_at_depth_limit():
    for source in (
        "+".join(["t"] * MAX_DEPTH),
        "(" * (MAX_DEPTH - 1) + "t" + ")" * (MAX_DEPTH - 1),
        "sin(" * (MAX_DEPTH - 1) + "t" + ")" * (MAX_DEPTH - 1),
        "t^" * (MAX_DEPTH - 1) + "t",
    ):
        node = parse(source)
        # The deepest accepted tree hashes, compares and prints without
        # reaching the recursion limit.
        assert hash(node) == hash(parse(unparse(node)))
        assert node == parse(unparse(node))
        assert repr(node).startswith(type(node).__name__)


def test_hand_built_tree_past_the_recursion_limit_is_refused_by_every_walk():
    # The parser stops at MAX_DEPTH; a tree built by hand far deeper meets
    # the interpreter's recursion limit in every walk, lowering included.
    node = Var()
    for _ in range(sys.getrecursionlimit() + 500):
        node = BinOp("+", node, Var())
    for walk in (hash, unparse, lambda n: evaluate_body(FuncSpec(n), 1.0)):
        with pytest.raises(RecursionError):
            walk(node)


@pytest.mark.parametrize(
    "source",
    [
        "+".join(["t"] * (MAX_DEPTH + 1)),
        "(" * MAX_DEPTH + "t" + ")" * MAX_DEPTH,
        "-" * MAX_DEPTH + "t",
        "(" * 1500 + "t" + ")" * 1500,
        "+".join(["t"] * 3000),
        "(" * 50 + "+".join(["t"] * 60) + ")" * 50,
    ],
    ids=["sum", "parentheses", "negations", "1500 parentheses", "3000 terms", "mixed"],
)
def test_parse_rejects_deeper_than_limit(source):
    with pytest.raises(ParseError, match=f"nests deeper than {MAX_DEPTH} levels"):
        parse(source)


# --------------------------------------------------------------------------
# printer round-trip
# --------------------------------------------------------------------------

def _exprs():
    leaves = st.one_of(
        st.just(Var()),
        st.builds(
            Const,
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
        ),
    )

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(
                BinOp, st.sampled_from("+-*/^"), children, children
            ),
            st.builds(Call, st.sampled_from(sorted(expr.FUNCTIONS)), children),
        )

    return st.recursive(leaves, extend, max_leaves=24)


@given(_exprs())
def test_unparse_round_trips(node):
    assert parse(unparse(node)) == node


@given(st.sampled_from([
    "t^2", "2*t + sin(t)", "-t^2", "t^-2", "(t-1)^0.4", "ln(1+(t-0.0))",
    "abs(t-2)/exp(t)", "1 - 2 - 3", "2^3^2", "-(t+1)*t",
]))
def test_source_round_trips(source):
    first = parse(source)
    assert parse(unparse(first)) == first


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def test_evaluate_basic():
    assert evaluate(FuncSpec.from_source("t^2"), 3.0, 0.0) == 9.0


def test_jump_applies_only_at_terminal():
    f = FuncSpec.from_source("t", jump_at_terminal=5.0)
    assert evaluate(f, 0.0, 0.0) == 5.0
    assert evaluate(f, 0.001, 0.0) == 0.001
    assert evaluate_body(f, 0.0) == 0.0


def test_jump_that_overflows_the_value_is_nonfinite():
    f = FuncSpec.from_source("1e308", jump_at_terminal=1e308)
    assert evaluate(f, 1.0, 0.0) == 1e308
    with pytest.raises(NonFiniteError, match=r"^non-finite result inf at t=0\.0$"):
        evaluate(f, 0.0, 0.0)


def test_zero_jump_matches_body():
    f = FuncSpec.from_source("t^2", jump_at_terminal=0.0)
    assert evaluate(f, 1.0, 1.0) == evaluate_body(f, 1.0)


@given(st.floats(min_value=1e-12, max_value=10.0))
def test_jump_differs_from_body_only_at_terminal(offset):
    f = FuncSpec.from_source("t", jump_at_terminal=5.0)
    assert evaluate(f, offset, 0.0) == evaluate_body(f, offset)


def test_evaluate_domain_errors():
    with pytest.raises(DomainError):
        evaluate(FuncSpec.from_source("ln(t)"), -1.0, -2.0)
    with pytest.raises(DomainError):
        evaluate(FuncSpec.from_source("1/t"), 0.0, 0.0)
    with pytest.raises(DomainError):
        evaluate(FuncSpec.from_source("t^0.5"), -1.0, -2.0)
    with pytest.raises(DomainError):
        evaluate(FuncSpec.from_source("sqrt(t)"), -4.0, -8.0)


def test_evaluate_overflow_is_nonfinite():
    with pytest.raises(NonFiniteError):
        evaluate(FuncSpec.from_source("exp(t^2)"), 100.0, 0.0)


def test_negative_base_integer_exponent_ok():
    assert evaluate(FuncSpec.from_source("t^2"), -3.0, -4.0) == 9.0
    assert evaluate(FuncSpec.from_source("t^3"), -2.0, -4.0) == -8.0


# --------------------------------------------------------------------------
# dual evaluation
# --------------------------------------------------------------------------

def test_dual_power_rule():
    assert evaluate_dual(FuncSpec.from_source("t^2"), 3.0) == (9.0, 6.0)


def test_dual_sin_at_zero():
    assert evaluate_dual(FuncSpec.from_source("sin(t)"), 0.0) == (0.0, 1.0)


def test_dual_fractional_power_against_central_difference():
    f = FuncSpec.from_source("t^0.4")
    value, deriv = evaluate_dual(f, 1.0)
    h = 1e-6
    fd = (evaluate_body(f, 1.0 + h) - evaluate_body(f, 1.0 - h)) / (2.0 * h)
    assert value == pytest.approx(1.0)
    assert deriv == pytest.approx(0.4)
    assert abs(deriv - fd) <= 1e-6 * max(1.0, abs(deriv))


def test_dual_abs_at_kink_raises():
    with pytest.raises(NonDifferentiableError):
        evaluate_dual(FuncSpec.from_source("abs(t-2)"), 2.0)


def test_dual_ignores_jump():
    f = FuncSpec.from_source("t", jump_at_terminal=5.0)
    assert evaluate_dual(f, 0.0) == (0.0, 1.0)


@given(
    st.sampled_from([
        "t^2", "sin(t)", "cos(t)", "exp(t)", "t^0.4", "sqrt(t)",
        "ln(t)", "t^2*sin(t)", "exp(t)/(2+cos(t))", "sin(t^2)+t^3",
    ]),
    st.floats(min_value=0.1, max_value=3.0),
)
def test_dual_matches_central_difference(source, t):
    f = FuncSpec.from_source(source)
    _, deriv = evaluate_dual(f, t)
    h = 1e-6
    fd = (evaluate_body(f, t + h) - evaluate_body(f, t - h)) / (2.0 * h)
    assert abs(deriv - fd) <= 1e-5 * max(1.0, abs(deriv))


def test_tree_at_depth_limit_evaluates_on_both_paths():
    f = FuncSpec.from_source("sin(" * (MAX_DEPTH - 1) + "t" + ")" * (MAX_DEPTH - 1))
    x = 0.5
    dx = 1.0
    for _ in range(MAX_DEPTH - 1):
        x, dx = math.sin(x), math.cos(x) * dx
    assert evaluate_body(f, 0.5) == x
    assert evaluate_dual(f, 0.5) == (x, dx)


# --------------------------------------------------------------------------
# compiled code against the reference tree walkers
# --------------------------------------------------------------------------

# The recursive walkers that evaluated expressions before they were lowered
# to straight-line code; kept here as the reference the compiled code must
# match bit for bit.

def _walk_float(node, t):
    if isinstance(node, BinOp):
        left = _walk_float(node.left, t)
        right = _walk_float(node.right, t)
        op = node.op
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0.0:
                raise DomainError(f"division by zero at t={t!r}")
            return left / right
        return expr._pow_float(left, right)
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return t
    if isinstance(node, Neg):
        return -_walk_float(node.operand, t)
    if isinstance(node, Call):
        return _FLOAT_FUNCTIONS[node.func](_walk_float(node.arg, t))
    raise TypeError(f"not an expression node: {node!r}")


def _float_ln(x):
    if x <= 0.0:
        raise DomainError(f"ln of non-positive value {x!r}")
    return math.log(x)


def _float_sqrt(x):
    if x < 0.0:
        raise DomainError(f"sqrt of negative value {x!r}")
    return math.sqrt(x)


_FLOAT_FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "ln": _float_ln,
    "abs": abs,
    "sqrt": _float_sqrt,
}


# The pair rules of the forward-mode number type that `_walk_dual` used,
# on (value, derivative) tuples.
def _pair_div(num, den, t):
    if den[0] == 0.0:
        raise DomainError(f"division by zero at t={t!r}")
    v = num[0] / den[0]
    return v, (num[1] - v * den[1]) / den[0]


def _pair_abs(x):
    if x[0] == 0.0:
        raise NonDifferentiableError("abs has no derivative at 0")
    sign = 1.0 if x[0] > 0.0 else -1.0
    return abs(x[0]), sign * x[1]


def _pair_ln(x):
    if x[0] <= 0.0:
        raise DomainError(f"ln of non-positive value {x[0]!r}")
    return math.log(x[0]), x[1] / x[0]


def _pair_sqrt(x):
    if x[0] < 0.0:
        raise DomainError(f"sqrt of negative value {x[0]!r}")
    if x[0] == 0.0:
        raise NonDifferentiableError("sqrt has no finite derivative at 0")
    v = math.sqrt(x[0])
    return v, x[1] / (2.0 * v)


def _pair_exp(x):
    v = math.exp(x[0])
    return v, v * x[1]


_PAIR_FUNCTIONS = {
    "sin": lambda x: (math.sin(x[0]), math.cos(x[0]) * x[1]),
    "cos": lambda x: (math.cos(x[0]), -math.sin(x[0]) * x[1]),
    "exp": _pair_exp,
    "ln": _pair_ln,
    "abs": _pair_abs,
    "sqrt": _pair_sqrt,
}


def _walk_dual(node, t):
    """(value, derivative) of node, where t is the pair of the variable."""
    if isinstance(node, BinOp):
        (a, da), (b, db) = _walk_dual(node.left, t), _walk_dual(node.right, t)
        op = node.op
        if op == "+":
            return a + b, da + db
        if op == "-":
            return a - b, da - db
        if op == "*":
            return a * b, da * b + a * db
        if op == "/":
            return _pair_div((a, da), (b, db), t[0])
        return power_pair(a, da, b, db)
    if isinstance(node, Const):
        return node.value, 0.0
    if isinstance(node, Var):
        return t
    if isinstance(node, Neg):
        v, d = _walk_dual(node.operand, t)
        return -v, -d
    if isinstance(node, Call):
        return _PAIR_FUNCTIONS[node.func](_walk_dual(node.arg, t))
    raise TypeError(f"not an expression node: {node!r}")


def _reference_body(node, t):
    try:
        v = _walk_float(node, float(t))
    except OverflowError as exc:
        raise NonFiniteError(f"overflow evaluating at t={t!r}") from exc
    if not math.isfinite(v):
        raise NonFiniteError(f"non-finite result {v!r} at t={t!r}")
    return v


def _reference_dual(node, t):
    try:
        d = _walk_dual(node, (float(t), 1.0))
    except OverflowError as exc:
        raise NonFiniteError(f"overflow evaluating at t={t!r}") from exc
    if not (math.isfinite(d[0]) and math.isfinite(d[1])):
        raise NonFiniteError(f"non-finite dual result {d!r} at t={t!r}")
    return d


def _outcome(fn, *args):
    """Bits of the result, or the type and message of the exception."""
    try:
        out = fn(*args)
    except Exception as exc:  # noqa: BLE001 - any exception must match
        return type(exc), str(exc)
    values = out if isinstance(out, tuple) else (out,)
    return "ok", struct.pack(f"<{len(values)}d", *values)


def _assert_matches_reference(node, t):
    f = FuncSpec(node)
    assert _outcome(evaluate_body, f, t) == _outcome(_reference_body, node, t)
    assert _outcome(evaluate_dual, f, t) == _outcome(_reference_dual, node, t)


_CONSTANTS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 2.0, 3.0, 1e-3, 1e300, math.inf, -math.inf]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
)
_POINTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.5, 0.5, 3.0]),
    st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
)


def _random_trees():
    leaves = st.one_of(st.just(Var()), st.builds(Const, _CONSTANTS))

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(BinOp, st.sampled_from("+-*/^"), children, children),
            st.builds(Call, st.sampled_from(sorted(expr.FUNCTIONS)), children),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=400)
@given(_random_trees(), _POINTS)
def test_compiled_matches_reference_walkers(node, t):
    _assert_matches_reference(node, t)


@pytest.mark.parametrize("constants", [(0.0, -0.0), (-0.0, 0.0)])
def test_signed_zero_constants_keep_their_bits(constants):
    # Equal ASTs of either zero, evaluated one after the other.
    for c in constants:
        _assert_matches_reference(BinOp("*", Const(c), Var()), 5.0)


@pytest.mark.parametrize(
    "source, t, float_outcome, pair_outcome",
    [
        ("1/t", 0.0, DomainError, DomainError),
        ("t/(t-t)", 1.0, DomainError, DomainError),
        ("t^2", -3.0, "ok", "ok"),  # negative base, integer exponent
        ("t^3", -2.0, "ok", "ok"),
        ("t^-1", -2.0, "ok", "ok"),
        ("t^0.5", -1.0, DomainError, DomainError),  # non-integer exponent
        ("t^0", 0.0, "ok", "ok"),  # 0^e, e = 0
        ("t^1", 0.0, "ok", "ok"),  # e = 1
        ("t^2.5", 0.0, "ok", "ok"),  # e > 1
        ("t^0.5", 0.0, "ok", NonDifferentiableError),  # 0 < e < 1
        ("t^-1", 0.0, DomainError, DomainError),  # e < 0
        ("t^t", 0.0, "ok", DomainError),  # variable exponent
        ("t^t", -1.0, "ok", DomainError),
        ("t^(t-t)", 0.0, "ok", "ok"),  # exponent with zero derivative
        ("ln(t)", 0.0, DomainError, DomainError),
        ("ln(t)", -1.0, DomainError, DomainError),
        ("sqrt(t)", 0.0, "ok", NonDifferentiableError),
        ("sqrt(t)", -1.0, DomainError, DomainError),
        ("abs(t)", 0.0, "ok", NonDifferentiableError),
        ("abs(t)", -2.0, "ok", "ok"),
        ("exp(t)*exp(t)", 0.7, "ok", "ok"),  # a repeated subtree
        ("sin(t^2)/sin(t^2) + ln(sin(t^2))", 1.3, "ok", "ok"),
        ("exp(t^2)", 100.0, NonFiniteError, NonFiniteError),  # overflow
        ("1e999*t", 1.0, NonFiniteError, NonFiniteError),  # infinite constant
        ("0^(1e999-1e999)", 1.0, NonFiniteError, NonFiniteError),  # NaN exponent
        ("(-1)^(1e999-1e999)", 1.0, NonFiniteError, NonFiniteError),
        ("(0*1e999)^0.5", 1.0, NonFiniteError, NonFiniteError),  # NaN base
        ("sin(1e999)", 1.0, ValueError, ValueError),
        ("-2*-t - -(t)", 1.5, "ok", "ok"),
    ],
)
def test_compiled_matches_reference_at_edges(source, t, float_outcome, pair_outcome):
    node = parse(source)
    _assert_matches_reference(node, t)
    for fn, expected in ((evaluate_body, float_outcome), (evaluate_dual, pair_outcome)):
        assert _outcome(fn, FuncSpec(node), t)[0] == expected


@pytest.mark.parametrize(
    "source, value, deriv",
    [("t^0", 1.0, 0.0), ("t^1", 0.0, 1.0), ("t^2.5", 0.0, 0.0), ("t^2", 0.0, 0.0),
     ("(-t)^2", 0.0, 0.0), ("(-t^2)^1.5", 0.0, 0.0)],
)
def test_zero_base_power_values(source, value, deriv):
    assert evaluate_dual(FuncSpec(parse(source)), 0.0) == (value, deriv)


@pytest.mark.parametrize("source", ["(t*(t-0.005))^1.5", "(-t)^2.5", "(0-t)^1.5"])
def test_zero_base_turning_negative_refuses_a_non_integer_exponent(source):
    # The base is 0 at t = 0 and negative just right of it.
    with pytest.raises(DomainError, match="negative base with non-integer exponent"):
        evaluate_dual(FuncSpec(parse(source)), 0.0)


def test_negative_constants_in_hand_built_trees():
    node = BinOp("-", Neg(Const(-1.5)), BinOp("^", Var(), Const(-2.0)))
    for t in (2.0, -0.0, -3.0):
        _assert_matches_reference(node, t)


def test_generated_source_holds_only_fixed_names_and_floats():
    node = parse("abs(sin(t))/1e999 + ln(t)^2.5 - 0.1")
    for pair in (False, True):
        source = expr._lower(node, pair)
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            assert tok.type != tokenize.STRING
            if tok.type == tokenize.NAME:
                assert (
                    tok.string in expr._GLOBALS
                    or tok.string in ("t", "_f")
                    or re.fullmatch(r"[vd][0-9]+", tok.string)
                    or keyword.iskeyword(tok.string)
                ), tok.string
            elif tok.type == tokenize.NUMBER:
                assert repr(float(tok.string)) == tok.string


_ALL_OPERATIONS = "-sin(t)*cos(t) + exp(t)/ln(t) - sqrt(abs(t))^2.5"

_ALL_OPERATIONS_FLOAT = """\
def _f(t):
    v1 = _sin(t)
    v2 = -v1
    v3 = _cos(t)
    v4 = v2 * v3
    v5 = _exp(t)
    if t <= 0.0: _ln_domain(t)
    v6 = _log(t)
    if v6 == 0.0: _division_by_zero(t)
    v7 = v5 / v6
    v8 = v4 + v7
    v9 = _abs(t)
    if v9 < 0.0: _sqrt_domain(v9)
    v10 = _sqrt(v9)
    v11 = _pow_float(v10, 2.5)
    v12 = v8 - v11
    return v12
"""

_ALL_OPERATIONS_PAIR = """\
def _f(t):
    v1 = _sin(t)
    d1 = _cos(t) * 1.0
    v2 = -v1
    d2 = -d1
    v3 = _cos(t)
    d3 = -_sin(t) * 1.0
    v4 = v2 * v3
    d4 = d2 * v3 + v2 * d3
    v5 = _exp(t)
    d5 = v5 * 1.0
    if t <= 0.0: _ln_domain(t)
    v6 = _log(t)
    d6 = 1.0 / t
    if v6 == 0.0: _division_by_zero(t)
    v7 = v5 / v6
    d7 = (d5 - v7 * d6) / v6
    v8 = v4 + v7
    d8 = d4 + d7
    if t == 0.0: _abs_kink()
    v9 = _abs(t)
    d9 = (1.0 if t > 0.0 else -1.0) * 1.0
    if v9 < 0.0: _sqrt_domain(v9)
    if v9 == 0.0: _sqrt_kink()
    v10 = _sqrt(v9)
    d10 = d9 / (2.0 * v10)
    v11, d11 = _pow_pair(v10, d10, 2.5, 0.0)
    v12 = v8 - v11
    d12 = d8 - d11
    return v12, d12
"""


def test_generated_source_of_every_operation_is_pinned():
    """Both paths of a body that uses all twelve operations, statement by statement."""
    body = parse(_ALL_OPERATIONS)
    assert {"+", "-", "*", "/", "^", "u-"} | expr.FUNCTIONS == expr._RULES.keys()
    assert expr._lower(body, False) == _ALL_OPERATIONS_FLOAT
    assert expr._lower(body, True) == _ALL_OPERATIONS_PAIR


# --------------------------------------------------------------------------
# the parse memo, code on the AST and the closed set of functions
# --------------------------------------------------------------------------

def test_parse_memo_returns_the_same_ast():
    assert parse("t^2 + sin(t)") is parse("t^2 + sin(t)")


def test_hand_built_unknown_call_is_refused():
    f = FuncSpec(Call("cube", Var()))  # built by hand: parsing would refuse it
    with pytest.raises(UnknownIdentifierError) as parsed:
        parse("cube(t)")
    for fn in (evaluate_body, evaluate_dual):
        for _ in range(2):  # a refusal stores nothing, so it is met again
            with pytest.raises(UnknownIdentifierError) as refused:
                fn(f, 2.0)
            assert str(refused.value) == str(parsed.value)
    assert f.body._float_code is None and f.body._pair_code is None


def test_compiling_leaves_the_globals_unchanged():
    before = dict(expr._GLOBALS)
    for source in ("t^2 + 1", "sin(t)*exp(t) - ln(t)", "sqrt(abs(t))/cos(t)", "pow(t, t)"):
        f = FuncSpec.from_source(source)
        evaluate_body(f, 2.0)
        evaluate_dual(f, 2.0)
    assert expr._GLOBALS == before
    assert expr.FUNCTIONS == {"sin", "cos", "exp", "ln", "abs", "sqrt"}


def _lowerings(monkeypatch) -> list:
    """The (body, pair) of every lowering from here on, in order."""
    lowered = []
    lower = expr._lower

    def counting(body, pair):
        lowered.append((body, pair))
        return lower(body, pair)

    monkeypatch.setattr(expr, "_lower", counting)
    return lowered


def _lowered_paths(lowered, body) -> list:
    assert all(b is body for b, _ in lowered)
    return [pair for _, pair in lowered]


def test_one_ast_lowers_once_per_path_and_an_equal_one_lowers_its_own(monkeypatch):
    lowered = _lowerings(monkeypatch)
    body = expr._Parser("t^2 + 1").parse()  # an AST that never ran
    plain, jumped = FuncSpec(body), FuncSpec(body, jump_at_terminal=3.0)
    assert evaluate(plain, 1.0, 1.0) == 2.0
    assert evaluate(jumped, 1.0, 1.0) == 5.0
    assert evaluate(jumped, 2.0, 1.0) == 5.0
    assert evaluate_dual(plain, 1.0) == evaluate_dual(jumped, 1.0) == (2.0, 2.0)
    assert evaluate_dual(FuncSpec(body, jump_at_terminal=-1.0), 3.0) == (10.0, 6.0)
    assert _lowered_paths(lowered, body) == [False, True]
    apart = FuncSpec(expr._Parser("t^2+1").parse(), jump_at_terminal=3.0)
    assert apart.body == body and apart.body is not body
    assert evaluate(apart, 1.0, 1.0) == 5.0
    assert evaluate_dual(apart, 1.0) == (2.0, 2.0)
    assert _lowered_paths(lowered[2:], apart.body) == [False, True]
    assert apart.body._float_code is not body._float_code
    assert apart.body._pair_code is not body._pair_code


def test_a_repeated_source_text_reuses_the_code_on_its_ast(monkeypatch):
    source = "t^3 - 2*sin(t) + exp(-t)"
    first = FuncSpec.from_source(source)
    values = evaluate_body(first, 1.5), evaluate_dual(first, 1.5)

    def refuse(body, pair):
        raise AssertionError("the body was lowered again")

    monkeypatch.setattr(expr, "_lower", refuse)
    again = FuncSpec.from_source(source, jump_at_terminal=2.0)
    assert again.body is first.body
    assert (evaluate_body(again, 1.5), evaluate_dual(again, 1.5)) == values


def test_a_cleared_parse_memo_gives_a_new_ast_that_lowers_again(monkeypatch):
    source = "t^4 - cos(t)/2"
    first = FuncSpec.from_source(source)
    values = evaluate_body(first, 0.5), evaluate_dual(first, 0.5)
    expr.parse.cache_clear()
    lowered = _lowerings(monkeypatch)
    again = FuncSpec.from_source(source)
    assert again.body is not first.body and again.body == first.body
    assert again.body._float_code is None and again.body._pair_code is None
    assert (evaluate_body(again, 0.5), evaluate_dual(again, 0.5)) == values
    assert _lowered_paths(lowered, again.body) == [False, True]


def test_code_slots_stay_out_of_the_value_of_an_ast():
    source = "t^2 + cos(t)"
    compiled = parse(source)
    evaluate_body(FuncSpec(compiled), 1.0)
    evaluate_dual(FuncSpec(compiled), 1.0)
    fresh = expr._Parser(source).parse()  # an equal AST that never ran
    assert compiled._float_code is not None and compiled._pair_code is not None
    assert fresh._float_code is None and fresh._pair_code is None
    assert repr(compiled) == repr(fresh) and "_code" not in repr(compiled)
    assert compiled == fresh and hash(compiled) == hash(fresh)
    assert compiled.as_dict() == fresh.as_dict()
    assert list(compiled.as_dict()) == ["op", "left", "right"]
    copy = pickle.loads(pickle.dumps(compiled))
    assert copy == compiled and copy._float_code is None and copy._pair_code is None


# --------------------------------------------------------------------------
# terminal-relative bodies
# --------------------------------------------------------------------------

def test_shifted_rewrites_each_t_relative_to_the_terminal():
    f = FuncSpec.from_source("(t-1)^0.4 + (t-(-2.0))*t + ln(t-1.5)", jump_at_terminal=2.0)
    # t - a is d itself, t - c is (a - c) + d and any other t is a + d
    assert unparse(expr.shifted(f, 1.0).body) == "t^0.4+(3.0+t)*(1.0+t)+ln(-0.5+t)"
    assert unparse(expr.shifted(f, -2.0).body) == "(-3.0+t)^0.4+t*(-2.0+t)+ln(-3.5+t)"
    assert expr.shifted(f, 1.0).jump_at_terminal is None


def test_a_shifted_body_is_built_and_compiled_once_per_terminal(monkeypatch):
    lowered = _lowerings(monkeypatch)
    body = expr._Parser("exp(t)*(t-1)").parse()  # an AST that never ran
    fa = expr.shifted(FuncSpec(body), 1.0)
    assert expr.shifted(FuncSpec(body, jump_at_terminal=3.0), 1.0) is fa
    assert evaluate_body(fa, 0.5) == evaluate_body(expr.shifted(FuncSpec(body), 1.0), 0.5)
    assert _lowered_paths(lowered, fa.body) == [False]
    # the memo on the body's root keeps a bounded number of terminals
    for k in range(2 * expr.SHIFT_MEMO_SIZE):
        expr.shifted(FuncSpec(body), 10.0 + k)
    assert len(body._shifts) == expr.SHIFT_MEMO_SIZE
    assert expr.shifted(FuncSpec(body), 1.0) is fa
    assert expr.shifted(FuncSpec(body), 1e3) is not expr.shifted(FuncSpec(body), 1e3)


def _has_t_minus_c(node) -> bool:
    """Whether node has a `t - c` subtree, c a constant under any negations."""
    todo = [node]
    while todo:
        node = todo.pop()
        if isinstance(node, BinOp):
            if node.op == "-" and isinstance(node.left, Var):
                c = node.right
                while isinstance(c, Neg):
                    c = c.operand
                if isinstance(c, Const):
                    return True
            todo += [node.left, node.right]
        elif isinstance(node, Neg):
            todo.append(node.operand)
        elif isinstance(node, Call):
            todo.append(node.arg)
    return False


def _named_at(fn, a):
    """`fn` of a shifted body, its errors naming the point a + d."""
    def at(f, d):
        try:
            return fn(f, d)
        except (DomainError, NonFiniteError) as exc:
            if exc.t is None:
                raise
            raise exc.moved(a + exc.t) from None
    return at


@settings(max_examples=400)
@given(_random_trees(), st.sampled_from([0.0, 1.0, -2.0]), _POINTS)
def test_shifted_body_without_t_minus_c_keeps_the_bits(node, a, d):
    assume(not _has_t_minus_c(node))
    f = FuncSpec(node)
    fa = expr.shifted(f, a)
    for fn in (evaluate_body, evaluate_dual):
        assert _outcome(_named_at(fn, a), fa, d) == _outcome(fn, f, a + d)
