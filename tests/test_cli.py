import contextlib
import csv
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

import conformable.cli as cli_mod
from conformable.cli import main
from conformable.core import TerminalMode, deriv_at_terminal, deriv_closed_form, deriv_limit
from conformable.expr import MAX_DEPTH, FuncSpec
from conformable.quad import integral
from conformable.verify import REGISTRY, RegistryEntry


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# deriv
# --------------------------------------------------------------------------

def test_deriv_closed_form(capsys):
    code, out, _ = run(capsys, "deriv", "--expr", "t", "--alpha", "0.5", "--a", "0", "--t", "4")
    assert code == 0
    assert out.startswith("value=2 err=")


@pytest.mark.parametrize(
    "expr, alpha, t",
    [("(t-1)^1.5", "1", "1"), ("(t-1)^1.5", "1", "1.001"), ("sqrt(t-1)*(t-1)", "0.5", "1.001")],
)
def test_deriv_limit_where_f_is_undefined_left_of_t_agrees_with_closed(capsys, expr, alpha, t):
    values = []
    for method in ("limit", "closed"):
        code, out, err = run(
            capsys, "deriv", "--expr", expr, "--alpha", alpha, "--a", "0", "--t", t,
            "--method", method,
        )
        assert (code, err) == (0, "")
        values.append(float(out.split()[0].removeprefix("value=")))
    assert abs(values[0] - values[1]) <= 1e-6  # verify's route_tol


def test_deriv_limit_where_only_the_larger_backward_probes_fail_compares_both_sides(capsys):
    # The right derivative is about 8.07 and the left about 6.07.
    code, out, err = run(
        capsys, "deriv", "--expr", "abs(t-1)+sqrt(t-0.995)", "--alpha", "1", "--a", "0",
        "--t", "1", "--method", "limit",
    )
    assert (code, out, err) == (2, "does-not-exist reason=one-sided limits disagree\n", "")


def test_deriv_limit_method(capsys):
    code, out, _ = run(
        capsys, "deriv", "--expr", "t^2", "--alpha", "1.0", "--a", "0",
        "--t", "3", "--method", "limit",
    )
    assert code == 0
    assert out.startswith("value=6 ")


def test_deriv_terminal_original(capsys):
    code, out, _ = run(
        capsys, "deriv", "--expr", "(t-1)^0.4", "--alpha", "0.4", "--a", "1",
        "--t", "1", "--mode", "original",
    )
    assert code == 0
    assert out.startswith("value=0.4 ")


def test_deriv_terminal_corrected_dne(capsys):
    code, out, _ = run(
        capsys, "deriv", "--expr", "(t-1)^0.4", "--alpha", "0.4", "--a", "1", "--t", "1",
    )
    assert code == 2
    assert out.startswith("does-not-exist reason=")


def test_deriv_terminal_huge_terminal_is_usage_error_in_both_modes(capsys):
    # 1e17 + 1e-2 rounds back to 1e17: the terminal mesh has no interior point.
    for mode in ("original", "corrected"):
        code, out, err = run(
            capsys, "deriv", "--expr", "t", "--alpha", "0.5", "--a", "1e17",
            "--t", "1e17", "--mode", mode,
        )
        assert code == 1 and out == ""
        assert "t must lie strictly above the lower terminal a" in err


@pytest.mark.parametrize("argv,printed", [
    (["--expr", "t*sin(t)+exp(t)", "--alpha", "0.9", "--a=-2", "--t=-2", "--mode", "original"],
     "value=0 err=0\n"),
    (["--expr", "t*sin(t)+exp(t)", "--alpha", "0.5", "--a=-2", "--t=-2", "--mode", "original"],
     "value=0 err=0\n"),
    (["--expr", "exp(cos(cos(t^2)))", "--alpha", "1", "--a", "1", "--t", "1", "--mode", "corrected"],
     "value=2.04078 err=0\n"),
    (["--expr", "t+t+t", "--alpha", "0.1", "--a=-2", "--t=-2", "--mode", "corrected"],
     "value=0 err=0\n"),
    # A kink at the terminal: forward mode refuses it, the right quotient converges.
    (["--expr", "abs(t-1)", "--alpha", "1", "--a", "1", "--t", "1", "--mode", "corrected"],
     "value=1 err=2.27374e-11\n"),
])
def test_deriv_terminal_of_smooth_functions(capsys, argv, printed):
    code, out, _ = run(capsys, "deriv", *argv)
    assert code == 0
    assert out == printed


@pytest.mark.parametrize("argv", [
    ["--alpha", "1", "--a", "0", "--t", "0", "--mode", "original"],
    ["--alpha", "1", "--a", "0", "--t", "0", "--mode", "corrected"],
    ["--alpha", "0.5", "--a=-1", "--t", "0"],
], ids=["terminal-original", "terminal-corrected", "interior"])
def test_deriv_never_prints_a_negative_zero(capsys, argv):
    # f'(0) = -sin(0) = -0.0 for cos(t); the printed value is +0.
    code, out, _ = run(capsys, "deriv", "--expr", "cos(t)", *argv)
    assert code == 0
    assert out == "value=0 err=0\n"


def test_deriv_limit_of_fast_varying_function(capsys):
    code, out, _ = run(
        capsys, "deriv", "--expr", "cos(exp(t))", "--alpha", "0.8", "--a", "1",
        "--t", "11", "--method", "limit",
    )
    assert code == 0
    assert out.startswith("value=-94437.6 ")


def test_deriv_terminal_negative_base_right_of_terminal(capsys):
    code, out, err = run(
        capsys, "deriv", "--expr", "(-t)^1.5", "--alpha", "0.5", "--a", "0", "--t", "0",
    )
    assert code == 1 and out == ""
    assert "negative base with non-integer exponent" in err


@pytest.mark.parametrize("mode", ["original", "corrected"])
def test_deriv_terminal_base_negative_inside_the_probe(capsys, mode):
    # t*(t-0.005) is negative on (0, 0.005), though positive at 0 + 1e-2.
    code, out, err = run(
        capsys, "deriv", "--expr", "(t*(t-0.005))^1.5", "--alpha", "0.5", "--a", "0",
        "--t", "0", "--mode", mode,
    )
    assert (code, out) == (1, "")
    assert err == "error: negative base with non-integer exponent\n"


def test_deriv_routes_agree_where_the_base_turns_negative(capsys):
    printed = [
        run(capsys, "deriv", "--expr", "(1-t)^1.5", "--alpha", "1", "--a", "0", "--t", "1",
            "--method", method)
        for method in ("closed", "limit")
    ]
    assert printed[0] == printed[1] == (1, "", "error: negative base with non-integer exponent\n")


def _core_message(operator, *args):
    with pytest.raises(ValueError) as info:
        operator(FuncSpec.from_source("t"), *args)
    return f"error: {info.value}\n"


_SWEEP_T = ["sweep", "--var", "t", "--stop", "2", "--steps", "3", "--expr", "t", "--a", "0"]


@pytest.mark.parametrize("argv, operator, args", [
    (["deriv", "--expr", "t", "--alpha", "0.5", "--a", "0", "--t=-1"],
     deriv_closed_form, (0.5, 0.0, -1.0)),
    (["deriv", "--expr", "t", "--alpha", "0.5", "--a", "0", "--t=-1", "--method", "limit"],
     deriv_limit, (0.5, 0.0, -1.0)),
    (["deriv", "--expr", "t", "--alpha", "0", "--a", "0", "--t", "0"],
     deriv_at_terminal, (0.0, 0.0, TerminalMode.CORRECTED)),
    ([*_SWEEP_T, "--start=-1", "--alpha", "0.5"], deriv_closed_form, (0.5, 0.0, -1.0)),
    ([*_SWEEP_T, "--start=-1", "--alpha", "0.5", "--op", "integ"], integral, (0.5, 0.0, -1.0)),
    ([*_SWEEP_T, "--start", "0", "--alpha", "0.5", "--op", "integ"], integral, (0.5, 0.0, 0.0)),
    ([*_SWEEP_T, "--start", "0", "--alpha", "1.5"],
     deriv_at_terminal, (1.5, 0.0, TerminalMode.CORRECTED)),
    ([*_SWEEP_T, "--start", "1", "--alpha", "nan"], deriv_closed_form, (math.nan, 0.0, 1.0)),
], ids=["deriv-below-a", "deriv-limit-below-a", "deriv-terminal-bad-alpha",
        "sweep-below-a", "sweep-integ-below-a", "sweep-integ-at-a", "sweep-bad-alpha",
        "sweep-nan-alpha"])
def test_cli_prints_cores_message_for_its_input_rules(capsys, argv, operator, args):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == _core_message(operator, *args)


def test_deriv_bad_alpha(capsys):
    code, _, err = run(capsys, "deriv", "--expr", "t", "--alpha", "2", "--a", "0", "--t", "1")
    assert code == 1
    assert "alpha must lie in (0,1]" in err


def test_deriv_below_terminal(capsys):
    code, _, err = run(capsys, "deriv", "--expr", "t", "--alpha", "0.5", "--a", "0", "--t", "-1")
    assert code == 1
    assert "lower terminal" in err


def test_deriv_parse_error(capsys):
    code, _, err = run(capsys, "deriv", "--expr", "t +", "--alpha", "0.5", "--a", "0", "--t", "1")
    assert code == 1
    assert "byte offset 3" in err


@pytest.mark.parametrize(
    "expr",
    ["+".join(["t"] * 3000), "(" * 1500 + "t" + ")" * 1500],
    ids=["3000-term sum", "1500 nested parentheses"],
)
def test_deriv_too_deep_is_usage_error(capsys, expr):
    code, out, err = run(capsys, "deriv", "--expr", expr, "--alpha", "0.5", "--a", "0", "--t", "1")
    assert code == 1
    assert out == ""
    assert f"nests deeper than {MAX_DEPTH} levels" in err
    assert "Traceback" not in err


def test_deriv_at_depth_limit_evaluates(capsys):
    expr = "+".join(["t"] * MAX_DEPTH)  # a left-leaning sum MAX_DEPTH deep
    code, out, _ = run(capsys, "deriv", "--expr", expr, "--alpha", "1", "--a", "0", "--t", "2")
    assert code == 0
    assert out.startswith(f"value={MAX_DEPTH} err=")


def test_deriv_kink_dne(capsys):
    code, out, _ = run(capsys, "deriv", "--expr", "abs(t-2)", "--alpha", "0.5", "--a", "0", "--t", "2")
    assert code == 2


def test_deriv_jump_flag(capsys):
    code, out, _ = run(
        capsys, "deriv", "--expr", "t", "--alpha", "0.5", "--a", "0", "--t", "0",
        "--jump", "5", "--mode", "original",
    )
    assert code == 0
    assert out.startswith("value=")


def test_usage_error_exits_one(capsys):
    code, _, err = run(capsys, "deriv", "--expr", "t", "--alpha", "0.5", "--a", "0")
    assert code == 1


def test_deriv_limit_far_from_zero(capsys):
    # The automatic step underflows at t = 200; the largest safe step does not.
    code, out, err = run(
        capsys, "deriv", "--expr", "t^2", "--alpha", "0.5", "--a", "199",
        "--t", "200", "--method", "limit",
    )
    assert code == 0, err
    assert out.startswith("value=400 ")


_FUZZ_POINTS = ["0", "1", "-2", "199", "200", "1e17", "-1e17", "1e300", "nan", "inf"]


@settings(max_examples=300, deadline=None)
@given(
    entry=st.sampled_from(
        REGISTRY + (RegistryEntry("cos_exp", "cos(exp(t))"), RegistryEntry("mixed", "t*sin(t)+exp(t)"))
    ),
    alpha=st.sampled_from(["1e-300", "0.1", "0.5", "0.9", "1", "0", "nan"]),
    a=st.sampled_from(_FUZZ_POINTS),
    t=st.sampled_from(_FUZZ_POINTS),
    method=st.sampled_from(["limit", "closed"]),
    mode=st.sampled_from(["original", "corrected"]),
)
def test_deriv_exit_code_is_total(entry, alpha, a, t, method, mode):
    # "--a=-1e17" form: argparse would read a bare "-1e17" as an option.
    argv = ["deriv", "--expr", entry.source(float(a)), f"--alpha={alpha}",
            f"--a={a}", f"--t={t}", "--method", method, "--mode", mode]
    if entry.jump is not None:
        argv.append(f"--jump={entry.jump}")
    code, err = _quiet_main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err


def _quiet_main(argv):
    """The exit code and stderr text of one `main` call; stdout is dropped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


# Fields of the integ and sweep totality properties: (valid values, edge
# values).  Each example takes valid values for every field but at most one,
# so that most examples run a whole operator.  The edge values are sources
# that fail to parse, divide by zero or diverge at the terminal, orders
# outside their domain, non-finite numbers and step counts 0-3.
# A float drawn for t, start or stop is an offset from a.
_SOURCES = (
    [e.template for e in REGISTRY] + ["cos(exp(t))", "t*sin(t)+exp(t)", "exp(exp(t))"],
    ["1/t", "t^-1", "ln(t)", "sqrt(t)", "", "sin(", "foo(t)", "t*²", "½",
     "0^(1e999-1e999)", "(0*1e999)^0.5"],
)
_ORDERS = (["1e-300", "0.1", "0.5", "0.9", "1"], ["0", "-1", "2", "nan", "inf", "x"])
_TERMINALS = (["0", "1", "-2", "199"], ["1e17", "-1e17", "1e300", "nan", "inf"])
_INTEG_FIELDS = {
    "expr": _SOURCES,
    "alpha": _ORDERS,
    "a": _TERMINALS,
    "t": ([1e-3, 1.0, 10.0], [0.0, -1.0, "nan", "inf", "1e300"]),
    "jump": ([None], ["5", "inf"]),
}
_SWEEP_FIELDS = {
    "alpha": {
        "start": (["0.1", "0.25"], ["1e-300", "0", "-1", "nan"]),
        "stop": (["0.5", "1"], ["0.1", "2", "inf"]),
        "t": ([0.0, 1e-3, 1.0], [None, -1.0, "nan"]),
    },
    "t": {
        "start": ([0.0, 1e-3, 1.0], [-1.0, "nan", "-inf"]),
        "stop": ([2.0, 10.0], [0.0, "inf", "1e300"]),
        "alpha": (["0.1", "0.5", "1"], [None, "0", "2", "nan"]),
    },
}
_SWEEP_COMMON = {
    "expr": _SOURCES,
    "a": _TERMINALS,
    "steps": (["2", "3"], ["0", "1", "-1", "x"]),
    "op": (["deriv", "integ"], []),
    "method": (["limit", "closed"], []),
    "mode": (["original", "corrected"], []),
}


def _draw_argv(data, command, fields):
    broken = data.draw(st.sampled_from([None] + [k for k, (_, edge) in fields.items() if edge]))
    values = {
        name: data.draw(st.sampled_from(edge if name == broken else good), label=name)
        for name, (good, edge) in fields.items()
    }
    a = values["a"]
    argv = [command]
    for name, value in values.items():
        if isinstance(value, float):
            value = repr(float(a) + value)
        if name == "expr":
            argv += ["--expr", value.replace("{a}", a)]
        elif value is not None:
            # "--a=-2" form: argparse would read a bare "-2" as an option.
            argv.append(f"--{name}={value}")
    return argv


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_integ_exit_code_is_total(data):
    argv = _draw_argv(data, "integ", _INTEG_FIELDS)
    code, err = _quiet_main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err


@settings(max_examples=200, deadline=None)
@given(data=st.data(), var=st.sampled_from(["alpha", "t"]))
def test_sweep_exit_code_is_total(data, var):
    argv = _draw_argv(data, "sweep", {**_SWEEP_COMMON, **_SWEEP_FIELDS[var]}) + [f"--var={var}"]
    code, err = _quiet_main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err


@pytest.mark.parametrize("t", ["inf", "nan"])
@pytest.mark.parametrize(
    "argv",
    [
        ["deriv", "--expr", "sin(t)", "--alpha", "1", "--a", "0"],
        ["deriv", "--expr", "sin(t)", "--alpha", "1", "--a", "0", "--method", "limit"],
        ["integ", "--expr", "sin(t)", "--alpha", "0.5", "--a", "0"],
        ["sweep", "--var", "alpha", "--start", "0.1", "--stop", "1", "--steps", "3",
         "--expr", "sin(t)", "--a", "0"],
    ],
    ids=["deriv", "deriv-limit", "integ", "sweep-alpha"],
)
def test_non_finite_t_is_a_usage_error(capsys, argv, t):
    code, out, err = run(capsys, *argv, f"--t={t}")
    assert code == 1
    assert err == f"error: t must be finite, got {t}\n"
    assert out == ""


@pytest.mark.parametrize("expr", ["1", "t"])
def test_overflowing_span_is_a_usage_error(capsys, expr):
    code, out, err = run(
        capsys, "deriv", "--expr", expr, "--alpha", "0.5", "--a=-1e308", "--t", "1e308"
    )
    assert code == 1
    assert err == "error: t - a must be finite, got inf\n"
    assert out == ""


def test_t_sweep_to_inf_is_a_usage_error(capsys):
    code, out, err = run(
        capsys, "sweep", "--var", "t", "--start", "1", "--stop", "inf", "--steps", "3",
        "--expr", "sin(t)", "--a", "0", "--alpha", "0.5",
    )
    assert code == 1
    assert err == "error: t must be finite, got inf\n"
    assert out == ""


# --------------------------------------------------------------------------
# integ
# --------------------------------------------------------------------------

def test_integ_basic(capsys):
    code, out, _ = run(capsys, "integ", "--expr", "1", "--alpha", "0.5", "--a", "0", "--t", "4")
    assert code == 0
    assert out.startswith("value=4 ")


def test_integ_plain(capsys):
    code, out, _ = run(capsys, "integ", "--expr", "t^2", "--alpha", "1", "--a", "0", "--t", "3")
    assert code == 0
    assert out.startswith("value=9 ")


def test_integ_at_terminal_fails(capsys):
    code, _, err = run(capsys, "integ", "--expr", "1", "--alpha", "0.5", "--a", "0", "--t", "0")
    assert code == 1


def test_integ_convergence_exit(capsys):
    code, out, err = run(
        capsys, "integ", "--expr", "sin(1/(t-0.5))", "--alpha", "0.5", "--a", "0", "--t", "1"
    )
    assert code == 3
    assert out == ""
    assert err == "error: quadrature tolerances not met within 2000 subdivisions\n"


@pytest.mark.parametrize(
    "expr, alpha",
    [
        pytest.param(expr, alpha, id=expr if alpha == "0.5" else f"{expr}-{alpha}")
        for alpha in ("0.5", "0.05", "0.2", "1")
        for expr in ("t^-1", "1/t")
    ]
    + [
        pytest.param(expr, alpha, id=f"{expr}-{alpha}")
        for expr, alpha in (("t^-2", "0.5"), ("t^-2", "1"), ("t^-1.5", "1"))
    ],
)
def test_integ_divergent_exits_three(capsys, expr, alpha):
    # ∫_0^1 s^(alpha-1) * s^-p ds diverges at every order for p >= 1: the
    # integrand overflows at the terminal, within an ulp of the span, or the
    # running sum does
    code, out, err = run(capsys, "integ", "--expr", expr, "--alpha", alpha, "--a", "0", "--t", "1")
    assert code == 3
    assert out == ""
    assert err == "error: quadrature diverged: value or error bound is not finite\n"


@pytest.mark.parametrize(
    "expr, a, alpha",
    [("t^-0.5", "0", alpha) for alpha in ("0.05", "0.2", "0.5")]
    + [("t^-0.9", "0", alpha) for alpha in ("0.1", "0.5", "0.9")]
    + [("(t-1)^-0.5", "1", alpha) for alpha in ("0.2", "0.5")],
)
def test_integ_undefined_at_the_terminal_exits_three(capsys, expr, a, alpha):
    # v^(2/alpha) underflows to d = 0, where the zero base refuses its
    # negative exponent: the quadrature has reached the terminal
    t = str(float(a) + 2.0)
    code, out, err = run(capsys, "integ", "--expr", expr, "--alpha", alpha, "--a", a, "--t", t)
    assert code == 3
    assert out == ""
    assert err == "error: quadrature diverged: value or error bound is not finite\n"


def test_integ_non_integrable_pole_fails(capsys):
    # exp(1/(s-0.5)) overflows right of 0.5; the quadrature must reach it
    # rather than stop on running totals that lost the panels beside the pole.
    code, out, err = run(
        capsys, "integ", "--expr", "exp(1/(t-0.5))", "--alpha", "0.5", "--a", "0", "--t", "1"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: overflow evaluating at t=0.5006")


def test_integ_names_the_point_of_a_pole_right_of_a_non_zero_terminal(capsys):
    # the quadrature evaluates the offset d = t - 1; the message names t
    code, out, err = run(
        capsys, "integ", "--expr", "exp(1/(t-1.5))", "--alpha", "0.5", "--a", "1", "--t", "2"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: overflow evaluating at t=1.5006")


def test_integ_near_a_non_zero_terminal_is_exact(capsys):
    # d^0.5 / 0.5 = 0.06324555...; rebuilding t - 1 from a rounded t printed 0.0632455
    code, out, _ = run(
        capsys, "integ", "--expr", "(t-1)^0.4", "--alpha", "0.1", "--a", "1", "--t", "1.001"
    )
    assert code == 0
    assert out.startswith("value=0.0632456 ")


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

def test_sweep_alpha_three_branches(capsys):
    code, out, _ = run(
        capsys, "sweep", "--var", "alpha", "--start", "0.1", "--stop", "1.0",
        "--steps", "10", "--expr", "(t-1)^0.4", "--a", "1", "--t", "1",
        "--mode", "original",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 10
    below = [r for r in rows if float(r["param"]) < 0.35]
    at = [r for r in rows if abs(float(r["param"]) - 0.4) < 0.01]
    above = [r for r in rows if float(r["param"]) > 0.45]
    assert all(r["status"] == "ok" and abs(float(r["value"])) <= 1e-6 for r in below)
    assert len(at) == 1 and float(at[0]["value"]) == pytest.approx(0.4, abs=1e-6)
    assert all(r["status"] == "dne" and r["value"] == "" for r in above)


def test_sweep_t_constant(capsys):
    code, out, _ = run(
        capsys, "sweep", "--var", "t", "--start", "0", "--stop", "4",
        "--steps", "5", "--expr", "1", "--a", "0", "--alpha", "0.5",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(abs(float(r["value"])) <= 1e-6 for r in rows)


def test_sweep_alpha_interior_monotone(capsys):
    code, out, _ = run(
        capsys, "sweep", "--var", "alpha", "--start", "0.1", "--stop", "1.0",
        "--steps", "10", "--expr", "t", "--a", "0", "--t", "4",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    values = [float(r["value"]) for r in rows]
    for v, row in zip(values, rows):
        assert v == pytest.approx(4.0 ** (1.0 - float(row["param"])), rel=1e-9)
    assert all(b < a for a, b in zip(values, values[1:]))


def test_sweep_csv_round_trip_and_format(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, out, _ = run(
        capsys, "sweep", "--var", "t", "--start", "1", "--stop", "3",
        "--steps", "3", "--expr", "t^2", "--a", "0", "--alpha", "1.0",
        "--out", str(out_file),
    )
    assert code == 0 and out == ""
    raw = out_file.read_bytes()
    assert b"\r" not in raw  # LF line endings only
    text = raw.decode("utf-8")
    assert text.splitlines()[0] == "param,value,err,status"
    rows = list(csv.DictReader(io.StringIO(text)))
    # 17 significant digits: parsing back reproduces the double exactly
    for row in rows:
        t = float(row["param"])
        assert float(row["value"]) == pytest.approx(2.0 * t, abs=1e-9)
        assert float(repr(float(row["value"]))) == float(row["value"])


def test_sweep_integ(capsys):
    code, out, _ = run(
        capsys, "sweep", "--var", "t", "--start", "1", "--stop", "4",
        "--steps", "4", "--expr", "1", "--a", "0", "--alpha", "0.5", "--op", "integ",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    for row in rows:
        t = float(row["param"])
        assert float(row["value"]) == pytest.approx(2.0 * math.sqrt(t), rel=1e-9)


def test_sweep_alpha_endpoints_are_pinned(capsys):
    # start + (stop - start) * 13 / 13 rounds to 1.0000000000000002 here.
    code, out, err = run(
        capsys, "sweep", "--var", "alpha", "--start", "0.1", "--stop", "1.0",
        "--steps", "14", "--expr", "(t-1)^0.4", "--a", "1", "--t", "1",
        "--mode", "original",
    )
    assert code == 0, err
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 14
    assert float(rows[0]["param"]) == 0.1
    assert float(rows[-1]["param"]) == 1.0


def test_sweep_never_writes_a_negative_zero(capsys):
    code, out, _ = run(
        capsys, "sweep", "--var", "alpha", "--start", "0.5", "--stop", "1", "--steps", "2",
        "--expr", "cos(t)", "--a", "0", "--t", "0",
    )
    assert code == 0
    assert out.splitlines() == ["param,value,err,status", "0.5,0,0,ok", "1,0,0,ok"]


def test_sweep_through_a_domain_error_writes_every_row(capsys):
    # ln(t-1) is undefined at t = 0.5 and t = 1; the other four points are fine.
    code, out, err = run(
        capsys, "sweep", "--var", "t", "--start", "0.5", "--stop", "3", "--steps", "6",
        "--expr", "ln(t-1)", "--a", "0", "--alpha", "0.5",
    )
    assert code == 1
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["status"] for r in rows] == ["error", "error", "ok", "ok", "ok", "ok"]
    assert all(r["value"] == r["err"] == "" for r in rows[:2])
    for row in rows[2:]:
        t = float(row["param"])
        assert float(row["value"]) == pytest.approx(t ** 0.5 / (t - 1.0), rel=1e-12)
    assert err.splitlines() == [
        "error: t=0.5: ln of non-positive value -0.5",
        "error: t=1: ln of non-positive value 0.0",
    ]


@pytest.mark.parametrize(
    "args",
    [
        ["--var", "alpha", "--start", "0.0", "--stop", "1.0", "--steps", "5",
         "--expr", "t", "--a", "0", "--t", "1"],  # alpha outside (0,1]
        ["--var", "alpha", "--start", "0.5", "--stop", "1.5", "--steps", "5",
         "--expr", "t", "--a", "0", "--t", "1"],
        ["--var", "t", "--start", "3", "--stop", "1", "--steps", "5",
         "--expr", "t", "--a", "0", "--alpha", "0.5"],  # start >= stop
        ["--var", "t", "--start", "0", "--stop", "1", "--steps", "1",
         "--expr", "t", "--a", "0", "--alpha", "0.5"],  # steps < 2
        ["--var", "t", "--start", "-1", "--stop", "1", "--steps", "5",
         "--expr", "t", "--a", "0", "--alpha", "0.5"],  # below terminal
        ["--var", "alpha", "--start", "0.1", "--stop", "1.0", "--steps", "5",
         "--expr", "t", "--a", "0"],  # missing fixed --t
    ],
)
def test_sweep_invalid_specs(capsys, args):
    code, _, err = run(capsys, "sweep", *args)
    assert code == 1


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def test_verify_matches_and_writes_json(verify_run):
    code, out, payload = verify_run
    assert code == 0
    assert "matches the expected matrix" in out
    doc = json.loads(payload)
    assert set(doc) == {"meta", "outcomes"}
    assert len(doc["outcomes"]) == 20


class _Stub:
    """Stands in for a verification report whose verdict is `matches`."""

    def __init__(self, matches=True):
        self.matches = matches

    def to_json(self):
        return "{}\n"

    def to_text(self):
        return "stub\n"

    def matches_expected(self):
        return self.matches


def test_verify_bad_json_path(capsys, monkeypatch):
    monkeypatch.setattr(cli_mod, "run_all", lambda: _Stub())
    code, _, err = run(capsys, "verify", "--json", "/nonexistent/x.json")
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--mode", "neither"],
        ["verify", "--mode", "corrected"],
        ["verify", "--json"],
        ["verify", "--mode"],
        ["verify", "extra"],
        ["verify", "--bogus"],
        ["verify", "--mode=both", "--mode"],
    ],
)
def test_verify_bad_argv_is_a_usage_error(argv):
    code, err = _quiet_main(argv)
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("matches", [True, False])
@pytest.mark.parametrize("argv", [
    ["verify"],
    ["verify", "--mode", "original"],
    ["verify", "--json", "/nonexistent/x.json"],
])
def test_verify_exit_code_is_total(monkeypatch, argv, matches):
    monkeypatch.setattr(cli_mod, "run_all", lambda: _Stub(matches))
    code, err = _quiet_main(argv)
    assert code in (0, 1, 4)
    assert "Traceback" not in err


def test_verify_mismatch_exits_four(capsys, monkeypatch):
    monkeypatch.setattr(cli_mod, "run_all", lambda: _Stub(False))
    code, out, _ = run(capsys, "verify")
    assert code == 4
