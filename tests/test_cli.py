import contextlib
import csv
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from conformable.cli import main
from conformable.expr import MAX_DEPTH
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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue()


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
    code, _, err = run(
        capsys, "integ", "--expr", "exp(t)*sin(t)+t^0.5", "--alpha", "0.3",
        "--a", "0", "--t", "9", "--abs-tol", "1e-14", "--rel-tol", "1e-14",
        "--max-subdivisions", "1",
    )
    assert code == 3


@pytest.mark.parametrize("expr", ["t^-1", "1/t"])
def test_integ_divergent_exits_three(capsys, expr):
    # ∫_0^1 s^-0.5 * s^-1 ds diverges: the running sum overflows to inf
    code, out, err = run(capsys, "integ", "--expr", expr, "--alpha", "0.5", "--a", "0", "--t", "1")
    assert code == 3
    assert out == ""
    assert err == "error: quadrature diverged: value or error bound is not finite\n"


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

def test_verify_matches_and_writes_json(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--json", str(path))
    assert code == 0
    assert "matches the expected matrix" in out
    doc = json.loads(path.read_text())
    assert set(doc) == {"meta", "outcomes"}
    assert len(doc["outcomes"]) == 20


def test_verify_mode_filter(capsys):
    code, out, _ = run(capsys, "verify", "--mode", "corrected")
    assert code == 0
    assert "corrected" in out and "original" not in out


def test_verify_bad_json_path(capsys):
    code, _, err = run(capsys, "verify", "--mode", "corrected", "--json", "/nonexistent/x.json")
    assert code == 1


def test_verify_mismatch_exits_four(capsys, monkeypatch):
    import conformable.cli as cli_mod

    class _Stub:
        def to_text(self):
            return "stub\n"

        def matches_expected(self):
            return False

    monkeypatch.setattr(cli_mod, "run_all", lambda modes: _Stub())
    code, out, _ = run(capsys, "verify", "--mode", "corrected")
    assert code == 4
