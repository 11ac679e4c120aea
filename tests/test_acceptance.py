"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The frozen TRUNCATION_ORACLE table comes from tests/gen_truncation_oracle.py
(high-precision tanh-sinh quadrature of the raw kernel on truncated ranges,
eps anchored at 1e-12, independent of the package's quadrature route).
"""

import json
import math
from pathlib import Path

import pytest

from conformable import (
    FuncSpec,
    TerminalMode,
    deriv_at_terminal,
    deriv_closed_form,
    deriv_limit,
    deriv_of_integral,
    evaluate,
    evaluate_body,
    evaluate_dual,
    integral,
    integral_of_deriv,
)
from conformable.cli import main

F = FuncSpec.from_source
GOLDEN_REPORT = Path(__file__).parent / "data" / "verify_report.json"
GOLDEN_TABLE = Path(__file__).parent / "data" / "verify_table.txt"
ORIGINAL = TerminalMode.ORIGINAL
CORRECTED = TerminalMode.CORRECTED

ALPHAS_10 = [round(0.1 * k, 1) for k in range(1, 11)]
TERMINALS = (0.0, 1.0, -2.0)


def _smooth_registry(a):
    s = f"(t-({a!r}))"
    return [
        ("one", F("1")),
        ("identity", F("t")),
        ("square", F("t^2")),
        ("sine", F("sin(t)")),
        ("cosine", F("cos(t)")),
        ("exponential", F("exp(t)")),
        ("log_shift", F(f"ln(1+{s})")),
        ("power_04", F(f"{s}^0.4")),
        ("power_05", F(f"{s}^0.5/0.5")),
    ]


def _report(n, failures, detail):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {n}: {status} - {detail}")
    for item in failures[:8]:
        print(f"  witness: {item}")
    assert not failures


# -- 1: closed-form agreement --------------------------------------------

def test_acceptance_1_closed_form_agreement():
    failures = []
    worst = 0.0
    for a in TERMINALS:
        for name, f in _smooth_registry(a):
            for alpha in ALPHAS_10:
                for off in (1e-3, 0.1, 1.0, 4.0, 10.0):
                    t = a + off
                    lm = deriv_limit(f, alpha, a, t)
                    _, deriv = evaluate_dual(f, t)
                    closed = math.exp((1.0 - alpha) * math.log(t - a)) * deriv
                    if not lm.exists:
                        failures.append((name, a, alpha, off, "limit DNE", lm.reason))
                        continue
                    err = abs(lm.value - closed)
                    worst = max(worst, err)
                    if err > 1e-6:
                        failures.append((name, a, alpha, off, "route gap", err))
            # dual derivative against central finite differences
            for off in (1e-3, 0.1, 1.0, 4.0, 10.0):
                t = a + off
                h = 1e-6
                fd = (evaluate_body(f, t + h) - evaluate_body(f, t - h)) / (2.0 * h)
                _, dd = evaluate_dual(f, t)
                if abs(dd - fd) > 1e-5 * max(1.0, abs(dd)):
                    failures.append((name, a, off, "dual vs FD", abs(dd - fd)))
    _report(1, failures, f"limit vs closed form <= 1e-6 (worst {worst:.3e}), dual vs FD <= 1e-5 rel")


# -- 2: order conversion --------------------------------------------------

def test_acceptance_2_order_conversion():
    failures = []
    worst = 0.0
    for a in TERMINALS:
        for name, f in _smooth_registry(a):
            for off in (1e-3, 0.1, 1.0, 4.0, 10.0):
                t = a + off
                normalized = [
                    (t - a) ** (alpha - 1.0) * deriv_closed_form(f, alpha, a, t).value
                    for alpha in ALPHAS_10
                ]
                ref = normalized[-1]  # alpha = 1: exactly f'(t)
                for alpha, v in zip(ALPHAS_10, normalized):
                    rel = abs(v - ref) / max(1.0, abs(ref))
                    worst = max(worst, rel)
                    if rel > 1e-9:
                        failures.append((name, a, alpha, off, rel))
    _report(2, failures, f"normalized derivative alpha-invariant to 1e-9 rel (worst {worst:.3e})")


# -- 3: quadrature oracle --------------------------------------------------

# Generated by tests/gen_truncation_oracle.py (mpmath, dps=30).
TRUNCATION_ORACLE = {
    (0.1, 0.001): 5.0118723362727229,
    (0.1, 1.0): 10.0,
    (0.1, 10.0): 12.589254117941672,
    (0.2, 0.001): 1.2559432157547901,
    (0.2, 1.0): 5.0,
    (0.2, 10.0): 7.9244659623055674,
    (0.3, 0.001): 0.41964180393138907,
    (0.3, 1.0): 3.3333333333333333,
    (0.3, 10.0): 6.6508743832295987,
    (0.4, 0.001): 0.15773933612004831,
    (0.4, 1.0): 2.5,
    (0.4, 10.0): 6.2797160787739503,
    (0.5, 0.001): 0.063245553203367587,
    (0.5, 1.0): 2.0,
    (0.5, 10.0): 6.3245553203367587,
    (0.6, 0.001): 0.026414886541018558,
    (0.6, 1.0): 1.6666666666666667,
    (0.6, 10.0): 6.6351195092249542,
    (0.7, 0.001): 0.011347546210346879,
    (0.7, 1.0): 1.4285714285714286,
    (0.7, 10.0): 7.1598176232467469,
    (0.8, 0.001): 0.0049763396319187156,
    (0.8, 1.0): 1.25,
    (0.8, 10.0): 7.8869668060024156,
    (0.9, 0.001): 0.0022169581277431996,
    (0.9, 1.0): 1.1111111111111111,
    (0.9, 10.0): 8.8258692747142389,
    (1.0, 0.001): 0.001,
    (1.0, 1.0): 1.0,
    (1.0, 10.0): 10.0,
}


def test_acceptance_3_quadrature_oracle():
    failures = []
    one = F("1")
    worst_cf = worst_tr = 0.0
    for alpha in ALPHAS_10:
        for span in (1e-3, 1.0, 10.0):
            for a in (0.0, 1.0):
                r = integral(one, alpha, a, a + span)
                closed = math.exp(alpha * math.log(span)) / alpha
                rel = abs(r.value - closed) / abs(closed)
                worst_cf = max(worst_cf, rel)
                if rel > 1e-10:
                    failures.append((alpha, span, a, "antiderivative", rel))
            oracle = TRUNCATION_ORACLE[(alpha, span)]
            r = integral(one, alpha, 0.0, span)
            gap = abs(r.value - oracle) / max(1.0, abs(oracle))
            worst_tr = max(worst_tr, gap)
            if gap > 1e-8:
                failures.append((alpha, span, "truncation oracle", gap))
    _report(3, failures,
            f"antiderivative <= 1e-10 rel (worst {worst_cf:.3e}); "
            f"truncation oracle <= 1e-8 (worst {worst_tr:.3e})")


# -- 4: inverse laws -------------------------------------------------------

def test_acceptance_4_inverse_laws():
    failures = []
    worst_left = worst_right = 0.0
    for a in (0.0, -2.0):
        entries = _smooth_registry(a) + [
            ("abs_shift", F(f"abs(t-({a + 1.0!r}))")),
            ("jump_identity", F("t", jump_at_terminal=5.0)),
        ]
        for alpha in (0.25, 0.5, 0.9, 1.0):
            for off in (0.1, 1.0, 4.0):
                t = a + off
                for name, f in entries:
                    if name == "abs_shift" and abs(off - 1.0) < 0.25:
                        continue
                    if name != "jump_identity":  # left inverse asks continuity
                        r = deriv_of_integral(f, alpha, a, t)
                        if not r.exists:
                            failures.append((name, a, alpha, off, "T(I f) DNE"))
                        else:
                            err = abs(r.value - evaluate(f, t, a))
                            worst_left = max(worst_left, err)
                            if err > 1e-6:
                                failures.append((name, a, alpha, off, "left", err))
                    if name == "abs_shift":
                        continue  # not differentiable throughout (a, t]
                    r = integral_of_deriv(f, alpha, a, t)
                    right_limit = evaluate_body(f, a)
                    err = abs(r.value - (evaluate(f, t, a) - right_limit))
                    worst_right = max(worst_right, err)
                    if err > 1e-6:
                        failures.append((name, a, alpha, off, "right", err))
                    if name != "jump_identity":  # right-continuous: f(a) form holds
                        err = abs(r.value - (evaluate(f, t, a) - evaluate(f, a, a)))
                        if err > 1e-6:
                            failures.append((name, a, alpha, off, "right f(a)", err))
    _report(4, failures,
            f"T(I f)=f to 1e-6 (worst {worst_left:.3e}); "
            f"I(T f)=f(t)-f(a+) to 1e-6 (worst {worst_right:.3e})")


# -- 5: jump counterexample ------------------------------------------------

def test_acceptance_5_jump_counterexample():
    failures = []
    a = 0.0
    decorated = F("t", jump_at_terminal=5.0)
    plain = F("t")
    for alpha in ALPHAS_10:
        for off in (1e-3, 0.1, 1.0, 4.0):
            t = a + off
            if deriv_closed_form(decorated, alpha, a, t) != deriv_closed_form(plain, alpha, a, t):
                failures.append((alpha, off, "closed form differs"))
            if deriv_limit(decorated, alpha, a, t) != deriv_limit(plain, alpha, a, t):
                failures.append((alpha, off, "limit route differs"))
        rd = deriv_at_terminal(decorated, alpha, a, ORIGINAL)
        rp = deriv_at_terminal(plain, alpha, a, ORIGINAL)
        if rd != rp:
            failures.append((alpha, "terminal differs"))
    for alpha in (0.25, 0.5, 0.9):
        t = 2.0
        r = integral_of_deriv(decorated, alpha, a, t)
        naive = evaluate(decorated, t, a) - evaluate(decorated, a, a)
        gap = r.value - naive
        if abs(gap - 5.0) > 1e-9:
            failures.append((alpha, "I(T g) - (g(t)-g(a))", gap))
    _report(5, failures, "decorated derivatives bit-identical; I(T g) misses g(t)-g(a) by exactly the jump")


# -- 6: terminal case split -------------------------------------------------

def test_acceptance_6_terminal_case_split():
    failures = []
    f = F("(t-1)^0.4")
    for beta in ALPHAS_10:
        r = deriv_at_terminal(f, beta, 1.0, ORIGINAL)
        if beta in (0.1, 0.2, 0.3):
            if not (r.exists and abs(r.value) <= 1e-6):
                failures.append((beta, "expected value 0", r))
        elif beta == 0.4:
            if not (r.exists and abs(r.value - 0.4) <= 1e-6):
                failures.append((beta, "expected value 0.4", r))
        else:
            if r.exists:
                failures.append((beta, "expected does-not-exist", r.value))
    _report(6, failures, "orders below 0.4 give 0, order 0.4 gives 0.4, higher orders do not exist")


# -- 7 & 8: verification harness --------------------------------------------

@pytest.fixture(scope="module")
def verify_json(verify_run):
    code, _, payload = verify_run
    return code, payload


def test_acceptance_7_checklist_matrix(verify_json, capsys):
    code, payload = verify_json
    failures = []
    if code != 0:
        failures.append(("exit code", code))
    doc = json.loads(payload)
    statuses = {(o["check_id"], o["mode"]): o["status"] for o in doc["outcomes"]}
    checklist = (
        "naturalness",
        "depends_on_terminal_value",
        "existence_uniform_in_order",
        "existence_matches_first_derivative",
        "order_one_matches_first_derivative",
        "order_conversion_at_terminal",
    )
    for mode, expected in (("original", "fail"), ("corrected", "pass")):
        if statuses[("naturalness", mode)] != "skipped":
            failures.append((mode, "naturalness", statuses[("naturalness", mode)]))
        for check in checklist[1:]:
            if statuses[(check, mode)] != expected:
                failures.append((mode, check, statuses[(check, mode)]))
    _report(7, failures, "verify exits 0; original fails items 2-6, corrected passes items 2-6")


def test_acceptance_8_determinism(verify_json, tmp_path):
    code, first = verify_json
    path = tmp_path / "again.json"
    code2 = main(["verify", "--json", str(path)])
    failures = []
    if code != 0 or code2 != 0:
        failures.append(("exit codes", code, code2))
    if path.read_bytes() != first:
        failures.append(("reports differ",))
    _report(8, failures, "two consecutive verify --json runs are byte-identical")


def test_verify_report_matches_golden(verify_json):
    """Refactors keep every number: the report is byte-identical to the
    committed one."""
    code, payload = verify_json
    assert code == 0
    assert payload == GOLDEN_REPORT.read_bytes()


def test_verify_table_matches_golden(verify_run):
    """The table `conformable verify` prints is byte-identical to the
    committed one."""
    code, out, _ = verify_run
    assert code == 0
    assert out.encode("utf-8") == GOLDEN_TABLE.read_bytes()
