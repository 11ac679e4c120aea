import json
from collections import Counter

import pytest

import conformable.expr as expr
import conformable.verify as verify
from conformable import EvalResult, TerminalMode
from conformable.verify import (
    CHECK_IDS,
    CHECKLIST_IDS,
    EXPECTED_STATUS,
    REGISTRY,
    check_algebra_rules,
    check_continuity_implication,
    check_inverses,
    check_order_relation,
    check_terminal_checklist,
    registry_for,
    run_all,
)

ORIGINAL = TerminalMode.ORIGINAL
CORRECTED = TerminalMode.CORRECTED


@pytest.fixture(scope="module")
def report(default_report):
    return default_report


def test_registry_instantiation():
    funcs = registry_for(-2.0)
    assert set(funcs) == {e.key for e in REGISTRY}
    assert len(funcs) == 11


def test_report_structure(report):
    # every check appears exactly once per mode: 4 identity checks + 6 checklist
    assert len(report.outcomes) == 2 * len(CHECK_IDS)
    seen = {(o.check_id, o.mode) for o in report.outcomes}
    assert len(seen) == len(report.outcomes)
    for check in CHECK_IDS:
        for mode in (ORIGINAL, CORRECTED):
            assert (check, mode) in seen


def test_outcome_matrix_matches_expectation(report):
    for o in report.outcomes:
        assert o.status == EXPECTED_STATUS[(o.check_id, o.mode)], (
            o.check_id,
            o.mode,
            o.status,
            o.witnesses[:3],
        )
    assert report.matches_expected()


def test_checklist_summary_per_mode(report):
    for mode, expected in ((ORIGINAL, "fail"), (CORRECTED, "pass")):
        statuses = {
            o.check_id: o.status
            for o in report.outcomes
            if o.mode is mode and o.check_id in CHECKLIST_IDS
        }
        assert statuses["naturalness"] == "skipped"
        for check in CHECKLIST_IDS[1:]:
            assert statuses[check] == expected


def test_failures_carry_witnesses(report):
    for o in report.outcomes:
        if o.status == "fail":
            assert o.witnesses, (o.check_id, o.mode)


def test_passes_record_worst_residual_below_tolerance(report):
    for o in report.outcomes:
        if o.status != "pass":
            continue
        assert o.worst_residual is not None and o.worst_residual >= 0.0
        for w in o.witnesses:
            if w.tolerance is not None and isinstance(w.measured, float):
                assert abs(w.measured - w.expected) <= w.tolerance


def test_skip_reason_present(report):
    for o in report.outcomes:
        if o.status == "skipped":
            assert o.reason


def test_mode_differences_point_at_the_terminal(report):
    # Interior behaviour is mode-independent; any status split between the
    # modes must be witnessed at t = a.
    by_key = {(o.check_id, o.mode): o for o in report.outcomes}
    terminals = set(report.config["terminals"])
    for check in CHECK_IDS:
        orig = by_key[(check, ORIGINAL)]
        corr = by_key[(check, CORRECTED)]
        if orig.status != corr.status:
            failing = orig if orig.status == "fail" else corr
            assert failing.witnesses
            assert all(w.t in terminals for w in failing.witnesses)


def test_continuity_check_witnesses_the_jump():
    outcome = check_continuity_implication(ORIGINAL)
    assert outcome.status == "fail"
    assert outcome.witnesses
    assert all(w.function == "jump_identity" for w in outcome.witnesses)


def test_checklist_ids_and_order():
    outcomes = check_terminal_checklist(CORRECTED)
    assert [o.check_id for o in outcomes] == list(CHECKLIST_IDS)


def test_report_determinism(default_report):
    assert run_all().to_json() == default_report.to_json()


def test_a_run_compiles_each_combined_rule_body_once(monkeypatch):
    # After one run the parse memo holds every registry body with its code,
    # so a second run compiles only what it builds: the six binary rules'
    # combined bodies, shared by all terminals and both modes, on each of
    # the two paths (building them per check call compiled 54).
    run_all()
    lowered = Counter()
    lower = expr._lower

    def counting(body, pair):
        lowered[(body, pair)] += 1
        return lower(body, pair)

    monkeypatch.setattr(expr, "_lower", counting)
    run_all()
    assert sum(lowered.values()) == 12
    assert set(lowered.values()) == {1}


def test_report_json_schema(report):
    doc = json.loads(report.to_json())
    assert set(doc) == {"meta", "outcomes"}
    assert doc["meta"]["registry_hash"] == report.registry_hash
    assert "config" in doc["meta"]
    for entry in doc["outcomes"]:
        assert {"check_id", "mode", "status", "witnesses"} <= set(entry)
        assert entry["mode"] in ("original", "corrected")
        assert entry["status"] in ("pass", "fail", "skipped")
        for w in entry["witnesses"]:
            assert set(w) == {
                "function", "alpha", "beta", "t", "measured", "expected", "tolerance",
            }


def test_report_text_summary(report):
    text = report.to_text()
    for check in CHECK_IDS:
        assert check in text
    assert "matches the expected matrix" in text


def test_each_operator_result_is_computed_once_per_run(monkeypatch):
    # One terminal, one composition order and one offset: every check still
    # runs, on a grid small enough to run several times.
    monkeypatch.setattr(verify, "TERMINALS", (0.0,))
    monkeypatch.setattr(verify, "COMPOSITION_ALPHAS", (0.5,))
    monkeypatch.setattr(verify, "COMPOSITION_OFFSETS", (1.0,))
    counts = Counter()
    for name in ("deriv_of_integral", "integral_of_deriv", "deriv_limit"):
        def counted(*args, _op=getattr(verify, name), _name=name, **kwargs):
            counts[(_name, *args)] += 1
            return _op(*args, **kwargs)

        monkeypatch.setattr(verify, name, counted)
    both = run_all()
    # The checks of both modes read one table: no call repeats its arguments.
    assert set(counts.values()) == {1}
    assert {key[0] for key in counts} == {"deriv_of_integral", "integral_of_deriv", "deriv_limit"}
    # A check called alone builds its own table and judges the same values.
    expected = {(o.check_id, o.mode): o for o in both.outcomes}
    for mode in (ORIGINAL, CORRECTED):
        alone = [
            check(mode)
            for check in (
                check_algebra_rules, check_order_relation,
                check_inverses, check_continuity_implication,
            )
        ] + check_terminal_checklist(mode)
        assert alone == [expected[(o.check_id, mode)] for o in alone]
        assert [o.check_id for o in alone] == list(CHECK_IDS)


def test_left_inverse_is_judged_at_the_kink(monkeypatch):
    # T(I abs_shift) at t - a = 1, on the kink, is computed and passes: one
    # row per terminal and composition order.
    rows = []

    def recorded(f, alpha, a, t, _op=verify.deriv_of_integral):
        if f == registry_for(a)["abs_shift"] and t - a == 1.0:
            rows.append((alpha, a))
        return _op(f, alpha, a, t)

    monkeypatch.setattr(verify, "deriv_of_integral", recorded)
    assert check_inverses(CORRECTED).status == "pass"
    assert sorted(rows) == sorted(
        (alpha, a) for alpha in verify.COMPOSITION_ALPHAS for a in verify.TERMINALS
    )


def _small_grid(monkeypatch):
    monkeypatch.setattr(verify, "TERMINALS", (0.0,))
    monkeypatch.setattr(verify, "COMPOSITION_ALPHAS", (0.5,))
    monkeypatch.setattr(verify, "COMPOSITION_OFFSETS", (1.0,))


def test_a_wrong_operator_value_fails_its_check(monkeypatch):
    _small_grid(monkeypatch)
    assert check_inverses(CORRECTED).status == "pass"

    def off_by_1e_3(*args, _op=verify.integral_of_deriv):
        r = _op(*args)
        return EvalResult.of(r.value + 1e-3, r.err_estimate) if r.exists else r

    monkeypatch.setattr(verify, "integral_of_deriv", off_by_1e_3)
    outcome = check_inverses(CORRECTED)
    assert outcome.status == "fail"
    assert outcome.witnesses
    for w in outcome.witnesses:
        assert w.function.startswith("I(T ") and w.tolerance is not None
        assert abs(w.measured - w.expected) > w.tolerance


def test_a_missing_right_limit_fails_the_continuity_check(monkeypatch):
    assert check_continuity_implication(CORRECTED).status == "pass"
    monkeypatch.setattr(verify, "right_limit", lambda g: (None, 0.0, "no limit"))
    outcome = check_continuity_implication(CORRECTED)
    assert outcome.status == "fail"
    assert outcome.witnesses
    for w in outcome.witnesses:
        assert w.measured.endswith("; right oscillation no finite right limit")
        assert w.expected == "differentiability implies right continuity"
