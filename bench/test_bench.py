"""Tests of the benchmark itself: its inputs, references, checkers and runs.

Run from the root of the repository with ``python -m pytest bench -q``.
"""

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import references as ref  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402


class Result:
    """Stand-in for an EvalResult."""

    def __init__(self, value):
        self.value = value

    @property
    def exists(self):
        return self.value is not None


@pytest.fixture(scope="module")
def prog():
    return W.load_program()


def test_same_seed_same_operations():
    assert W.pointwise_requests(7) == W.pointwise_requests(7)
    assert W.integral_cases(7) == W.integral_cases(7)
    assert W.pointwise_requests(7) != W.pointwise_requests(8)
    assert W.integral_cases(7) != W.integral_cases(8)


def test_derivative_checker_rejects_nudged_and_flipped():
    for op in W.pointwise_requests(3, n=480):
        exp = op.expected
        if exp.value is None:
            assert ref.check_derivative(Result(None), exp)
            assert not ref.check_derivative(Result(0.0), exp)
            continue
        assert ref.check_derivative(Result(exp.value + 0.5 * exp.tol), exp)
        assert not ref.check_derivative(Result(exp.value + 2.0 * exp.tol), exp)
        assert not ref.check_derivative(Result(exp.value - 2.0 * exp.tol), exp)
        assert not ref.check_derivative(Result(None), exp)


def test_integral_checker_rejects_nudged_and_flipped():
    for case in W.integral_cases(3):
        tol = ref.quad_tolerance(case.ref)
        assert ref.check_integral(Result(case.ref + 0.5 * tol), case.ref)
        assert not ref.check_integral(Result(case.ref + 2.0 * tol), case.ref)
        assert not ref.check_integral(Result(case.ref - 2.0 * tol), case.ref)
        assert not ref.check_integral(Result(None), case.ref)


def test_verify_checker_rejects_exit_code_matrix_and_bytes():
    good = dict(ref.EXPECTED_MATRIX)
    assert ref.check_verify(0, b"x", None, good)
    assert ref.check_verify(0, b"x", b"x", good)
    assert not ref.check_verify(4, b"x", None, good)
    assert not ref.check_verify(0, b"x", b"y", good)
    flipped = dict(good)
    flipped[("continuity_implication", "original")] = "pass"
    assert not ref.check_verify(0, b"x", None, flipped)


def test_integral_references_agree_with_mpmath_on_substituted_integrand():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    funcs = {
        "1": lambda s, a: mpmath.mpf(1),
        "t^2": lambda s, a: s * s,
        "exp(t)": lambda s, a: mpmath.exp(s),
        "sin(t)": lambda s, a: mpmath.sin(s),
        "(t-({a}))^0.4": lambda s, a: (s - a) ** mpmath.mpf(0.4),
        "(t-({a}))^0.5/0.5": lambda s, a: (s - a) ** mpmath.mpf(0.5) / mpmath.mpf(0.5),
    }
    for integrand, alpha, a, span in (
        ("exp(t)", 0.1, 1.0, 10.0),
        ("exp(t)", 0.7, -2.0, 1e-3),
        ("sin(t)", 0.3, -2.0, 10.0),
        ("sin(t)", 1.0, 1.0, 0.1),
        ("t^2", 0.5, -2.0, 3.0),
        ("1", 0.2, 0.0, 10.0),
        ("(t-({a}))^0.4", 0.9, 1.0, 4.0),
        ("(t-({a}))^0.5/0.5", 0.25, 0.0, 0.01),
    ):
        al, av = mpmath.mpf(alpha), mpmath.mpf(a)
        f = funcs[integrand]
        # u = (s-a)^alpha: ∫_0^(d^alpha) f(a + u^(1/alpha)) / alpha du, no kernel singularity.
        upper = mpmath.mpf(span) ** al
        value = mpmath.quad(lambda u: f(av + u ** (1 / al), av) / al, [0, upper])
        expected = ref.integral_reference(integrand, alpha, a, a + span)
        assert abs(expected - float(value)) <= 1e-12 * abs(float(value)), integrand


def test_composite_derivatives_agree_with_finite_differences():
    rng = random.Random(11)
    for _ in range(200):
        tree = W.random_composite(rng, 1, allow_power=True)
        a = rng.choice(W.TERMINALS)
        t = a + rng.choice((0.1, 1.0, 4.0))
        h = 1e-6
        fd = (tree.eval(t + h, a)[0] - tree.eval(t - h, a)[0]) / (2 * h)
        d = tree.eval(t, a)[1]
        assert abs(d - fd) <= 1e-5 * max(1.0, abs(d)), tree.text(a)


def test_registry_mirror_matches_verify_registry(prog):
    registry = {e.key: e for e in prog.verify.REGISTRY}
    for key, leaf in ref.LEAVES.items():
        assert registry[key].template == leaf.template
        assert registry[key].kink_offset == leaf.kink
    assert registry["jump_identity"].jump == ref.JUMP


def test_composite_sources_parse_to_the_same_function(prog):
    rng = random.Random(5)
    for _ in range(100):
        tree = W.random_composite(rng, 1, allow_power=True)
        a = rng.choice(W.TERMINALS)
        t = a + 0.5
        spec = prog.expr.FuncSpec.from_source(tree.text(a))
        assert prog.expr.evaluate_body(spec, t) == pytest.approx(tree.eval(t, a)[0], rel=1e-12)


@pytest.mark.parametrize("name", ["pointwise", "integrals", "verify"])
def test_each_workload_finishes_a_short_run_without_failures(prog, tmp_path, name):
    wl = W.WORKLOADS[name](1, prog, tmp_path)
    tally = run.run_rounds(wl, 0.0)
    assert tally.attempted == len(wl.ops)
    assert (tally.failed, tally.wrong) == (0, 0)


def test_traced_counts_repeat_exactly(prog, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    subset = {n: W.WORKLOADS[n] for n in ("pointwise", "integrals")}
    counts = []
    for _ in range(2):
        tally, metrics, _ = run.traced_pass(2, prog, subset)
        assert (tally.failed, tally.wrong) == (0, 0)
        counts.append({n: m["value"] for n, m in metrics.items() if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["quad.panels_smooth"] > 0 and counts[0]["quad.panels_singular"] > 0


def test_result_line_has_its_four_keys_and_every_metric(capsys):
    assert run.main(["--workload", "integrals", "--seed", "1", "--seconds", "0"]) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {"setup_s", "ops_per_s", "lat_p50_ms", "lat_p99_ms", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in line["metrics"].values())
