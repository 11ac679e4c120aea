"""Benchmark of ``conformable``: three closed-loop workloads, one thread, one
request in flight, each call into the public API timed from outside with
``perf_counter`` and each output checked against an independent reference.

Usage (from the root of a checkout):

    python3 bench/run.py --workload pointwise|integrals|verify \\
        --seed N --seconds S --trace 0|1

``--trace 0`` runs the named workload in whole rounds until S seconds have
passed and prints the end-to-end metrics.  ``--trace 1`` makes one untraced
and one traced round of every workload (the per-layer metrics span layers no
single workload reaches), prints the per-layer metrics and writes the spans
to ``.bench_out/trace_seed<N>.json``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_PROBES = 20
MAX_REPORTED = 5  # failures and wrong outputs echoed to stderr per run

LAYER_UNITS = {
    "expr.parse_calls": "count",
    "expr.parse_us": "us",
    "expr.eval_calls": "count",
    "expr.eval_us": "us",
    "expr.dual_calls": "count",
    "expr.dual_us": "us",
    "core.closed_us": "us",
    "core.limit_us": "us",
    "core.limit_self_us": "us",
    "core.terminal_original_us": "us",
    "core.terminal_corrected_us": "us",
    "quad.integral_us": "us",
    "quad.panels_smooth": "count",
    "quad.panels_singular": "count",
    "quad.deriv_of_integral_us": "us",
    "quad.deriv_of_integral_evals": "count",
    "quad.integral_of_deriv_us": "us",
    "quad.integral_of_deriv_evals": "count",
    **{
        f"verify.{check}_{mode}_s": "s"
        for check in ("algebra_rules", "order_relation", "inverse_operators",
                      "continuity_implication", "terminal_checklist")
        for mode in ("original", "corrected")
    },
    "verify.report_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_pointwise_pct": "%",
    "trace.overhead_integrals_pct": "%",
    "trace.overhead_verify_pct": "%",
}


class Latencies:
    """Latencies in log-spaced bins 0.1 % wide, with the count and the sum of
    each bin.  Memory stays fixed however many operations a run completes,
    so peak RSS does not grow with throughput."""

    _LOG_WIDTH = math.log1p(1e-3)

    def __init__(self):
        self.bins: dict[int, list] = {}  # bin -> [count, sum]
        self.count = 0
        self.total = 0.0

    def add(self, seconds: float) -> None:
        b = self.bins.setdefault(int(math.log(seconds) // self._LOG_WIDTH), [0, 0.0])
        b[0] += 1
        b[1] += seconds
        self.count += 1
        self.total += seconds

    def merge(self, other: "Latencies") -> None:
        for key, (n, total) in other.bins.items():
            b = self.bins.setdefault(key, [0, 0.0])
            b[0] += n
            b[1] += total
        self.count += other.count
        self.total += other.total

    def percentile_ms(self, q: float) -> float:
        """Nearest-rank percentile: the mean of the bin holding that rank, in ms."""
        rank = max(1, math.ceil(self.count * q / 100))
        seen = 0
        for key in sorted(self.bins):
            n, total = self.bins[key]
            seen += n
            if seen >= rank:
                return total / n * 1e3
        raise ValueError("no latencies recorded")


class Tally:
    """Outcome of some rounds: latencies of completed operations, counts."""

    def __init__(self):
        self.latencies = Latencies()
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.evals_by_kind: Counter = Counter()

    def add(self, other: "Tally") -> None:
        self.latencies.merge(other.latencies)
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong

    @property
    def ops_per_s(self) -> float:
        """Completed operations per second spent inside the program."""
        return self.latencies.count / self.latencies.total


def run_rounds(wl, seconds: float, tracer=None) -> Tally:
    """Whole rounds of ``wl.ops`` until ``seconds`` have passed (at least one)."""
    tally = Tally()
    start = perf_counter()
    while True:
        for op in wl.ops:
            tally.attempted += 1
            e0 = tracer.float_evals if tracer else 0
            t0 = perf_counter()
            try:
                out = wl.call(op)
            except Exception:  # a fault of the program: counted, the run goes on
                tally.failed += 1
                if tally.failed <= MAX_REPORTED:
                    print(f"failed: {op}\n{traceback.format_exc()}", file=sys.stderr)
                continue
            tally.latencies.add(perf_counter() - t0)
            if tracer:
                tally.evals_by_kind[wl.kind(op)] += tracer.float_evals - e0
            if not wl.check(op, out):
                tally.wrong += 1
                if tally.wrong <= MAX_REPORTED:
                    print(f"wrong: {op} -> {out}", file=sys.stderr)
        if perf_counter() - start >= seconds:
            return tally


def setup_times(wl_class, probes: int) -> list[float]:
    """Seconds, in fresh interpreters, to import conformable and build the
    FuncSpecs the workload reuses."""
    args = []
    for src, jump in wl_class.reused_specs():
        args += [src, "" if jump is None else repr(jump)]
    times = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, "-I", str(BENCH_DIR / "setup_probe.py"), str(SRC), *args],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl, seconds: float) -> tuple[Tally, dict]:
    # Half the set-up probes run before the timed phase and half after, so
    # their median does not hang on one moment of the host's speed.
    setups = setup_times(type(wl), SETUP_PROBES // 2)
    if wl.warmup:
        warm = run_rounds(wl, 0.0)  # untimed; its checks still count
    tally = run_rounds(wl, seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setups += setup_times(type(wl), SETUP_PROBES - SETUP_PROBES // 2)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(tally.ops_per_s, "1/s"),
        "lat_p50_ms": metric(tally.latencies.percentile_ms(50), "ms"),
        "lat_p99_ms": metric(tally.latencies.percentile_ms(99), "ms"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
    }
    if wl.warmup:
        tally.wrong += warm.wrong
    return tally, metrics


def traced_pass(seed: int, prog, workloads) -> tuple[Tally, dict, dict]:
    """One untraced and one traced round of every workload."""
    from tracing import Tracer

    total = Tally()
    totals: dict[str, list] = {}
    report: dict = {"seed": seed, "workloads": {}}
    overhead: dict[str, float] = {}
    panels = {"smooth": 0.0, "singular": 0.0}
    for name, wl_class in workloads.items():
        wl = wl_class(seed, prog, OUT_DIR)
        plain = run_rounds(wl, 0.0)
        tracer = Tracer(prog)
        tracer.install()
        try:
            traced = run_rounds(wl, 0.0, tracer)
        finally:
            tracer.uninstall()
        total.add(plain)
        total.add(traced)
        overhead[name] = 100.0 * (1.0 - traced.ops_per_s / plain.ops_per_s)
        for span, rec in tracer.totals().items():
            agg = totals.setdefault(span, [0, 0.0, 0.0, 0])
            for i in range(4):
                agg[i] += rec[i]
        if name == "integrals":  # GK15 calls the integrand 15 times per panel
            for kind in panels:
                panels[kind] = traced.evals_by_kind[kind] / 15.0
        report["workloads"][name] = {
            "ops": len(wl.ops),
            "ops_per_s_untraced": plain.ops_per_s,
            "ops_per_s_traced": traced.ops_per_s,
            "float_evals_by_kind": dict(traced.evals_by_kind),
            "spans": tracer.edges(),
            **wl.make_up(),
        }
    metrics = layer_metrics(totals, panels, overhead)
    report["metrics"] = metrics
    return total, metrics, report


def layer_metrics(totals: dict[str, list], panels: dict, overhead: dict) -> dict:
    def span(name):  # [calls, total s, self s, evaluations inside]
        return totals.get(name, [0, 0.0, 0.0, 0])

    def mean(name, index=1, scale=1e6):
        rec = span(name)
        return rec[index] / rec[0] * scale if rec[0] else 0.0

    mains = span("cli.main")[0]
    per_main_ms = 1e3 / mains if mains else 0.0
    values = {
        "expr.parse_calls": span("expr.parse")[0],
        "expr.parse_us": mean("expr.parse"),
        "expr.eval_calls": span("expr.eval")[0],
        "expr.eval_us": mean("expr.eval"),
        "expr.dual_calls": span("expr.dual")[0],
        "expr.dual_us": mean("expr.dual"),
        "core.closed_us": mean("core.closed"),
        "core.limit_us": mean("core.limit"),
        "core.limit_self_us": mean("core.limit", index=2),
        "core.terminal_original_us": mean("core.terminal_original"),
        "core.terminal_corrected_us": mean("core.terminal_corrected"),
        "quad.integral_us": mean("quad.integral"),
        "quad.panels_smooth": panels["smooth"],
        "quad.panels_singular": panels["singular"],
        "quad.deriv_of_integral_us": mean("quad.deriv_of_integral"),
        "quad.deriv_of_integral_evals": span("quad.deriv_of_integral")[3],
        "quad.integral_of_deriv_us": mean("quad.integral_of_deriv"),
        "quad.integral_of_deriv_evals": span("quad.integral_of_deriv")[3],
        "verify.report_ms": span("verify.report")[1] * per_main_ms,
        "cli.self_ms": (span("cli.main")[1] - span("verify.run_all")[1]) * per_main_ms,
    }
    for check in ("algebra_rules", "order_relation", "inverse_operators",
                  "continuity_implication", "terminal_checklist"):
        for mode in ("original", "corrected"):
            values[f"verify.{check}_{mode}_s"] = mean(f"verify.{check}_{mode}", scale=1.0)
    for name, pct in overhead.items():
        values[f"trace.overhead_{name}_pct"] = pct
    return {name: metric(values.get(name, 0.0), unit) for name, unit in LAYER_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "conformable" / "__init__.py").is_file():
        print(f"error: no conformable sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import conformable

    if Path(conformable.__file__).resolve().parent != SRC / "conformable":
        print(f"error: imported conformable from {conformable.__file__}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    prog = workloads.load_program()

    if args.trace:
        tally, metrics, report = traced_pass(args.seed, prog, workloads.WORKLOADS)
        zeros = [n for n, m in metrics.items() if m["value"] == 0 and not n.startswith("trace.")]
        for name in zeros:
            print(f"trace: {name} reads 0; a layer boundary has moved", file=sys.stderr)
        report["zero_metrics"] = zeros
        path = OUT_DIR / f"trace_seed{args.seed}.json"
        path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    else:
        wl = workloads.WORKLOADS[args.workload](args.seed, prog, OUT_DIR)
        tally, metrics = end_to_end(wl, args.seconds)

    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
