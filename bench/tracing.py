"""Spans and counts at the layer boundaries of ``conformable``.

`Tracer.install` replaces the names each module imports from the layer
below (for example ``conformable.quad.evaluate_body`` or
``conformable.verify.deriv_of_integral``) with wrappers that time each call
and record the span that caused it; `Tracer.uninstall` puts the originals
back.  Spans stay in memory, aggregated per (name, parent): calls, total
time, self time (total minus child spans) and the expression evaluations
made inside.
"""

from __future__ import annotations

from time import perf_counter


class Tracer:
    def __init__(self, prog):
        self.prog = prog
        self.stats: dict[tuple[str, str | None], list] = {}
        self.stack: list[list] = []  # [name, child time] per open span
        self.evals = 0  # float and dual expression evaluations so far
        self.float_evals = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name, counter=None):
        stats, stack = self.stats, self.stack

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            parent = stack[-1][0] if stack else None
            frame = [label, 0.0]
            stack.append(frame)
            if counter is not None:
                counter(self)
            ev0 = self.evals
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = stats.get((label, parent))
                if rec is None:
                    rec = stats[(label, parent)] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                rec[3] += self.evals - ev0

        return wrapper

    def _patch(self, owner, attr, name, counter=None):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, counter))

    def install(self) -> None:
        p = self.prog
        core, quad, verify, cli, expr = p.core, p.quad, p.verify, p.cli, p.expr
        mode_of = _mode_namer(core.TerminalMode)

        # expr: parsing and evaluation, where the layers above call them.
        for owner in (expr, verify):
            self._patch(owner, "parse", "expr.parse")
        for owner, attr in ((core, "evaluate"), (quad, "evaluate_body"),
                            (verify, "evaluate"), (verify, "evaluate_body")):
            self._patch(owner, attr, "expr.eval", _count_float)
        self._patch(core, "evaluate_dual", "expr.dual", _count_dual)

        # core: the derivative routes, where quad, verify, cli and core call them.
        def limit_name(args, kwargs):
            # On a FuncSpec this is the limit route; on a point function it is
            # the outer limit of quad.deriv_of_integral.
            return "core.limit" if isinstance(args[0], expr.FuncSpec) else "core.limit_of_quad"

        def terminal_name(args, kwargs):
            return "core.terminal_" + mode_of(args[3] if len(args) > 3 else kwargs["mode"])

        for owner in (core, quad, verify, cli):
            self._patch(owner, "deriv_closed_form", "core.closed")
            self._patch(owner, "deriv_limit", limit_name)
        for owner in (core, verify, cli):
            self._patch(owner, "deriv_at_terminal", terminal_name)

        # quad: the integral and the compositions.
        for owner in (quad, cli):
            self._patch(owner, "integral", "quad.integral")
        self._patch(verify, "deriv_of_integral", "quad.deriv_of_integral")
        self._patch(verify, "integral_of_deriv", "quad.integral_of_deriv")

        # verify: the checks per mode, the run and the report.
        for attr, check in (
            ("check_algebra_rules", "algebra_rules"),
            ("check_order_relation", "order_relation"),
            ("check_inverses", "inverse_operators"),
            ("check_continuity_implication", "continuity_implication"),
            ("check_terminal_checklist", "terminal_checklist"),
        ):
            self._patch(verify, attr, _check_namer(check, mode_of))
        self._patch(cli, "run_all", "verify.run_all")
        for attr in ("to_json", "to_text"):
            self._patch(verify.VerificationReport, attr, "verify.report")

        # cli: the entry point.
        self._patch(cli, "main", "cli.main")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """Per span name: [calls, total s, self s, evaluations inside]."""
        out: dict[str, list] = {}
        for (name, _), rec in self.stats.items():
            agg = out.setdefault(name, [0, 0.0, 0.0, 0])
            for i in range(4):
                agg[i] += rec[i]
        return out

    def edges(self) -> list[dict]:
        return [
            {"span": name, "parent": parent, "calls": r[0], "total_s": r[1],
             "self_s": r[2], "evals": r[3]}
            for (name, parent), r in sorted(self.stats.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))
        ]


def _count_float(tracer: Tracer) -> None:
    tracer.evals += 1
    tracer.float_evals += 1


def _count_dual(tracer: Tracer) -> None:
    tracer.evals += 1


def _mode_namer(terminal_mode):
    def mode_of(mode) -> str:
        return "original" if mode is terminal_mode.ORIGINAL else "corrected"
    return mode_of


def _check_namer(check: str, mode_of):
    def name(args, kwargs):
        return f"verify.{check}_{mode_of(args[0] if args else kwargs['mode'])}"
    return name
