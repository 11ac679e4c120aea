"""The modules of the package share only public names, and the public
operators and the harness take no setting beyond their pinned parameters."""

import ast
import inspect
from pathlib import Path

from conformable import core, expr, quad, verify

SRC = Path(__file__).resolve().parents[1] / "src" / "conformable"


def test_no_private_name_is_imported_across_modules():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    offenders = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


def test_no_module_imports_dataclasses():
    # The cold-start test sees only `import conformable`; this covers every
    # module, the lazily imported harness included.
    paths = sorted(SRC.glob("*.py"))
    assert paths
    offenders = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}: {n}" for n in names if n.split(".")[0] == "dataclasses"]
    assert offenders == []


def test_no_assert_statement_in_the_package():
    # `python -O` strips assert statements, so none may guard input.
    paths = sorted(SRC.glob("*.py"))
    assert paths
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


# The parameters of every public operator: a new option shows up here as an edit.
SIGNATURES = {
    core.deriv_closed_form: ("f", "alpha", "a", "t"),
    core.deriv_limit: ("f", "alpha", "a", "t"),
    quad.integral: ("f", "alpha", "a", "t"),
    quad.deriv_of_integral: ("f", "alpha", "a", "t"),
    quad.integral_of_deriv: ("f", "alpha", "a", "t"),
    core.deriv_at_terminal: ("f", "alpha", "a", "mode"),
    core.right_limit: ("g",),
    expr.evaluate: ("f", "t", "a"),
    expr.evaluate_body: ("f", "t"),
    expr.evaluate_dual: ("f", "t"),
    verify.run_all: (),
    verify.check_algebra_rules: ("mode", "results"),
    verify.check_order_relation: ("mode", "results"),
    verify.check_inverses: ("mode", "results"),
    verify.check_continuity_implication: ("mode", "results"),
    verify.check_terminal_checklist: ("mode", "results"),
}


def test_public_operators_take_only_their_inputs():
    for fn, names in SIGNATURES.items():
        assert tuple(inspect.signature(fn).parameters) == names, fn.__name__
    # The harness grid and the quadrature settings are fixed: module
    # constants, not settings records.
    assert not hasattr(verify, "HarnessConfig")
    assert not hasattr(quad, "QuadConfig")
