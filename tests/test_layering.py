"""The modules of the package share only public names."""

import ast
from pathlib import Path

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
