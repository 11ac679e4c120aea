"""Every ```python block of the README runs as written, so an example that
imports or calls a name the package no longer has fails here."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
_BLOCK_RE = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def _blocks():
    text = README.read_text(encoding="utf-8")
    return [
        pytest.param(m.group(1), id=f"line{text.count(chr(10), 0, m.start()) + 1}")
        for m in _BLOCK_RE.finditer(text)
    ]


def test_readme_has_python_blocks():
    assert _blocks()


@pytest.mark.parametrize("source", _blocks())
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})
