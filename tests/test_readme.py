"""Every ```python block of the README runs as written, so an example that
imports or calls a name the package no longer has fails here.  Every
``conformable`` command of a ```sh block whose next line is a comment
showing its result prints that result."""

import re
import shlex
from pathlib import Path

import pytest

from conformable import cli

README = Path(__file__).resolve().parents[1] / "README.md"
_BLOCK_RE = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)
_SH_BLOCK_RE = re.compile(r"^```sh\n(.*?)^```$", re.MULTILINE | re.DOTALL)
# A result comment: what the command prints first, then, after two or more
# spaces, an optional remark that may end in the exit code.
_RESULT_RE = re.compile(r"# ((?:value=|does-not-exist|error:).*)")
_EXIT_RE = re.compile(r"\(exit (\d+)\)$")


def _blocks():
    text = README.read_text(encoding="utf-8")
    return [
        pytest.param(m.group(1), id=f"line{text.count(chr(10), 0, m.start()) + 1}")
        for m in _BLOCK_RE.finditer(text)
    ]


def _cli_examples():
    """(argv, first output line, exit code) of each CLI result the README shows."""
    examples = []
    for block in _SH_BLOCK_RE.findall(README.read_text(encoding="utf-8")):
        lines = block.replace("\\\n", "").splitlines()  # join continuations
        for command, comment in zip(lines, lines[1:]):
            shown = _RESULT_RE.fullmatch(comment.strip())
            if command.startswith("conformable ") and shown:
                first_line = re.split(r" {2,}", shown.group(1))[0]
                exit_code = _EXIT_RE.search(shown.group(1))
                examples.append(pytest.param(
                    shlex.split(command)[1:], first_line,
                    int(exit_code.group(1)) if exit_code else 0, id=first_line,
                ))
    return examples


def test_readme_has_python_blocks():
    assert _blocks()


@pytest.mark.parametrize("source", _blocks())
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_readme_has_cli_examples():
    assert len(_cli_examples()) >= 4


@pytest.mark.parametrize("argv, first_line, exit_code", _cli_examples())
def test_readme_cli_example_prints_its_result(argv, first_line, exit_code, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (captured.out + captured.err).splitlines()[0] == first_line
    assert code == exit_code
