"""Importing the package loads the operators, not the verification harness.

Each import runs in a fresh isolated interpreter, which reports the modules
the import added to those the interpreter had already loaded, or the size of
a code memo.  Only module sets and memo sizes are compared, never times, so
the tests are deterministic.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import {module}
print(" ".join(sorted(set(sys.modules) - before)))
"""


def _modules_added_by(module: str) -> set[str]:
    done = subprocess.run(
        [sys.executable, "-I", "-c", _PROBE.format(module=module), str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return set(done.stdout.split())


def test_package_import_leaves_out_the_harness_and_dataclasses():
    added = _modules_added_by("conformable")
    assert "conformable.core" in added  # the import ran in the probe
    heavy = {"dataclasses", "inspect", "json", "hashlib", "argparse", "conformable.verify"}
    assert added & heavy == set()


def test_cli_import_leaves_out_the_harness():
    added = _modules_added_by("conformable.cli")
    assert "conformable.cli" in added
    assert added & {"json", "hashlib", "conformable.verify"} == set()


_HASH_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import conformable.verify
from conformable import *
print(" ".join(sorted(sys.modules)))
conformable.verify._registry_hash()
print(" ".join(sorted(sys.modules)))
"""


def test_hashlib_loads_only_when_a_report_is_hashed():
    # hashlib maps OpenSSL's libcrypto, so the harness imports it late.
    done = subprocess.run(
        [sys.executable, "-I", "-c", _HASH_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    imported, hashed = (set(line.split()) for line in done.stdout.splitlines())
    assert "conformable.verify" in imported
    assert imported & {"hashlib", "_hashlib"} == set()
    assert {"hashlib", "_hashlib"} <= hashed


_TABLEAU_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import conformable
from conformable import core
print(core._tableau.cache_info().currsize)
conformable.deriv_limit(conformable.FuncSpec.from_source("sin(t)"), 0.5, 0.0, 1.0)
print(core._tableau.cache_info().currsize)
"""


def test_tableau_code_is_made_on_first_use_only():
    done = subprocess.run(
        [sys.executable, "-I", "-c", _TABLEAU_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout.split() == ["0", "1"]


def test_harness_names_resolve_through_the_package():
    import conformable
    from conformable import verify

    assert conformable.run_all is verify.run_all
    assert conformable.VerificationReport is verify.VerificationReport
    assert conformable.verify is verify
    namespace = {}
    exec("from conformable import *", namespace)
    assert namespace["run_all"] is verify.run_all
    assert namespace["VerificationReport"] is verify.VerificationReport
    assert set(conformable.__all__) <= set(namespace)
