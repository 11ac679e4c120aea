import contextlib
import io

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(scope="session")
def verify_run(tmp_path_factory):
    """One ``conformable verify --json`` run, shared by the tests that only
    read it: (exit code, stdout text, JSON report bytes)."""
    from conformable.cli import main

    path = tmp_path_factory.mktemp("verify") / "report.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--json", str(path)])
    return code, out.getvalue(), path.read_bytes()
