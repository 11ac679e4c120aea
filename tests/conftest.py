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
def default_report():
    """One ``run_all()`` over both modes, shared by the tests that only read
    the default report."""
    from conformable.verify import run_all

    return run_all()


@pytest.fixture(scope="session")
def verify_run(tmp_path_factory, default_report):
    """One ``conformable verify --json`` run on the shared default report:
    (exit code, stdout text, JSON report bytes)."""
    from conformable import cli

    path = tmp_path_factory.mktemp("verify") / "report.json"
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(cli, "run_all", lambda: default_report)
        code = cli.main(["verify", "--json", str(path)])
    return code, out.getvalue(), path.read_bytes()
