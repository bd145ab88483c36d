"""CLI surface: ``repro --version`` and the ``serve`` command."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.split()[1][0].isdigit()  # looks like a version number

    def test_version_matches_package(self, capsys):
        import repro

        with pytest.raises(SystemExit):
            main(["--version"])
        assert repro.__version__ in capsys.readouterr().out

    def test_import_resolves_no_version(self):
        """Reading ``__version__`` (and building the CLI's parser, which
        carries it) loads no package metadata: the version is a literal."""
        script = (
            "import sys, repro, repro.cli\n"
            "repro.cli.build_parser()\n"
            "print(repro.__version__)\n"
            "assert 'importlib.metadata' not in sys.modules\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == _pyproject_version()

    def test_version_is_the_pyproject_version(self):
        import repro

        assert repro.__version__ == _pyproject_version()
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            repro.nope

    def test_healthz_reports_the_package_version(self):
        import repro
        from _serve_testlib import TENANTS, tiny_setup
        from repro.serve.client import ServeClient
        from repro.serve.server import PlanningDaemon
        from repro.serve.service import PlannerService

        daemon = PlanningDaemon(PlannerService(tiny_setup()), TENANTS, port=0)
        daemon.start()
        try:
            with ServeClient(port=daemon.port) as client:
                assert client.health()["version"] == repro.__version__
        finally:
            daemon.shutdown()


def _pyproject_version() -> str:
    """``pyproject.toml``'s ``version``, read with a regex (3.10 has no
    ``tomllib``)."""
    text = (Path(__file__).resolve().parents[2] / "pyproject.toml").read_text()
    found = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert found, "pyproject.toml states no version"
    return found.group(1)


class TestServeDaemonCLI:
    def test_duration_bounded_daemon(self, capsys):
        rc = main(
            ["serve", "--port", "0", "--duration", "0.3",
             "--tenants", "solo:1:4"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "repro serve on http://127.0.0.1:" in out
        assert "solo" in out
        assert "drained=True" in out

    def test_bench_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--bench"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bench" in capsys.readouterr().err
