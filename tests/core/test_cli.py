"""CLI smoke tests."""

import pytest

from repro.cli import main


class TestFactor:
    def test_runs_and_reports_checks(self, capsys):
        rc = main(["factor", "--M", "48", "--N", "24", "--b", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "orthogonality" in out
        assert "e-1" in out  # some tiny error magnitude printed

    def test_threads_flag(self, capsys):
        assert main(["factor", "--M", "32", "--N", "16", "--b", "8",
                     "--threads", "2"]) == 0


class TestSimulate:
    def test_reports_gflops(self, capsys):
        rc = main(["simulate", "--m", "32", "--n", "8", "--p", "4", "--q", "2",
                   "--nodes", "8", "--cores", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gflops" in out
        assert "% of peak" in out

    def test_no_domino_flag(self, capsys):
        rc = main(["simulate", "--m", "16", "--n", "4", "--no-domino",
                   "--nodes", "4", "--cores", "2", "--p", "2", "--q", "2"])
        assert rc == 0
        assert "no-domino" in capsys.readouterr().out


class TestTables:
    def test_prints_all_four(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        for t in ("Table I", "Table II", "Table III", "Table IV"):
            assert t in out


class TestLevels:
    def test_prints_views(self, capsys):
        assert main(["levels", "--m", "12", "--n", "4", "--p", "2"]) == 0
        out = capsys.readouterr().out
        assert "global view" in out
        assert "cluster 1" in out


class TestCompare:
    def test_four_algorithms(self, capsys):
        assert main(["compare", "--m", "32", "--n", "8"]) == 0
        out = capsys.readouterr().out
        for name in ("HQR", "[BBD+10]", "[SLHD10]", "Scalapack"):
            assert name in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["bogus"])


class TestScopedEnv:
    """The one env save/set/restore helper behind --scale."""

    def test_restores_on_raise(self, monkeypatch):
        import os

        from repro.cli import _scoped_env

        monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
        monkeypatch.delenv("REPRO_SIM_THREADS", raising=False)
        with pytest.raises(RuntimeError):
            with _scoped_env(
                REPRO_BENCH_SCALE="large", REPRO_SIM_THREADS="2"
            ):
                assert os.environ["REPRO_BENCH_SCALE"] == "large"
                assert os.environ["REPRO_SIM_THREADS"] == "2"
                raise RuntimeError("boom")
        # a raise inside the body must not leak the overrides: the set
        # variable is restored, the unset one is deleted (not blanked)
        assert os.environ["REPRO_BENCH_SCALE"] == "tiny"
        assert "REPRO_SIM_THREADS" not in os.environ

    def test_none_requests_no_override(self, monkeypatch):
        import os

        from repro.cli import _scoped_env

        monkeypatch.setenv("REPRO_SIM_THREADS", "3")
        with _scoped_env(REPRO_SIM_THREADS=None, REPRO_BENCH_SCALE=None):
            assert os.environ["REPRO_SIM_THREADS"] == "3"
            assert "REPRO_BENCH_SCALE" not in os.environ
        assert os.environ["REPRO_SIM_THREADS"] == "3"
        assert "REPRO_BENCH_SCALE" not in os.environ
