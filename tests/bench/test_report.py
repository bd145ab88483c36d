"""The benchmark report over the generated result files."""

import pytest


class TestReport:
    def test_report_over_generated_results(self, tmp_path):
        from repro.bench.report import ARTIFACTS, build_report

        (tmp_path / "table1.txt").write_text("Row killer step\n1 0 1\n")
        report = build_report(tmp_path)
        assert "# Benchmark report" in report
        assert "Table I" in report
        assert "Not yet generated" in report  # everything else missing

    def test_report_empty_dir(self, tmp_path):
        from repro.bench.report import build_report

        report = build_report(tmp_path)
        assert "Not yet generated" in report

    def test_report_on_repo_results_if_present(self):
        import pathlib

        from repro.bench.report import build_report

        results = pathlib.Path(__file__).parents[2] / "benchmarks" / "results"
        if not results.exists():
            pytest.skip("no benchmark results generated yet")
        report = build_report(results)
        assert "Figure 8" in report
