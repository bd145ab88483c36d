"""SVG trace export."""

import pytest

from repro.dag.compiled import compiled_from_eliminations
from repro.hqr import HQRConfig, hqr_elimination_list
from repro.runtime import Machine
from repro.runtime.core import run_core
from repro.tiles.layout import BlockCyclic2D
from repro.viz.svg import trace_to_svg


@pytest.fixture(scope="module")
def traced():
    m, n = 10, 5
    machine = Machine.edel()
    g = compiled_from_eliminations(
        hqr_elimination_list(m, n, HQRConfig(p=2, a=2)), m, n,
        BlockCyclic2D(2, 2), machine, 40,
    )
    return g, run_core(g, machine, 40, record_trace=True).result


class TestSvg:
    def test_document_structure(self, traced):
        g, res = traced
        svg = trace_to_svg(res.trace, g)
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<rect") >= len(g)  # one rect per task + legend

    def test_one_lane_per_node(self, traced):
        g, res = traced
        svg = trace_to_svg(res.trace, g)
        for node in range(4):
            assert f">n{node}</text>" in svg

    def test_tooltips_carry_task_repr(self, traced):
        g, res = traced
        svg = trace_to_svg(res.trace, g)
        assert "<title>GEQRT(" in svg

    def test_all_kernel_colors_in_legend(self, traced):
        g, res = traced
        svg = trace_to_svg(res.trace, g)
        for kind in ("GEQRT", "TSQRT", "TTQRT", "TSMQR", "TTMQR", "UNMQR"):
            assert kind in svg

    def test_empty_trace(self, traced):
        g, _ = traced
        assert "<svg" in trace_to_svg([], g)

    def test_save(self, traced, tmp_path):
        g, res = traced
        path = tmp_path / "trace.svg"
        path.write_text(trace_to_svg(res.trace, g))
        assert path.read_text().startswith("<svg")


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
