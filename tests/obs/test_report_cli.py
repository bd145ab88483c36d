"""HTML report rendering and the metrics/profile/obs CLI commands."""

import json

from repro.cli import main
from repro.obs.report import build_html, write_html


class TestBuildHtml:
    def test_minimal(self):
        html = build_html({"makespan (s)": "1.0"}, {})
        assert html.startswith("<!doctype html>")
        assert "makespan (s)" in html
        assert "(no utilization samples)" not in html  # timeline omitted

    def test_escapes_values(self):
        html = build_html({"config": "<script>alert(1)</script>"}, {})
        assert "<script>alert" not in html

    def test_sections_render(self):
        metrics = {
            "repro_kernel_seconds_total": {
                "samples": [
                    {"labels": {"kind": "GEQRT"}, "value": 1.25},
                ]
            },
            "repro_messages_total": {
                "samples": [
                    {"labels": {"src": "0", "dst": "1"}, "value": 10},
                ]
            },
            "repro_comm_bytes_total": {"samples": []},
        }
        html = build_html({}, metrics, [(0.0, 3), (1.0, 0)])
        assert "Time by kernel" in html
        assert "GEQRT" in html
        assert "Busiest links" in html
        assert "<svg" in html


class TestMetricsCommand:
    def test_prom_to_stdout(self, capsys):
        rc = main(["metrics", "--m", "12", "--n", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro_makespan_seconds" in out
        assert "repro_level_seconds_total" in out

    def test_writes_files(self, tmp_path, capsys):
        jp, pp = tmp_path / "m.json", tmp_path / "m.prom"
        rc = main(
            ["metrics", "--m", "12", "--n", "4",
             "--json", str(jp), "--prom", str(pp)]
        )
        assert rc == 0
        doc = json.loads(jp.read_text())
        assert "repro_kernel_seconds_total" in doc
        assert doc["repro_critical_path_slack_seconds"]["samples"]
        assert "# TYPE repro_tasks_total counter" in pp.read_text()

    def test_makespan_gauges_are_the_runs(self, tmp_path, monkeypatch, capsys):
        """The exported makespan is the simulated one, and the slack is
        that makespan minus the exported critical path."""
        from repro.runtime import core

        real, runs = core.run_core, []

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            runs.append(out.result)
            return out

        monkeypatch.setattr(core, "run_core", spy)
        jp = tmp_path / "m.json"
        assert main(["metrics", "--m", "16", "--n", "4", "--json", str(jp)]) == 0
        (res,) = runs
        assert f"makespan {res.makespan:.4f}s" in capsys.readouterr().out

        def gauge(name):
            (sample,) = json.loads(jp.read_text())[name]["samples"]
            return sample["value"]

        makespan = gauge("repro_makespan_seconds")
        assert makespan == res.makespan > 0
        slack = gauge("repro_critical_path_slack_seconds")
        assert slack == makespan - gauge("repro_critical_path_seconds")


class TestProfileCommand:
    def test_runs_and_writes_json(self, tmp_path, capsys):
        jp = tmp_path / "prof.json"
        rc = main(
            ["profile", "--m", "16", "--n", "4", "--points", "2",
             "--no-cprofile", "--json", str(jp)]
        )
        assert rc == 0
        assert "harness self-profile" in capsys.readouterr().out
        doc = json.loads(jp.read_text())
        assert "stages" in doc


class TestObsReportCommand:
    def test_writes_html(self, tmp_path, capsys):
        out = tmp_path / "report.html"
        rc = main(
            ["obs", "report", "--m", "12", "--n", "4", "--out", str(out)]
        )
        assert rc == 0
        html = out.read_text()
        assert "Time by kernel" in html
        assert "busy cores" in html


class TestGanttTraceTracks:
    def test_trace_out_has_network_and_counters(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = main(
            ["gantt", "--m", "12", "--n", "4", "--trace-out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"X", "M", "s", "f", "C"} <= phases
        assert any(
            e["ph"] == "M" and e["args"].get("name") == "network"
            for e in doc["traceEvents"]
        )
