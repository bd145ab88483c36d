"""The ``repro faults`` and ``repro gantt --trace-out`` CLI surfaces."""

import json

import pytest

from repro.cli import main
from repro.kernels.weights import KernelKind
from repro.obs.provenance import run_metadata


def test_cli_faults_writes_no_file_by_default(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(
        ["faults", "--scale", "small", "--scenario", "slowdown",
         "--no-engine-check"]
    )
    assert rc == 0
    assert list(tmp_path.iterdir()) == []
    assert "slowdown" in capsys.readouterr().out


def test_cli_faults_writes_report(tmp_path, capsys):
    out = tmp_path / "BENCH_resilience.json"
    rc = main(
        [
            "faults",
            "--scale", "small",
            "--scenario", "crash",
            "--scenario", "slowdown",
            "--no-engine-check",
            "--json", str(out),
        ]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["benchmark"] == "resilience"
    assert set(report["scenarios"]) == {"crash", "slowdown"}
    assert "distributed_kill" not in report
    assert set(report["meta"]) == set(run_metadata())
    captured = capsys.readouterr()
    assert "resilience benchmark" in captured.out
    assert "fault-free makespan" in captured.out


def test_cli_faults_trace_out(tmp_path):
    trace = tmp_path / "faulty.json"
    rc = main(
        [
            "faults",
            "--scale", "small",
            "--scenario", "crash",
            "--no-engine-check",
            "--json", "",
            "--trace-out", str(trace),
        ]
    )
    assert rc == 0
    doc = json.loads(trace.read_text())
    phases = {e["ph"] for e in doc["traceEvents"]}
    assert "X" in phases
    assert "i" in phases  # crash + recovery instants


def test_cli_gantt_trace_out(tmp_path, capsys):
    trace = tmp_path / "gantt.json"
    rc = main(
        ["gantt", "--m", "12", "--n", "4", "--trace-out", str(trace)]
    )
    assert rc == 0
    doc = json.loads(trace.read_text())
    assert any(e["ph"] == "X" for e in doc["traceEvents"])
    captured = capsys.readouterr()
    assert "mean per-core utilization" in captured.out
    assert str(trace) in captured.out


def test_cli_faults_timeline_shows_the_measured_run(tmp_path):
    """The exported timeline is the run the report measured: the last
    task ends at the first crash point's makespan."""
    report, trace = tmp_path / "report.json", tmp_path / "faulty.json"
    rc = main(
        [
            "faults",
            "--scale", "small",
            "--scenario", "crash",
            "--no-engine-check",
            "--json", str(report),
            "--trace-out", str(trace),
        ]
    )
    assert rc == 0
    doc = json.loads(trace.read_text())
    kernels = {k.name for k in KernelKind}
    end = max(
        e["ts"] + e["dur"]
        for e in doc["traceEvents"]
        if e["ph"] == "X" and e["name"] in kernels
    )
    point = json.loads(report.read_text())["scenarios"]["crash"]["points"][0]
    assert end / 1e6 == pytest.approx(point["makespan"], rel=1e-12)
