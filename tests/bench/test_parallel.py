"""Pipeline benchmark and the bench CLI."""

import json

import pytest

from repro.bench.runner import BenchSetup
from repro.obs.provenance import run_metadata
from repro.runtime.machine import Machine


def small_setup():
    return BenchSetup(
        b=40, grid_p=4, grid_q=2, machine=Machine(nodes=8, cores_per_node=4)
    )


def test_bench_report_smoke(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "small")
    from repro.bench.perf import bench_report, format_report

    setup = small_setup()
    report = bench_report(setup=setup)
    assert report["scale"] == "small"
    stages = report["stages"]
    assert set(stages) == {"reference", "compiled"}
    for st in stages.values():
        assert st["total_s"] == pytest.approx(
            st["elim_s"] + st["build_s"] + st["sim_s"]
        )
    assert report["speedup_total"] > 0
    assert report["sweep_wall_s"] > 0
    assert "mismatches" not in report  # both engines agree on every point
    assert "cached parallel sweep" in format_report(report)


def test_format_mismatches():
    from repro.bench.perf import format_mismatches

    assert format_mismatches({"n_points": 3}) is None
    report = {
        "n_points": 3,
        "mismatches": [
            {
                "m": 24,
                "n": 16,
                "config": "HQR(...)",
                "reference_makespan": 1.0,
                "compiled_makespan": 1.1,
            }
        ],
    }
    text = format_mismatches(report)
    assert "ENGINE MISMATCH" in text
    assert "m=  24" in text


def test_cli_bench_exits_nonzero_on_engine_mismatch(monkeypatch, capsys):
    """The satellite contract: engine disagreement is a hard CLI failure
    with a printed diff, not a buried report field."""
    import repro.cli as cli

    bad_report = {
        "benchmark": "simulator-pipeline",
        "scale": "small",
        "native_core": False,
        "n_points": 1,
        "stages": {},
        "sweep_wall_s": 0.0,
        "mismatches": [
            {"m": 64, "n": 8, "config": "cfg", "reference_makespan": 1.0,
             "compiled_makespan": 2.0}
        ],
    }
    monkeypatch.setattr(
        "repro.bench.perf.bench_report", lambda **kw: bad_report
    )
    rc = cli.main(["bench", "--scale", "small"])
    assert rc == 1
    assert "ENGINE MISMATCH" in capsys.readouterr().err


def test_cli_bench_smoke(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "BENCH_test.json"
    rc = main(
        [
            "bench",
            "--scale",
            "small",
            "--skip-reference",
            "--json",
            str(out),
        ]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["benchmark"] == "simulator-pipeline"
    assert "compiled" in report["stages"]
    assert "reference" not in report["stages"]
    meta = report["meta"]
    assert set(meta) == set(run_metadata())
    assert meta["python"] and meta["platform"] and meta["timestamp"]
    captured = capsys.readouterr()
    assert "simulator pipeline benchmark" in captured.out


@pytest.mark.parametrize("command", ["bench", "tune"])
def test_cli_sweeps_take_no_workers_option(command, capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as info:
        main([command, "--workers", "2"])
    assert info.value.code == 2
    assert "--workers" in capsys.readouterr().err
