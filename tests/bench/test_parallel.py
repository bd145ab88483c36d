"""Parallel sweep engine, pipeline benchmark, and the bench CLI."""

import json

import pytest

from repro.bench.parallel import default_workers, parallel_map
from repro.bench.runner import BenchSetup, run_config_sweep
from repro.hqr.config import HQRConfig
from repro.obs.provenance import run_metadata
from repro.runtime.machine import Machine


def _square(x):
    return x * x


def test_parallel_map_serial_order():
    assert parallel_map(_square, [3, 1, 2], workers=1) == [9, 1, 4]


def test_parallel_map_pool_preserves_order():
    items = list(range(20))
    assert parallel_map(_square, items, workers=2) == [x * x for x in items]


def test_parallel_map_accepts_generators():
    assert parallel_map(_square, (x for x in (2, 3)), workers=1) == [4, 9]


_PARENT_PID_ENV = "REPRO_TEST_PARALLEL_PARENT"


def _die_in_worker(x):
    # kill only pool workers: the parent (serial fallback) computes fine
    import os as _os

    if _os.getpid() != int(_os.environ.get(_PARENT_PID_ENV, "-1")):
        _os._exit(13)
    return x * x


def test_worker_crash_falls_back_serially(monkeypatch):
    """Regression: a worker dying mid-map raises BrokenProcessPool (a
    RuntimeError, not OSError), which used to escape ``parallel_map`` and
    abort whole sweeps instead of degrading to the serial path."""
    import os

    monkeypatch.setenv(_PARENT_PID_ENV, str(os.getpid()))
    assert parallel_map(_die_in_worker, [1, 2, 3], workers=2) == [1, 4, 9]


def test_fallback_is_logged(monkeypatch, caplog):
    """The serial fallback must be loud: a sweep silently losing its
    parallelism was the old behavior."""
    import logging
    import os

    monkeypatch.setenv(_PARENT_PID_ENV, str(os.getpid()))
    with caplog.at_level(logging.WARNING, logger="repro.bench.parallel"):
        parallel_map(_die_in_worker, [1, 2, 3], workers=2)
    assert any("process pool failed" in r.message for r in caplog.records)


def _fail_on_two(x):
    if x == 2:
        raise RuntimeError("boom")
    return x


def test_dropped_point_named_before_raise(caplog):
    import logging

    with caplog.at_level(logging.ERROR, logger="repro.bench.parallel"):
        with pytest.raises(RuntimeError):
            parallel_map(_fail_on_two, [1, 2, 3], workers=1)
    assert any(
        "sweep point 2/3 dropped" in r.message for r in caplog.records
    )


def _slow_or_fast(x):
    import time as _t

    _t.sleep(0.6 if x == 0 else 0.0)
    return x


def test_slow_point_flagged(caplog):
    import logging

    with caplog.at_level(logging.WARNING, logger="repro.bench.parallel"):
        parallel_map(_slow_or_fast, [0, 1, 2, 3, 4], workers=1)
    assert any(
        "slow sweep point 0" in r.message for r in caplog.records
    )


def test_point_timings_feed_self_profile():
    from repro.obs.profile import profiling

    with profiling() as sp:
        parallel_map(_square, [1, 2, 3], workers=1)
    assert sp.stages["sweep_point"][1] == 3


def test_default_workers_env(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_WORKERS", "3")
    assert default_workers() == 3
    monkeypatch.setenv("REPRO_BENCH_WORKERS", "0")
    assert default_workers() == 1
    monkeypatch.setenv("REPRO_BENCH_WORKERS", "many")
    with pytest.raises(ValueError):
        default_workers()


def small_setup():
    return BenchSetup(
        b=40, grid_p=4, grid_q=2, machine=Machine(nodes=8, cores_per_node=4)
    )


def test_run_config_sweep_matches_serial():
    setup = small_setup()
    cfgs = [
        HQRConfig(p=4, q=2, a=a, high_tree=high)
        for a in (1, 2)
        for high in ("flat", "greedy")
    ]
    points = [(12, 4, cfg) for cfg in cfgs]
    serial = run_config_sweep(points, setup, workers=1)
    pooled = run_config_sweep(points, setup, workers=2)
    assert [r.makespan for r in serial] == [r.makespan for r in pooled]
    assert [r.messages for r in serial] == [r.messages for r in pooled]


def test_bench_report_smoke(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "small")
    from repro.bench.perf import bench_report, format_report

    setup = small_setup()
    report = bench_report(workers=1, setup=setup)
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
            "--workers",
            "1",
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
