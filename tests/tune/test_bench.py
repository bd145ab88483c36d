"""The tune-vs-exhaustive benchmark: parity on an enumerable subspace."""

import json

import pytest

from repro.bench import BenchSetup
from repro.obs.provenance import run_metadata
from repro.tune.bench import (
    SUBSPACE_A_VALUES,
    SUBSPACE_AXES,
    enumerate_subspace,
    format_report,
    tune_bench,
    write_report,
)


def test_enumerate_subspace_covers_the_announced_grid():
    setup = BenchSetup()
    space = enumerate_subspace(setup)
    # trees x trees x domino x a — every combination exactly once
    assert len(space) == 4 * 4 * 2 * len(SUBSPACE_A_VALUES)
    assert len(set(space)) == len(space)
    for cfg in space:
        assert (cfg.p, cfg.q) == (setup.grid_p, setup.grid_q)
        assert 1 <= cfg.a <= max(SUBSPACE_A_VALUES)
    assert set(SUBSPACE_AXES) <= {"low_tree", "high_tree", "domino", "a"}


def test_bench_report_parity_and_eval_budget(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "small")
    report = tune_bench(str(tmp_path))

    assert report["scale"] == "small"
    assert report["space_size"] == 256
    # the tentpole guarantee: the annealer finds the exhaustive optimum
    # in at most a tenth of the simulations
    assert report["parity"], (
        report["tune"]["best_makespan"],
        report["exhaustive"]["best_makespan"],
    )
    assert report["tune"]["evaluations"] * 10 <= report["space_size"]
    assert report["eval_ratio"] <= 0.1
    assert report["ok"]
    assert set(report["meta"]) == set(run_metadata())

    # round trip through the report writer
    path = tmp_path / "BENCH_tune.json"
    write_report(report, path)
    assert json.loads(path.read_text(encoding="utf-8")) == report

    text = format_report(report)
    assert "parity" in text and "OK" in text


def test_bench_is_seed_reproducible(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "small")
    r1 = tune_bench(str(tmp_path / "a"))
    r2 = tune_bench(str(tmp_path / "b"))
    assert r1["tune"]["best_makespan"] == r2["tune"]["best_makespan"]
    assert r1["tune"]["best"] == r2["tune"]["best"]
    assert r1["tune"]["evaluations"] == r2["tune"]["evaluations"]
    assert r1["tune"]["proposals"] == r2["tune"]["proposals"]


@pytest.mark.slow
def test_bench_holds_at_default_scale(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "default")
    report = tune_bench(str(tmp_path))
    assert report["ok"]
