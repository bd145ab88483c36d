"""Bench-regression gate: metadata stamping, cross-machine refusal, and
the acceptance criterion — the gate fails on a synthetically slowed
``BENCH_simulator.json``."""

import json
from pathlib import Path

import pytest

from repro.obs.regression import (
    compare_reports,
    format_gate,
    gate_files,
    machine_mismatches,
    run_metadata,
)

BASELINE = Path(__file__).parents[2] / "benchmarks/results/BENCH_simulator.json"


def fresh_report(**overrides) -> dict:
    report = {
        "micro": {"compiled_s": 0.010, "reference_s": 0.100},
        "sweep_wall_s": 1.0,
        "meta": run_metadata(),
    }
    report.update(overrides)
    return report


class TestRunMetadata:
    def test_fields(self):
        meta = run_metadata()
        assert meta["python"].count(".") == 2
        assert meta["cpu_count"] >= 1
        assert meta["platform"]
        assert "T" in meta["timestamp"]  # ISO 8601

    def test_git_sha_present_in_repo(self):
        meta = run_metadata()
        assert meta["git_sha"] is None or len(meta["git_sha"]) == 40


class TestMachineMismatch:
    def test_same_machine_matches(self):
        a, b = fresh_report(), fresh_report()
        assert machine_mismatches(a, b) == []

    def test_unstamped_reports_are_comparable(self):
        assert machine_mismatches({"micro": {}}, fresh_report()) is None

    def test_different_cpu_count_detected(self):
        a, b = fresh_report(), fresh_report()
        b["meta"]["cpu_count"] = (a["meta"]["cpu_count"] or 0) + 64
        assert any("cpu_count" in m for m in machine_mismatches(a, b))

    def test_python_patch_release_ignored(self):
        a, b = fresh_report(), fresh_report()
        maj, minr, pat = a["meta"]["python"].split(".")
        b["meta"]["python"] = f"{maj}.{minr}.{int(pat) + 5}"
        assert machine_mismatches(a, b) == []


class TestCompareReports:
    def test_identical_passes(self):
        r = fresh_report()
        out = compare_reports(r, r)
        assert out["ok"] and out["comparable"]
        assert len(out["checked"]) == 3
        assert format_gate(out).endswith("PASS")

    def test_regression_fails(self):
        base = fresh_report()
        cur = fresh_report()
        cur["micro"]["compiled_s"] = base["micro"]["compiled_s"] * 3
        out = compare_reports(cur, base)
        assert not out["ok"]
        assert out["regressions"][0]["metric"] == "micro.compiled_s"
        assert format_gate(out).endswith("FAIL")

    def test_speedup_passes(self):
        base = fresh_report()
        cur = fresh_report()
        cur["micro"]["compiled_s"] = base["micro"]["compiled_s"] / 10
        assert compare_reports(cur, base)["ok"]

    def test_cross_machine_refused_then_allowed(self):
        base = fresh_report()
        cur = fresh_report()
        base["meta"]["platform"] = "Windows-ME-i386"
        out = compare_reports(cur, base)
        assert not out["ok"] and not out["comparable"]
        assert "REFUSED" in format_gate(out)
        out = compare_reports(cur, base, allow_cross_machine=True)
        assert out["ok"]  # wall times equal, so only the refusal blocked

    def test_missing_metrics_skipped(self):
        out = compare_reports({"meta": run_metadata()}, fresh_report())
        assert out["ok"] and out["checked"] == []

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError):
            compare_reports(fresh_report(), fresh_report(), max_ratio=0)


class TestGateOnCommittedBaseline:
    """The ISSUE acceptance criterion: synthetically slowing the
    committed ``BENCH_simulator.json`` must trip the gate."""

    @pytest.fixture()
    def baseline(self):
        if not BASELINE.exists():
            pytest.skip("no committed BENCH_simulator.json")
        return json.loads(BASELINE.read_text())

    def test_slowed_current_fails_gate(self, baseline, tmp_path):
        slowed = json.loads(json.dumps(baseline))
        slowed["micro"]["compiled_s"] = (
            float(baseline["micro"]["compiled_s"]) * 5
        )
        cur = tmp_path / "BENCH_current.json"
        cur.write_text(json.dumps(slowed))
        base = tmp_path / "BENCH_baseline.json"
        base.write_text(json.dumps(baseline))
        out = gate_files(cur, base, allow_cross_machine=True)
        assert not out["ok"]
        assert any(
            r["metric"] == "micro.compiled_s" for r in out["regressions"]
        )

    def test_baseline_passes_against_itself(self, baseline, tmp_path):
        """Same numbers, as committed and in the one-sweep shape ``repro
        bench`` writes now: a key absent on one side is skipped, not failed."""
        base = tmp_path / "BENCH.json"
        base.write_text(json.dumps(baseline))
        cur = tmp_path / "BENCH_current.json"
        for dropped in ((), ("batched", "sweep_batched_wall_s")):
            cur.write_text(json.dumps(
                {k: v for k, v in baseline.items() if k not in dropped}
            ))
            out = gate_files(cur, base)
            assert out["ok"]  # same machine stamp, every ratio 1
            assert [c["metric"] for c in out["checked"]] == [
                "micro.compiled_s", "micro.reference_s", "sweep_wall_s"
            ]
