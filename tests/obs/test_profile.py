"""Harness self-profiling: stage timers and the profile_run report."""

import pytest

from repro.obs.profile import (
    SelfProfile,
    active_profile,
    format_profile,
    profile_run,
    profiling,
    stage,
)


class TestStageTimers:
    def test_inactive_stage_is_noop(self):
        assert active_profile() is None
        with stage("anything"):
            pass  # must not raise, must not record anywhere

    def test_stages_accumulate(self):
        with profiling() as sp:
            with stage("a"):
                pass
            with stage("a"):
                pass
            with stage("b"):
                pass
        assert sp.stages["a"][1] == 2
        assert sp.stages["b"][1] == 1
        assert sp.seconds("a") >= 0.0
        assert sp.seconds("missing") == 0.0

    def test_nested_stages_each_record(self):
        with profiling() as sp:
            with stage("outer"):
                with stage("inner"):
                    pass
        assert "outer" in sp.stages and "inner" in sp.stages

    def test_profiling_uninstalls_on_exit(self):
        with profiling():
            assert active_profile() is not None
        assert active_profile() is None

    def test_to_dict(self):
        sp = SelfProfile()
        sp.add("x", 1.5)
        sp.add("x", 0.5)
        assert sp.to_dict() == {"x": {"seconds": 2.0, "calls": 2}}


class TestProfileRun:
    def test_report_structure(self):
        report = profile_run(m=16, n=4, sweep_points=2, with_cprofile=False)
        assert report["points"] == 2
        stages = report["stages"]
        # the runner's pre-wired stages all fired
        for name in ("graph", "simulate"):
            assert name in stages, f"missing stage {name}"
        assert report["serial_wall_s"] > 0
        assert report["sweep_wall_s"] >= 0
        assert report["cache_overhead_s"] >= 0
        assert "cprofile_top" not in report

    def test_cprofile_rows(self):
        report = profile_run(m=16, n=4, sweep_points=1, top=5)
        rows = report["cprofile_top"]
        assert rows and all("cumtime_s" in r for r in rows)
        assert len(rows) <= 5

    def test_format_profile(self):
        report = profile_run(m=16, n=4, sweep_points=2, with_cprofile=False)
        text = format_profile(report)
        assert "harness self-profile" in text
        assert "cache overhead" in text

    def test_a_second_call_times_a_dispatch_again(self, monkeypatch):
        """Each call starts from an emptied memory cache: the sweep finds
        its points unanswered and simulates them again, so a second call
        in one process measures what the first did."""
        import repro.runtime.core as core_mod

        monkeypatch.delenv("REPRO_SIM_CORE", raising=False)
        simulated, real = [], core_mod.run_core_batch

        def counting(graphs, *args, **kwargs):
            simulated.extend(graphs)
            return real(graphs, *args, **kwargs)

        monkeypatch.setattr(core_mod, "run_core_batch", counting)
        calls, graphs = [], []
        for _ in range(2):
            before = len(simulated)
            report = profile_run(m=16, n=4, sweep_points=2, with_cprofile=False)
            calls.append(report["stages"]["simulate"]["calls"])
            graphs.append(len(simulated) - before)
        assert calls[0] == calls[1]
        assert graphs == [2 * report["points"]] * 2  # serial pass + sweep
