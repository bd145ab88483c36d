"""Harness self-profiling: the span-tree fold and the profile_run report."""

from repro.obs.profile import fold_spans, format_profile, profile_run
from repro.obs.tracing import (
    RequestTrace,
    Span,
    attach,
    current_trace,
    mint_trace_id,
    span,
)


def _traced():
    return RequestTrace(mint_trace_id(), "test", 0.0)


class TestStageTimers:
    """``fold_spans``: one report row per span name, from a span tree."""

    def test_inactive_stage_is_noop(self):
        assert current_trace() is None
        with span("anything") as sp:
            assert sp is None  # nothing attached: nothing timed or kept

    def test_stages_accumulate(self):
        trace = _traced()
        with attach(trace):
            for name in ("a", "a", "b"):
                with span(name):
                    pass
        stages = fold_spans(trace.root)
        assert stages["a"]["calls"] == 2
        assert stages["b"]["calls"] == 1
        assert stages["a"]["seconds"] >= 0.0
        assert "missing" not in stages

    def test_nested_stages_each_record(self):
        trace = _traced()
        with attach(trace):
            with span("outer"):
                with span("inner"):
                    pass
        (outer,) = trace.root.children
        assert [c.name for c in outer.children] == ["inner"]
        assert set(fold_spans(trace.root)) == {"outer", "inner"}

    def test_profiling_uninstalls_on_exit(self):
        """profile_run attaches its trace for the run only: the caller's
        trace is back afterwards and got none of the run's spans."""
        mine = _traced()
        with attach(mine):
            profile_run(m=16, n=4, sweep_points=1, with_cprofile=False)
            assert current_trace() is mine
        assert mine.root.children == []
        assert current_trace() is None

    def test_to_dict(self):
        root = Span("request", 0.0, 4.0, children=[
            Span("x", 0.0, 1.5),
            Span("x", 2.0, 2.5),
        ])
        assert fold_spans(root) == {"x": {"seconds": 2.0, "calls": 2}}

    def test_simulate_under_sweep_reads_dispatch_compute(self):
        root = Span("request", 0.0, 9.0, children=[
            Span("simulate", 0.0, 1.0),
            Span("sweep", 1.0, 9.0, children=[
                Span("graph", 1.0, 2.0),
                Span("simulate", 2.0, 4.0),
                Span("simulate", 4.0, 8.0),
            ]),
        ])
        assert fold_spans(root) == {
            "dispatch_compute": {"seconds": 6.0, "calls": 2},
            "graph": {"seconds": 1.0, "calls": 1},
            "simulate": {"seconds": 1.0, "calls": 1},
            "sweep": {"seconds": 8.0, "calls": 1},
        }


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
        from _support import simulated_points

        simulated = simulated_points(monkeypatch)
        calls, graphs = [], []
        for _ in range(2):
            before = len(simulated)
            report = profile_run(m=16, n=4, sweep_points=2, with_cprofile=False)
            calls.append(report["stages"]["simulate"]["calls"])
            graphs.append(len(simulated) - before)
        assert calls[0] == calls[1]
        assert graphs == [2 * report["points"]] * 2  # serial pass + sweep
