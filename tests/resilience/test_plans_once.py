"""Faulted questions, fault sweeps, timelines and metrics plan on the C
planner alone: none of them builds the object graph or flattens it."""

import json

import pytest

from repro.verify.reference import TaskGraph, simulator


@pytest.fixture
def object_graph_calls(monkeypatch):
    """Counts of ``TaskGraph.from_eliminations`` and ``compile_graph``."""
    calls = {"from_eliminations": 0, "compile_graph": 0}
    build, flatten = TaskGraph.from_eliminations.__func__, simulator.compile_graph

    def spy_build(cls, *args, **kwargs):
        calls["from_eliminations"] += 1
        return build(cls, *args, **kwargs)

    def spy_flatten(*args, **kwargs):
        calls["compile_graph"] += 1
        return flatten(*args, **kwargs)

    monkeypatch.setattr(TaskGraph, "from_eliminations", classmethod(spy_build))
    monkeypatch.setattr(simulator, "compile_graph", spy_flatten)
    return calls


def test_a_faulted_plan_request(object_graph_calls):
    from repro.serve.service import PlannerService, PlanRequest

    req = PlanRequest.from_json(
        {"m": 12, "n": 4, "faults": {"scenario": "crash", "seed": 0}}
    )
    res = PlannerService().plan(req)
    assert res.replanned  # the crash fired and was recovered from
    assert object_graph_calls == {"from_eliminations": 0, "compile_graph": 0}


def test_the_resilience_report(object_graph_calls, monkeypatch):
    from repro.resilience.bench import resilience_report

    monkeypatch.setenv("REPRO_BENCH_SCALE", "small")
    report = resilience_report(scenarios=["crash"], with_distributed_check=False)
    assert report["scenarios"]["crash"]["points"][0]["crashed_nodes"]
    assert object_graph_calls == {"from_eliminations": 0, "compile_graph": 0}


def test_gantt_with_a_timeline(object_graph_calls, tmp_path, capsys):
    from repro.cli import main

    trace = tmp_path / "gantt.json"
    assert main(["gantt", "--m", "12", "--n", "4", "--trace-out", str(trace)]) == 0
    assert json.loads(trace.read_text())["traceEvents"]
    assert object_graph_calls == {"from_eliminations": 0, "compile_graph": 0}


def test_metrics(object_graph_calls, capsys):
    from repro.cli import main

    assert main(["metrics", "--m", "12", "--n", "4"]) == 0
    assert "repro_critical_path_seconds" in capsys.readouterr().out
    assert object_graph_calls == {"from_eliminations": 0, "compile_graph": 0}
