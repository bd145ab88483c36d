"""Trace analysis: summaries, utilization, Gantt rendering."""

import numpy as np
import pytest

from repro.verify.reference import TaskGraph
from repro.dag.compiled import compiled_from_eliminations, task_coordinates
from repro.hqr import HQRConfig, hqr_elimination_list
from repro.kernels.weights import KernelKind
from repro.runtime import Machine
from repro.runtime.core import run_core
from repro.runtime.trace import ascii_gantt, summarize, trace_events_json
from repro.tiles.layout import BlockCyclic2D, Block1D

#: the kind codes and coordinates of a graph with no task
NO_KIND = np.empty(0, np.int8)
NO_COORDS = (np.empty(0, np.int32),) * 4


def run_traced(m, n, layout, cfg=None):
    """``(kind codes, task coordinates, traced result)`` of one run."""
    cfg = cfg or HQRConfig(p=2, a=2)
    elims = hqr_elimination_list(m, n, cfg)
    cg = compiled_from_eliminations(elims, m, n, layout, Machine.edel(), 40)
    res = run_core(cg, Machine.edel(), 40, record_trace=True).result
    return cg.kind, task_coordinates(elims, m, n), res


class TestSummarize:
    def test_totals_match_result(self):
        kind, coords, res = run_traced(12, 6, BlockCyclic2D(2, 2))
        s = summarize(res.trace, kind)
        assert s.makespan == pytest.approx(res.makespan)
        assert sum(s.node_busy.values()) == pytest.approx(res.busy_seconds)

    def test_kernel_counts_match_graph(self):
        kind, coords, res = run_traced(10, 5, BlockCyclic2D(2, 2))
        s = summarize(res.trace, kind)
        g = TaskGraph.from_eliminations(
            hqr_elimination_list(10, 5, HQRConfig(p=2, a=2)), 10, 5
        )
        for kk in KernelKind:
            expected = sum(1 for t in g.tasks if t.kind is kk)
            assert s.kernel_counts[kk] == expected

    def test_utilization_bounded(self):
        kind, coords, res = run_traced(12, 6, BlockCyclic2D(2, 2))
        s = summarize(res.trace, kind)
        mach = Machine.edel()
        for node, u in s.utilization.items():
            assert 0 <= u <= mach.cores_per_node

    def test_block_layout_more_imbalanced_than_cyclic(self):
        """§III-C load-imbalance claim, observed in the trace."""
        m, n = 24, 12
        cfg = HQRConfig(p=1, a=3, low_tree="binary", domino=False)
        kind1, _, res1 = run_traced(m, n, Block1D(4, m), cfg)
        from repro.tiles.layout import Cyclic1D

        kind2, _, res2 = run_traced(m, n, Cyclic1D(4), cfg)
        s1 = summarize(res1.trace, kind1)
        s2 = summarize(res2.trace, kind2)
        assert s1.imbalance() > s2.imbalance()

    def test_empty_trace(self):
        s = summarize([], NO_KIND)
        assert s.makespan == 0.0
        assert s.imbalance() == 1.0

    def test_per_core_utilization_in_unit_interval(self):
        kind, coords, res = run_traced(12, 6, BlockCyclic2D(2, 2))
        s = summarize(res.trace, kind)
        mach = Machine.edel()
        per_core = s.per_core_utilization(mach.cores_per_node)
        assert set(per_core) == set(s.utilization)
        for node, u in per_core.items():
            assert 0.0 <= u <= 1.0
            assert u == pytest.approx(
                s.utilization[node] / mach.cores_per_node
            )

    def test_per_core_utilization_rejects_bad_core_count(self):
        kind, coords, res = run_traced(12, 6, BlockCyclic2D(2, 2))
        s = summarize(res.trace, kind)
        with pytest.raises(ValueError):
            s.per_core_utilization(0)


class TestTraceEventsJson:
    def test_valid_json_with_one_event_per_span(self):
        import json

        kind, coords, res = run_traced(12, 6, BlockCyclic2D(2, 2))
        doc = json.loads(trace_events_json(res.trace, kind, coords))
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == len(res.trace)
        for e in complete:
            assert e["dur"] >= 0
            assert e["name"] in {k.name for k in KernelKind}

    def test_core_rows_respect_parallelism(self):
        """Greedy core assignment never stacks overlapping spans on one
        thread row, and never uses more rows than the node has cores."""
        import json

        kind, coords, res = run_traced(16, 8, BlockCyclic2D(2, 2))
        doc = json.loads(trace_events_json(res.trace, kind, coords))
        mach = Machine.edel()
        rows = {}
        for e in doc["traceEvents"]:
            if e["ph"] != "X":
                continue
            assert e["tid"] < mach.cores_per_node
            rows.setdefault((e["pid"], e["tid"]), []).append(
                (e["ts"], e["ts"] + e["dur"])
            )
        for spans in rows.values():
            spans.sort()
            for (_, end), (start, _) in zip(spans, spans[1:]):
                assert start >= end - 1e-6

    def test_fault_events_rendered(self):
        import json

        kind, coords, res = run_traced(12, 6, BlockCyclic2D(2, 2))
        faults = [
            {"type": "crash", "time": 0.001, "node": 1},
            {"type": "slowdown", "node": 0, "start": 0.0, "end": 0.002,
             "factor": 2.0},
        ]
        doc = json.loads(trace_events_json(res.trace, kind, coords, fault_events=faults))
        names = [e["name"] for e in doc["traceEvents"]]
        assert "crash" in names
        assert any(n.startswith("slowdown") for n in names)


def small_graph():
    """``(kind codes, task coordinates)`` of a 2 x 1 factorization."""
    cfg = HQRConfig(p=1, a=1)
    kind, coords, _ = run_traced(2, 1, BlockCyclic2D(1, 1), cfg)
    return kind, coords


class TestTraceEdgeCases:
    def test_trace_events_json_empty_trace(self):
        import json

        doc = json.loads(trace_events_json([], NO_KIND, NO_COORDS))
        assert doc["traceEvents"] == []

    def test_fully_idle_cores_never_get_rows(self):
        """Strictly serial spans reuse one thread row; the node's seven
        idle cores produce no events at all."""
        import json

        kind, coords = small_graph()
        trace = [(0, 0, 0.0, 1.0), (1, 0, 1.0, 2.0)]
        doc = json.loads(trace_events_json(trace, kind, coords))
        tids = {e["tid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert tids == {0}

    def test_summarize_zero_duration_tasks(self):
        kind, _ = small_graph()
        s = summarize([(0, 0, 0.5, 0.5)], kind)
        assert s.makespan == 0.5
        assert s.node_busy[0] == 0.0
        assert s.utilization[0] == 0.0
        assert s.imbalance() == 1.0

    def test_per_core_utilization_zero_duration_tasks(self):
        kind, _ = small_graph()
        s = summarize([(0, 0, 0.5, 0.5), (1, 1, 0.0, 0.0)], kind)
        per_core = s.per_core_utilization(8)
        assert per_core == {0: 0.0, 1: 0.0}

    def test_comm_events_make_network_tracks(self):
        import json

        kind, coords = small_graph()
        trace = [(0, 0, 0.0, 1.0), (1, 1, 1.5, 2.0)]
        comms = [(0, 0, 1, 1.0, 1.5)]
        doc = json.loads(
            trace_events_json(
                trace, kind, coords, comm_trace=comms, tile_bytes=627200
            )
        )
        evs = doc["traceEvents"]
        net_pid = next(
            e["pid"]
            for e in evs
            if e["ph"] == "M" and e["args"]["name"] == "network"
        )
        assert net_pid > 1  # above every node pid
        sends = [e for e in evs if e["ph"] == "X" and e["pid"] == net_pid]
        assert len(sends) == 1
        assert sends[0]["args"]["bytes"] == 627200
        starts = [e for e in evs if e["ph"] == "s"]
        finishes = [e for e in evs if e["ph"] == "f"]
        assert len(starts) == len(finishes) == 1
        assert starts[0]["id"] == finishes[0]["id"]
        assert finishes[0]["pid"] == 1  # arrives on the destination node

    def test_counter_tracks(self):
        import json

        kind, coords = small_graph()
        doc = json.loads(
            trace_events_json(
                [(0, 0, 0.0, 1.0)],
                kind,
                coords,
                counters={"busy_cores": [(0.0, 1), (1.0, 0)]},
            )
        )
        cs = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert [(e["ts"], e["args"]["busy_cores"]) for e in cs] == [
            (0.0, 1),
            (1e6, 0),
        ]


class TestGantt:
    def test_renders_one_row_per_node(self):
        kind, coords, res = run_traced(12, 6, BlockCyclic2D(2, 2))
        text = ascii_gantt(res.trace, width=40)
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_busy_and_idle_glyphs(self):
        kind, coords, res = run_traced(16, 8, BlockCyclic2D(2, 2))
        text = ascii_gantt(res.trace, width=30)
        assert "#" in text or "+" in text
        assert "." in text  # ramp-up idle slots exist

    def test_empty(self):
        assert ascii_gantt([]) == "(empty trace)"
