"""Metrics registry semantics, Prometheus export, and derivation."""

import pytest

from repro.bench.runner import BenchSetup
from repro.dag.compiled import compiled_from_eliminations, task_coordinates
from repro.hqr.config import HQRConfig
from repro.hqr.hierarchy import hqr_elimination_list
from repro.models.bounds import list_bound
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    derive_run_metrics,
    utilization_timeline,
)
from repro.obs.tracing import RequestTrace, attach, mint_trace_id
from repro.runtime.core import run_core


class TestRegistry:
    def test_counter_labels_accumulate(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total")
        c.inc(kind="a")
        c.inc(2.5, kind="a")
        c.inc(kind="b")
        assert c.value(kind="a") == 3.5
        assert c.value(kind="b") == 1.0
        assert c.value(kind="missing") == 0.0

    def test_gauge_set_overwrites(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(3, node="0")
        g.set(7, node="0")
        assert g.value(node="0") == 7

    def test_same_name_returns_same_metric(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_histogram_cumulative_buckets(self):
        h = Histogram("h", "", buckets=(1.0, 10.0))
        for v in (0.5, 0.7, 5.0, 50.0):
            h.observe(v)
        assert h.counts == [2, 1, 1]
        assert h.n == 4
        assert h.total == pytest.approx(56.2)
        with pytest.raises(ValueError):
            Histogram("bad", "", buckets=(10.0, 1.0))

    def test_prometheus_exposition(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "things").inc(2, kind="a")
        reg.gauge("depth").set(3)
        h = reg.histogram("lat", buckets=(1.0,))
        h.observe(0.5)
        h.observe(2.0)
        text = reg.to_prometheus()
        assert "# HELP x_total things" in text
        assert "# TYPE x_total counter" in text
        assert 'x_total{kind="a"} 2' in text
        assert "depth 3" in text
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="+Inf"} 2' in text
        assert "lat_sum 2.5" in text
        assert "lat_count 2" in text

    def test_json_roundtrip_is_json(self):
        import json

        reg = MetricsRegistry()
        reg.counter("c").inc(kind="x")
        reg.histogram("h", buckets=(1.0,)).observe(0.2)
        doc = json.loads(reg.dumps())
        assert doc["c"]["samples"] == [
            {"labels": {"kind": "x"}, "value": 1.0}
        ]
        assert doc["h"]["count"] == 1


class TestUtilizationTimeline:
    def test_step_function(self):
        tl = utilization_timeline(
            [(0, 0, 0.0, 2.0), (1, 0, 1.0, 3.0)]
        )
        assert tl == [(0.0, 1), (1.0, 2), (2.0, 1), (3.0, 0)]

    def test_empty(self):
        assert utilization_timeline([]) == []

    def test_decimation(self):
        tasks = [(i, 0, float(i), float(i) + 0.5) for i in range(100)]
        tl = utilization_timeline(tasks, max_points=10)
        assert len(tl) == 10


class TestDerivation:
    def recorded(self, m=16, n=4):
        setup = BenchSetup()
        cfg = HQRConfig(
            p=setup.grid_p, q=setup.grid_q, a=4,
            low_tree="greedy", high_tree="fibonacci", domino=False,
        )
        elims = hqr_elimination_list(m, n, cfg)
        cg = compiled_from_eliminations(
            elims, m, n, setup.layout, setup.machine, setup.b
        )
        trace = RequestTrace(mint_trace_id(), "test", 0.0)
        with attach(trace):
            res = run_core(cg, setup.machine, setup.b, record_trace=True).result
        spans = trace.root.children
        return setup, cfg, spans, res, cg, task_coordinates(elims, m, n)

    def test_kernel_attribution_sums_to_busy_seconds(self):
        setup, cfg, _, res, graph, _ = self.recorded()
        reg = derive_run_metrics(res, graph)
        total = sum(reg["repro_kernel_seconds_total"].samples.values())
        assert total == pytest.approx(res.busy_seconds)
        ntasks = sum(reg["repro_tasks_total"].samples.values())
        assert ntasks == len(graph)

    def test_level_attribution_sums_to_busy_seconds(self):
        setup, cfg, _, res, graph, coords = self.recorded()
        reg = derive_run_metrics(res, graph, coords=coords, config=cfg)
        lvl = reg["repro_level_seconds_total"].samples
        assert sum(lvl.values()) == pytest.approx(res.busy_seconds)
        labels = {dict(k)["level"] for k in lvl}
        assert "panel" in labels  # GEQRT/UNMQR bucket always present

    def test_comm_volume_matches_messages(self):
        setup, cfg, _, res, graph, _ = self.recorded()
        reg = derive_run_metrics(res, graph)
        msgs = sum(reg["repro_messages_total"].samples.values())
        assert msgs == res.messages
        nbytes = sum(reg["repro_comm_bytes_total"].samples.values())
        assert nbytes == res.bytes_sent

    def test_makespan_and_critical_path(self):
        setup, cfg, _, res, graph, _ = self.recorded()
        elims = hqr_elimination_list(graph.m, graph.n, cfg)
        cp = list_bound(
            elims, graph.m, graph.n, setup.layout, setup.machine, setup.b
        ).plain_critical_path
        reg = derive_run_metrics(res, graph, critical_path=cp)
        assert reg["repro_makespan_seconds"].value() == pytest.approx(
            res.makespan
        )
        assert reg["repro_critical_path_seconds"].value() == cp > 0
        slack = reg["repro_critical_path_slack_seconds"].value()
        assert slack == res.makespan - cp
        assert slack >= 0  # makespan can never beat the longest path

    def test_engine_runs_recorded(self):
        setup, cfg, spans, res, graph, _ = self.recorded()
        reg = derive_run_metrics(res, runs=spans)
        runs = reg["repro_engine_runs_total"].samples
        assert runs == {(("engine", "python"),): 1}
        (wall,) = reg["repro_engine_wall_seconds_total"].samples.values()
        assert wall == spans[0].duration > 0

    def test_graph_optional(self):
        setup, cfg, _, res, graph, _ = self.recorded()
        reg = derive_run_metrics(res)  # no graph: unlabelled totals only
        assert sum(reg["repro_tasks_total"].samples.values()) == len(graph)
        assert "repro_level_seconds_total" not in reg
        assert "repro_critical_path_seconds" not in reg
