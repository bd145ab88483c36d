"""End-to-end request tracing over HTTP: context propagation, span
trees via /trace/<job_id>, latency attribution, the flight recorder
debug endpoint, and a strict /metrics scrape."""

import pytest

from _prometheus_text import parse_prometheus_text
from _serve_testlib import (
    TENANTS,
    TINY_REQUEST,
    HeldPlannerService,
    saturating_burst,
    tiny_setup,
)
from repro.obs.tracing import ATTRIBUTION_STAGES, format_traceparent
from repro.serve.client import ServeClient
from repro.serve.server import PlanningDaemon
from repro.serve.service import PlannerService


@pytest.fixture
def daemon():
    d = PlanningDaemon(
        PlannerService(tiny_setup()), TENANTS, port=0, workers=2
    )
    d.start()
    yield d
    d.shutdown()


@pytest.fixture
def client(daemon):
    with ServeClient(port=daemon.port, timeout=30.0) as c:
        c.wait_ready()
        yield c


class TestPlanTracing:
    def test_response_carries_trace_context(self, client):
        resp = client.plan("gold", TINY_REQUEST)
        assert resp.ok
        assert resp.job_id is not None
        assert len(resp.trace_id) == 32

    def test_breakdown_sums_to_e2e_latency(self, client):
        resp = client.plan("gold", TINY_REQUEST)
        bd = resp.breakdown
        assert set(ATTRIBUTION_STAGES) <= set(bd)
        staged = sum(bd[s] for s in ATTRIBUTION_STAGES)
        assert bd["total"] > 0
        assert staged == pytest.approx(bd["total"], rel=0.05)

    def test_traceparent_header_joins_the_trace(self, client):
        tid, sid = "ab" * 16, "cd" * 8
        status, headers, data = client._request(
            "POST", "/plan",
            {**TINY_REQUEST, "tenant": "gold"},
            headers={"traceparent": format_traceparent(tid, sid)},
        )
        import json

        assert status == 200
        body = json.loads(data)
        assert body["trace_id"] == tid
        # the response announces the server-side span in the same trace
        echoed = {k.lower(): v for k, v in headers.items()}["traceparent"]
        assert echoed.startswith(f"00-{tid}-")

    def test_malformed_traceparent_mints_fresh_context(self, client):
        status, _, data = client._request(
            "POST", "/plan",
            {**TINY_REQUEST, "tenant": "gold"},
            headers={"traceparent": "garbage-header"},
        )
        import json

        assert status == 200
        assert len(json.loads(data)["trace_id"]) == 32


def _service_span(tree: dict) -> dict:
    return next(c for c in tree["root"]["children"] if c["name"] == "service")


class TestTraceEndpoint:
    def test_span_tree_retrievable_by_job_id(self, client):
        # a question no other test asks: only a first-seen one simulates
        resp = client.plan("gold", {**TINY_REQUEST, "m": 11})
        assert resp.body["cache_hit"] is False
        tree = client.trace(resp.job_id)
        assert tree["trace_id"] == resp.trace_id
        assert tree["tenant"] == "gold"
        assert tree["status"] == "served"
        assert tree["root"]["name"] == "request"
        names = [c["name"] for c in tree["root"]["children"]]
        assert names[:2] == ["admission", "queue"]
        assert "service" in names
        kids = [c["name"] for c in _service_span(tree).get("children", ())]
        assert "cache" in kids
        assert "simulate" in kids
        assert resp.breakdown["simulate"] > 0.0

    def test_repeated_question_is_a_lookup_not_a_simulation(self, client):
        question = {**TINY_REQUEST, "m": 13}
        first = client.plan("gold", question)
        again = client.plan("gold", question)
        assert again.body["makespan_s"] == first.body["makespan_s"]
        assert again.body["cache_hit"] is True
        service = _service_span(client.trace(again.job_id))
        kids = {c["name"]: c for c in service.get("children", ())}
        assert "simulate" not in kids
        assert kids["cache"]["attrs"]["hit"] is True
        assert kids["cache"]["attrs"]["answer"] is True
        bd = again.breakdown
        assert bd["simulate"] == 0.0
        staged = sum(bd[s] for s in ATTRIBUTION_STAGES)
        assert staged == pytest.approx(bd["total"], rel=0.05)

    def test_cold_plan_spans_nest_under_graph_and_dispatch_once(
        self, client, monkeypatch
    ):
        """One served cold request: ``elim`` and ``dag_build`` are
        children of ``graph``, each core dispatch is exactly one
        ``simulate`` span, none nested in another, and the breakdown
        still sums to the total."""
        import repro.runtime.core as core_mod

        dispatches = []
        for name in ("_c_answers", "_c_cluster_batch", "_py_loop"):
            real = getattr(core_mod, name)

            def counting(*args, _real=real, **kwargs):
                dispatches.append(1)
                return _real(*args, **kwargs)

            monkeypatch.setattr(core_mod, name, counting)
        # a question no other test asks: only a first-seen one simulates
        resp = client.plan("gold", {**TINY_REQUEST, "m": 17})
        assert resp.body["cache_hit"] is False
        tree = client.trace(resp.job_id)
        spans, stack = [], [(tree["root"], ())]
        while stack:
            sp, above = stack.pop()
            spans.append((sp, above))
            stack.extend(
                (c, above + (sp["name"],)) for c in sp.get("children", ())
            )
        graphs = [sp for sp, _ in spans if sp["name"] == "graph"]
        assert len(graphs) == 1
        kids = [c["name"] for c in graphs[0].get("children", ())]
        assert sorted(kids) == ["dag_build", "elim"]
        simulates = [above for sp, above in spans if sp["name"] == "simulate"]
        assert len(simulates) == len(dispatches) == 1
        assert all("simulate" not in above for above in simulates)
        att = tree["attribution"]
        assert sum(att[s] for s in ATTRIBUTION_STAGES) == pytest.approx(
            att["total"], rel=1e-9
        )

    def test_unknown_job_404(self, client):
        status, _, _ = client._request("GET", "/trace/999999")
        assert status == 404

    def test_bad_job_id_400(self, client):
        status, _, _ = client._request("GET", "/trace/nope")
        assert status == 400

    def test_shed_requests_are_traced(self):
        from repro.serve.scheduler import TenantSpec

        d = PlanningDaemon(
            HeldPlannerService(tiny_setup()),
            (TenantSpec("t", queue_limit=1),),
            port=0,
            workers=1,
            flight_cooldown=0.0,
        )
        d.start()
        c = ServeClient(port=d.port, timeout=30.0)
        try:
            c.wait_ready()
            results = saturating_burst(d, c, "t", TINY_REQUEST)
            sheds = [r for r in results if r.status == 429]
            assert sheds, "burst never saturated the 1-deep queue"
            assert all(r.trace_id and r.job_id is not None for r in sheds)
            shed_trace = c.trace(sheds[0].job_id)
            assert shed_trace["status"] == "shed"
            # shedding auto-triggered the flight recorder
            flight = c.flight()
            assert flight["triggers"].get("shed", 0) >= len(sheds)
            assert flight["dumps"]
        finally:
            c.close()
            d.shutdown()


class TestFlightEndpoint:
    def test_snapshot_shape(self, client):
        client.plan("gold", TINY_REQUEST)
        snap = client.flight()
        assert snap["capacity"] >= 1
        assert snap["ring_size"] >= 1

    def test_manual_trigger_dumps_the_ring(self, client):
        resp = client.plan("gold", TINY_REQUEST)
        snap = client.flight(trigger=True)
        assert snap["triggers"].get("manual") == 1
        dump = snap["dumps"][-1]
        assert dump["reason"] == "manual"
        assert resp.job_id in [t["job_id"] for t in dump["traces"]]

    def test_faulted_plan_fires_the_flight_recorder(self):
        d = PlanningDaemon(
            PlannerService(tiny_setup()), TENANTS, port=0,
            flight_cooldown=0.0,
        )
        d.start()
        c = ServeClient(port=d.port, timeout=30.0)
        try:
            c.wait_ready()
            resp = c.plan("gold", {
                "m": 16, "n": 4,
                "faults": {"scenario": "crash", "seed": 0, "severity": 1.0},
            })
            assert resp.ok, resp.body
            assert resp.body["degradation"] > 1.0
            flight = c.flight()
            assert flight["triggers"].get("fault", 0) >= 1
            assert flight["dumps"]
            bd = resp.breakdown
            staged = sum(bd[s] for s in ATTRIBUTION_STAGES)
            assert staged == pytest.approx(bd["total"], rel=0.05)
        finally:
            c.close()
            d.shutdown()


class TestMetricsAndStats:
    def test_live_scrape_parses_strictly(self, client):
        """Satellite: the real daemon's /metrics must survive a strict
        exposition-format parser, histograms and escaping included."""
        client.plan("gold", TINY_REQUEST)
        client.flight(trigger=True)
        fams = parse_prometheus_text(client.metrics())
        assert fams["repro_serve_requests_total"]["type"] == "counter"
        assert fams["repro_serve_latency_seconds"]["type"] == "histogram"
        assert "repro_serve_traces_stored" in fams
        trig = {
            labels["reason"]: value
            for _, labels, value in (
                fams["repro_serve_flight_triggers_total"]["samples"]
            )
        }
        assert trig.get("manual") == 1.0

    def test_stats_expose_tracing_state(self, client):
        client.plan("gold", TINY_REQUEST)
        stats = client.stats()
        assert stats["tracing"]["stored_traces"] >= 1
        assert stats["tracing"]["flight_ring"] >= 1
