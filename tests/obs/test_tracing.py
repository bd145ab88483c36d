"""Request tracing: span trees, context propagation, attribution,
flight recorder, export and pretty-printing."""

import json

import pytest

from repro.obs.tracing import (
    ATTRIBUTION_STAGES,
    FlightRecorder,
    RequestTrace,
    Span,
    Tracer,
    attach,
    chrome_span_events,
    current_trace,
    format_trace,
    format_trace_diff,
    format_traceparent,
    load_traces,
    mint_span_id,
    mint_trace_id,
    parse_traceparent,
    span,
)


class TestTraceContext:
    def test_mint_shapes(self):
        assert len(mint_trace_id()) == 32
        assert len(mint_span_id()) == 16
        int(mint_trace_id(), 16)  # valid hex

    def test_traceparent_round_trip(self):
        tid, sid = mint_trace_id(), mint_span_id()
        header = format_traceparent(tid, sid)
        assert header == f"00-{tid}-{sid}-01"
        assert parse_traceparent(header) == (tid, sid)

    @pytest.mark.parametrize(
        "bad",
        [
            None,
            "",
            "garbage",
            "00-short-beef-01",
            "00-" + "0" * 32 + "-" + "b" * 16 + "-01",  # all-zero trace
            "00-" + "a" * 32 + "-" + "0" * 16 + "-01",  # all-zero span
            "ff-" + "a" * 32 + "-" + "b" * 16 + "-01",  # forbidden version
            "00-" + "A" * 32 + "-" + "b" * 16,  # truncated
        ],
    )
    def test_traceparent_rejects_malformed(self, bad):
        assert parse_traceparent(bad) is None


class TestSpans:
    def test_span_records_nested_tree(self):
        tr = RequestTrace(mint_trace_id(), "gold", 0.0, job_id=1)
        with attach(tr):
            assert current_trace() is tr
            with span("service", tenant="gold") as sp:
                assert sp is not None
                with span("cache"):
                    pass
        assert current_trace() is None
        (service,) = tr.root.children
        assert service.name == "service"
        assert service.attrs["tenant"] == "gold"
        assert [c.name for c in service.children] == ["cache"]

    def test_span_is_noop_when_detached(self):
        with span("service") as sp:
            assert sp is None

    def test_completed_span_helper(self):
        tr = RequestTrace(mint_trace_id(), "t", 0.0)
        sp = tr.span("queue", 1.0, 3.0, depth=2)
        assert sp.duration == 2.0
        assert tr.root.children[-1] is sp
        assert sp.attrs == {"depth": 2}

    def test_attribution_sums_to_total(self):
        tr = RequestTrace(mint_trace_id(), "t", 0.0)
        tr.span("admission", 0.0, 0.1)
        tr.span("queue", 0.1, 0.5)
        svc = tr.span("service", 0.5, 2.0)
        svc.children.append(Span("cache", 0.5, 0.6))
        svc.children.append(Span("simulate", 1.0, 1.8))
        tr.finish(2.0)
        att = tr.attribution()
        staged = sum(att[s] for s in ATTRIBUTION_STAGES)
        assert staged == pytest.approx(att["total"])
        assert att["total"] == pytest.approx(2.0)
        # plan is the residual not covered by a measured stage
        assert att["plan"] == pytest.approx(2.0 - 0.1 - 0.4 - 0.1 - 0.8)

    def test_to_json_shape(self):
        tr = RequestTrace("a" * 32, "t", 0.0, job_id=9)
        tr.span("queue", 0.0, 1.0)
        tr.finish(1.0, status="shed")
        doc = tr.to_json()
        assert doc["trace_id"] == "a" * 32
        assert doc["job_id"] == 9
        assert doc["status"] == "shed"
        assert doc["root"]["name"] == "request"
        assert doc["attribution"]["total"] == pytest.approx(1.0)
        json.dumps(doc)  # must be serializable as-is


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        fl = FlightRecorder(4)
        for i in range(10):
            tr = RequestTrace(mint_trace_id(), "t", 0.0, job_id=i)
            tr.finish(1.0)
            fl.record(tr)
        dump = fl.trigger("manual", now=100.0)
        jobs = [t["job_id"] for t in dump["traces"]]
        assert jobs == [6, 7, 8, 9]

    def test_cooldown_gates_repeat_triggers(self):
        fl = FlightRecorder(4, cooldown=5.0)
        assert fl.trigger("slo-breach", now=10.0) is not None
        assert fl.trigger("slo-breach", now=12.0) is None  # within cooldown
        assert fl.trigger("shed", now=20.0) is not None
        snap = fl.snapshot()
        assert snap["triggers"] == {"slo-breach": 2, "shed": 1}
        assert len(snap["dumps"]) == 2

    def test_zero_cooldown_always_dumps(self):
        fl = FlightRecorder(4, cooldown=0.0)
        for _ in range(3):
            assert fl.trigger("fault", now=1.0) is not None
        assert len(fl.dumps()) == 3

    def test_dump_count_is_bounded(self):
        fl = FlightRecorder(4, max_dumps=2, cooldown=0.0)
        seqs = [fl.trigger("manual", now=float(i))["seq"] for i in range(5)]
        assert len(fl.dumps()) == 2
        assert [d["seq"] for d in fl.dumps()] == seqs[-2:]


class TestTracer:
    def _finished(self, tracer, job_id, tenant="t"):
        tr = tracer.start(tenant, 0.0, job_id=job_id)
        tracer.finish(tr, 1.0)
        return tr

    def test_store_and_get_by_job_id(self):
        tracer = Tracer()
        tr = self._finished(tracer, 42)
        assert tracer.get(42) is tr
        assert tracer.get(41) is None

    def test_store_evicts_oldest(self):
        tracer = Tracer(store_capacity=3)
        for i in range(5):
            self._finished(tracer, i)
        assert tracer.get(0) is None
        assert tracer.get(1) is None
        assert [t.job_id for t in tracer.traces()] == [2, 3, 4]

    def test_finished_traces_feed_the_flight_ring(self):
        tracer = Tracer(flight=FlightRecorder(8, cooldown=0.0))
        self._finished(tracer, 1)
        dump = tracer.flight.trigger("manual", now=0.0)
        assert [t["job_id"] for t in dump["traces"]] == [1]

    def test_start_honors_upstream_context(self):
        tracer = Tracer()
        tr = tracer.start(
            "t", 0.0, trace_id="c" * 32, parent_span_id="d" * 16, job_id=5
        )
        tracer.finish(tr, 1.0)
        doc = tracer.get(5).to_json()
        assert doc["trace_id"] == "c" * 32
        assert doc["parent_span_id"] == "d" * 16


class TestExport:
    def _traces(self, n=2):
        out = []
        for i in range(n):
            tr = RequestTrace(f"{i:032x}", "t", 0.0, job_id=i)
            tr.span("queue", 0.0, 0.25)
            svc = tr.span("service", 0.25, 1.0)
            svc.children.append(Span("simulate", 0.25, 1.0))
            tr.finish(1.0)
            out.append(tr.to_json())
        return out

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        # one JSON object per line, one line per trace
        path.write_text("".join(
            json.dumps(t, sort_keys=True) + "\n" for t in self._traces()
        ))
        loaded = load_traces(str(path))
        assert [t["job_id"] for t in loaded] == [0, 1]

    def test_load_accepts_single_trace_and_flight_shapes(self, tmp_path):
        traces = self._traces(1)
        single = tmp_path / "one.json"
        single.write_text(json.dumps(traces[0]))
        assert load_traces(str(single)) == traces

        fl = FlightRecorder(4, cooldown=0.0)
        tr = RequestTrace(f"{3:032x}", "t", 0.0, job_id=3)
        tr.finish(1.0)
        fl.record(tr)
        fl.trigger("manual", now=0.0)
        snap = tmp_path / "flight.json"
        snap.write_text(json.dumps(fl.snapshot()))
        assert [t["job_id"] for t in load_traces(str(snap))] == [3]

    def test_chrome_span_events(self):
        events = chrome_span_events(self._traces())
        assert all(e["pid"] == 0 for e in events)
        x = [e for e in events if e["ph"] == "X"]
        # request + queue + service + simulate per trace
        assert len(x) == 8
        assert {e["tid"] for e in x} == {0, 1}
        sim = next(e for e in x if e["name"] == "simulate")
        assert sim["ts"] == pytest.approx(0.25e6)
        assert sim["dur"] == pytest.approx(0.75e6)

    def test_format_trace_mentions_stages(self):
        text = format_trace(self._traces(1)[0])
        for word in ("request", "queue", "simulate", "breakdown:"):
            assert word in text

    def test_format_trace_diff_matches_by_job(self):
        a, b = self._traces(), self._traces()
        b[0]["attribution"]["queue"] += 0.5
        b[0]["attribution"]["total"] += 0.5
        text = format_trace_diff(a, b)
        assert "matched 2 request(s)" in text
        assert "+500.000ms" in text
        assert "SUM" in text
