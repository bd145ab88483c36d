"""Live daemon over HTTP: plan round-trips, metrics scrape, admission
control, planning on the handler thread, graceful drain."""

import dataclasses
import threading

import pytest

import repro.serve.server as server_mod

from _serve_testlib import (
    TENANTS,
    TINY_REQUEST,
    HeldPlannerService,
    saturating_burst,
    tiny_setup,
    wait_for,
)
from repro.serve.client import ServeClient, drive
from repro.serve.scheduler import FairScheduler, Job
from repro.serve.server import DEFAULT_TENANTS, PlanningDaemon
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


class TestHTTP:
    def test_plan_round_trip(self, client):
        resp = client.plan("gold", TINY_REQUEST)
        assert resp.ok
        assert resp.body["makespan_s"] > 0
        assert resp.body["config"].startswith("HQR(")

    def test_health_and_stats(self, client):
        assert client.health()["ok"] is True
        client.plan("gold", TINY_REQUEST)
        stats = client.stats()
        assert stats["slo"]["served"] >= 1
        assert "gold" in stats["scheduler"]["tenants"]

    def test_metrics_exposition(self, client):
        client.plan("gold", TINY_REQUEST)
        text = client.metrics()
        assert "repro_serve_requests_total" in text
        assert "repro_serve_plans_total" in text
        assert "repro_graph_cache_ops_total" in text  # satellite: cache
        assert "repro_serve_info" in text

    def test_unknown_tenant_400(self, client):
        resp = client.plan("nobody", TINY_REQUEST)
        assert resp.status == 400

    def test_invalid_request_400(self, client):
        resp = client.plan("gold", {"m": 2, "n": 8})
        assert resp.status == 400
        assert "m >= n" in resp.body.get("error", "")

    @pytest.mark.parametrize("over", [
        {"cost": {}},
        {"cost": -1.0},
        {"cost": float("nan")},
        {"cost": "inf"},
        {"faults": {"scenario": "crash", "seed": None}},
        {"faults": {"scenario": "crash", "seed": 1.5}},
        {"faults": {"scenario": "meteor"}},
        {"faults": {"scenario": ["crash"]}},
        {"faults": {"scenario": "crash", "severity": float("nan")}},
        {"faults": {"scenario": "crash", "severity": -1.0}},
        {"faults": {"scenario": "crash", "severity": 0}},
        {"faults": {"scenario": "crash", "severity": {}}},
    ])
    def test_malformed_body_fails_closed_with_400(self, daemon, over):
        """Refused at admission: nothing queued, planned or dumped."""
        status, body, _ = daemon.submit("gold", {**TINY_REQUEST, **over})
        assert status == 400, body
        assert "job_id" not in body
        assert daemon.scheduler.snapshot()["tenants"]["gold"]["admitted"] == 0
        assert not daemon.tracer.flight.snapshot()["triggers"]

    def test_malformed_cost_gets_a_reply_on_a_kept_alive_connection(
        self, daemon
    ):
        import http.client
        import json

        conn = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=30)
        try:
            for body, want in (
                ({**TINY_REQUEST, "tenant": "gold", "cost": {}}, 400),
                ({**TINY_REQUEST, "tenant": "gold"}, 200),
            ):
                conn.request("POST", "/plan", body=json.dumps(body))
                resp = conn.getresponse()
                resp.read()
                assert resp.status == want
                sock = conn.sock if want == 400 else sock
            assert conn.sock is sock  # the 400 kept the connection open
        finally:
            conn.close()

    def test_unknown_path_404(self, client):
        status, _, _ = client._request("GET", "/nope")
        assert status == 404

    def test_drive_tallies(self, client):
        from repro.serve.arrivals import poisson_arrivals

        arrivals = poisson_arrivals(
            {"gold": 2.0}, 3.0, seed=0,
            request_factory=lambda rng, t: dict(TINY_REQUEST),
        )
        tally = drive(client, arrivals)
        assert tally["sent"] == len(arrivals)
        assert tally["ok"] + tally["shed"] + tally["errors"] == tally["sent"]
        assert tally["errors"] == 0


class TestFraming:
    """Framing the daemon cannot trust is refused, not guessed at: each
    head below once got ``200 OK`` on a kept-alive connection."""

    @pytest.mark.parametrize("framing", [
        "Content-Length: {underscored}",
        "Content-Length: +{n}",
        "Content-Length: {n}\r\nContent-Length: {more}",
        "Transfer-Encoding: chunked\r\nContent-Length: {n}",
    ], ids=["underscore", "plus-sign", "two-lengths", "te-and-length"])
    def test_untrusted_framing_gets_400_and_a_closed_connection(
        self, daemon, framing
    ):
        import json
        import socket

        body = json.dumps({**TINY_REQUEST, "tenant": "gold"}).encode()
        n = len(body)
        head = framing.format(n=n, more=n + 1, underscored="_".join(str(n)))
        with socket.create_connection(
            ("127.0.0.1", daemon.port), timeout=5
        ) as s:
            s.sendall(
                f"POST /plan HTTP/1.1\r\nHost: t\r\n{head}\r\n\r\n".encode()
                + body
            )
            data = b""
            try:
                while chunk := s.recv(65536):
                    data += chunk
            except TimeoutError:
                pytest.fail(f"connection left open after {data[:12]!r}")
            except ConnectionResetError:
                pass  # closed with the body unread: closed all the same
        assert data.startswith(b"HTTP/1.1 400 "), data[:40]


class TestAdmissionOverHTTP:
    def test_saturation_returns_429_with_retry_after(self):
        """One worker, queue_limit=1: a concurrent burst must shed with
        the Retry-After hint, and the daemon keeps answering."""
        from repro.serve.scheduler import TenantSpec

        d = PlanningDaemon(
            HeldPlannerService(tiny_setup()),
            (TenantSpec("t", queue_limit=1),),
            port=0,
            workers=1,
        )
        d.start()
        c = ServeClient(port=d.port, timeout=30.0)
        try:
            c.wait_ready()
            results = saturating_burst(d, c, "t", TINY_REQUEST)
            assert len(results) == 12
            sheds = [r for r in results if r.status == 429]
            assert sheds, "burst never saturated the 1-deep queue"
            assert all(r.retry_after and r.retry_after > 0 for r in sheds)
            assert any(r.ok for r in results)
            assert c.health()["ok"] is True  # still answering
        finally:
            c.close()
            d.shutdown()


class RecordingHeldService(HeldPlannerService):
    """A held planner that notes each request's ``m`` as planning begins."""

    def __init__(self, setup):
        super().__init__(setup)
        self.begun: list[int] = []

    def plan(self, req):
        self.begun.append(req.m)
        return super().plan(req)


@pytest.fixture
def held():
    """A daemon of one planning slot over a held planner."""
    d = PlanningDaemon(
        RecordingHeldService(tiny_setup()), DEFAULT_TENANTS, port=0,
        workers=1,
    )
    d.start()
    yield d
    d.service.release.set()
    d.shutdown()


def submit_in_thread(daemon, tenant, payload, out):
    t = threading.Thread(
        target=lambda: out.append(daemon.submit(tenant, payload))
    )
    t.start()
    return t


class TestPlanningOnTheHandler:
    # m >= 29 here: no other serving test asks these questions, so the
    # cold-cache tests elsewhere still find theirs unanswered

    def test_no_worker_thread_is_started(self, daemon):
        names = [t.name for t in threading.enumerate()]
        assert not [n for n in names if n.startswith("repro-serve-worker")]

    def test_a_request_granted_at_once_does_not_queue(self, client):
        resp = client.plan("gold", {**TINY_REQUEST, "m": 29})
        assert resp.ok and resp.breakdown["queue"] == 0.0

    def test_handlers_plan_in_the_fair_schedulers_order(self, held):
        """Jobs queued behind a held slot begin planning in the order a
        bare :class:`FairScheduler` gives for the same offers."""
        offers = [
            ("batch", 1.0), ("batch", 1.0), ("batch", 2.0),
            ("interactive", 1.0), ("batch", 1.0), ("interactive", 4.0),
            ("interactive", 1.0), ("batch", 0.5), ("interactive", 2.0),
        ]
        out, threads = [], []
        for i, (tenant, cost) in enumerate(offers):
            payload = {**TINY_REQUEST, "m": 30 + i, "cost": cost}
            threads.append(submit_in_thread(held, tenant, payload, out))
            if i == 0:
                wait_for(lambda: held.service.begun == [30])
            else:
                wait_for(lambda: held.scheduler.backlog() == i)
        held.service.release.set()
        for t in threads:
            t.join(timeout=30)
        assert [status for status, _, _ in out] == [200] * len(offers)

        bare = FairScheduler(DEFAULT_TENANTS, capacity=1)
        jobs = [
            Job(i, tenant, 30 + i, cost, 0.0)
            for i, (tenant, cost) in enumerate(offers)
        ]
        want = []
        for job in jobs:
            bare.offer(job, 0.0)
            if job is jobs[0]:
                first = bare.next_job(0.0)
        bare.finish(first)
        want.append(first.request)
        while (job := bare.next_job(0.0)) is not None:
            want.append(job.request)
            bare.finish(job)
        assert held.service.begun == want
        assert want != sorted(want)  # the weights reorder the queue

    def test_a_request_that_waits_too_long_is_never_planned(
        self, held, monkeypatch
    ):
        monkeypatch.setattr(server_mod, "REQUEST_TIMEOUT", 0.2)
        first = []
        t = submit_in_thread(held, "interactive", dict(TINY_REQUEST), first)
        wait_for(lambda: held.service.begun == [8])
        with ServeClient(port=held.port, timeout=30.0) as client:
            late = client.plan("batch", TINY_REQUEST)
            assert late.status == 504
            assert "planning slot" in late.body["error"]
            assert client.trace(late.job_id)["status"] == "timeout"
            assert held.scheduler.backlog() == 0
            held.service.release.set()
            t.join(timeout=30)
            assert first[0][0] == 200
            assert held.scheduler.inflight == 0
            assert held.service.begun == [8]  # the 504 was not planned
            assert client.plan("batch", TINY_REQUEST).ok
        assert held.stats()["slo"]["errors"] == 1

    def test_a_grant_that_lands_as_the_wait_ends_frees_its_slot(
        self, held, monkeypatch
    ):
        service = held.service

        class LateEvent(threading.Event):
            """A wait that gives up just as its grant lands: it frees the
            held slot, lets the grant arrive, and times out anyway."""

            def wait(self, timeout=None):
                if self.is_set():
                    return True
                service.release.set()
                super().wait(10.0)
                return False

        @dataclasses.dataclass
        class LatePending(server_mod._Pending):
            event: threading.Event = dataclasses.field(
                default_factory=LateEvent
            )

        monkeypatch.setattr(server_mod, "_Pending", LatePending)
        first = []
        t = submit_in_thread(held, "interactive", dict(TINY_REQUEST), first)
        wait_for(lambda: service.begun == [8])
        status, body, _ = held.submit("batch", dict(TINY_REQUEST))
        t.join(timeout=30)
        assert status == 504 and first[0][0] == 200
        assert held.scheduler.inflight == 0
        assert held.scheduler.backlog() == 0
        assert service.begun == [8]
        # the late grant planned nothing: it is not counted as served
        tenants = held.scheduler.snapshot()["tenants"]
        assert (tenants["interactive"]["served"], tenants["batch"]["served"]) == (1, 0)
        assert held.submit("batch", dict(TINY_REQUEST))[0] == 200
        assert held.scheduler.snapshot()["tenants"]["batch"]["served"] == 1


class TestGracefulShutdown:
    def test_drains_and_rejects_new_work(self, daemon, client):
        assert client.plan("gold", TINY_REQUEST).ok
        report = daemon.shutdown()
        assert report["drained"] is True
        # after drain: admission answers 503, not a wedge
        status, body, headers = daemon.submit("gold", dict(TINY_REQUEST))
        assert status == 503
        assert "Retry-After" in headers

    def test_shutdown_idempotent(self, daemon):
        assert daemon.shutdown()["drained"] is True
        assert daemon.shutdown()["drained"] is True
