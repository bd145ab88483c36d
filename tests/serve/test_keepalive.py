"""Connection reuse end to end: replies that do not stall a kept-alive
connection, the daemon's idle timeout and drain behaviour, and the
client's connection pool and retry-once rule."""

import http.client
import json
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

import repro.serve.client as client_mod
import repro.serve.server as server_mod
from _serve_testlib import (
    TENANTS,
    TINY_REQUEST,
    HeldPlannerService,
    tiny_setup,
    wait_for,
)
from repro.serve.client import ServeClient
from repro.serve.server import PlanningDaemon
from repro.serve.service import PlannerService


def start_daemon(port: int = 0) -> PlanningDaemon:
    d = PlanningDaemon(
        PlannerService(tiny_setup()), TENANTS, port=port, workers=2
    )
    d.start()
    return d


@pytest.fixture
def daemon():
    d = start_daemon()
    yield d
    d.shutdown()


def held_daemon(workers: int) -> PlanningDaemon:
    d = PlanningDaemon(
        HeldPlannerService(tiny_setup()), TENANTS, port=0, workers=workers
    )
    d.start()
    return d


def in_threads(client: ServeClient, n: int):
    """Start ``n`` plans on their own threads; the returned function
    joins them and gives their responses."""
    out = [None] * n

    def plan(i: int) -> None:
        out[i] = client.plan("gold", TINY_REQUEST)

    threads = [threading.Thread(target=plan, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()

    def replies():
        for t in threads:
            t.join(timeout=30)
        return out

    return replies


@pytest.fixture
def taken(monkeypatch):
    """Every connection ``ServeClient`` hands to a request, in order."""
    made = []
    real = ServeClient._connection

    def spying(self):
        conn = real(self)
        made.append(conn)
        return conn

    monkeypatch.setattr(ServeClient, "_connection", spying)
    return made


@pytest.fixture
def connects(monkeypatch):
    """Count the TCP connects ``ServeClient`` makes."""
    made = []
    real = client_mod._Connection.connect

    def counting(self, *args):
        made.append(self)
        return real(self, *args)

    monkeypatch.setattr(client_mod._Connection, "connect", counting)
    return made


class TestReusedConnectionDoesNotStall:
    #: 30 replies that each wait out a delayed ACK take 30 x 40 ms
    BUDGET_S = 0.4

    def test_thirty_requests_on_one_raw_connection(self, daemon):
        conn = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=30)
        body = json.dumps({**TINY_REQUEST, "tenant": "gold"})
        try:
            conn.request("POST", "/plan", body=body)  # warm: build + simulate
            assert conn.getresponse().read()
            sock = conn.sock
            t0 = time.perf_counter()
            for _ in range(30):
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                assert resp.status == 200 and json.loads(resp.read())["ok"]
            healthz_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            for _ in range(30):
                conn.request("POST", "/plan", body=body)
                resp = conn.getresponse()
                assert resp.status == 200
                assert json.loads(resp.read())["cache_hit"] is True
            plan_s = time.perf_counter() - t0
            assert conn.sock is sock, "the daemon closed a kept-alive connection"
        finally:
            conn.close()
        assert healthz_s < self.BUDGET_S, f"{healthz_s / 30 * 1e3:.1f} ms each"
        assert plan_s < self.BUDGET_S, f"{plan_s / 30 * 1e3:.1f} ms each"


class TestDaemonSide:
    def test_idle_connection_ends_on_the_handler_timeout(self, monkeypatch):
        monkeypatch.setattr(server_mod, "IDLE_TIMEOUT", 0.2)
        d = start_daemon()
        try:
            conn = http.client.HTTPConnection("127.0.0.1", d.port, timeout=5)
            conn.request("GET", "/healthz")
            conn.getresponse().read()
            assert len(d._connections) == 1
            assert conn.sock.recv(1) == b""  # blocks until the daemon hangs up
            conn.close()
            deadline = time.monotonic() + 5
            while d._connections and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not d._connections
            # the bundled client just reconnects
            with ServeClient(port=d.port) as client:
                assert client.health()["ok"]
                time.sleep(0.5)
                assert client.health()["ok"]
        finally:
            d.shutdown()

    def test_draining_reply_closes_the_connection(self, daemon):
        conn = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=5)
        body = json.dumps({**TINY_REQUEST, "tenant": "gold"})
        try:
            conn.request("POST", "/plan", body=body)
            first = conn.getresponse()
            first.read()
            assert first.status == 200 and not first.will_close
            with daemon._cond:
                daemon._draining = True  # the window shutdown() drains in
            conn.request("POST", "/plan", body=body)
            resp = conn.getresponse()
            assert resp.status == 503
            assert resp.getheader("Connection") == "close"
            assert resp.getheader("Retry-After") == "1"
            resp.read()
            assert conn.sock is None
        finally:
            conn.close()

    def test_shutdown_ends_kept_alive_handler_threads(self, daemon):
        with ServeClient(port=daemon.port) as client:
            client.health()
            handlers = [
                t for t in threading.enumerate()
                if "process_request_thread" in t.name
            ]
            assert handlers
            daemon.shutdown()
            for t in handlers:
                t.join(timeout=5)
                assert not t.is_alive()
            assert not daemon._connections


    def test_shutdown_waits_for_a_handler_slow_to_read_again(
        self, monkeypatch, connects
    ):
        """A handler that has written its reply but not yet read the next
        request is joined by shutdown(): its connection is closed when
        shutdown() returns, so a request sent then reconnects to the next
        daemon instead of being answered 503 by the draining one."""
        real = server_mod.read_head
        reads = []

        def slow_read_head(rfile):
            reads.append(rfile)
            if len(reads) > 1:  # every read after the first request
                time.sleep(0.5)
            return real(rfile)

        monkeypatch.setattr(server_mod, "read_head", slow_read_head)
        first = start_daemon()
        port = first.port
        with ServeClient(port=port, timeout=30.0) as client:
            assert client.plan("gold", TINY_REQUEST).ok
            first.shutdown()
            second = start_daemon(port)
            try:
                after = client.plan("gold", TINY_REQUEST)
                assert after.ok, (after.status, after.body)
                assert len(connects) == 2
            finally:
                second.shutdown()


class TestServeClient:
    def test_calls_on_one_thread_share_one_connection(self, daemon, connects):
        with ServeClient(port=daemon.port) as client:
            client.wait_ready()
            for _ in range(5):
                assert client.plan("gold", TINY_REQUEST).ok
            client.stats()
            client.metrics()
            assert len(connects) == 1

    def test_daemon_restart_costs_exactly_one_reconnect(self, connects):
        first = start_daemon()
        port = first.port
        with ServeClient(port=port, timeout=30.0) as client:
            before = client.plan("gold", TINY_REQUEST)
            assert before.ok and len(connects) == 1
            first.shutdown()
            second = start_daemon(port)
            try:
                after = client.plan("gold", TINY_REQUEST)
                assert after.ok
                assert after.body["makespan_s"] == before.body["makespan_s"]
                assert len(connects) == 2
                assert client.plan("gold", TINY_REQUEST).ok
                assert len(connects) == 2
            finally:
                second.shutdown()

    def test_fresh_connection_failure_is_not_retried(self, connects):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]  # bound, never listening
        with ServeClient(port=port, timeout=2.0) as client:
            with pytest.raises(ConnectionError):
                client.health()
        assert len(connects) == 1

    @pytest.mark.parametrize("reply", [
        b'HTTP/1.1 200 OK\r\nContent-Length: 64\r\n\r\n{"ok": tr',
        b"HTTP/1.1 2",
    ], ids=["mid-body", "mid-status-line"])
    def test_death_after_first_response_byte_raises_and_is_not_resent(
        self, reply, connects
    ):
        """Request 1 is answered properly and keeps the connection; the
        reply to request 2 breaks off after ``reply`` with a reset."""
        good = json.dumps({"ok": True}).encode()
        received = []
        listener = socket.create_server(("127.0.0.1", 0))

        def read_request(conn) -> None:
            data = b""
            while b"\r\n\r\n" not in data:
                data += conn.recv(4096)
            received.append(data.split(b"\r\n", 1)[0])

        def fake_daemon() -> None:
            conn, _ = listener.accept()
            read_request(conn)
            conn.sendall(
                b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s"
                % (len(good), good)
            )
            read_request(conn)
            conn.sendall(reply)
            time.sleep(0.05)  # let the bytes arrive ahead of the reset
            conn.setsockopt(  # linger on, 0 s: close() sends a reset
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            conn.close()

        server = threading.Thread(target=fake_daemon, daemon=True)
        server.start()
        try:
            port = listener.getsockname()[1]
            with ServeClient(port=port, timeout=5.0) as client:
                assert client.health() == {"ok": True}
                with pytest.raises((http.client.HTTPException, ConnectionError)):
                    client.health()
                assert client._connection().sock is None  # dropped, not kept
        finally:
            server.join(timeout=5)
            listener.close()
        assert not server.is_alive()
        assert len(received) == 2  # the second request went out once
        assert len(connects) == 1

    def test_two_requests_in_flight_never_share_a_socket(self, taken):
        """Two plans held in the planner at once hold two open sockets;
        both go back to the pool when their replies are read."""
        d = held_daemon(workers=2)
        client = ServeClient(port=d.port, timeout=30.0)
        try:
            replies = in_threads(client, 2)
            wait_for(lambda: d.scheduler.inflight == 2)
            assert len(taken) == 2
            a, b = taken
            assert a is not b and a.sock is not b.sock
            assert a.sock.fileno() != -1 and b.sock.fileno() != -1
            d.service.release.set()
            assert [r.status for r in replies()] == [200, 200]
            assert sorted(map(id, client._idle)) == sorted(map(id, taken))
        finally:
            d.service.release.set()
            client.close()
            d.shutdown()

    def test_threads_one_after_another_reuse_one_connection(
        self, daemon, connects
    ):
        client = ServeClient(port=daemon.port)
        try:
            for _ in range(8):
                t = threading.Thread(
                    target=client.plan, args=("gold", TINY_REQUEST)
                )
                t.start()
                t.join()
            assert len(connects) == 1
            assert len(client._idle) == 1
            assert len(daemon._connections) == 1
        finally:
            client.close()

    def test_close_spares_a_socket_until_its_request_ends(self, taken):
        """close() shuts an idle socket at once but never one a request
        is reading from: that one closes when its reply is in."""
        d = held_daemon(workers=1)
        client = ServeClient(port=d.port, timeout=30.0)
        try:
            client.health()
            (idle,) = taken
            idle_sock = idle.sock
            replies = in_threads(client, 1)
            wait_for(lambda: d.scheduler.inflight == 1)
            assert taken[1] is idle  # the held plan reuses it
            assert client.health()["ok"]  # a second, idle connection
            assert len(client._idle) == 1
            spare = client._idle[0]
            spare_sock = spare.sock
            client.close()
            assert spare_sock.fileno() == -1 and spare.sock is None
            assert idle_sock.fileno() != -1  # still read by the held plan
            d.service.release.set()
            assert [r.status for r in replies()] == [200]
            assert idle_sock.fileno() == -1 and not client._idle
            assert client.health()["ok"]  # usable after close: reconnects
        finally:
            d.service.release.set()
            client.close()
            d.shutdown()

    def test_close_leaves_no_open_socket(self, daemon):
        """``-W error`` turns a leaked socket's ResourceWarning into
        stderr noise at collection time; a closed client leaves none."""
        script = f"""
import gc, threading
from repro.serve.client import ServeClient

with ServeClient(port={daemon.port}) as client:
    threads = [threading.Thread(target=client.health) for _ in range(2)]
    for t in threads:
        t.start()
    client.plan("gold", {TINY_REQUEST!r})
    for t in threads:
        t.join()
client = ServeClient(port={daemon.port})
client.health()
client.close()
client.health()  # usable after close: reconnects
client.close()
del client
gc.collect()
"""
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", script],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
