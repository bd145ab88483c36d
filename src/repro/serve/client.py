"""Stdlib JSON client for the planning daemon, plus a stream driver.

:class:`ServeClient` keeps a pool of persistent sockets, reading
replies with the daemon's own bounded reader (:mod:`repro.serve.wire`)
— thread-safe because a request holds its socket alone until the reply
is read, and it survives daemon restarts by reconnecting once;
:func:`drive` replays an arrival trace against a live daemon and
tallies the outcomes — the CI ``serve-smoke`` job is built on it.

Every ``POST /plan`` mints a fresh trace context and sends it as a
``traceparent`` header; the daemon joins it, so the span tree answering
``GET /trace/<job_id>`` carries the client's trace id end to end.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from dataclasses import dataclass

from repro.obs.tracing import format_traceparent, mint_span_id, mint_trace_id
from repro.serve.arrivals import Arrival
from repro.serve.wire import WireError, read_head

__all__ = ["PlanResponse", "ServeClient", "drive"]

_STATUS_LINE = re.compile(r"HTTP/1\.[01] ([1-9][0-9][0-9])(?: .*)?")


@dataclass(frozen=True)
class PlanResponse:
    """Outcome of one ``POST /plan``."""

    status: int
    body: dict
    retry_after: float | None = None

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def shed(self) -> bool:
        return self.status in (429, 503)

    @property
    def trace_id(self) -> str | None:
        """The request's trace id (also on shed/error responses)."""
        return self.body.get("trace_id")

    @property
    def job_id(self) -> int | None:
        """Server-side job id — the key for ``GET /trace/<job_id>``."""
        return self.body.get("job_id")

    @property
    def breakdown(self) -> dict | None:
        """Per-stage latency attribution (admission/queue/cache/plan/
        simulate/total), present on 200 responses."""
        return self.body.get("breakdown")


class ServeClient:
    """Minimal client for the ``repro serve`` HTTP API.

    A request takes an idle kept-alive connection (opening one when none
    is idle) and gives it back once its reply is read: two requests in
    flight never share a socket, and calls made one after another reuse
    one.  A request is sent again, once and on a fresh connection, only
    when a *reused* connection failed before any byte of the response
    arrived — the daemon had hung up on an idle socket and never saw the
    request.  Every other failure closes the connection and raises.
    :meth:`close` (or leaving the ``with`` block) closes the idle
    connections now and each busy one when its request ends; the client
    stays usable and reconnects on the next call.
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8539, *,
        timeout: float = 60.0,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._lock = threading.Lock()
        #: open connections no request holds
        self._idle: list[_Connection] = []
        #: bumped by close(): a connection taken before it is not kept
        self._epoch = 0

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Close the idle connections now, and each one in use when its
        request ends."""
        with self._lock:
            self._epoch += 1
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    # ------------------------------------------------------------------ #
    def _connection(self) -> _Connection:
        """An idle connection, else a new unopened one, for one request."""
        with self._lock:
            conn = self._idle.pop() if self._idle else _Connection()
            conn.epoch = self._epoch
        return conn

    def _release(self, conn: _Connection) -> None:
        """Pool ``conn`` again unless it is closed or close() ran since."""
        with self._lock:
            if conn.sock is not None and conn.epoch == self._epoch:
                self._idle.append(conn)
                return
        conn.close()

    def _request(
        self, method: str, path: str, payload: dict | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        host = f"[{self.host}]" if ":" in self.host else self.host
        head = f"{method} {path} HTTP/1.1\r\nHost: {host}:{self.port}\r\n"
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode()
            head += (
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
        for name, value in (headers or {}).items():
            head += f"{name}: {value}\r\n"
        request = (head + "\r\n").encode("latin-1") + body
        conn = self._connection()

        def send() -> None:
            """Send, then wait for the first response byte without
            consuming it: past this point the daemon has the request."""
            if conn.sock is None:
                conn.connect((self.host, self.port), self.timeout)
            conn.sock.sendall(request)
            if not conn.sock.recv(1, socket.MSG_PEEK):
                raise ConnectionResetError(
                    "daemon closed the connection without a response"
                )

        try:
            reused = conn.sock is not None
            try:
                send()
            except ConnectionError:
                if not reused:
                    raise
                conn.close()
                send()  # connects anew
            start, reply_headers, length = read_head(conn.rfile) or ("", {}, 0)
            status = _STATUS_LINE.fullmatch(start)
            if status is None:
                raise WireError(f"broken status line {start[:64]!r}")
            if length is None:
                raise WireError("reply without Content-Length")
            data = conn.rfile.read(length)
            if len(data) < length:
                raise WireError(f"reply body ends at {len(data)} of {length}")
            if "close" in reply_headers.get("connection", "").lower():
                conn.close()
        except BaseException:
            conn.close()
            raise
        self._release(conn)
        return int(status[1]), reply_headers, data

    # ------------------------------------------------------------------ #
    def plan(self, tenant: str, request: dict) -> PlanResponse:
        """Submit one planning request for ``tenant``."""
        payload = dict(request)
        payload["tenant"] = tenant
        traceparent = format_traceparent(mint_trace_id(), mint_span_id())
        status, headers, data = self._request(
            "POST", "/plan", payload, headers={"traceparent": traceparent}
        )
        try:
            body = json.loads(data) if data else {}
        except json.JSONDecodeError:
            body = {"raw": data.decode(errors="replace")}
        retry = headers.get("retry-after")
        return PlanResponse(
            status=status,
            body=body if isinstance(body, dict) else {"raw": body},
            retry_after=float(retry) if retry else None,
        )

    def health(self) -> dict:
        status, _, data = self._request("GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"healthz returned {status}")
        return json.loads(data)

    def stats(self) -> dict:
        status, _, data = self._request("GET", "/stats")
        if status != 200:
            raise RuntimeError(f"stats returned {status}")
        return json.loads(data)

    def metrics(self) -> str:
        """Scrape the Prometheus text exposition."""
        status, _, data = self._request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"metrics returned {status}")
        return data.decode()

    def trace(self, job_id: int) -> dict:
        """Fetch the span tree of a recent request by job id."""
        status, _, data = self._request("GET", f"/trace/{job_id}")
        if status != 200:
            raise RuntimeError(f"trace/{job_id} returned {status}: {data!r}")
        return json.loads(data)

    def flight(self, *, trigger: bool = False) -> dict:
        """Fetch the flight-recorder snapshot (``trigger=True`` dumps
        the ring first — the CI smoke uses it to capture a dump)."""
        path = "/debug/flight" + ("?trigger=1" if trigger else "")
        status, _, data = self._request("GET", path)
        if status != 200:
            raise RuntimeError(f"debug/flight returned {status}")
        return json.loads(data)

    def wait_ready(self, *, attempts: int = 50, delay: float = 0.1) -> dict:
        """Poll ``/healthz`` until the daemon answers (fresh boots)."""
        last: Exception | None = None
        for _ in range(attempts):
            try:
                return self.health()
            except (OSError, RuntimeError) as exc:
                last = exc
                time.sleep(delay)
        raise RuntimeError(f"daemon never became ready: {last}")


class _Connection:
    """One socket to the daemon and its buffered reader; ``sock`` is
    ``None`` while closed."""

    sock: socket.socket | None = None
    epoch = 0  # the client's close() count when a request took it

    def connect(self, address: tuple[str, int], timeout: float) -> None:
        self.sock = socket.create_connection(address, timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def close(self) -> None:
        if self.sock is not None:
            self.rfile.close()
            self.sock.close()
            self.sock = None


def drive(
    client: ServeClient,
    arrivals: list[Arrival],
    *,
    time_scale: float = 0.0,
    honor_retry_after: bool = False,
) -> dict:
    """Replay ``arrivals`` against a live daemon, closed-loop.

    ``time_scale`` compresses the trace's inter-arrival gaps
    into real sleeps (0 = send back-to-back).  With
    ``honor_retry_after`` a shed response is retried once after the
    daemon's hint — the polite-client behavior documented in
    ``docs/serving.md``.  Returns outcome tallies.
    """
    sent = ok = shed = errors = retried_ok = 0
    last_t = arrivals[0].time if arrivals else 0.0
    for ev in arrivals:
        if time_scale > 0 and ev.time > last_t:
            time.sleep((ev.time - last_t) * time_scale)
        last_t = ev.time
        resp = client.plan(ev.tenant, ev.request)
        sent += 1
        if resp.ok:
            ok += 1
        elif resp.shed:
            shed += 1
            if honor_retry_after and resp.retry_after is not None:
                time.sleep(min(resp.retry_after, 2.0))
                again = client.plan(ev.tenant, ev.request)
                sent += 1
                if again.ok:
                    ok += 1
                    retried_ok += 1
                elif again.shed:
                    shed += 1
                else:
                    errors += 1
        else:
            errors += 1
    return {
        "sent": sent,
        "ok": ok,
        "shed": shed,
        "errors": errors,
        "retried_ok": retried_ok,
    }
