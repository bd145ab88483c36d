"""``repro serve`` — the persistent HQR planning daemon.

Stdlib-only: a threaded :mod:`socketserver` front end, one handler
thread per connection reading each request with the bounded reader of
:mod:`repro.serve.wire`, over a
:class:`~repro.serve.scheduler.FairScheduler` and a
:class:`~repro.serve.service.PlannerService`.  A handler *offers* its
job (admission control answers 429 + ``Retry-After`` when a tenant's
queue is full or the in-flight cost budget is exhausted), then plans it
itself once granted one of ``workers`` slots; a finished job hands its
slot to the next job the scheduler picks, waking that job's handler.

Endpoints
---------
``POST /plan``           JSON planning request (see ``docs/serving.md``)
``GET  /metrics``        Prometheus text exposition (SLOs, queues, cache)
``GET  /stats``          JSON SLO summary + scheduler snapshot
``GET  /healthz``        liveness + version
``GET  /trace/<job_id>`` span tree of a recent request (`repro.obs.tracing`)
``GET  /debug/flight``   flight-recorder snapshot (``?trigger=1`` dumps now)

Every request is traced: ``POST /plan`` accepts a W3C
``traceparent``-style header (minting a fresh context when absent or
malformed), propagates it back in the response, and returns the
per-stage latency breakdown (admission / queue / cache / plan /
simulate) in the response body.  The flight recorder keeps the last N
traces in a ring and dumps automatically on SLO breach, shed, fault
degradation, or a planner exception.

Graceful shutdown (SIGINT/SIGTERM or :meth:`PlanningDaemon.shutdown`):
stop admitting (503), drain queued and in-flight jobs, then stop — so a killed daemon leaves no half-answered client.
"""

from __future__ import annotations

import json
import re
import signal
import socket
import socketserver
import threading
import time
from dataclasses import dataclass, field
from http import HTTPStatus
from urllib.parse import parse_qs

from repro import __version__
from repro.obs.logging import jsonlog
from repro.obs.tracing import (
    FlightRecorder,
    RequestTrace,
    Tracer,
    attach,
    format_traceparent,
    parse_traceparent,
    span,
)
from repro.serve.scheduler import FairScheduler, Job, TenantSpec
from repro.serve.service import PlannerService, PlanRequest
from repro.serve.slo import SLOTracker
from repro.serve.wire import WireError, read_head

__all__ = ["DEFAULT_TENANTS", "PlanningDaemon"]

#: default tenancy: latency-sensitive, throughput, and exploratory
DEFAULT_TENANTS = (
    TenantSpec("interactive", weight=4.0, queue_limit=8),
    TenantSpec("batch", weight=1.0, queue_limit=16),
    TenantSpec("explore", weight=2.0, queue_limit=8),
)

#: request body size cap (bytes)
MAX_BODY = 64 * 1024
_BODY_SIZE = "body must be 1 byte to 64 KiB of JSON"

#: seconds a kept-alive connection may sit idle (or stall mid-request)
#: before its handler thread closes it; a client that comes back later
#: simply reconnects
IDLE_TIMEOUT = 30.0

#: seconds a queued request waits for a planning slot before its handler
#: replies 504; a plan that has started runs to the end
REQUEST_TIMEOUT = 60.0
#: scheduler cost of a request that names none
DEFAULT_COST = 1.0
#: latency (seconds) above which a served request counts as an SLO
#: breach and dumps the flight recorder
SLO_BREACH_S = 30.0


@dataclass
class _Pending:
    """A handler's request; ``event`` is set when it is granted a slot."""

    req: PlanRequest
    trace: RequestTrace
    event: threading.Event = field(default_factory=threading.Event)
    result: object = None
    error: Exception | None = None


class PlanningDaemon:
    """Long-lived planning service over a local TCP port."""

    def __init__(
        self,
        service: PlannerService | None = None,
        tenants: tuple[TenantSpec, ...] = DEFAULT_TENANTS,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        max_inflight_cost: float | None = None,
        flight_cooldown: float = 1.0,
        access_log: bool = False,
    ):
        self.service = service or PlannerService()
        self.slo = SLOTracker(breach_s=SLO_BREACH_S)
        self.scheduler = FairScheduler(
            tenants, capacity=workers, max_inflight_cost=max_inflight_cost
        )
        self.host = host
        self.requested_port = port
        self.access_log = access_log
        # the tracer keeps its default 256 recent traces, the flight
        # recorder its default ring of 64
        self.tracer = Tracer(flight=FlightRecorder(cooldown=flight_cooldown))
        self._cond = threading.Condition()
        self._draining = False
        self._stopping = False
        self._job_seq = 0
        self._httpd: _Listener | None = None
        #: open client socket -> the handler thread serving it (shutdown)
        self._connections: dict[socket.socket, threading.Thread] = {}
        self._threads: list[threading.Thread] = []
        self._started_at = 0.0
        self._stop_signal = threading.Event()

    # -- lifecycle ----------------------------------------------------- #
    @property
    def port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("daemon not started")
        return self._httpd.server_address[1]

    def start(self) -> None:
        if self._httpd is not None:
            raise RuntimeError("daemon already started")
        handler = _make_handler(self)
        self._httpd = _Listener((self.host, self.requested_port), handler)
        self._started_at = time.monotonic()
        t = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        t.start()
        self._threads.append(t)

    def install_signal_handlers(self) -> None:
        """SIGINT/SIGTERM trigger a graceful drain (main thread only)."""
        def _handler(signum, frame):
            self._stop_signal.set()

        signal.signal(signal.SIGINT, _handler)
        signal.signal(signal.SIGTERM, _handler)

    def serve_until(self, duration: float | None = None) -> None:
        """Block until a signal arrives (or ``duration`` elapses), then
        shut down gracefully."""
        self._stop_signal.wait(timeout=duration)
        self.shutdown()

    def shutdown(self, *, drain_timeout: float = 30.0) -> dict:
        """Drain and stop; idempotent.  Returns a drain report.

        Order matters: stop admitting first (new offers get 503), let
        the handlers empty the queues and finish in-flight plans, then
        stop the HTTP listener.
        """
        with self._cond:
            already = self._stopping
            self._draining = True
        if already:
            return {"drained": True}
        deadline = time.monotonic() + drain_timeout
        drained = True
        with self._cond:
            while self.scheduler.backlog() > 0 or self.scheduler.inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    drained = False
                    break
                self._cond.wait(timeout=min(0.2, remaining))
            self._stopping = True
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        # kept-alive connections outlive the listener: end their read
        # side so an idle handler thread sees EOF and exits now (one mid-
        # reply still finishes writing) instead of answering for a
        # stopped daemon until IDLE_TIMEOUT, and wait for those threads:
        # one slow to read again would otherwise read a request sent after
        # shutdown() returned, and answer it 503
        handlers = list(self._connections.items())
        for conn, _ in handlers:
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # the client hung up first
        deadline = time.monotonic() + 5.0
        for t in self._threads + [t for _, t in handlers]:
            t.join(timeout=max(deadline - time.monotonic(), 0.0))
        return {"drained": drained}

    # -- scheduling ---------------------------------------------------- #
    def _grant(self, now: float) -> None:
        """Give every free slot to the job the fair scheduler picks next
        and wake its handler; call under ``_cond``."""
        while self.scheduler.inflight < self.scheduler.capacity:
            job = self.scheduler.next_job(now)
            if job is None:
                return
            job.request.event.set()

    def _run(self, job: Job) -> None:
        """Plan a granted job on the calling handler thread, then hand
        its slot to the next waiting job."""
        pending: _Pending = job.request
        trace = pending.trace
        trace.span("queue", job.arrival, job.start)
        cache_hit, degraded = None, False
        try:
            with attach(trace), span(
                "service", tenant=job.tenant, cost=job.cost
            ) as sp:
                pending.result = self.service.plan(pending.req)
                cache_hit = pending.result.cache_hit
                degraded = pending.result.degradation > 1.0
                sp.attrs.update(cache_hit=cache_hit, degraded=degraded)
        except Exception as exc:  # answer 500, keep serving
            pending.error = exc
        with self._cond:
            self.scheduler.finish(job)
            self._grant(time.monotonic())
            self._cond.notify_all()
        done = time.monotonic()
        latency = done - job.arrival
        status = "served" if pending.error is None else "error"
        self.slo.record(
            job.tenant, latency=latency, outcome=status,
            cache_hit=cache_hit, degraded=degraded,
        )
        self.tracer.finish(trace, done, status=status)
        flight = self.tracer.flight
        if pending.error is not None:
            flight.trigger("worker-exception", detail=str(pending.error))
        elif degraded:
            flight.trigger("fault", detail=f"job {job.job_id}")
        elif latency > SLO_BREACH_S:
            flight.trigger(
                "slo-breach", detail=f"job {job.job_id} latency {latency:.3f}s"
            )

    def submit(
        self,
        tenant: str,
        payload: dict,
        *,
        traceparent: str | None = None,
        recv: float | None = None,
    ) -> tuple[int, dict, dict]:
        """Admission, a wait for a slot, then planning on the calling
        thread; returns (status, body, headers).

        ``traceparent`` (optional W3C-style header value) joins the
        request to the caller's trace context; ``recv`` is the monotonic
        receive time (defaults to now) so HTTP parse time is attributed.
        """
        if recv is None:
            recv = time.monotonic()
        try:
            req = PlanRequest.from_json(payload)
        except ValueError as exc:
            return 400, {"error": str(exc)}, {}
        ctx = parse_traceparent(traceparent)
        trace = self.tracer.start(
            tenant, recv,
            trace_id=ctx[0] if ctx else None,
            parent_span_id=ctx[1] if ctx else None,
        )
        trace_headers = {
            "Traceparent": format_traceparent(trace.trace_id, trace.span_id),
        }
        pending = _Pending(req=req, trace=trace)
        now = time.monotonic()
        with self._cond:
            if self._draining:
                return (
                    503,
                    {"error": "draining", "retry_after": 1.0},
                    # this daemon answers nothing more: send the client
                    # off the connection, to whoever listens next
                    {"Retry-After": "1", "Connection": "close"},
                )
            self._job_seq += 1
            job = Job(
                job_id=self._job_seq,
                tenant=tenant,
                request=pending,
                cost=req.cost if req.cost is not None else DEFAULT_COST,
                arrival=now,
            )
            trace.job_id = job.job_id
            ids = {"job_id": job.job_id, "trace_id": trace.trace_id}
            try:
                adm = self.scheduler.offer(job, now)
            except KeyError:
                return 400, {"error": f"unknown tenant {tenant!r}"}, {}
            trace.span("admission", recv, now, admitted=adm.admitted)
            if not adm.admitted:
                self.slo.record(tenant, latency=0.0, outcome="shed")
                self.tracer.finish(trace, time.monotonic(), status="shed")
                self.tracer.flight.trigger(
                    "shed", detail=f"{tenant}: {adm.reason}"
                )
                return (
                    429,
                    {"error": "shed", "reason": adm.reason,
                     "retry_after": adm.retry_after, **ids},
                    {"Retry-After": f"{adm.retry_after:.3f}", **trace_headers},
                )
            self._grant(now)
        if not pending.event.wait(timeout=REQUEST_TIMEOUT):
            with self._cond:
                if pending.event.is_set():  # granted at the last moment
                    self.scheduler.finish(job)
                    self._grant(time.monotonic())
                    self._cond.notify_all()
                else:
                    self.scheduler.withdraw(job)
            self.slo.record(tenant, latency=0.0, outcome="error")
            self.tracer.finish(trace, time.monotonic(), status="timeout")
            error = "timed out waiting for a planning slot"
            return 504, {"error": error, **ids}, trace_headers
        self._run(job)
        if pending.error is not None:
            return 500, {"error": str(pending.error), **ids}, trace_headers
        body = pending.result.to_json()
        body.update(ids, breakdown=trace.attribution())
        return 200, body, trace_headers

    # -- introspection ------------------------------------------------- #
    def uptime(self) -> float:
        return max(1e-9, time.monotonic() - self._started_at)

    def metrics_registry(self):
        """Fresh registry with SLO, scheduler, cache and build metrics."""
        from repro.dag.cache import default_cache
        from repro.obs.metrics import MetricsRegistry, cache_metrics_into

        reg = MetricsRegistry()
        self.slo.into_registry(reg, duration=self.uptime())
        with self._cond:
            snap = self.scheduler.snapshot()
        depth = reg.gauge(
            "repro_serve_queue_depth", "queued jobs by tenant"
        )
        admitted = reg.counter(
            "repro_serve_admitted_total", "admitted jobs by tenant"
        )
        for name, st in snap["tenants"].items():
            depth.set(st["queued"], tenant=name)
            admitted.inc(st["admitted"], tenant=name)
        reg.gauge("repro_serve_inflight", "jobs being planned now").set(
            snap["inflight"]
        )
        svc = self.service.counters()
        reg.counter("repro_serve_plans_total", "planner invocations").inc(
            svc["plans"]
        )
        if svc["failures"]:
            reg.counter(
                "repro_serve_plan_failures_total", "planner exceptions"
            ).inc(svc["failures"])
        cache_metrics_into(reg, default_cache().stats())
        fl = self.tracer.flight.snapshot()
        if fl["triggers"]:
            trig = reg.counter(
                "repro_serve_flight_triggers_total",
                "flight-recorder trigger events by reason",
            )
            for reason, n in fl["triggers"].items():
                trig.inc(n, reason=reason)
        reg.gauge(
            "repro_serve_flight_dumps", "retained flight-recorder dumps"
        ).set(len(fl["dumps"]))
        reg.gauge(
            "repro_serve_traces_stored", "request traces retrievable by job id"
        ).set(len(self.tracer.traces()))
        reg.gauge("repro_serve_uptime_seconds", "daemon uptime").set(
            self.uptime()
        )
        reg.gauge(
            "repro_serve_info", "build info (value is always 1)"
        ).set(1, version=__version__)
        return reg

    def stats(self) -> dict:
        with self._cond:
            snap = self.scheduler.snapshot()
        fl = self.tracer.flight.snapshot()
        out = {
            "version": __version__,
            "uptime_s": self.uptime(),
            "scheduler": snap,
            "service": self.service.counters(),
            "slo": self.slo.summary(self.uptime()),
            "tracing": {
                "stored_traces": len(self.tracer.traces()),
                "flight_ring": fl["ring_size"],
                "flight_triggers": fl["triggers"],
            },
        }
        ratio = self.slo.cache_hit_ratio()
        if ratio is not None:
            out["cache_hit_ratio"] = ratio
        return out


# --------------------------------------------------------------------- #
# HTTP plumbing
# --------------------------------------------------------------------- #
_REQUEST_LINE = re.compile(
    r"([!#$%&'*+.^_`|~0-9A-Za-z-]+) (\S+) HTTP/(\d\.\d)"
)
_DAYS = "Mon Tue Wed Thu Fri Sat Sun".split()
_MONTHS = "Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split()


def _http_date() -> str:
    """Now as an IMF-fixdate (RFC 9110), whatever the locale."""
    t = time.gmtime()
    day, month = _DAYS[t.tm_wday], _MONTHS[t.tm_mon - 1]
    return time.strftime(f"{day}, %d {month} %Y %H:%M:%S GMT", t)


class _Listener(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


def _make_handler(daemon: PlanningDaemon):
    server_line = f"Server: repro-serve/{__version__}"

    class Handler(socketserver.StreamRequestHandler):
        """One connection: read a head with :func:`read_head`, answer it,
        and go on while HTTP/1.1 keeps the connection alive."""

        # HTTP/1.1 keeps connections open, so a reply must leave as one
        # segment: headers and body written apart with Nagle on stall a
        # reused connection on the client's delayed ACK (~40 ms a reply)
        disable_nagle_algorithm = True
        timeout = IDLE_TIMEOUT

        def setup(self) -> None:
            super().setup()
            daemon._connections[self.connection] = threading.current_thread()

        def finish(self) -> None:
            daemon._connections.pop(self.connection, None)
            super().finish()

        def handle(self) -> None:
            self.close_connection = False
            try:
                while not self.close_connection:
                    self._handle_one()
            except OSError:
                pass  # idle timeout, or the client hung up mid-request

        def _handle_one(self) -> None:
            try:
                head = read_head(self.rfile)
                if head is None:  # the client hung up between requests
                    self.close_connection = True
                    return
                recv = time.monotonic()
                start, self.headers, length = head
                line = _REQUEST_LINE.fullmatch(start)
                if line is None:
                    raise WireError(f"bad request line {start[:64]!r}")
                self.command, self.path, version = line.groups()
                if version not in ("1.0", "1.1"):
                    raise WireError(f"HTTP/{version} is not supported", 505)
                if self.command not in ("GET", "POST"):
                    raise WireError(f"{self.command} is not supported", 501)
                conn = self.headers.get("connection", "").lower()
                tokens = {t.strip() for t in conn.split(",")}
                self.close_connection = "close" in tokens or (
                    version == "1.0" and "keep-alive" not in tokens
                )
                length = length or 0
                if length > MAX_BODY:
                    raise WireError(_BODY_SIZE, 413)
                body = b""
                if length:
                    expect = self.headers.get("expect", "").lower()
                    if version == "1.1" and expect == "100-continue":
                        self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
                    body = self.rfile.read(length)
                    if len(body) < length:
                        raise WireError("body shorter than its Content-Length")
            except WireError as exc:
                self.close_connection = True
                self._reply(exc.status, {"error": str(exc)})
                return
            if self.command == "GET":
                self.do_GET(recv)
            else:
                self.do_POST(recv, body)

        def _reply(
            self, status: int, body: dict | str, headers: dict | None = None,
            content_type: str = "application/json",
        ) -> None:
            """Write the whole reply in one ``sendall``."""
            data = (
                body.encode()
                if isinstance(body, str)
                else (json.dumps(body, sort_keys=True) + "\n").encode()
            )
            headers = headers or {}
            if headers.get("Connection") == "close":
                self.close_connection = True
            head = [
                f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
                server_line,
                f"Date: {_http_date()}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(data)}",
                *(f"{k}: {v}" for k, v in headers.items()),
            ]
            if self.close_connection and "Connection" not in headers:
                head.append("Connection: close")
            head.append("\r\n")
            self.wfile.write("\r\n".join(head).encode("latin-1") + data)

        def _access_log(
            self, status: int, recv: float, trace_id: str | None = None,
            **fields,
        ) -> None:
            if not daemon.access_log:
                return
            jsonlog(
                "http_access",
                method=self.command,
                path=self.path,
                status=status,
                wall_ms=round((time.monotonic() - recv) * 1e3, 3),
                trace_id=trace_id,
                **fields,
            )

        def do_GET(self, recv: float) -> None:
            path, _, query = self.path.partition("?")
            if path == "/healthz":
                self._reply(200, {"ok": True, "version": __version__})
                status = 200
            elif path == "/metrics":
                text = daemon.metrics_registry().to_prometheus()
                self._reply(
                    200, text, content_type="text/plain; version=0.0.4"
                )
                status = 200
            elif path == "/stats":
                self._reply(200, daemon.stats())
                status = 200
            elif path.startswith("/trace/"):
                status = self._get_trace(path[len("/trace/"):])
            elif path == "/debug/flight":
                params = parse_qs(query)
                if params.get("trigger", ["0"])[-1] not in ("", "0", "false"):
                    daemon.tracer.flight.trigger("manual")
                self._reply(200, daemon.tracer.flight.snapshot())
                status = 200
            else:
                self._reply(404, {"error": f"no such path {self.path}"})
                status = 404
            self._access_log(status, recv)

        def _get_trace(self, raw: str) -> int:
            try:
                job_id = int(raw)
            except ValueError:
                self._reply(400, {"error": f"bad job id {raw!r}"})
                return 400
            trace = daemon.tracer.get(job_id)
            if trace is None:
                self._reply(
                    404,
                    {"error": f"no trace for job {job_id} "
                              "(evicted or never finished)"},
                )
                return 404
            self._reply(200, trace.to_json())
            return 200

        def do_POST(self, recv: float, data: bytes) -> None:
            if self.path != "/plan":
                self._reply(404, {"error": f"no such path {self.path}"})
                self._access_log(404, recv)
                return
            if not data:
                self._reply(400, {"error": _BODY_SIZE})
                self._access_log(400, recv)
                return
            try:
                payload = json.loads(data)
            except (json.JSONDecodeError, UnicodeDecodeError):
                self._reply(400, {"error": "body is not valid JSON"})
                self._access_log(400, recv)
                return
            if not isinstance(payload, dict):
                self._reply(400, {"error": "body must be a JSON object"})
                self._access_log(400, recv)
                return
            tenant = str(payload.pop("tenant", "")) or "interactive"
            status, body, headers = daemon.submit(
                tenant, payload,
                traceparent=self.headers.get("traceparent"),
                recv=recv,
            )
            self._reply(status, body, headers)
            self._access_log(
                status, recv,
                trace_id=body.get("trace_id"),
                tenant=tenant,
                job_id=body.get("job_id"),
            )

    return Handler
