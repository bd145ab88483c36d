"""Request-scoped span trees and the serving flight recorder.

Every request through the serving daemon gets one :class:`RequestTrace`
— a tree of :class:`Span` objects covering admission, queue wait, the
planner service, the graph-cache probe and the core dispatch —
identified by a W3C ``traceparent``-style 32-hex trace id that clients
mint and the server propagates back.

Design constraints, in order:

* **Bitwise neutrality.**  With no trace attached, :func:`span` reads
  one thread-local and times nothing; no span machinery touches
  simulated results, and the golden fixtures pin that.
* **O(1) overhead.**  The flight recorder is a bounded ring of the last
  N finished traces; a trigger (SLO breach, shed, fault, worker
  exception) snapshots the ring into a bounded dump list, rate-limited
  by a cooldown.

Attribution: ``admission + queue + cache + plan + simulate == total``
by construction — ``plan`` is the residual of the request span after
the explicitly measured stages, i.e. config resolution, elimination
list, DAG build/compile and dispatch glue.
"""

from __future__ import annotations

import json
import os
import random
import re
import threading
import time
from collections import OrderedDict, deque
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "ATTRIBUTION_STAGES",
    "FlightRecorder",
    "RequestTrace",
    "Span",
    "Tracer",
    "attach",
    "chrome_span_events",
    "current_span",
    "current_trace",
    "format_trace",
    "format_trace_diff",
    "format_traceparent",
    "load_traces",
    "mint_span_id",
    "mint_trace_id",
    "parse_traceparent",
    "span",
]

#: the stages whose durations are reported in a breakdown; ``plan`` is
#: the residual so the five always sum to the request's total.
ATTRIBUTION_STAGES = ("admission", "queue", "cache", "plan", "simulate")

_TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)


# --------------------------------------------------------------------------- #
# trace context (traceparent)                                                 #
# --------------------------------------------------------------------------- #


#: one id generator a process, seeded from ``os.urandom`` once rather than
#: a syscall an id; a forked child reseeds it, so it repeats no parent id
_ids = random.Random()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_ids.seed)


def mint_trace_id() -> str:
    """A fresh random 32-hex trace id, never all zeros."""
    return f"{_ids.getrandbits(128) or 1:032x}"


def mint_span_id() -> str:
    """A fresh random 16-hex span id, never all zeros."""
    return f"{_ids.getrandbits(64) or 1:016x}"


def format_traceparent(trace_id: str, span_id: str) -> str:
    """``00-<trace id>-<span id>-01`` (version 00, sampled)."""
    return f"00-{trace_id}-{span_id}-01"


def parse_traceparent(header: str | None) -> tuple[str, str] | None:
    """``(trace_id, parent_span_id)`` from a traceparent header.

    Returns ``None`` on anything malformed — an invalid header must
    never fail a request, the server just mints a fresh context.
    """
    if not header:
        return None
    m = _TRACEPARENT_RE.match(header.strip().lower())
    if m is None:
        return None
    version, trace_id, span_id, _flags = m.groups()
    if version == "ff" or set(trace_id) == {"0"} or set(span_id) == {"0"}:
        return None
    return trace_id, span_id


# --------------------------------------------------------------------------- #
# spans                                                                       #
# --------------------------------------------------------------------------- #


@dataclass
class Span:
    """One timed stage: ``[start, end]`` plus attributes and children."""

    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration_s": self.duration,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [c.to_json() for c in self.children]
        return out


class RequestTrace:
    """The span tree of one serving request."""

    __slots__ = (
        "trace_id", "span_id", "parent_span_id",
        "job_id", "tenant", "status", "root",
    )

    def __init__(
        self,
        trace_id: str,
        tenant: str,
        start: float,
        *,
        job_id: int | None = None,
        parent_span_id: str | None = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = mint_span_id()
        self.parent_span_id = parent_span_id
        self.job_id = job_id
        self.tenant = tenant
        self.status = "open"
        self.root = Span("request", start, start)

    def span(self, name: str, start: float, end: float, **attrs) -> Span:
        """Append a completed child span to the request root."""
        sp = Span(name, start, end, dict(attrs))
        self.root.children.append(sp)
        return sp

    def finish(self, end: float, *, status: str = "served") -> None:
        self.root.end = end
        self.status = status

    @property
    def duration(self) -> float:
        return self.root.duration

    def attribution(self) -> dict:
        """Per-stage latency breakdown; the stages sum to ``total``.

        ``admission``/``queue``/``cache``/``simulate`` are the measured
        spans (summed over the whole tree); ``plan`` is the residual —
        config resolution, DAG build, compile and dispatch glue.
        """
        total = self.duration
        sums = {"admission": 0.0, "queue": 0.0, "cache": 0.0, "simulate": 0.0}
        stack = list(self.root.children)
        while stack:
            sp = stack.pop()
            if sp.name in sums:
                sums[sp.name] += sp.duration
            stack.extend(sp.children)
        out = dict(sums)
        out["plan"] = max(0.0, total - sum(sums.values()))
        out["total"] = total
        return out

    def to_json(self) -> dict:
        out = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "job_id": self.job_id,
            "tenant": self.tenant,
            "status": self.status,
            "root": self.root.to_json(),
            "attribution": self.attribution(),
        }
        if self.parent_span_id is not None:
            out["parent_span_id"] = self.parent_span_id
        return out


# --------------------------------------------------------------------------- #
# thread-local current trace + span() context manager                         #
# --------------------------------------------------------------------------- #

#: per thread, the attached trace and its open span; class defaults, so a
#: thread that never attached reads ``None`` without a failed lookup
_tls = type("_Local", (threading.local,), {"trace": None, "span": None})()


def current_trace() -> RequestTrace | None:
    """The trace attached to this thread, if any."""
    return _tls.trace


def current_span() -> Span | None:
    """The span open on this thread, if any."""
    return _tls.span


@contextmanager
def attach(trace: RequestTrace | None):
    """Attach ``trace`` to this thread for the duration of the block.

    While attached, :func:`span` appends spans to its root; ``attach(None)``
    is a no-op shield (spans inside are dropped).
    """
    prev_trace, prev_span = _tls.trace, _tls.span
    _tls.trace, _tls.span = trace, None
    try:
        yield trace
    finally:
        _tls.trace, _tls.span = prev_trace, prev_span


@contextmanager
def span(name: str, **attrs):
    """Time a stage against the attached trace; no-op when detached.

    Nests: a ``span()`` inside another ``span()`` on the same thread
    becomes a child of the enclosing one.
    """
    trace = _tls.trace
    if trace is None:
        yield None
        return
    t0 = time.monotonic()
    sp = Span(name, t0, t0, dict(attrs))
    parent = _tls.span
    (parent.children if parent is not None else trace.root.children).append(sp)
    _tls.span = sp
    try:
        yield sp
    finally:
        sp.end = time.monotonic()
        _tls.span = parent


# --------------------------------------------------------------------------- #
# flight recorder                                                             #
# --------------------------------------------------------------------------- #


class FlightRecorder:
    """Always-on bounded ring of recent traces, dumped on trigger.

    ``record`` is O(1) (deque append with ``maxlen``).  ``trigger``
    snapshots the ring into a bounded dump list unless a previous dump
    happened within ``cooldown`` seconds (pass ``cooldown=0`` to dump on
    every trigger).
    """

    def __init__(
        self,
        capacity: int = 64,
        *,
        max_dumps: int = 8,
        cooldown: float = 1.0,
    ) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self.cooldown = cooldown
        self._ring: deque = deque(maxlen=capacity)
        self._dumps: deque = deque(maxlen=max(1, max_dumps))
        self._last_dump: float | None = None
        self._seq = 0
        self.triggers: dict[str, int] = {}
        self._lock = threading.Lock()

    def record(self, trace: RequestTrace) -> None:
        with self._lock:
            self._ring.append(trace)

    def trigger(
        self,
        reason: str,
        *,
        now: float | None = None,
        detail: str | None = None,
    ) -> dict | None:
        """Snapshot the ring; returns the dump, or ``None`` if rate-limited."""
        if now is None:
            now = time.monotonic()
        with self._lock:
            self.triggers[reason] = self.triggers.get(reason, 0) + 1
            if (
                self._last_dump is not None
                and self.cooldown > 0
                and (now - self._last_dump) < self.cooldown
            ):
                return None
            self._last_dump = now
            self._seq += 1
            dump = {
                "seq": self._seq,
                "reason": reason,
                "detail": detail,
                "at": now,
                "traces": [t.to_json() for t in self._ring],
            }
            self._dumps.append(dump)
            return dump

    def dumps(self) -> list[dict]:
        with self._lock:
            return list(self._dumps)

    def snapshot(self) -> dict:
        """The whole debug view: ring stats, trigger counts, dumps."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "cooldown": self.cooldown,
                "ring_size": len(self._ring),
                "triggers": dict(sorted(self.triggers.items())),
                "dumps": list(self._dumps),
            }


# --------------------------------------------------------------------------- #
# tracer: per-daemon trace store                                              #
# --------------------------------------------------------------------------- #


class Tracer:
    """Creates traces, keeps a bounded job-id index, feeds the recorder."""

    def __init__(
        self,
        *,
        store_capacity: int = 256,
        flight: FlightRecorder | None = None,
    ) -> None:
        if store_capacity < 1:
            raise ValueError("tracer store capacity must be >= 1")
        self.store_capacity = store_capacity
        self.flight = flight if flight is not None else FlightRecorder()
        self._store: OrderedDict[int, RequestTrace] = OrderedDict()
        self._lock = threading.Lock()

    def start(
        self,
        tenant: str,
        start: float,
        *,
        trace_id: str | None = None,
        parent_span_id: str | None = None,
        job_id: int | None = None,
    ) -> RequestTrace:
        """A fresh open trace (not stored until :meth:`finish`)."""
        return RequestTrace(
            trace_id if trace_id is not None else mint_trace_id(),
            tenant,
            start,
            job_id=job_id,
            parent_span_id=parent_span_id,
        )

    def finish(
        self,
        trace: RequestTrace,
        end: float,
        *,
        status: str = "served",
    ) -> None:
        """Close the trace, index it by job id, append to the ring."""
        trace.finish(end, status=status)
        if trace.job_id is not None:
            with self._lock:
                self._store[trace.job_id] = trace
                while len(self._store) > self.store_capacity:
                    self._store.popitem(last=False)
        self.flight.record(trace)

    def get(self, job_id: int) -> RequestTrace | None:
        with self._lock:
            return self._store.get(job_id)

    def traces(self) -> list[RequestTrace]:
        with self._lock:
            return list(self._store.values())


# --------------------------------------------------------------------------- #
# export: Chrome trace events, pretty-print, diff                             #
# --------------------------------------------------------------------------- #


def _as_json(trace) -> dict:
    return trace.to_json() if isinstance(trace, RequestTrace) else dict(trace)


def chrome_span_events(traces) -> list[dict]:
    """Chrome ``trace_event`` dicts for a serving track.

    One pseudo-process (pid 0), one thread row per request (tid = job
    id when known), complete ``X`` events per span.
    """
    events: list[dict] = [{
        "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": "serving requests"},
    }]

    def us(t: float) -> float:
        return t * 1e6

    def emit(sp: dict, tid: int, trace_id: str) -> None:
        args = dict(sp.get("attrs", {}))
        args["trace_id"] = trace_id
        events.append({
            "name": sp["name"], "ph": "X", "pid": 0, "tid": tid,
            "ts": us(sp["start"]),
            "dur": max(0.0, us(sp["end"]) - us(sp["start"])),
            "cat": "serve", "args": args,
        })
        for child in sp.get("children", ()):
            emit(child, tid, trace_id)

    for i, trace in enumerate(traces):
        tj = _as_json(trace)
        tid = tj.get("job_id")
        tid = int(tid) if tid is not None else 100000 + i
        events.append({
            "name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
            "args": {"name": f"job {tid} [{tj.get('tenant', '?')}]"},
        })
        emit(tj["root"], tid, tj.get("trace_id", "?"))
    return events


def load_traces(path: str) -> list[dict]:
    """Read traces from any dump shape this package writes.

    Accepts a single trace object (``GET /trace/<id>``), a flight
    snapshot (``GET /debug/flight``), a single dump, a JSON list, or a
    JSONL file of trace objects.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        traces = []
        for line in text.splitlines():
            line = line.strip()
            if line:
                traces.append(json.loads(line))
        return traces
    if isinstance(doc, list):
        return [dict(t) for t in doc]
    if not isinstance(doc, dict):
        raise ValueError(f"unrecognized trace dump shape in {path}")
    if "root" in doc:  # a single trace
        return [doc]
    if "traces" in doc:  # one flight dump
        return [dict(t) for t in doc["traces"]]
    if "dumps" in doc:  # a flight snapshot
        out: list[dict] = []
        for dump in doc["dumps"]:
            out.extend(dict(t) for t in dump.get("traces", ()))
        return out
    raise ValueError(f"unrecognized trace dump shape in {path}")


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1e3:.3f}ms"


def format_trace(trace: dict) -> str:
    """Human tree view of one trace JSON object."""
    lines = [
        "trace {tid}  job={job}  tenant={tenant}  status={status}  "
        "e2e={e2e}".format(
            tid=trace.get("trace_id", "?"),
            job=trace.get("job_id", "-"),
            tenant=trace.get("tenant", "?"),
            status=trace.get("status", "?"),
            e2e=_fmt_s(trace.get("root", {}).get("duration_s", 0.0)),
        )
    ]
    t0 = trace.get("root", {}).get("start", 0.0)

    def walk(sp: dict, depth: int) -> None:
        attrs = sp.get("attrs", {})
        extra = (
            "  " + " ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
            if attrs else ""
        )
        lines.append(
            "  {indent}{name:<12} {dur:>10}  @+{off}{extra}".format(
                indent="  " * depth,
                name=sp["name"],
                dur=_fmt_s(sp.get("duration_s", 0.0)),
                off=_fmt_s(max(0.0, sp.get("start", t0) - t0)),
                extra=extra,
            )
        )
        for child in sp.get("children", ()):
            walk(child, depth + 1)

    root = trace.get("root")
    if root:
        walk(root, 0)
    att = trace.get("attribution")
    if att:
        lines.append(
            "  breakdown: "
            + "  ".join(
                f"{k}={_fmt_s(att.get(k, 0.0))}" for k in ATTRIBUTION_STAGES
            )
            + f"  total={_fmt_s(att.get('total', 0.0))}"
        )
    return "\n".join(lines)


def format_trace_diff(a: list[dict], b: list[dict]) -> str:
    """Stage-by-stage latency diff between two trace dumps.

    Traces are matched by job id (falling back to trace id); per
    matched request the breakdown deltas are tabulated, then a summary
    line totals each stage across the matches.
    """

    def index(traces: list[dict]) -> dict:
        out = {}
        for t in traces:
            key = t.get("job_id")
            if key is None:
                key = t.get("trace_id")
            out[key] = t
        return out

    ia, ib = index(a), index(b)
    common = [k for k in ia if k in ib]
    lines = [
        f"matched {len(common)} request(s); "
        f"{len(ia) - len(common)} only in A, {len(ib) - len(common)} only in B"
    ]
    totals = {part: 0.0 for part in (*ATTRIBUTION_STAGES, "total")}
    header = "  {:<10}".format("job") + "".join(
        f"{s:>12}" for s in (*ATTRIBUTION_STAGES, "total")
    )
    lines.append(header)
    for key in common:
        aa = ia[key].get("attribution", {})
        bb = ib[key].get("attribution", {})
        row = "  {:<10}".format(str(key))
        for part in (*ATTRIBUTION_STAGES, "total"):
            delta = bb.get(part, 0.0) - aa.get(part, 0.0)
            totals[part] += delta
            row += f"{delta * 1e3:>+10.3f}ms"
        lines.append(row)
    row = "  {:<10}".format("SUM")
    for part in (*ATTRIBUTION_STAGES, "total"):
        row += f"{totals[part] * 1e3:>+10.3f}ms"
    lines.append(row)
    return "\n".join(lines)
