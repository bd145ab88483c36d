"""Pluggable event instrumentation for the simulation engines.

One process-wide :class:`Recorder` slot; engines fetch it once per run
(:func:`active`) and emit events only when it is non-``None``.  The
disabled path is a single local-variable ``None`` check per event site,
so instrumentation is bitwise-neutral — no arithmetic, scheduling
decision, or allocation differs — and costs well under 5% of engine
wall time (asserted by ``tests/obs/test_events.py``).

Event families (each a bounded in-memory buffer on the recorder):

``tasks``   ``(task_id, node, start, end)`` — one span per executed task
``comms``   ``(producer, src, dst, depart, arrival, nbytes)`` per message
``queue``   ``(time, node, depth)`` — ready-queue depth after each change
``faults``  dicts from the resilience loop (crash/recovery/drop/slowdown)
``cache``   ``(event, key)`` — compiled-graph cache hits and misses
``runs``    one dict per engine invocation (engine, wall_s, makespan, …)
``notes``   free-form dicts (native-core builds, engine fallbacks, …)

Recording *levels*: ``"tasks"`` (default) captures everything, which
forces the compiled simulators onto their pure-Python array loop (the C
core cannot call back into Python); ``"summary"`` keeps the C core and
records only run-level events.  Both engine choices are bit-identical,
so the recorded results never depend on the level.

Usage::

    from repro.obs import recording

    with recording() as rec:
        sim.run(graph)
    print(len(rec.tasks), "task spans,", len(rec.comms), "messages")
"""

from __future__ import annotations

from contextlib import contextmanager

__all__ = [
    "Recorder",
    "active",
    "install",
    "recording",
    "uninstall",
]

#: recording levels, in increasing detail
LEVELS = ("summary", "tasks")


class Recorder:
    """In-memory event sink with bounded buffers.

    ``max_events`` caps each buffer independently; overflow increments
    ``dropped`` instead of growing without bound (paper-scale graphs
    reach millions of tasks).
    """

    __slots__ = (
        "level",
        "max_events",
        "tasks",
        "comms",
        "queue",
        "faults",
        "cache",
        "runs",
        "notes",
        "dropped_events",
    )

    def __init__(self, level: str = "tasks", max_events: int = 2_000_000):
        if level not in LEVELS:
            raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
        self.level = level
        self.max_events = max_events
        self.tasks: list[tuple[int, int, float, float]] = []
        self.comms: list[tuple[int, int, int, float, float, int]] = []
        self.queue: list[tuple[float, int, int]] = []
        self.faults: list[dict] = []
        self.cache: list[tuple[str, str]] = []
        self.runs: list[dict] = []
        self.notes: list[dict] = []
        #: events dropped on overflow, by family — buffer pressure is
        #: attributable (exported as ...dropped_events_total{family=...})
        self.dropped_events: dict[str, int] = {
            "tasks": 0, "comms": 0, "queue": 0, "faults": 0, "cache": 0,
        }

    # -- emission (engines call these behind a ``rec is not None`` guard) --
    def task(self, task_id: int, node: int, start: float, end: float) -> None:
        if len(self.tasks) < self.max_events:
            self.tasks.append((task_id, node, start, end))
        else:
            self.dropped_events["tasks"] += 1

    def comm(
        self,
        producer: int,
        src: int,
        dst: int,
        depart: float,
        arrival: float,
        nbytes: int,
    ) -> None:
        if len(self.comms) < self.max_events:
            self.comms.append((producer, src, dst, depart, arrival, nbytes))
        else:
            self.dropped_events["comms"] += 1

    def queue_depth(self, time: float, node: int, depth: int) -> None:
        if len(self.queue) < self.max_events:
            self.queue.append((time, node, depth))
        else:
            self.dropped_events["queue"] += 1

    def fault(self, event: dict) -> None:
        if len(self.faults) < self.max_events:
            self.faults.append(event)
        else:
            self.dropped_events["faults"] += 1

    def cache_event(self, event: str, key: str) -> None:
        """``event`` ∈ hit-memory / miss / store."""
        if len(self.cache) < self.max_events:
            self.cache.append((event, key))
        else:
            self.dropped_events["cache"] += 1

    def run(self, **info) -> None:
        """One engine invocation: engine name, wall seconds, results."""
        self.runs.append(info)

    def note(self, kind: str, **info) -> None:
        info["kind"] = kind
        self.notes.append(info)

    # -- convenience -------------------------------------------------- #
    @property
    def dropped(self) -> int:
        """Total dropped events across every family."""
        return sum(self.dropped_events.values())

    @property
    def want_tasks(self) -> bool:
        """True when per-task/per-message detail is requested."""
        return self.level == "tasks"

    def cache_counts(self) -> dict[str, int]:
        """Cache event totals by kind (hit-memory/miss/store)."""
        out: dict[str, int] = {}
        for event, _ in self.cache:
            out[event] = out.get(event, 0) + 1
        return out


_recorder: Recorder | None = None


def active() -> Recorder | None:
    """The installed recorder, or None (the no-op fast path)."""
    return _recorder


def install(rec: Recorder) -> Recorder:
    """Install ``rec`` as the process-wide recorder (replaces any)."""
    global _recorder
    _recorder = rec
    return rec


def uninstall() -> None:
    """Remove the installed recorder (back to the no-op fast path)."""
    global _recorder
    _recorder = None


@contextmanager
def recording(level: str = "tasks", max_events: int = 2_000_000):
    """Context manager: install a fresh recorder, yield it, uninstall.

    Not reentrant — the inner recorder of nested ``recording()`` blocks
    wins until it exits, then the slot empties (rather than restoring
    the outer one); keep one active block per process.
    """
    rec = install(Recorder(level=level, max_events=max_events))
    try:
        yield rec
    finally:
        uninstall()
