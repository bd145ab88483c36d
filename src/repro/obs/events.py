"""Pluggable run-level instrumentation for the simulation engines.

One process-wide :class:`Recorder` slot; engines fetch it once per run
(:func:`active`) and record only when it is non-``None``, so results are
bitwise-identical with or without a recorder.  It keeps the two families
no other object records:

``runs``    one dict per engine invocation (engine, wall_s, makespan, …)
``notes``   free-form dicts (native-core builds, serving events, …)

Per-task spans, messages and ready-queue depths are the result's own
record: ``run_core(..., record_trace=True)`` returns them as
``SimulationResult.trace`` / ``comm_trace`` / ``queue_trace``.

Usage::

    from repro.obs import recording

    with recording() as rec:
        run_config(m, n, cfg)
    print(len(rec.runs), "engine runs")
"""

from __future__ import annotations

from contextlib import contextmanager

__all__ = [
    "Recorder",
    "active",
    "install",
    "recording",
]


class Recorder:
    """In-memory sink of engine runs and notes."""

    __slots__ = ("runs", "notes")

    def __init__(self):
        self.runs: list[dict] = []
        self.notes: list[dict] = []

    def run(self, **info) -> None:
        """One engine invocation: engine name, wall seconds, results."""
        self.runs.append(info)

    def note(self, kind: str, **info) -> None:
        info["kind"] = kind
        self.notes.append(info)


_recorder: Recorder | None = None


def active() -> Recorder | None:
    """The installed recorder, or None (the no-op fast path)."""
    return _recorder


def install(rec: Recorder | None) -> Recorder | None:
    """Install ``rec`` as the process-wide recorder (replaces any);
    ``None`` returns to the no-op fast path."""
    global _recorder
    _recorder = rec
    return rec


@contextmanager
def recording():
    """Context manager: install a fresh recorder, yield it, and on exit
    restore the recorder it replaced."""
    outer = active()
    rec = install(Recorder())
    try:
        yield rec
    finally:
        install(outer)
