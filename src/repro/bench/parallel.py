"""Parallel sweep engine for benchmark and explorer fan-out.

Sweep points (and explorer candidates) are independent simulations, so
they parallelize trivially over a :class:`~concurrent.futures.
ProcessPoolExecutor`.  ``parallel_map`` preserves input order — results
are deterministic and identical to the serial path regardless of worker
count — and degrades to a plain serial loop when one worker is requested
(or the pool cannot start, e.g. on restricted platforms).

Observability: every point is timed (pool and serial paths alike).  A
pool failure that forces the serial fallback is *logged* (it used to be
silent — a sweep could quietly lose all its parallelism), a point that
raises in the serial path is logged with its index before the exception
propagates, and points much slower than the sweep median are reported
through the ``repro.bench.parallel`` logger.  Every line is a
structured JSON record (:func:`repro.obs.logging.jsonlog`) with the
human-readable phrase preserved in its ``msg`` field.  Per-point
seconds also feed the ``sweep_point`` stage of the self-profiler when
one is active (:mod:`repro.obs.profile`).

Worker count: ``REPRO_BENCH_WORKERS`` overrides; the default is the CPU
count.  Functions submitted must be module-level (picklable), taking one
item.
"""

from __future__ import annotations

import logging
import os
import time
from typing import Callable, Iterable, Sequence, TypeVar

from repro.obs.logging import jsonlog

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["default_workers", "log_transport", "parallel_map"]

log = logging.getLogger("repro.bench.parallel")

#: a point this many times slower than the sweep median gets reported
SLOW_POINT_FACTOR = 8.0


def log_transport(transport: str, *, workers: int, points: int) -> None:
    """Announce the sweep's point-distribution transport, once per sweep.

    ``transport`` is one of ``batched-c`` (single in-process C call),
    ``pickle`` (per-point process pool) or ``serial`` (in-process loop).
    """
    jsonlog(
        "sweep_transport", logger=log,
        msg=f"sweep transport: {transport} "
            f"({workers} workers, {points} points)",
        transport=transport, workers=workers, points=points,
    )


def default_workers() -> int:
    """Worker count: ``REPRO_BENCH_WORKERS`` or the CPU count."""
    env = os.environ.get("REPRO_BENCH_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"REPRO_BENCH_WORKERS must be an integer, got {env!r}"
            ) from None
    return os.cpu_count() or 1


def _timed_call(payload: tuple) -> tuple:
    """Run one sweep point and measure it (module-level: picklable)."""
    fn, item = payload
    t0 = time.perf_counter()
    return fn(item), time.perf_counter() - t0


def _serial_map(fn: Callable[[T], R], seq: Sequence[T]) -> tuple[list[R], list[float]]:
    """In-process map with per-point timing; failed points are named."""
    results: list[R] = []
    seconds: list[float] = []
    for i, item in enumerate(seq):
        t0 = time.perf_counter()
        try:
            results.append(fn(item))
        except Exception as exc:
            jsonlog(
                "sweep_point_dropped", level="error", logger=log,
                msg=f"sweep point {i + 1}/{len(seq)} dropped: "
                    f"{type(exc).__name__}: {exc}",
                point=i + 1, points=len(seq), error=type(exc).__name__,
            )
            raise
        seconds.append(time.perf_counter() - t0)
    return results, seconds


def _report_timings(seconds: list[float]) -> None:
    """Log the sweep profile and flag pathological stragglers."""
    if not seconds:
        return
    total = sum(seconds)
    srt = sorted(seconds)
    median = srt[len(srt) // 2]
    jsonlog(
        "sweep_profile", level="debug", logger=log,
        msg=f"sweep: {len(seconds)} points, {total:.3f}s total, "
            f"median {median:.4f}s, max {srt[-1]:.4f}s",
        points=len(seconds), total_s=round(total, 6),
        median_s=round(median, 6), max_s=round(srt[-1], 6),
    )
    threshold = max(median * SLOW_POINT_FACTOR, 0.5)
    slow = [
        (i, s) for i, s in enumerate(seconds) if s > threshold
    ]
    for i, s in slow:
        ratio = s / median if median > 0 else float("inf")
        jsonlog(
            "slow_sweep_point", level="warning", logger=log,
            msg=f"slow sweep point {i}: {s:.3f}s "
                f"(median {median:.4f}s, {ratio:.0f}x)",
            point=i, seconds=round(s, 6), median_s=round(median, 6),
        )
    from repro.obs.profile import active_profile

    prof = active_profile()
    if prof is not None:
        for s in seconds:
            prof.add("sweep_point", s)


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    workers: int | None = None,
) -> list[R]:
    """Map ``fn`` over ``items``, preserving order.

    Fans out over a process pool when more than one worker is available
    and there is more than one item; otherwise runs serially in-process.
    ``fn`` must be picklable (module-level) for the parallel path.
    """
    seq: Sequence[T] = items if isinstance(items, Sequence) else list(items)
    if workers is None:
        workers = default_workers()
    workers = min(workers, len(seq))
    if workers <= 1:
        log_transport("serial", workers=1, points=len(seq))
        results, seconds = _serial_map(fn, seq)
        _report_timings(seconds)
        return results
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    try:
        log_transport("pickle", workers=workers, points=len(seq))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pairs = list(pool.map(_timed_call, [(fn, item) for item in seq]))
    except (OSError, ImportError, BrokenExecutor) as exc:
        # pool cannot start (no /dev/shm etc.) or a worker died mid-map
        # (BrokenProcessPool): rerun the whole map serially in-process —
        # loudly, so a sweep never silently loses its parallelism
        jsonlog(
            "pool_failed", level="warning", logger=log,
            msg=f"process pool failed ({type(exc).__name__}: {exc}); "
                f"rerunning all {len(seq)} points serially",
            error=type(exc).__name__, points=len(seq),
        )
        results, seconds = _serial_map(fn, seq)
        _report_timings(seconds)
        return results
    results = [r for r, _ in pairs]
    _report_timings([s for _, s in pairs])
    return results
