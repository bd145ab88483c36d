"""Shared machinery for the figure benchmarks.

The paper's platform: b = 280, virtual grid 15 x 4 on 60 nodes x 8 cores
(edel).  Matrix sizes are expressed in *tiles* internally; the paper's
``M`` axis values are ``m * 280``.

Scaling: the full paper sweep reaches m = 1024 tile rows (M = 286,720) and
240 x 240 tiles for Figure 9 — a few million simulated tasks.  The default
sweeps are truncated to keep a laptop run in minutes; set the environment
variable ``REPRO_BENCH_SCALE=full`` to simulate every published point (or
``=small`` for a quick smoke run).
"""

from __future__ import annotations

import logging
import os
import queue
import threading
from dataclasses import dataclass, field
from functools import partial

from repro.dag.graph import TaskGraph
from repro.hqr.config import HQRConfig
from repro.hqr.hierarchy import hqr_elimination_list
from repro.obs.logging import jsonlog
from repro.obs.profile import stage
from repro.runtime.machine import Machine
from repro.runtime.simulator import ClusterSimulator, SimulationResult
from repro.tiles.layout import BlockCyclic2D, Layout
from repro.trees.base import Elimination

log = logging.getLogger("repro.bench.runner")


def bench_scale() -> str:
    """Current benchmark scale: ``small``, ``default`` or ``full``."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "default").lower()
    if scale not in ("small", "default", "full"):
        raise ValueError(f"REPRO_BENCH_SCALE must be small/default/full, got {scale!r}")
    return scale


#: tile-row counts of the paper's Figure 6-8 sweep (M = m * 280)
PAPER_M_TILES = (16, 32, 64, 128, 256, 512, 1024)


def sweep_m_values() -> tuple[int, ...]:
    """Figure 6-8 tile-row sweep, truncated by ``REPRO_BENCH_SCALE``."""
    scale = bench_scale()
    if scale == "small":
        return PAPER_M_TILES[:3]
    if scale == "default":
        return PAPER_M_TILES[:6]
    return PAPER_M_TILES


def sweep_n_values() -> tuple[int, ...]:
    """Figure 9 tile-column sweep (m = 240), truncated by scale."""
    scale = bench_scale()
    if scale == "small":
        return (4, 16, 40)
    if scale == "default":
        return (4, 16, 40, 80, 120)
    return (4, 16, 40, 80, 120, 160, 200, 240)


@dataclass(frozen=True)
class BenchSetup:
    """The paper's experimental conditions (§V-A)."""

    b: int = 280
    grid_p: int = 15
    grid_q: int = 4
    machine: Machine = field(default_factory=Machine.edel)

    def __post_init__(self) -> None:
        ranks = self.grid_p * self.grid_q
        if ranks > self.machine.nodes:
            raise ValueError(
                f"process grid {self.grid_p}x{self.grid_q} needs {ranks} nodes "
                f"but the machine has only {self.machine.nodes}"
            )

    @property
    def layout(self) -> Layout:
        """2-D block-cyclic layout over the process grid."""
        return BlockCyclic2D(self.grid_p, self.grid_q)

    def simulator(self, layout: Layout | None = None, **kwargs) -> ClusterSimulator:
        """Cluster simulator bound to this setup."""
        return ClusterSimulator(
            self.machine, layout if layout is not None else self.layout, self.b, **kwargs
        )


def run_eliminations(
    elims: list[Elimination],
    m: int,
    n: int,
    setup: BenchSetup | None = None,
    layout: Layout | None = None,
) -> SimulationResult:
    """Simulate an elimination list under a bench setup.

    Uses the compiled array pipeline (elimination list straight to a
    :class:`~repro.dag.compiled.CompiledGraph`, no Task objects) unless
    ``REPRO_SIM_CORE=reference``.
    """
    setup = setup or BenchSetup()
    from repro.runtime.core import core_mode

    if core_mode() == "reference":
        graph = TaskGraph.from_eliminations(elims, m, n)
        return setup.simulator(layout).run(graph)
    from repro.dag.compiled import compiled_from_eliminations
    from repro.runtime.core import run_core

    lay = layout if layout is not None else setup.layout
    cg = compiled_from_eliminations(elims, m, n, lay, setup.machine, setup.b)
    return run_core(cg, setup.machine, setup.b).result


def _build_graph(m, n, config, layout, machine: Machine, b: int, elims):
    """Build one compiled graph, uncached; expand ``elims``, the caller's
    list of ``config``, if given."""
    from repro.dag.compiled import compiled_from_eliminations

    if elims is None:
        with stage("elim"):
            elims = hqr_elimination_list(m, n, config)
    with stage("dag_build"):
        return compiled_from_eliminations(elims, m, n, layout, machine, b)


def compiled_graph_for(
    m: int,
    n: int,
    config: HQRConfig,
    layout: Layout,
    machine: Machine,
    b: int,
    elims=None,
):
    """Build (or fetch from the in-memory cache) one compiled graph.

    The build path of the batched sweep, :func:`answers` without
    ``reuse`` and the explorer's ranking, all of which read the graph
    again: fingerprint the inputs, consult
    :func:`~repro.dag.cache.default_cache` and store what is built, or
    fall back to an uncached build for layouts whose attributes have no
    stable serialization (there is no stable key to cache them under).
    A build expands ``elims``, the caller's list of ``config``, if given.
    """
    from repro.dag.cache import default_cache, fingerprint
    from repro.obs.tracing import span

    build = partial(_build_graph, m, n, config, layout, machine, b, elims)
    with stage("graph"), span("graph", m=m, n=n):
        try:
            key = fingerprint(m, n, config, layout, machine, b)
        except TypeError:
            return build()
        return default_cache().get_or_build(key, build)


def answers(questions, machine: Machine, b: int, *, reuse: bool) -> list:
    """``(result, resident, remembered)`` per ``(m, n, config, layout[,
    elims])`` question, ``elims`` being a list a bound pass already made.
    With ``reuse``, a keyed question first asks its cache entry; a miss
    takes the graph if resident, else builds one outside the cache, and
    remembers the result and lets the graph go (a caller that remembers
    answers never reads the graph again), one gate per key spanning build
    → simulate → remember.  Without, graphs come from
    :func:`compiled_graph_for`.  Misses run in one ``run_core_batch``.
    ``REPRO_SIM_CORE=reference`` runs the object graph
    (:func:`run_eliminations`) and, like an unkeyable layout, reads and
    remembers nothing."""
    from repro.dag.cache import default_cache, fingerprint
    from repro.obs.tracing import span
    from repro.runtime.core import core_mode, run_core_batch

    if core_mode() == "reference":
        setup = BenchSetup(b=b, grid_p=1, grid_q=1, machine=machine)
        return [(run_eliminations(
            (elims and elims[0]) or hqr_elimination_list(m, n, config),
            m, n, setup, layout,
        ), False, False) for m, n, config, layout, *elims in questions]
    cache = default_cache()
    out, asked = [], []  # asked: (index, key or None, question) to simulate
    for m, n, config, layout, *elims in questions:
        key, resident, result = None, False, None
        if reuse:
            with span("cache") as sp:
                try:
                    key = fingerprint(m, n, config, layout, machine, b)
                except TypeError:
                    pass  # no stable key: no entry to ask or to tell
                else:
                    resident, result = cache.answer(key)
                    if sp is not None:
                        sp.attrs.update(hit=resident, answer=result is not None)
        if result is None:
            asked.append((len(out), key, (m, n, config, layout,
                                          elims[0] if elims else None)))
        out.append((result, resident, result is not None))
    with cache.flights({key for _, key, _ in asked if key is not None}):
        misses = []  # (index, key or None, graph)
        for i, key, (m, n, config, layout, elims) in asked:
            if key is None:
                misses.append((i, key, compiled_graph_for(
                    m, n, config, layout, machine, b, elims
                )))
                continue
            result = cache.answer(key, count=False)[1]
            if result is not None:  # a racing caller's flight answered it
                out[i] = (result, out[i][1], True)
                continue
            with stage("graph"), span("graph", m=m, n=n):
                cg = cache.get(key)  # resident: a sweep or a ranking keeps it
                if cg is None:
                    cg = _build_graph(m, n, config, layout, machine, b, elims)
            misses.append((i, key, cg))
        with stage("simulate"):
            results = run_core_batch([cg for *_, cg in misses], machine, b)
        for (i, key, _), result in zip(misses, results):
            if key is not None:
                cache.remember(key, result)
            out[i] = (result, *out[i][1:])
    return out


def run_config(
    m: int,
    n: int,
    config: HQRConfig,
    setup: BenchSetup | None = None,
    layout: Layout | None = None,
) -> SimulationResult:
    """Build the HQR elimination list for ``config`` and simulate it.

    The compiled graph is memoized across calls, the result is not:
    :func:`answers` without ``reuse`` always simulates.
    """
    setup = setup or BenchSetup()
    lay = layout if layout is not None else setup.layout
    return answers(
        [(m, n, config, lay)], setup.machine, setup.b, reuse=False
    )[0][0]


def _plan_and_simulate(points, setup: BenchSetup) -> list[SimulationResult]:
    """The ``batched-c`` sweep body: plan here, simulate beside it.

    This thread plans in point order — every planning memo (the tree
    caches, the graph LRU) is still touched by one thread and needs no
    lock — and queues each finished graph; one helper thread takes
    *everything queued so far* as one ordinary
    :func:`~repro.runtime.core.run_core_batch` call (the C loop releases
    the GIL, OpenMP fans a multi-graph chunk out) and appends its results
    in FIFO order, so output order is input order.  Chunk boundaries
    depend on timing; results do not.  An error on either side stops the
    other, and the helper is joined before this returns or raises — a
    second interrupt *during that join* escapes it and leaves the daemon
    helper to end with its current chunk.  The caller's request trace
    and its open span are re-attached in the helper, so the ``simulate``
    spans (one per chunk) hang where a call on the caller would put them.
    """
    from repro.obs.tracing import attach, current_span, current_trace
    from repro.runtime.core import run_core_batch

    planned = queue.SimpleQueue()  # graphs in point order, then None
    results: list[SimulationResult] = []
    failure: list[BaseException] = []
    # thread-local: carry both over for the spans
    trace, parent = current_trace(), current_span()

    def simulate() -> None:
        try:
            with attach(trace, parent=parent):
                last = False
                while not last:
                    chunk = [planned.get()]
                    while not planned.empty():
                        chunk.append(planned.get())
                    last = chunk[-1] is None
                    if last:
                        chunk.pop()
                    if failure:  # planning failed: drop what is queued
                        return
                    results.extend(
                        run_core_batch(chunk, setup.machine, setup.b)
                    )
        except BaseException as exc:  # re-raised by the caller below
            failure.append(exc)

    helper = threading.Thread(
        target=simulate, name="repro-sweep-simulate", daemon=True
    )
    helper.start()
    try:
        for m, n, cfg in points:
            if failure:
                break
            planned.put(
                compiled_graph_for(
                    m, n, cfg, setup.layout, setup.machine, setup.b
                )
            )
    except BaseException as exc:
        failure.append(exc)
        raise
    finally:
        planned.put(None)
        helper.join()
    if failure:
        raise failure[0]
    return results


def run_config_sweep(
    points,
    setup: BenchSetup | None = None,
    *,
    workers: int | None = None,
) -> list[SimulationResult]:
    """Simulate many ``(m, n, config)`` points, preserving input order.

    Two paths, bit-identical in results and chosen from what the code can
    observe, never from a switch:

    * the native core is loaded, the engine is not ``reference`` and no
      task-level recorder is installed — every graph is built in line
      (through the cache) while a helper thread runs the graphs built so
      far through the batched C loop
      (:func:`~repro.runtime.core.run_core_batch`), so planning and
      simulation overlap instead of fork-joining;
    * otherwise — :func:`run_config` per point, in this process.

    One ``sweep_transport`` line (``batched-c`` or ``in-process``) says
    which path ran.  ``workers`` is accepted and ignored, only because
    the benchmark in ``perf/`` passes ``workers=1``.
    """
    from repro.obs.events import active as _obs_active
    from repro.runtime.core import _pick_engine, core_mode

    setup = setup or BenchSetup()
    points = list(points)
    rec = _obs_active()
    batched = (
        core_mode() != "reference"
        and not (rec is not None and rec.want_tasks)
        and _pick_engine(None) is not None
    )
    transport = "batched-c" if batched else "in-process"
    jsonlog(
        "sweep_transport", logger=log,
        msg=f"sweep transport: {transport} ({len(points)} points)",
        transport=transport, points=len(points),
    )
    if batched:
        return _plan_and_simulate(points, setup) if points else []
    return [run_config(m, n, cfg, setup) for m, n, cfg in points]
