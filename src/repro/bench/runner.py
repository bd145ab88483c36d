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

import os
import threading
from dataclasses import dataclass, field
from functools import partial

from repro.dag.cache import default_cache, fingerprint
from repro.hqr.config import HQRConfig
from repro.hqr.hierarchy import hqr_elimination_list
from repro.obs.tracing import attach, current_span, current_trace, span
from repro.runtime.machine import Machine
from repro.runtime.core import SimulationResult
from repro.tiles.layout import BlockCyclic2D, Layout
from repro.trees.base import Elimination


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


def run_eliminations(
    elims: list[Elimination],
    m: int,
    n: int,
    setup: BenchSetup | None = None,
    layout: Layout | None = None,
) -> SimulationResult:
    """Simulate an elimination list under a bench setup: the list goes
    straight to a :class:`~repro.dag.compiled.CompiledGraph` (no Task
    objects) and through :func:`~repro.runtime.core.run_core`."""
    setup = setup or BenchSetup()
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
        with span("elim"):
            elims = hqr_elimination_list(m, n, config)
    with span("dag_build"):
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

    The build path of a caller that reads the graph again, the explorer's
    ranking (predict, then verify): the graph is stored in
    :func:`~repro.dag.cache.default_cache` under its fingerprint, or
    built uncached for a layout with no stable serialization (no key).
    A build expands ``elims``, the caller's list of ``config``, if given.
    """
    build = partial(_build_graph, m, n, config, layout, machine, b, elims)
    with span("graph", m=m, n=n):
        try:
            key = fingerprint(m, n, config, layout, machine, b)
        except TypeError:
            return build()
        return default_cache().get_or_build(key, build)


def _ask(questions, machine: Machine, b: int, reuse: bool):
    """Lookup: ``out``, ``(result, resident, remembered)`` per question
    (``result`` ``None`` until answered), and ``asked``, ``(key or None,
    question, indices)`` per distinct unanswered question; with ``reuse``
    one fingerprint and one ``answer`` call a question."""
    out, asked, first = [], [], {}
    for m, n, config, layout, *elims in questions:
        key, resident, result = None, False, None
        if reuse:
            with span("cache") as sp:
                try:
                    key = fingerprint(m, n, config, layout, machine, b)
                except TypeError:
                    pass  # no stable key: no entry to ask or to tell
                else:
                    resident, result = default_cache().answer(key)
                    if sp is not None:
                        sp.attrs.update(hit=resident, answer=result is not None)
        if result is None:  # a repeated key joins its first copy
            idx = first.setdefault(key, []) if key else []
            if not idx:
                question = (m, n, config, layout, elims[0] if elims else None)
                asked.append((key, question, idx))
            idx.append(len(out))
        out.append((result, resident, result is not None))
    return out, asked


def _planned(asked, machine: Machine, b: int, out):
    """Build, under the asked keys' gates: ``(key, graph, indices)`` per
    question no racing caller answered meanwhile — a keyed one's resident
    graph, else a build kept out of the LRU (only its answer is kept); an
    unkeyed one's is always built and kept nowhere."""
    for key, (m, n, config, layout, elims), idx in asked:
        got = default_cache().answer(key, count=False)[1] if key else None
        if got is not None:
            for i in idx:  # a racing caller's flight answered it
                out[i] = (got, out[i][1], True)
            continue
        with span("graph", m=m, n=n):
            cg = default_cache().get(key) if key else None  # kept by rank
            if cg is None:
                cg = _build_graph(m, n, config, layout, machine, b, elims)
        yield key, cg, idx


def _simulate(planned, machine: Machine, b: int, out) -> None:
    """Run ``planned`` as one batch and fill ``out``."""
    from repro.runtime.core import run_core_batch

    results = run_core_batch([cg for _, cg, _ in planned], machine, b)
    for (_, _, idx), result in zip(planned, results):
        for i in idx:
            out[i] = (result, *out[i][1:])


def _remember(asked, out) -> None:
    """Remember each keyed answer in ``out`` no racing flight gave, in order."""
    for key, _, (i, *_) in asked:
        result, _, remembered = out[i]
        if key is not None and not remembered:
            default_cache().remember(key, result)


def answers(questions, machine: Machine, b: int, *, reuse: bool) -> list:
    """``(result, resident, remembered)`` per ``(m, n, config, layout[,
    elims])`` question, ``elims`` being a list a bound pass already made.
    With ``reuse`` a keyed question asks its cache entry first and a
    distinct miss is built, simulated and remembered once, under its
    key's gate; without, no fingerprint is taken and every question is
    built, simulated and dropped: nothing is read or kept.  Misses run in
    one ``run_core_batch``.  An unkeyable layout remembers nothing."""
    out, asked = _ask(questions, machine, b, reuse)
    with default_cache().flights({key for key, *_ in asked if key}):
        _simulate(list(_planned(asked, machine, b, out)), machine, b, out)
        _remember(asked, out)
    return out


def run_config(
    m: int,
    n: int,
    config: HQRConfig,
    setup: BenchSetup | None = None,
    layout: Layout | None = None,
) -> SimulationResult:
    """Build the HQR elimination list for ``config`` and simulate it.

    Every call builds and simulates; nothing is kept (:func:`answers`
    without ``reuse``), so the graph is dropped when this returns.
    """
    setup = setup or BenchSetup()
    lay = layout if layout is not None else setup.layout
    return answers(
        [(m, n, config, lay)], setup.machine, setup.b, reuse=False
    )[0][0]


def _plan_and_simulate(asked, out, machine: Machine, b: int) -> None:
    """The sweep's dispatch of ``asked`` (see :func:`_ask`), under their
    gates: each of W workers (this thread and W - 1 helpers;
    W is ``REPRO_SIM_THREADS``, else this process's CPUs) takes the next
    question, plans and simulates it, and drops its graph before the next.
    Answers are remembered in question order after the join; the first
    error on any worker stops the others and is raised here."""
    from repro.runtime.core import sim_threads

    todo, taking = iter(asked), threading.Lock()
    failure: list[BaseException] = []
    trace, parent = current_trace(), current_span()  # thread-local

    def work() -> None:
        try:
            with attach(trace, parent=parent):  # the caller's, on any thread
                while not failure:
                    with taking:
                        question = next(todo, None)
                    if question is None:
                        return
                    _simulate(list(_planned([question], machine, b, out)),
                              machine, b, out)  # the graph is dropped here
        except BaseException as exc:  # raised by the caller below
            failure.append(exc)

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)  # macOS has no sched_getaffinity
    workers = min(sim_threads() or cpus, len(asked))
    helpers = [threading.Thread(target=work, name=f"repro-sweep-{i}", daemon=True)
               for i in range(1, workers)]
    with default_cache().flights({key for key, *_ in asked if key}):
        try:
            for thread in helpers:
                thread.start()
            work()
        finally:
            for thread in helpers:
                if thread.ident is not None:  # started
                    thread.join()
        if failure:
            raise failure[0]
        _remember(asked, out)


def run_config_sweep(
    points,
    setup: BenchSetup | None = None,
    *,
    workers: int | None = None,
) -> list[SimulationResult]:
    """Simulate many ``(m, n, config)`` points, preserving input order.

    Each point asks the graph cache first (:func:`_ask`); a remembered one
    reaches neither planner nor loop, the rest are planned and simulated
    one point per worker (:func:`_plan_and_simulate`) and remembered.  The
    same body runs with or without the native core: ``run_core_batch``
    takes the Python loop per graph when the C one is not loaded, bit for
    bit alike.  ``workers`` is accepted and ignored, only because the
    benchmark in ``perf/`` passes ``workers=1``.
    """
    setup = setup or BenchSetup()
    out, asked = _ask([(m, n, cfg, setup.layout) for m, n, cfg in points],
                      setup.machine, setup.b, True)
    if asked:  # else every point is remembered: no thread starts
        _plan_and_simulate(asked, out, setup.machine, setup.b)
    return [result for result, *_ in out]
