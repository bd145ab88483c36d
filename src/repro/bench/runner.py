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
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial

from repro import _ccore
from repro.dag.cache import default_cache, fingerprint, fingerprints
from repro.hqr.config import HQRConfig
from repro.hqr.hierarchy import hqr_elimination_list
from repro.obs.tracing import Span, current_span, current_trace, span
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


def _build_graph(m, n, config, layout, machine: Machine, b: int):
    """Build one compiled graph, uncached."""
    from repro.dag.compiled import compiled_from_eliminations

    with span("elim"):
        elims = hqr_elimination_list(m, n, config)
    with span("dag_build"):
        return compiled_from_eliminations(elims, m, n, layout, machine, b)


def compiled_graph_for(
    m: int, n: int, config: HQRConfig, layout: Layout, machine: Machine, b: int
):
    """Build (or fetch from the in-memory cache) one compiled graph, for a
    caller that reads it again: no code in the package does any more;
    ``tools/loop_ab.py`` builds its graph sets with it.  A layout with no
    stable serialization (no key) builds uncached.
    """
    build = partial(_build_graph, m, n, config, layout, machine, b)
    with span("graph", m=m, n=n):
        try:
            key = fingerprint(m, n, config, layout, machine, b)
        except TypeError:
            return build()
        return default_cache().get_or_build(key, build)


def _ask(questions, machine: Machine, b: int, reuse: bool):
    """Lookup: ``out``, ``(result, resident, remembered)`` per question
    (``result`` ``None`` until answered), and ``asked``, ``(key or None,
    question, indices)`` per distinct unanswered question.  With ``reuse``
    the batch is keyed in one :func:`~repro.dag.cache.fingerprints` pass
    and probed in one locked :meth:`~repro.dag.cache.CompiledGraphCache.answer`
    call; a ``cache`` span covers both only when a trace is attached."""
    keys, found = [None] * len(questions), [(False, None)] * len(questions)
    if reuse:
        with span("cache") if current_trace() is not None else nullcontext() as sp:
            keys = fingerprints(questions, machine, b)
            found = default_cache().answer(keys)
            if sp is not None and len(found) == 1:
                sp.attrs.update(hit=found[0][0], answer=found[0][1] is not None)
            elif sp is not None:
                sp.attrs.update(
                    questions=len(found),
                    hits=sum(resident for resident, _ in found),
                    answers=sum(result is not None for _, result in found),
                )
    out, asked, first = [], [], {}
    for question, key, (resident, result) in zip(questions, keys, found):
        if result is None:  # a repeated key joins its first copy
            idx = first.setdefault(key, []) if key else []
            if not idx:
                asked.append((key, question, idx))
            idx.append(len(out))
        out.append((result, resident, result is not None))
    return out, asked


def _record(m, n, start, ntasks, seconds) -> None:
    """A natively answered question's ``graph`` (over ``elim`` and
    ``dag_build``) and ``simulate`` spans, as the core timed them."""
    trace = current_trace()
    if trace is not None:
        elim, build, simulate = seconds
        at = start + elim + build
        (current_span() or trace.root).children.extend((
            Span("graph", start, at, {"m": m, "n": n}, [
                Span("elim", start, start + elim),
                Span("dag_build", start + elim, at)]),
            Span("simulate", at, at + simulate,
                 {"engine": "c-batch", "points": 1, "ntasks": ntasks}),
        ))


def _answer(asked, machine: Machine, b: int, out) -> None:
    """Fill ``out`` for each question no racing flight answered: in one
    native call, or by ``run_core`` on a graph the cache holds (one
    :func:`compiled_graph_for` stored) or one built, for a question the
    call does not take and every one without the native core."""
    from repro.runtime.core import _c_answers, run_core

    lib, todo = _ccore.get_lib(), []
    found = default_cache().answer([key for key, *_ in asked], count=False)
    for (key, question, idx), (_, got) in zip(asked, found):
        if got is not None:  # a racing caller's flight answered it
            for i in idx:
                out[i] = (got, out[i][1], True)
        else:
            todo.append((question, idx, default_cache().get(key) if key else None))
    start = time.monotonic()
    fresh = [question for question, _, cg in todo if cg is None] if lib else []
    answered = iter(_c_answers(lib, fresh, machine, b) if fresh else ())
    for (m, n, config, layout), idx, cg in todo:
        got = next(answered) if cg is None and lib else None
        if got is not None:
            result = got[0]
            _record(m, n, start, *got[1:])
        else:
            if cg is None:
                with span("graph", m=m, n=n):
                    cg = _build_graph(m, n, config, layout, machine, b)
            result = run_core(cg, machine, b).result
        for i in idx:
            out[i] = (result, *out[i][1:])


def answers(questions, machine: Machine, b: int, *, reuse: bool) -> list:
    """``(result, resident, remembered)`` per ``(m, n, config, layout)``
    question of the list ``questions``.  With ``reuse`` the batch is keyed
    once and its cache entries are read under one lock (:func:`_ask`); a
    batch answered there returns at once, and otherwise each distinct miss
    is answered and remembered once, under its key's gate; without, no
    fingerprint is taken and every question is answered and dropped.  The
    misses are one native call (:func:`_answer`) that keeps no graph.  An
    unkeyable layout remembers nothing."""
    out, asked = _ask(questions, machine, b, reuse)
    if not asked:
        return out
    with default_cache().flights({key for key, *_ in asked if key}):
        _answer(asked, machine, b, out)
        for key, _, (i, *_) in asked:  # what no racing flight gave, in order
            if key is not None and not out[i][2]:
                default_cache().remember(key, out[i][0])
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


def run_config_sweep(
    points, setup: BenchSetup | None = None, *, workers: int | None = None
) -> list[SimulationResult]:
    """Simulate many ``(m, n, config)`` points, in input order: one
    :func:`answers` call with ``reuse``.  ``workers`` is accepted and
    ignored, only because the benchmark in ``perf/`` passes ``workers=1``."""
    setup = setup or BenchSetup()
    layout = setup.layout
    got = answers([(m, n, cfg, layout) for m, n, cfg in points],
                  setup.machine, setup.b, reuse=True)
    return [result for result, *_ in got]
