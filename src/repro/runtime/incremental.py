"""Incremental re-simulation of sweep points sharing a schedule prefix.

Neighboring sweep points often differ only in a parameter that leaves a
prefix of the elimination list intact (same low-level tree and domains,
diverging high-level tree; or a pure ``a``/tree change late in the list).
The kernel-DAG expansion and the event loop are both deterministic left
folds over that list, so everything the shared prefix produces — task
arrays, ``last_writer`` table, and the event-heap state up to the first
event that can *see* the divergent suffix — can be captured once and
resumed onto the next point instead of recomputed.

Soundness hinges on the **frontier**: the set of task ids present in the
builder's ``last_writer`` table at the shared boundary.  Every
prefix-to-suffix dependency edge originates at a frontier task (the first
suffix reader of a tile sees exactly the boundary ``last_writer``), and
every *non*-frontier prefix task has identical successor lists in both
graphs.  The guarded run therefore captures two checkpoints:

* ``ck0`` — during the initial ready scan, just before the first suffix
  task id is scanned (resume replays the suffix scan and the whole event
  loop; needed when the new suffix contains zero-predecessor tasks,
  which a fresh run would have launched at time 0);
* ``ck1`` — in the event loop, just before the first pop of a frontier
  task's *finish* (or any suffix event): every event processed before it
  touches only non-frontier prefix state shared by both graphs.  ``ck1``
  is withheld (``None``) when the donor's own suffix contains a
  zero-predecessor task — the initial scan launches it at t=0, so by the
  capture point the busy time, core occupancy, and pending finish events
  already belong to the donor's suffix; resuming that state onto another
  graph would replay a finish for a task the follower never started.

Cross-graph state is stored graph-independently: message slots are keyed
by ``(producer task, destination node)`` pairs (slot ids are renumbered
per graph) and arrival event codes are re-based from ``ntasks_old`` to
``ntasks_new`` (finish codes are below both, so heap order — and hence
the schedule — is preserved).

The guarded/resumed event loop itself is the unified core's checkpoint
capability (:func:`repro.runtime.core.run_core_guarded` /
:func:`repro.runtime.core.run_core_resumed` — the same ``_py_loop`` every
other front end runs, with snapshot/splice hooks enabled); this module
owns the sweep *planning*: which consecutive pairs share enough prefix to
pay off, the ck0/ck1 selection rule, and cache plumbing.

Scope: program-order priorities (``prio=None``), no task-level recording,
equal ``n``/layout/machine/``b`` between the pair (``m`` may differ).
:func:`run_sweep_incremental` plans consecutive pairs, alternating a
guarded donor run with a resumed run — a resumed run cannot itself donate
(its pre-resume guard window was never observed) — and falls back to the
ordinary per-point path whenever the prefix is too short to pay off.
Results are bit-identical to :func:`repro.runtime.compiled
.simulate_compiled` either way; the equivalence suite in
``tests/runtime/test_incremental.py`` asserts it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dag.compiled import CompiledGraph
from repro.obs.events import active as _obs_active
from repro.obs.profile import stage
from repro.runtime.core import (  # noqa: F401  (SimCheckpoint re-exported)
    SimCheckpoint,
    run_core_guarded,
    run_core_resumed,
)
from repro.runtime.machine import Machine
from repro.runtime.simulator import SimulationResult, qr_flops
from repro.trees.base import EliminationArray

__all__ = [
    "IncrementalStats",
    "SimCheckpoint",
    "common_prefix_len",
    "resume_simulation",
    "run_sweep_incremental",
    "simulate_guarded",
]

#: a pair fires only when the shared prefix covers at least this fraction
#: of the shorter elimination list (below that the replay dominates)
MIN_PREFIX_FRAC = 0.25


def common_prefix_len(a, b) -> int:
    """Length of the common leading run of two elimination lists."""
    a, b = EliminationArray.of(a), EliminationArray.of(b)
    n = min(len(a), len(b))
    differ = np.zeros(n, dtype=bool)
    for name in EliminationArray.__slots__:
        differ |= getattr(a, name)[:n] != getattr(b, name)[:n]
    return int(differ.argmax()) if differ.any() else n


def simulate_guarded(
    cg: CompiledGraph,
    machine: Machine,
    b: int,
    *,
    suffix_start: int,
    frontier: set,
    data_reuse: bool = False,
):
    """Program-order python event loop capturing resume checkpoints.

    Bit-identical to ``simulate_compiled(..., prio=None, core="python")``
    — the checkpoint captures are pure state copies taken between events.
    Returns ``((makespan, busy, messages), ck0, ck1)``; ``ck1`` is None
    when the heap drains before any frontier finish (empty frontier) or
    when this graph's suffix contains a zero-predecessor task (its t=0
    launch contaminates the loop state, see module docstring).
    """
    return run_core_guarded(
        cg, machine, b,
        suffix_start=suffix_start, frontier=frontier, data_reuse=data_reuse,
    )


def resume_simulation(
    cg: CompiledGraph,
    machine: Machine,
    b: int,
    ck: SimCheckpoint,
    *,
    data_reuse: bool = False,
):
    """Continue a checkpoint on a graph sharing the checkpoint's prefix.

    Returns ``(makespan, busy, messages)`` — bit-identical to a fresh
    run of ``cg`` when the caller honored the ck0/ck1 selection rule
    (ck1 only when the new suffix has no zero-predecessor tasks).
    """
    return run_core_resumed(cg, machine, b, ck, data_reuse=data_reuse)


# --------------------------------------------------------------------- #
# sweep planning
# --------------------------------------------------------------------- #
@dataclass
class IncrementalStats:
    """Fire/bail accounting of one incremental sweep."""

    points: int = 0
    fired: int = 0  # points simulated by resuming a checkpoint
    guarded: int = 0  # donor points run with checkpoint capture
    bails: dict = field(default_factory=dict)

    def bail(self, reason: str) -> None:
        self.bails[reason] = self.bails.get(reason, 0) + 1

    def to_dict(self) -> dict:
        return {
            "points": self.points,
            "fired": self.fired,
            "guarded": self.guarded,
            "bails": dict(sorted(self.bails.items())),
        }


def _wrap(result, m: int, n: int, machine: Machine, b: int) -> SimulationResult:
    makespan, busy, messages = result
    tile_bytes = machine.tile_bytes(b)
    return SimulationResult(
        makespan=makespan,
        flops=qr_flops(m * b, n * b),
        messages=messages,
        bytes_sent=messages * tile_bytes,
        busy_seconds=busy,
        cores=machine.cores,
        trace=None,
    )


def run_sweep_incremental(
    points,
    setup=None,
    *,
    layout=None,
    min_prefix_frac: float = MIN_PREFIX_FRAC,
    stats: IncrementalStats | None = None,
) -> list[SimulationResult]:
    """Serial sweep reusing DAG prefixes and event-heap state.

    Consecutive point pairs that share an elimination-list prefix run as
    a guarded donor + a resumed follower; everything else goes through
    the ordinary cached :func:`repro.bench.runner.run_config` path.
    Results are bit-identical to the per-point sweep in any case.  Pass
    an :class:`IncrementalStats` to observe what fired.
    """
    from repro.bench.runner import BenchSetup, run_config
    from repro.dag.cache import default_cache, fingerprint
    from repro.dag.compiled import (
        _finish,
        build_arrays_checkpointed,
        build_arrays_resumed,
    )
    from repro.hqr.hierarchy import hqr_elimination_list
    from repro.runtime.core import core_mode

    # an explicit reference-core request means "run the reference engine",
    # so nothing compiled may be reused across points
    incremental_ok = core_mode() != "reference"
    setup = setup or BenchSetup()
    lay = layout if layout is not None else setup.layout
    machine, b = setup.machine, setup.b
    stats = stats if stats is not None else IncrementalStats()
    stats.points += len(points)
    cache = default_cache()
    rec = _obs_active()

    results: list[SimulationResult] = []
    i = 0
    while i < len(points):
        m1, n1, cfg1 = points[i]
        plan = None
        if (
            incremental_ok
            and i + 1 < len(points)
            and not (rec is not None and rec.want_tasks)
        ):
            m2, n2, cfg2 = points[i + 1]
            if n1 != n2:
                stats.bail("n-differs")
            else:
                try:
                    key1 = fingerprint(m1, n1, cfg1, lay, machine, b)
                    key2 = fingerprint(m2, n2, cfg2, lay, machine, b)
                except TypeError:
                    key1 = key2 = None
                if (
                    key1 is not None
                    and cache.contains(key1)
                    and cache.contains(key2)
                ):
                    # both graphs already built: nothing left to reuse
                    stats.bail("cached")
                else:
                    elims1 = hqr_elimination_list(m1, n1, cfg1)
                    elims2 = hqr_elimination_list(m2, n2, cfg2)
                    cut = common_prefix_len(elims1, elims2)
                    if cut < 1 or cut < min_prefix_frac * min(
                        len(elims1), len(elims2)
                    ):
                        stats.bail("short-prefix")
                    else:
                        plan = (elims1, elims2, cut, key1, key2, m2, n2, cfg2)
        if plan is None:
            results.append(run_config(m1, n1, cfg1, setup=setup, layout=lay))
            i += 1
            continue

        elims1, elims2, cut, key1, key2, m2, n2, cfg2 = plan
        with stage("incremental"):
            arr1, snap = build_arrays_checkpointed(elims1, m1, n1, cut)
            cg1 = _finish(m1, n1, *arr1, lay, machine, b)
            frontier = {w for w in snap.last_writer if w >= 0}
            res1, ck0, ck1 = simulate_guarded(
                cg1, machine, b,
                suffix_start=snap.ntasks, frontier=frontier,
            )
            arr2 = build_arrays_resumed(snap, arr1, elims2, m2, n2)
            cg2 = _finish(m2, n2, *arr2, lay, machine, b)
            # ck1 is only valid when neither suffix launches tasks at t=0:
            # simulate_guarded already returned None for a seeded *donor*
            # suffix; the *follower* suffix is checked here
            suffix_waiting = cg2.pred_counts[snap.ntasks:]
            ck = ck1
            if ck is None or (len(suffix_waiting) and not suffix_waiting.all()):
                ck = ck0
            res2 = resume_simulation(cg2, machine, b, ck)
        results.append(_wrap(res1, m1, n1, machine, b))
        results.append(_wrap(res2, m2, n2, machine, b))
        if key1 is not None:
            cache.put(key1, cg1)
            cache.put(key2, cg2)
        stats.guarded += 1
        stats.fired += 1
        if rec is not None:
            rec.note(
                "incremental_fire",
                prefix_elims=cut,
                total_elims=len(elims2),
                prefix_tasks=snap.ntasks,
                checkpoint=ck.phase,
            )
        i += 2
    return results
