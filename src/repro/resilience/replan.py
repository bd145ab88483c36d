"""Re-planning the virtual grid after node loss.

Two recovery strategies use this module:

* **cone recovery** (:mod:`repro.resilience.simulate`) keeps the original
  elimination DAG and only re-places the tasks that must (re-)execute —
  it needs the *node remap* built here;
* **replanned restart** (:func:`replan_restart`) abandons the run and
  re-factors from scratch with a fresh :mod:`repro.hqr` elimination tree
  sized to the shrunken ``p x q`` grid — the strategy a batch scheduler
  would pick when a failure lands early.

``repro faults`` reports both, so the degradation curves show where each
strategy wins.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hqr.config import HQRConfig


def shrunken_grid(p: int, q: int, survivors: int) -> tuple[int, int]:
    """Degraded virtual grid ``(p', q')`` for ``survivors`` nodes.

    Keeps the column count ``q`` (it only shapes trailing-column
    placement) and shrinks the row count — the dimension the reduction
    trees are built over — to fit; falls back to a single row when even
    one full grid row no longer fits.
    """
    if survivors <= 0:
        raise ValueError("no surviving nodes to re-plan onto")
    if p <= 0 or q <= 0:
        raise ValueError(f"grid dims must be positive, got p={p}, q={q}")
    if q > survivors:
        return 1, survivors
    return max(1, min(p, survivors // q)), q


def shrunken_config(config: HQRConfig, survivors: int) -> HQRConfig:
    """``config`` re-planned for the surviving node count."""
    p, q = shrunken_grid(config.p, config.q, survivors)
    return config.with_(p=p, q=q)


def node_remap(nodes: int, failed: tuple[int, ...]) -> list[int]:
    """Per-node remap sending every failed rank to a surviving one.

    Surviving ranks map to themselves; failed ranks are spread cyclically
    over the survivors (deterministic, so recovery schedules are
    reproducible).
    """
    dead = set(failed)
    survivors = [n for n in range(nodes) if n not in dead]
    if not survivors:
        raise ValueError("all nodes failed; nothing to recover onto")
    remap = list(range(nodes))
    for k, n in enumerate(sorted(dead)):
        remap[n] = survivors[k % len(survivors)]
    return remap


@dataclass(frozen=True)
class RestartPlan:
    """Outcome of the restart-from-scratch recovery strategy."""

    config: HQRConfig  # the re-planned (shrunken-grid) configuration
    restart_makespan: float  # the fresh factorization on the survivors
    total_makespan: float  # crash + detection + restart, end to end


def replan_restart(
    m: int,
    n: int,
    config: HQRConfig,
    machine,
    b: int,
    *,
    failed: tuple[int, ...],
    crash_time: float,
    detection_latency: float,
) -> RestartPlan:
    """Restart the whole factorization on the surviving nodes.

    Re-plans the high-level tree for the shrunken grid, simulates the
    fresh run on a machine with the failed nodes removed, and charges the
    time already burnt (``crash_time`` + detection) up front.
    """
    from dataclasses import replace

    from repro.bench.runner import answers
    from repro.tiles.layout import BlockCyclic2D

    survivors = machine.nodes - len(set(failed))
    cfg = shrunken_config(config, survivors)
    small = replace(machine, nodes=survivors)
    res = answers(
        [(m, n, cfg, BlockCyclic2D(cfg.p, cfg.q))], small, b, reuse=True
    )[0][0]
    return RestartPlan(
        config=cfg,
        restart_makespan=res.makespan,
        total_makespan=crash_time + detection_latency + res.makespan,
    )
