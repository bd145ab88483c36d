"""Tune-vs-exhaustive benchmark (``repro tune --bench``).

The claim the autotuner stands on: on a space small enough to exhaust,
the annealer finds the *same optimum* as the exhaustive explorer sweep
in a small fraction of the evaluations.  This module measures exactly
that, on an enumerable subspace of the paper's Figure 6 platform:

* machine = ``Machine.edel()`` (60 nodes x 8 cores), b = 280, process
  grid fixed at 15 x 4 with the 2-D block-cyclic layout;
* searched axes = low tree x high tree x domino x ``a`` in [1, 8] —
  4 x 4 x 2 x 8 = 256 configurations (grid and layout axes are pinned so
  the annealer's reachable set equals the enumerated set);
* the annealer runs FIRST (cold graph cache), the exhaustive sweep
  second and warm: it looks up the annealer's answers instead of
  simulating them, so the wall-time ratio is conservative toward tune.

Parity is exact float equality of the best makespan: both sides drive
the same simulation engine, which is bit-reproducible per config.
"""

from __future__ import annotations

import itertools
import json
import time
from pathlib import Path

from repro.bench.runner import BenchSetup, bench_scale, run_config_sweep
from repro.hqr.config import HQRConfig
from repro.tune.energy import EnergyEvaluator, initial_case
from repro.tune.sampler import Annealer, CoolingSchedule

__all__ = [
    "SUBSPACE_A_VALUES",
    "enumerate_subspace",
    "format_report",
    "tune_bench",
    "write_report",
]

#: ``a`` values of the enumerable subspace (every ±1 step is in-space)
SUBSPACE_A_VALUES = tuple(range(1, 9))
#: annealer axes that stay inside the enumerated subspace
SUBSPACE_AXES = ("low_tree", "high_tree", "domino", "a")
#: seeded defaults of the comparison
DEFAULT_SEED = 0
#: proposal budget — generous on purpose: the binding limit is the
#: simulation cap below, and memoized revisits cost nothing
DEFAULT_BUDGET = 400
#: proposals per temperature step in the comparison run
BENCH_BATCH = 4


def _bench_shape() -> tuple[int, int]:
    """(m, n) tile shape per ``REPRO_BENCH_SCALE``."""
    scale = bench_scale()
    if scale == "small":
        return 16, 4
    if scale == "default":
        return 32, 4
    return 64, 8


def enumerate_subspace(setup: BenchSetup) -> list[HQRConfig]:
    """All 256 configurations of the enumerable comparison subspace."""
    from repro.verify.generator import TREES

    return [
        HQRConfig(
            p=setup.grid_p, q=setup.grid_q, a=a,
            low_tree=low, high_tree=high, domino=domino,
        )
        for low, high, domino, a in itertools.product(
            TREES, TREES, (False, True), SUBSPACE_A_VALUES
        )
    ]


def tune_bench(
    out_dir: str,
    *,
    seed: int = DEFAULT_SEED,
    budget: int = DEFAULT_BUDGET,
    batch_size: int = BENCH_BATCH,
) -> dict:
    """Run tune then the exhaustive sweep; return the comparison report."""
    from repro.obs.provenance import run_metadata

    setup = BenchSetup()
    m, n = _bench_shape()
    evaluator = EnergyEvaluator(m=m, n=n, b=setup.b, machine=setup.machine)
    start = initial_case(
        m, n, setup.b, setup.machine,
        grid_p=setup.grid_p, grid_q=setup.grid_q, seed=seed,
    )
    # simulation cap: a batch can overshoot the stop check by one whole
    # batch of fresh configs, so back off enough that the worst case
    # still lands at <= 1/10th of the enumerated space
    space_size = len(SUBSPACE_A_VALUES) * 4 * 4 * 2
    max_evals = space_size // 10 - batch_size + 1

    t0 = time.perf_counter()
    annealer = Annealer(
        evaluator, start, out_dir,
        seed=seed, budget=budget, batch_size=batch_size,
        schedule=CoolingSchedule(),
        axes=SUBSPACE_AXES, max_a=max(SUBSPACE_A_VALUES),
        max_evaluations=max_evals,
    )
    result = annealer.run()
    tune_wall = time.perf_counter() - t0

    configs = enumerate_subspace(setup)
    t0 = time.perf_counter()
    sweep = run_config_sweep([(m, n, cfg) for cfg in configs], setup)
    exhaustive_wall = time.perf_counter() - t0

    exhaustive_best = min(r.makespan for r in sweep)
    tune_best = result.best[0]["energy"]
    report = {
        "meta": run_metadata(),
        "scale": bench_scale(),
        "m": m,
        "n": n,
        "b": setup.b,
        "grid": [setup.grid_p, setup.grid_q],
        "seed": seed,
        "budget": budget,
        "batch_size": batch_size,
        "space_size": len(configs),
        "tune": {
            "best_makespan": tune_best,
            "best": result.best,
            "proposals": result.proposals,
            "evaluations": result.evaluations,
            "memo_hits": result.memo_hits,
            "acceptance_rate": result.acceptance_rate,
            "wall_s": tune_wall,
        },
        "exhaustive": {
            "best_makespan": exhaustive_best,
            "evaluations": len(configs),
            "wall_s": exhaustive_wall,
        },
        "eval_ratio": result.evaluations / len(configs),
        "parity": tune_best == exhaustive_best,
        "ok": (
            tune_best == exhaustive_best
            and result.evaluations * 10 <= len(configs)
        ),
    }
    return report


def format_report(report: dict) -> str:
    """Human-readable rendering of a tune bench report."""
    t, e = report["tune"], report["exhaustive"]
    lines = [
        f"tune-vs-exhaustive benchmark  (scale={report['scale']}, "
        f"{report['m']}x{report['n']} tiles, "
        f"space={report['space_size']} configs, seed={report['seed']})",
        f"  tune:       best={t['best_makespan']:.6f}s in "
        f"{t['evaluations']} evaluations "
        f"({t['proposals']} proposals, "
        f"{t['acceptance_rate']:.0%} accepted), {t['wall_s']:.2f}s wall",
        f"  exhaustive: best={e['best_makespan']:.6f}s in "
        f"{e['evaluations']} evaluations, {e['wall_s']:.2f}s wall",
        f"  eval ratio: {report['eval_ratio']:.3f} "
        f"(<= 0.1 required), parity={report['parity']}",
        "OK" if report["ok"] else "FAILED",
    ]
    return "\n".join(lines)


def write_report(report: dict, path: str | Path) -> None:
    """Write the tune bench report as JSON."""
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
