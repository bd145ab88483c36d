"""Ablations of the design choices DESIGN.md calls out.

Each hierarchy level must "contribute to build up performance" (paper
abstract, claim (i)); plus runtime-level ablations the paper attributes to
DAGuE: communication serialization and scheduling priority.
"""

import pytest
from conftest import save_and_print

from repro.bench.runner import BenchSetup, run_config
from repro.verify.reference import ClusterSimulator, TaskGraph
from repro.hqr.config import HQRConfig
from repro.hqr.hierarchy import hqr_elimination_list
from repro.runtime.machine import Machine


# m = 512 puts the tall-skinny sweep in the regime where the TS level and
# the domino pay off (the simulator's crossover, one point after the paper's)
M_TILES, N_TILES = 512, 16


def _gflops(setup, m, n, cfg):
    return run_config(m, n, cfg, setup).gflops


def test_level_contribution_ladder(benchmark, results_dir):
    """Build HQR up level by level on a tall-skinny matrix; each level of
    the hierarchy must improve (or at least not hurt) the previous stage.

    Ladder: single global flat tree (no hierarchy) -> intra-cluster trees
    (low level) -> + TS domains (level 0) -> + domino (level 2), with the
    high-level tree present as soon as p > 1.
    """
    setup = BenchSetup()

    def ladder():
        out = {}
        # no hierarchy at all: one global TT flat tree
        out["global flat (no hierarchy)"] = _gflops(
            setup, M_TILES, N_TILES, HQRConfig(p=1, a=1, low_tree="flat", domino=False)
        )
        # split across clusters: low greedy + high fibonacci, a=1, no domino
        base = HQRConfig(
            p=setup.grid_p, q=setup.grid_q, a=1,
            low_tree="greedy", high_tree="fibonacci", domino=False,
        )
        out["+ low & high trees"] = _gflops(setup, M_TILES, N_TILES, base)
        out["+ TS level (a=4)"] = _gflops(setup, M_TILES, N_TILES, base.with_(a=4))
        out["+ domino"] = _gflops(
            setup, M_TILES, N_TILES, base.with_(a=4, domino=True)
        )
        return out

    out = benchmark.pedantic(ladder, iterations=1, rounds=1)
    text = "\n".join(f"{k:>28}: {v:8.1f} GFlop/s" for k, v in out.items())
    save_and_print(results_dir, "ablation_levels.txt", text)
    # the hierarchy (low+high trees) is the big win over a global flat tree
    assert out["+ low & high trees"] > 1.5 * out["global flat (no hierarchy)"]
    # the TS level pays for itself at this size
    assert out["+ TS level (a=4)"] > out["+ low & high trees"]
    # the domino 'never significantly deteriorates' tall-skinny (§V-B); at
    # the largest sizes it is neutral-to-slightly-negative with a greedy
    # low tree (its big wins are at mid sizes and with a flat low tree —
    # see figure7 results)
    assert out["+ domino"] >= 0.9 * out["+ TS level (a=4)"]
    # the full stack beats the unstructured baseline soundly
    assert out["+ domino"] > 2 * out["global flat (no hierarchy)"]


def test_domino_hurts_large_square(benchmark, results_dir):
    """§V-B: 'domino optimization ha[s] a negative impact when the matrix
    becomes large and square'."""
    setup = BenchSetup()
    m = 96

    def run():
        base = HQRConfig(
            p=setup.grid_p, q=setup.grid_q, a=4,
            low_tree="fibonacci", high_tree="flat",
        )
        on = _gflops(setup, m, m, base.with_(domino=True))
        off = _gflops(setup, m, m, base.with_(domino=False))
        return on, off

    on, off = benchmark.pedantic(run, iterations=1, rounds=1)
    save_and_print(
        results_dir,
        "ablation_domino_square.txt",
        f"square {m}x{m} tiles: domino on {on:.1f} GF/s, off {off:.1f} GF/s",
    )
    assert off >= on * 0.999


def test_comm_serialization_cost(benchmark, results_dir):
    """One communication channel per node (the paper's dedicated comm
    thread) vs a contention-free network."""
    setup = BenchSetup()
    m, n = 128, 16
    cfg = HQRConfig(p=15, q=4, a=4, low_tree="greedy", high_tree="fibonacci")

    def run():
        g = TaskGraph.from_eliminations(hqr_elimination_list(m, n, cfg), m, n)
        serial = ClusterSimulator(Machine.edel(), setup.layout, setup.b).run(g)
        free = ClusterSimulator(
            Machine.edel(comm_serialized=False), setup.layout, setup.b
        ).run(g)
        return serial, free

    serial, free = benchmark.pedantic(run, iterations=1, rounds=1)
    save_and_print(
        results_dir,
        "ablation_network.txt",
        f"serialized channel: {serial.gflops:.1f} GF/s; "
        f"contention-free: {free.gflops:.1f} GF/s; "
        f"messages: {serial.messages}",
    )
    assert free.makespan <= serial.makespan


def test_priority_ablation(benchmark, results_dir):
    """Program-order (panel-first) priority vs reversed and column-major
    priorities — DPLASMA's priority function matters."""
    setup = BenchSetup()
    m, n = 128, 16
    cfg = HQRConfig(p=15, q=4, a=4, low_tree="greedy", high_tree="fibonacci")
    g = TaskGraph.from_eliminations(hqr_elimination_list(m, n, cfg), m, n)

    def run():
        out = {}
        for name, prio in (
            ("program-order", None),
            ("reverse", lambda t: -t.id),
            ("column-major", lambda t: (t.col if t.col >= 0 else t.panel, t.id)),
        ):
            sim = ClusterSimulator(Machine.edel(), setup.layout, setup.b, priority=prio)
            out[name] = sim.run(g).gflops
        return out

    out = benchmark.pedantic(run, iterations=1, rounds=1)
    text = "\n".join(f"{k:>14}: {v:8.1f} GFlop/s" for k, v in out.items())
    save_and_print(results_dir, "ablation_priority.txt", text)
    assert out["program-order"] >= 0.8 * max(out.values())
