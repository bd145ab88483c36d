"""Accelerator-equipped cluster simulation (§VI future-work extension)."""

import itertools

import pytest

from repro.dag import TaskGraph
from repro.dag.compiled import compile_graph
from repro.hqr import HQRConfig, hqr_elimination_list
from repro.runtime import Machine
from repro.runtime.accelerated import AcceleratedMachine, AcceleratedSimulator
from repro.runtime.core import run_core
from repro.tiles.layout import BlockCyclic2D

from test_compiled_equivalence import B, CONFIGS, LAYOUTS, MACHINES, exact, graph_for


def graph(m, n, cfg=None):
    cfg = cfg or HQRConfig(p=4, q=2, a=4, low_tree="greedy", high_tree="fibonacci")
    return TaskGraph.from_eliminations(hqr_elimination_list(m, n, cfg), m, n)


@pytest.fixture(scope="module")
def small_machine():
    return Machine(nodes=8, cores_per_node=4)


class TestAcceleratedMachine:
    def test_peak_includes_accelerators(self, small_machine):
        acc = AcceleratedMachine(base=small_machine, accelerators=2)
        cpu_only = small_machine.peak_gflops()
        assert acc.peak_gflops() == pytest.approx(cpu_only + 8 * 2 * 515.0)

    def test_rejects_negative(self, small_machine):
        with pytest.raises(ValueError):
            AcceleratedMachine(base=small_machine, accelerators=-1)

    def test_acc_updates_much_faster(self, small_machine):
        from repro.kernels.weights import KernelKind

        acc = AcceleratedMachine(base=small_machine)
        cpu = small_machine.task_seconds(KernelKind.TSMQR, 280)
        gpu = acc.acc_task_seconds(KernelKind.TSMQR, 280)
        assert gpu < cpu / 5


class TestAcceleratedSimulation:
    def test_zero_accelerators_matches_plain_simulator(self):
        """With no accelerators the heterogeneous loop is the cluster loop,
        exactly, on every machine of the equivalence grid: flat, contention-
        free, two-level (``site_size=2``, where each cross-site message
        pays the inter-site link) and ideal."""
        for config, machine, layout in itertools.product(
            CONFIGS, MACHINES, LAYOUTS
        ):
            g = graph_for(config)
            cg = compile_graph(g, layout, machine, B)
            want = run_core(cg, machine, B).result
            got = AcceleratedSimulator(
                AcceleratedMachine(base=machine, accelerators=0), layout, B
            ).run(g)
            exact(got, want)

    def test_accelerators_speed_up_updates(self, small_machine):
        g = graph(32, 16)
        lay = BlockCyclic2D(4, 2)
        spans = []
        for n_acc in (0, 1, 2):
            res = AcceleratedSimulator(
                AcceleratedMachine(base=small_machine, accelerators=n_acc), lay, 280
            ).run(g)
            spans.append(res.makespan)
        assert spans[1] < spans[0]
        assert spans[2] <= spans[1] * 1.001

    def test_speedup_saturates_at_panel_path(self, small_machine):
        """With updates nearly free, the makespan approaches the CPU
        factorization critical path — accelerators cannot help further."""
        from repro.dag.compiled import compile_graph
        from repro.models.bounds import graph_bounds

        g = graph(24, 8)
        lay = BlockCyclic2D(4, 2)
        res = AcceleratedSimulator(
            AcceleratedMachine(base=small_machine, accelerators=64), lay, 280
        ).run(g)
        # lower bound: CP where updates cost their accelerated time; the
        # factorization kernels alone already form a chain
        assert res.makespan > 0
        cg = compile_graph(g, lay, small_machine, 280)
        cpu_cp = graph_bounds([cg], small_machine, 280)[0].plain_critical_path
        assert res.makespan < cpu_cp  # accelerating updates shortens the path

    def test_work_conservation(self, small_machine):
        """busy_seconds = sum of per-unit durations actually used."""
        g = graph(16, 8)
        lay = BlockCyclic2D(4, 2)
        res = AcceleratedSimulator(
            AcceleratedMachine(base=small_machine, accelerators=1), lay, 280
        ).run(g)
        assert res.busy_seconds > 0
        assert res.makespan <= res.busy_seconds  # parallel execution

    def test_layout_check(self, small_machine):
        with pytest.raises(ValueError):
            AcceleratedSimulator(
                AcceleratedMachine(base=small_machine), BlockCyclic2D(4, 4), 280
            )

    def test_empty_graph(self, small_machine):
        g = TaskGraph(1, 1, [], [])
        res = AcceleratedSimulator(
            AcceleratedMachine(base=small_machine), BlockCyclic2D(2, 2), 280
        ).run(g)
        assert res.makespan == 0.0
