"""Cluster simulator: scheduling invariants and communication behaviour."""

import pytest

from repro.baselines.bbd10 import bbd10_elimination_list
from repro.verify.reference import ClusterSimulator, TaskGraph
from repro.hqr import HQRConfig, hqr_elimination_list
from repro.models.bounds import list_bound
from repro.runtime import Machine
from repro.runtime.core import qr_flops
from repro.tiles.layout import BlockCyclic2D, Cyclic1D, SingleNode


def graph(m, n, cfg=None):
    cfg = cfg or HQRConfig(p=3, a=2, low_tree="greedy", high_tree="binary")
    return TaskGraph.from_eliminations(hqr_elimination_list(m, n, cfg), m, n)


class TestQrFlops:
    def test_tall(self):
        assert qr_flops(100, 50) == 2 * 100 * 2500 - 2 * 50**3 / 3

    def test_square_matches_4_thirds_n3(self):
        assert qr_flops(60, 60) == pytest.approx(4 / 3 * 60**3)

    def test_wide(self):
        assert qr_flops(50, 100) == 2 * 100 * 2500 - 2 * 50**3 / 3


class TestLowerBounds:
    """Makespan can never beat the DAG critical path or total-work bounds."""

    @pytest.mark.parametrize("m,n", [(12, 4), (8, 8), (20, 3)])
    def test_critical_path_bound(self, m, n):
        b = 40
        g = graph(m, n)
        mach = Machine.edel()
        lay = BlockCyclic2D(3, 2)
        res = ClusterSimulator(mach, lay, b).run(g)
        cfg = HQRConfig(p=3, a=2, low_tree="greedy", high_tree="binary")
        elims = hqr_elimination_list(m, n, cfg)
        bound = list_bound(elims, m, n, lay, mach, b).bound
        assert res.makespan >= bound

    def test_work_bound(self):
        b, m, n = 40, 16, 8
        g = graph(m, n)
        mach = Machine(nodes=4, cores_per_node=2)
        res = ClusterSimulator(mach, BlockCyclic2D(2, 2), b).run(g)
        work = sum(mach.task_seconds(t.kind, b) for t in g.tasks)
        assert res.makespan >= work / mach.cores * 0.999
        assert res.busy_seconds == pytest.approx(work)

    def test_infinite_resources_hit_exact_critical_path(self):
        """On one node with unbounded cores and no comm, makespan equals the
        weighted critical path (with per-kernel rates)."""
        b, m, n = 40, 10, 4
        g = graph(m, n)
        mach = Machine.ideal(nodes=1, cores_per_node=10**6)
        res = ClusterSimulator(mach, SingleNode(), b).run(g)
        # independent longest-path with true durations
        dist = [0.0] * len(g)
        for t in range(len(g)):
            d = mach.task_seconds(g.tasks[t].kind, b)
            best = max((dist[p] for p in g.predecessors[t]), default=0.0)
            dist[t] = best + d
        assert res.makespan == pytest.approx(max(dist))


class TestCommunication:
    def test_single_node_sends_nothing(self):
        g = graph(8, 4)
        res = ClusterSimulator(Machine.edel(), SingleNode(), 40).run(g)
        assert res.messages == 0
        assert res.bytes_sent == 0

    def test_more_nodes_more_messages(self):
        g = graph(12, 4)
        r1 = ClusterSimulator(Machine.edel(), Cyclic1D(2), 40).run(graph(12, 4))
        r2 = ClusterSimulator(Machine.edel(), Cyclic1D(6), 40).run(graph(12, 4))
        assert r2.messages > r1.messages

    def test_hqr_sends_fewer_messages_than_bbd10(self):
        """Communication-avoidance: the hierarchical tree respects the
        distribution; the distribution-oblivious flat tree does not."""
        m, n, p = 24, 4, 4
        lay = Cyclic1D(p)
        cfg = HQRConfig(p=p, a=2, low_tree="greedy", high_tree="binary")
        g_hqr = TaskGraph.from_eliminations(hqr_elimination_list(m, n, cfg), m, n)
        g_bbd = TaskGraph.from_eliminations(bbd10_elimination_list(m, n), m, n)
        r_hqr = ClusterSimulator(Machine.edel(), lay, 40).run(g_hqr)
        r_bbd = ClusterSimulator(Machine.edel(), lay, 40).run(g_bbd)
        assert r_hqr.messages < r_bbd.messages

    def test_ideal_network_no_slower(self):
        g1, g2 = graph(12, 6), graph(12, 6)
        lay = BlockCyclic2D(3, 2)
        slow = ClusterSimulator(Machine(nodes=6, cores_per_node=2, latency=1e-3), lay, 40).run(g1)
        fast = ClusterSimulator(Machine.ideal(nodes=6, cores_per_node=2), lay, 40).run(g2)
        assert fast.makespan <= slow.makespan


class TestResultMetrics:
    def test_gflops_consistency(self):
        g = graph(10, 4)
        mach = Machine.edel()
        res = ClusterSimulator(mach, BlockCyclic2D(2, 2), 40).run(g)
        assert res.gflops == pytest.approx(res.flops / res.makespan / 1e9)
        assert 0 < res.efficiency <= 1
        assert 0 < res.percent_of_peak(mach) < 100

    def test_trace_recording(self):
        g = graph(6, 3)
        sim = ClusterSimulator(Machine.edel(), BlockCyclic2D(2, 2), 40, record_trace=True)
        res = sim.run(g)
        assert res.trace is not None
        assert len(res.trace) == len(g)
        for task, node, start, end in res.trace:
            assert end > start >= 0
            assert 0 <= node < 4

    def test_no_core_oversubscription(self):
        """At any instant, at most cores_per_node tasks run per node."""
        g = graph(12, 6)
        mach = Machine(nodes=4, cores_per_node=2)
        sim = ClusterSimulator(mach, BlockCyclic2D(2, 2), 40, record_trace=True)
        res = sim.run(g)
        events = []
        for _, node, start, end in res.trace:
            events.append((start, 1, node))
            events.append((end, -1, node))
        events.sort()
        load = [0] * 4
        for _, delta, node in events:
            load[node] += delta
            assert load[node] <= 2

    def test_empty_graph(self):
        g = TaskGraph(1, 1, [], [])
        res = ClusterSimulator(Machine.edel(), SingleNode(), 40).run(g)
        assert res.makespan == 0.0

    def test_layout_larger_than_machine_rejected(self):
        with pytest.raises(ValueError):
            ClusterSimulator(Machine(nodes=2, cores_per_node=2), Cyclic1D(4), 40)

    def test_priority_function_changes_order(self):
        g = graph(12, 6)
        sim_fifo = ClusterSimulator(Machine(nodes=2, cores_per_node=1), Cyclic1D(2), 40)
        res1 = sim_fifo.run(graph(12, 6))
        sim_rev = ClusterSimulator(
            Machine(nodes=2, cores_per_node=1),
            Cyclic1D(2),
            40,
            priority=lambda t: -t.id,
        )
        res2 = sim_rev.run(graph(12, 6))
        # both must complete; makespans may differ
        assert res1.makespan > 0 and res2.makespan > 0
