"""Lower bounds: the simulator can never beat them."""

import pytest

from repro.baselines.bbd10 import bbd10_elimination_list
from repro.verify.reference import ClusterSimulator, TaskGraph
from repro.hqr import HQRConfig, hqr_elimination_list
from repro.models import bandwidth_lower_bound_words
from repro.models.bounds import list_bound
from repro.runtime import Machine
from repro.tiles.layout import BlockCyclic2D, Cyclic1D, SingleNode


def graph(m, n, cfg=None):
    cfg = cfg or HQRConfig(p=3, a=2)
    return TaskGraph.from_eliminations(hqr_elimination_list(m, n, cfg), m, n)


def bounds(m, n, cfg, mach, b, lay=None):
    """The list pass over ``cfg``'s list, on one node unless ``lay``."""
    elims = hqr_elimination_list(m, n, cfg or HQRConfig(p=3, a=2))
    return list_bound(elims, m, n, lay or SingleNode(), mach, b)


class TestSchedulingBounds:
    @pytest.mark.parametrize("m,n", [(12, 4), (8, 8), (24, 6)])
    @pytest.mark.parametrize("nodes,cores", [(1, 4), (6, 2), (4, 8)])
    def test_simulator_dominates_bound(self, m, n, nodes, cores):
        b = 40
        g = graph(m, n)
        mach = Machine(nodes=nodes, cores_per_node=cores)
        lay = Cyclic1D(nodes)
        res = ClusterSimulator(mach, lay, b).run(g)
        assert res.makespan >= bounds(m, n, None, mach, b, lay).bound

    def test_cp_decreasing_in_parallel_trees(self):
        b = 40
        mach = Machine.edel()
        flat = HQRConfig(p=1, a=1, low_tree="flat", domino=False)
        greedy = HQRConfig(p=1, a=1, low_tree="greedy", domino=False)
        cp = bounds(32, 4, greedy, mach, b).plain_critical_path
        assert cp < bounds(32, 4, flat, mach, b).plain_critical_path

    def test_work_independent_of_tree(self):
        """Same shape, different trees — total seconds differ only through
        the TS/TT kernel mix, never by more than the rate ratio."""
        b = 40
        mach = Machine.edel()
        w1 = bounds(16, 8, HQRConfig(p=2, a=1), mach, b).work
        w2 = bounds(16, 8, HQRConfig(p=2, a=8), mach, b).work
        ratio = mach.rates.ts_rate / mach.rates.tt_rate
        assert 1 / ratio <= w1 / w2 <= ratio * 1.01


class TestBandwidthBound:
    def test_zero_for_single_node(self):
        assert bandwidth_lower_bound_words(1000, 500, 1) == 0.0

    def test_grows_with_node_count_per_machine(self):
        # total volume (nodes * per-node) grows with sqrt(nodes)
        total4 = 4 * bandwidth_lower_bound_words(10000, 5000, 4)
        total16 = 16 * bandwidth_lower_bound_words(10000, 5000, 16)
        assert total16 > total4

    def test_algorithms_respect_bound(self):
        """Measured per-node volume (words) >= the lower bound."""
        b, m, n, nodes = 40, 24, 12, 6
        M, N = m * b, n * b
        mach = Machine(nodes=nodes, cores_per_node=2)
        lay = Cyclic1D(nodes)
        for elims in (
            hqr_elimination_list(m, n, HQRConfig(p=nodes, a=2)),
            bbd10_elimination_list(m, n),
        ):
            g = TaskGraph.from_eliminations(elims, m, n)
            res = ClusterSimulator(mach, lay, b).run(g)
            words_per_node = res.bytes_sent / 8 / nodes
            assert words_per_node >= bandwidth_lower_bound_words(M, N, nodes)

    def test_explicit_memory_parameter(self):
        small_mem = bandwidth_lower_bound_words(1000, 500, 4, memory_words=100)
        big_mem = bandwidth_lower_bound_words(1000, 500, 4, memory_words=10000)
        assert small_mem > big_mem
