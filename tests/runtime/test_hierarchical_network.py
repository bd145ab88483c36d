"""Two-level (grid-of-clusters) network model — the [3] setting."""

import pytest

from repro.verify.reference import ClusterSimulator, TaskGraph
from repro.hqr import hqr_elimination_list, HQRConfig
from repro.hqr.multilevel import Level, MultilevelTree
from repro.runtime import Machine
from repro.tiles.layout import Cyclic1D


class TestMachineTopology:
    def test_flat_by_default(self):
        m = Machine.edel()
        assert m.site_size == 0
        assert m.site_of(59) == 0
        assert m.link(0, 59) == (m.latency, m.bandwidth)

    def test_sites_partition_nodes(self):
        m = Machine(nodes=8, cores_per_node=2, site_size=4)
        assert [m.site_of(i) for i in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_inter_site_link_is_slower(self):
        m = Machine(nodes=8, cores_per_node=2, site_size=4)
        lat_in, bw_in = m.link(0, 3)
        lat_out, bw_out = m.link(0, 4)
        assert lat_out > lat_in
        assert bw_out < bw_in

    def test_validation(self):
        with pytest.raises(ValueError):
            Machine(site_size=-1)
        with pytest.raises(ValueError):
            Machine(site_size=2, inter_site_bandwidth=0)


class TestSimulationOnSites:
    def _machine(self, inter_bw=1.25e8):
        return Machine(
            nodes=8,
            cores_per_node=4,
            site_size=4,
            inter_site_latency=1e-4,
            inter_site_bandwidth=inter_bw,
        )

    def test_slow_inter_site_hurts(self):
        m, n, b = 32, 8, 100
        g = TaskGraph.from_eliminations(
            hqr_elimination_list(m, n, HQRConfig(p=8, a=2)), m, n
        )
        lay = Cyclic1D(8)
        fast = ClusterSimulator(self._machine(inter_bw=1.4e9), lay, b).run(g)
        slow = ClusterSimulator(self._machine(inter_bw=2e7), lay, b).run(g)
        assert slow.makespan > fast.makespan

    def test_site_aware_tree_beats_site_oblivious_on_slow_links(self):
        """[3]'s grid-computing result: a hierarchy whose outer level
        matches the site structure reduces within each site first and
        crosses the slow links once per panel; a site-oblivious binary
        tree crosses them at several reduction rounds."""
        m, n, b = 48, 6, 100
        mach = self._machine(inter_bw=2e7)  # painful WAN between sites
        lay = Cyclic1D(8)  # leaf l -> node l; sites = {0-3}, {4-7}
        aware = MultilevelTree(
            m, n, [Level(2, "binary"), Level(4, "binary")], a=1,
            leaf_tree="greedy",
        )
        oblivious = MultilevelTree(m, n, [Level(8, "binary")], a=1,
                                   leaf_tree="greedy")
        res = {}
        for name, tree in (("aware", aware), ("oblivious", oblivious)):
            g = TaskGraph.from_eliminations(tree.elimination_list(), m, n)
            res[name] = ClusterSimulator(mach, lay, b).run(g)
        assert res["aware"].makespan < 0.8 * res["oblivious"].makespan

    def test_flat_network_unchanged_by_refactor(self):
        """site_size=0 path must reproduce the historical numbers."""
        m, n, b = 24, 8, 100
        g = TaskGraph.from_eliminations(
            hqr_elimination_list(m, n, HQRConfig(p=4, a=2)), m, n
        )
        lay = Cyclic1D(4)
        base = Machine(nodes=4, cores_per_node=4)
        res = ClusterSimulator(base, lay, b).run(g)
        assert res.makespan > 0
        # identical machine with site_size covering all nodes = same links
        sited = Machine(
            nodes=4, cores_per_node=4, site_size=4,
            inter_site_latency=base.latency, inter_site_bandwidth=base.bandwidth,
        )
        res2 = ClusterSimulator(sited, lay, b).run(g)
        assert res2.makespan == pytest.approx(res.makespan)
