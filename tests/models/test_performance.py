"""Performance model: optimism, binding terms, ranking correlation."""

import pytest

from repro._ccore import native_available
from repro.verify.reference import ClusterSimulator, TaskGraph
from repro.hqr import HQRConfig, hqr_elimination_list
from repro.models import ConfigExplorer, PerformanceModel
from repro.runtime import Machine
from repro.tiles.layout import BlockCyclic2D


B = 280


def graph(m, n, cfg):
    return TaskGraph.from_eliminations(hqr_elimination_list(m, n, cfg), m, n)


def predict(m, n, cfg, mach, lay):
    return PerformanceModel(mach, B).predict(
        hqr_elimination_list(m, n, cfg), m, n, lay
    )


@pytest.fixture(scope="module")
def setup():
    return Machine.edel(), BlockCyclic2D(15, 4)


class TestPrediction:
    def test_model_is_optimistic(self, setup):
        """predicted makespan <= simulated makespan, always."""
        mach, lay = setup
        sim = ClusterSimulator(mach, lay, B)
        for m, n, cfg in [
            (64, 16, HQRConfig(p=15, q=4, a=4)),
            (32, 32, HQRConfig(p=15, q=4, a=4, domino=False)),
            (128, 8, HQRConfig(p=15, q=4, a=1, low_tree="flat")),
        ]:
            pred = predict(m, n, cfg, mach, lay)
            res = sim.run(graph(m, n, cfg))
            assert pred.makespan <= res.makespan * 1.0001
            # and not absurdly loose
            assert pred.makespan > 0.2 * res.makespan

    def test_binding_term_tall_skinny_is_cp(self, setup):
        """Very tall-skinny with a serial flat tree is critical-path-bound."""
        mach, lay = setup
        cfg = HQRConfig(p=15, q=4, a=1, low_tree="flat", high_tree="flat",
                        domino=False)
        assert predict(256, 4, cfg, mach, lay).binding == "critical-path"

    def test_binding_term_square_is_work(self, setup):
        """Square matrices with the paper's square settings (no domino —
        its serial coupling chain would otherwise stretch the critical
        path) are throughput-bound."""
        mach, lay = setup
        cfg = HQRConfig(p=15, q=4, a=4, low_tree="greedy", high_tree="flat",
                        domino=False)
        assert predict(96, 96, cfg, mach, lay).binding == "work"

    def test_gflops_positive(self, setup):
        mach, lay = setup
        assert predict(16, 8, HQRConfig(p=15, q=4), mach, lay).gflops > 0


class TestExplorer:
    def test_ranking_correlates_with_simulator(self, setup):
        """Model ranking must broadly agree with simulated ranking."""
        mach, lay = setup
        exp = ConfigExplorer(96, 16, mach, lay, B, grid_p=15, grid_q=4)
        configs = [
            HQRConfig(p=15, q=4, a=a, low_tree=low, high_tree="fibonacci",
                      domino=False)
            for a in (1, 4) for low in ("flat", "greedy")
        ]
        ranked = exp.rank(configs)
        sim = ClusterSimulator(mach, lay, B)
        sim_gf = {}
        for rc in ranked:
            g = graph(96, 16, rc.config)
            sim_gf[rc.config] = sim.run(g).gflops
        model_order = [rc.config for rc in ranked]
        sim_order = sorted(sim_gf, key=lambda c: -sim_gf[c])
        # the model's best config is in the simulator's top 2
        assert model_order[0] in sim_order[:2]

    def test_space_size(self, setup):
        mach, lay = setup
        exp = ConfigExplorer(16, 4, mach, lay, B, grid_p=15, grid_q=4)
        assert len(list(exp.space())) == 4 * 4 * 4 * 2

    def test_verify_returns_simulated_numbers(self, setup):
        mach, lay = setup
        exp = ConfigExplorer(32, 8, mach, lay, B, grid_p=15, grid_q=4)
        ranked = exp.rank(list(exp.space(a_values=(1, 4), trees=("greedy",),
                                         dominos=(False,))))
        verified = exp.verify(ranked, top=2)
        assert len(verified) == 2
        for rc, gf in verified:
            assert gf > 0

    def test_ranking_keeps_no_graph(self, setup, monkeypatch):
        """The ranking predicts each candidate from its elimination list:
        it stores no graph, and with the native core neither it nor the
        verification of its picks (one native call) builds one."""
        import repro.dag.cache as cache_mod
        import repro.dag.compiled as compiled_mod

        monkeypatch.setattr(cache_mod, "_default", cache_mod.CompiledGraphCache())
        builds = []
        real = compiled_mod.compiled_from_eliminations

        def counted(*args, **kwargs):
            builds.append(args[1:3])
            return real(*args, **kwargs)

        monkeypatch.setattr(compiled_mod, "compiled_from_eliminations", counted)
        mach, lay = setup
        exp = ConfigExplorer(32, 8, mach, lay, B, grid_p=15, grid_q=4)
        ranked = exp.rank(list(exp.space(a_values=(1, 4), trees=("greedy",),
                                         dominos=(False,))))
        assert cache_mod.default_cache().stats()["store"] == 0
        verified = exp.verify(ranked, top=2)
        assert len(verified) == 2
        if native_available():
            assert builds == []
