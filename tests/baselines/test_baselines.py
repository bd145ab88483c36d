"""Baseline algorithms: structure and §III/§V claims."""

import pytest

from repro.baselines import (
    ScalapackModel,
    bbd10_elimination_list,
    slhd10_config,
    slhd10_elimination_list,
    slhd10_layout,
)
from repro.hqr import check_elimination_list
from repro.runtime import Machine


class TestBBD10:
    def test_is_valid(self):
        check_elimination_list(bbd10_elimination_list(10, 4), 10, 4)

    def test_single_killer_per_panel(self):
        for e in bbd10_elimination_list(8, 3):
            assert e.killer == e.panel
            assert e.ts

    def test_natural_order(self):
        elims = [e for e in bbd10_elimination_list(6, 2) if e.panel == 0]
        assert [e.victim for e in elims] == [1, 2, 3, 4, 5]


class TestSLHD10:
    def test_is_valid(self):
        check_elimination_list(slhd10_elimination_list(12, 4, r=3), 12, 4)

    def test_intra_node_kills_are_ts_flat(self):
        """Within a node: a full flat TS domain (a = m/r)."""
        m, r = 12, 3
        lay = slhd10_layout(r, m)
        for e in slhd10_elimination_list(m, 4, r):
            if e.ts:
                assert lay.owner(e.victim, 0) == lay.owner(e.killer, 0)
                # killer is the first row of the node's block (or the panel
                # boundary within it)
                assert e.killer < e.victim

    def test_inter_node_kills_are_binary_tt(self):
        m, r = 16, 4
        lay = slhd10_layout(r, m)
        cross = [
            e
            for e in slhd10_elimination_list(m, 2, r)
            if lay.owner(e.victim, 0) != lay.owner(e.killer, 0)
        ]
        assert cross and all(not e.ts for e in cross)

    def test_config_matches_paper_parameterization(self):
        cfg = slhd10_config(4, 16)
        assert cfg.p == 1 and cfg.a == 4 and cfg.low_tree == "binary"

    def test_layout_is_block(self):
        lay = slhd10_layout(3, 12)
        assert [lay.owner(i, 0) for i in range(12)] == [0] * 4 + [1] * 4 + [2] * 4


class TestScalapackModel:
    @pytest.fixture(scope="class")
    def model(self):
        return ScalapackModel(machine=Machine.edel())

    def test_paper_anchor_tall_skinny(self, model):
        """§V-C: at best 277 GFlop/s (6.4% of peak) on 286720 x 4480."""
        pct = model.percent_of_peak(286720, 4480)
        assert 4.5 < pct < 9.5

    def test_paper_anchor_square(self, model):
        """§V-C: 1925 GFlop/s (44.2% of peak) on the square matrix."""
        pct = model.percent_of_peak(67200, 67200)
        assert 38 < pct < 52

    def test_tall_skinny_is_panel_bound(self, model):
        assert model.panel_seconds(286720, 4480) > model.update_seconds(286720, 4480)

    def test_square_is_update_bound(self, model):
        assert model.update_seconds(67200, 67200) > model.panel_seconds(67200, 67200)

    def test_builds_performance_with_m(self, model):
        """Figure 9 behaviour: SCALAPACK grows with N."""
        g = [model.gflops(67200, n * 280) for n in (4, 40, 120, 240)]
        assert g == sorted(g)

    def test_plateau_is_flat_over_the_figure9_grid(self, model):
        """Figure 9 at full scale: once the update term binds, every N
        reads the GEMM plateau exactly, never one ulp below it."""
        g = [model.gflops(67200, k * 280) for k in range(4, 241, 4)]
        assert g == sorted(g)
        assert g[-1] == model.machine.cores * model.gemm_rate_per_core / 1e9

    def test_latency_term_scales_with_column_count(self, model):
        """One reduction per column: doubling N doubles the panel latency
        share (the 'factor of b' of §V-C)."""
        t1 = model.panel_seconds(286720, 2240)
        t2 = model.panel_seconds(286720, 4480)
        assert t2 > 1.8 * t1

    def test_rejects_bad_dims(self, model):
        with pytest.raises(ValueError):
            model.seconds(0, 10)
