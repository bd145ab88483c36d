"""HQR analytics: level fractions and kernel-mix rate ceilings."""

import pytest

from repro.hqr import HQRConfig
from repro.hqr.stats import (
    config_kernel_mix,
    kernel_mix,
    level_census,
    level_fractions,
)
from repro.kernels.weights import EDEL_RATES


class TestLevelCensus:
    def test_counts_cover_lower_triangle(self):
        m, n, p, a = 24, 10, 3, 2
        census = level_census(m, n, p, a)
        assert sum(census.values()) == sum(m - k for k in range(n))

    def test_tall_skinny_level0_tends_to_half(self):
        """§IV-B: a=2 -> level-0 proportion -> 1/2 on tall and skinny."""
        frac = level_fractions(600, 4, 3, 2)
        assert 0.46 <= frac[0] <= 0.51

    def test_square_has_fewer_level0(self):
        tall = level_fractions(240, 8, 3, 2)
        square = level_fractions(48, 48, 3, 2)
        assert square[0] < tall[0] / 2

    def test_level2_grows_with_panel_index(self):
        """Level-2 (domino) tiles dominate square matrices."""
        frac = level_fractions(48, 48, 3, 2)
        assert frac[2] > 0.5

    def test_larger_a_more_level0(self):
        f2 = level_fractions(300, 4, 3, 2)
        f4 = level_fractions(300, 4, 3, 4)
        assert f4[0] > f2[0]


class TestKernelMix:
    def test_fraction_increases_with_a(self):
        fracs = [
            config_kernel_mix(256, 8, HQRConfig(p=15, a=a)).ts_fraction
            for a in (1, 4, 8)
        ]
        assert fracs[0] == 0.0  # a=1: pure TT
        assert fracs[0] < fracs[1] < fracs[2]

    def test_bbd10_is_pure_ts(self):
        from repro.baselines.bbd10 import bbd10_elimination_list
        from repro.runtime.executor import numeric_graph

        g, _ = numeric_graph(bbd10_elimination_list(32, 8), 32, 8)
        mix = kernel_mix(g)
        # GEQRT/UNMQR panel work is neither TS nor TT family; all kills are TS
        assert mix.weights[__import__("repro.kernels.weights", fromlist=["KernelKind"]).KernelKind.TTQRT] == 0
        assert mix.ts_fraction > 0.8

    def test_rate_ceiling_bounds(self):
        mix = config_kernel_mix(128, 8, HQRConfig(p=15, a=4))
        ceil = mix.rate_ceiling()
        assert EDEL_RATES.tt_rate <= ceil <= EDEL_RATES.ts_rate

    def test_pure_mix_ceilings(self):
        from repro.hqr.stats import KernelMix
        from repro.kernels.weights import KernelKind

        pure_ts = KernelMix(weights={KernelKind.TSMQR: 100, **{k: 0 for k in KernelKind if k != KernelKind.TSMQR}})
        assert pure_ts.rate_ceiling() == pytest.approx(EDEL_RATES.ts_rate)
        pure_tt = KernelMix(weights={KernelKind.TTMQR: 100, **{k: 0 for k in KernelKind if k != KernelKind.TTMQR}})
        assert pure_tt.rate_ceiling() == pytest.approx(EDEL_RATES.tt_rate)

    def test_empty_mix(self):
        from repro.hqr.stats import KernelMix
        from repro.kernels.weights import KernelKind

        empty = KernelMix(weights={k: 0 for k in KernelKind})
        assert empty.ts_fraction == 0.0


class TestCeilingExplainsFigure6:
    def test_simulated_square_performance_below_mix_ceiling(self):
        """The simulator can never beat the kernel-mix rate ceiling."""
        from repro.bench.runner import BenchSetup, run_config

        setup = BenchSetup()
        m = 48
        cfg = HQRConfig(p=15, q=4, a=4, low_tree="fibonacci", high_tree="flat",
                        domino=False)
        res = run_config(m, m, cfg, setup)
        mix = config_kernel_mix(m, m, cfg)
        ceiling_gflops = mix.rate_ceiling() * setup.machine.cores
        assert res.gflops <= ceiling_gflops * 1.001
