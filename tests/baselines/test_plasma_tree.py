"""PLASMA-TREE baseline (Hadri et al. [7])."""

import pytest

from repro.baselines.plasma_tree import plasma_tree_config
from repro.hqr import check_elimination_list, hqr_elimination_list


def plasma_tree(m, n, bs):
    return hqr_elimination_list(m, n, plasma_tree_config(bs))


class TestPlasmaTree:
    def test_valid(self):
        check_elimination_list(plasma_tree(16, 4, bs=4), 16, 4)

    def test_flat_ts_within_domains(self):
        bs = 4
        for e in plasma_tree(16, 2, bs):
            if e.ts:
                # same contiguous domain (p=1 -> local view == global view)
                assert e.victim // bs == e.killer // bs or e.killer < bs

    def test_binary_between_domains(self):
        bs, m = 4, 16
        cross = [
            e
            for e in plasma_tree(m, 1, bs)
            if not e.ts
        ]
        assert cross and all(not e.ts for e in cross)
        # the binary merge touches only domain survivors
        for e in cross:
            assert e.victim % bs == 0 or e.victim < bs

    def test_bs_equals_one_is_pure_binary(self):
        elims = plasma_tree(8, 1, bs=1)
        assert all(not e.ts for e in elims)

    def test_bs_covers_matrix_is_pure_flat_ts(self):
        elims = plasma_tree(8, 1, bs=8)
        assert all(e.ts for e in elims)

    def test_rejects_bad_bs(self):
        with pytest.raises(ValueError):
            plasma_tree_config(0)

    def test_bs_tradeoff_visible_in_critical_path(self):
        """Small bs -> more parallelism (shorter CP); big bs -> more TS."""
        from repro.dag.compiled import compiled_from_eliminations
        from repro.hqr.stats import kernel_mix
        from repro.models.bounds import list_bound
        from repro.runtime import Machine
        from repro.tiles.layout import SingleNode

        mach = Machine.ideal(nodes=1)

        m, n = 32, 4
        cp, ts = {}, {}
        for bs in (1, 4, 32):
            elims = plasma_tree(m, n, bs)
            cg = compiled_from_eliminations(elims, m, n, SingleNode(), mach, 280)
            cp[bs] = list_bound(elims, m, n, SingleNode(), mach, 280).plain_critical_path
            ts[bs] = kernel_mix(cg).ts_fraction
        assert cp[1] < cp[32]
        assert ts[1] == 0.0 < ts[4] < ts[32]
