"""Serialization round-trips."""

import pytest

from repro.hqr import HQRConfig, check_elimination_list, hqr_elimination_list
from repro.io import eliminations_from_json, eliminations_to_json


class TestEliminationRoundtrip:
    def test_roundtrip_preserves_everything(self):
        m, n = 12, 4
        cfg = HQRConfig(p=3, a=2, low_tree="binary", high_tree="greedy")
        elims = hqr_elimination_list(m, n, cfg)
        text = eliminations_to_json(elims, m, n, config=cfg)
        back, m2, n2, cfg2 = eliminations_from_json(text)
        assert (m2, n2) == (m, n)
        assert cfg2 == cfg
        assert back == elims
        check_elimination_list(back, m2, n2)

    def test_without_config(self):
        from repro.trees import FlatTree, panel_elimination_list

        elims = panel_elimination_list(6, 2, FlatTree())
        back, m, n, cfg = eliminations_from_json(
            eliminations_to_json(elims, 6, 2)
        )
        assert cfg is None
        assert back == elims

    def test_ts_flag_preserved(self):
        elims = hqr_elimination_list(12, 3, HQRConfig(p=2, a=3))
        back, *_ = eliminations_from_json(eliminations_to_json(elims, 12, 3))
        assert [e.ts for e in back] == [e.ts for e in elims]

    def test_rejects_wrong_kind(self):
        with pytest.raises(ValueError, match="not an elimination-list"):
            eliminations_from_json('{"kind": "other", "schema": 1}')

    def test_rejects_unknown_schema(self):
        text = eliminations_to_json([], 1, 1).replace('"schema":1', '"schema":99')
        with pytest.raises(ValueError, match="schema"):
            eliminations_from_json(text)

    def test_replay_serialized_list_numerically(self, rng):
        """A deserialized list drives qr() identically."""
        import numpy as np

        from repro import qr

        m, n, b = 6, 3, 4
        cfg = HQRConfig(p=2, a=2)
        elims = hqr_elimination_list(m, n, cfg)
        back, *_ = eliminations_from_json(eliminations_to_json(elims, m, n))
        A = rng.standard_normal((m * b, n * b))
        r1 = qr(A, b=b, eliminations=elims)
        r2 = qr(A, b=b, eliminations=back)
        np.testing.assert_array_equal(r1.R, r2.R)

