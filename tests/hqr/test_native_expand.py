"""The native HQR generator (``hqr_expand``) against the numpy generator it
replaces on the hot path (``HQRTree._assemble``): the same list, entry for
entry, over the whole parameter space; and its refusals, which must end in
the reference list, never in a short or over-run array."""

import itertools
import random

import numpy as np
import pytest

from repro import _ccore
from repro.hqr import HQRConfig, HQRTree, hqr_elimination_list
from repro.trees import TREE_NAMES, make_tree
from repro.trees.base import EliminationArray, PanelTree

needs_native = pytest.mark.skipif(
    not _ccore.native_available(), reason="no C compiler for the native core"
)

SHAPES = [  # incl. m <= n, one row, one column, p > m for every p above m
    (1, 1), (1, 4), (2, 1), (2, 2), (3, 7), (5, 5), (7, 3), (8, 40),
    (12, 4), (23, 23), (33, 9), (40, 7), (64, 16),
]
DOMAIN_SIZES = (1, 2, 3, 4, 7, 10**9)


def _grid():
    """tree x tree x domino x a x p, each on two seeded shapes: 3456 cases."""
    rng = random.Random(23)
    for low, high, domino in itertools.product(TREE_NAMES, TREE_NAMES, (True, False)):
        for a in DOMAIN_SIZES:
            for p in range(1, 10):
                for m, n in rng.sample(SHAPES, 2):
                    yield m, n, HQRConfig(
                        p=p, a=a, low_tree=low, high_tree=high, domino=domino
                    )


def _same_list(got, want):
    assert isinstance(got, EliminationArray)
    for field in EliminationArray.__slots__:
        a, b = getattr(got, field), getattr(want, field)
        assert a.format == b.format and np.array_equal(a, b), field
        assert a.readonly


@needs_native
def test_native_list_equals_the_numpy_generator():
    cases = 0
    for m, n, cfg in _grid():
        tree = HQRTree(m, n, cfg)
        want = tree._assemble(range(tree.panels))
        got = tree._expand()
        if tree.panels <= 0:
            assert got is None and len(want) == 0
        else:
            assert got is not None, (m, n, cfg)  # no silent fallback
            _same_list(got, want)
        _same_list(tree.elimination_list(), want)
        cases += 1
    assert cases >= 400


@needs_native
@pytest.mark.parametrize("domino", [True, False])
def test_every_small_shape_on_cold_tables(domino):
    """Exhaustive over small shapes, the trees' tables forgotten before each:
    the ``q`` range asked of ``PanelTree.table`` must cover what the C loop
    reads, or it refuses and this fails."""
    for m, n, p, a in itertools.product(
        range(1, 14), (1, 2, 5, 13, 20), range(1, 8), (1, 2, 3, 10**9)
    ):
        cfg = HQRConfig(p=p, a=a, low_tree="greedy", high_tree="binary", domino=domino)
        for name in ("greedy", "binary"):
            make_tree(name).__init__()
        tree = HQRTree(m, n, cfg)
        got = tree._expand()
        if tree.panels > 0:
            assert got is not None, (m, n, cfg)
            assert got == tree._assemble(range(tree.panels)), (m, n, cfg)


@needs_native
def test_domain_size_does_not_wrap():
    """``a`` travels as int64: ``bbd10`` spells "one domain" as 10**9, and
    anything up to 2**63 - 1 means the same; a value ctypes would truncate
    is left to the reference (which has always raised on it)."""
    m, n = 37, 5
    want = hqr_elimination_list(m, n, HQRConfig(p=2, a=m))
    for a in (10**9, 2**31, 2**40 + 1, 2**63 - 1):
        assert HQRTree(m, n, HQRConfig(p=2, a=a))._expand() == want
    assert HQRTree(m, n, HQRConfig(p=2, a=2**63))._expand() is None


def test_bbd10_is_one_flat_ts_domain():
    got = hqr_elimination_list(9, 3, HQRConfig.bbd10())
    assert [(e.panel, e.victim, e.killer, e.ts) for e in got] == [
        (k, i, k, True) for k in range(3) for i in range(k + 1, 9)
    ]


def test_python_core_runs_the_reference(monkeypatch):
    cfg = HQRConfig(p=3, a=2, low_tree="binary", high_tree="greedy")
    want = hqr_elimination_list(20, 6, cfg)
    monkeypatch.setattr(_ccore, "get_lib", lambda: None)  # as with no compiler
    tree = HQRTree(20, 6, cfg)
    assert tree._expand() is None
    _same_list(tree.elimination_list(), want)


# --------------------------------------------------------------------- #
# refusals
# --------------------------------------------------------------------- #
def _raw_expand(lib, m, n, cfg, low, high, cap):
    out = (
        np.full(cap + 3, -7, np.int32), np.full(cap + 3, -7, np.int32),
        np.full(cap + 3, -7, np.int32), np.full(cap + 3, 7, np.uint8),
    )
    low, high = ([np.ascontiguousarray(arr) for arr in t] for t in (low, high))
    written = lib.hqr_expand(
        m, n, cfg.p, cfg.a, cfg.domino,
        len(low[0]) - 1, *[arr.ctypes.data for arr in low],
        len(high[0]) - 1, *[arr.ctypes.data for arr in high],
        cap, *[arr.ctypes.data for arr in out],
    )
    return written, out


@needs_native
def test_short_table_or_small_capacity_is_refused_not_overrun():
    lib = _ccore.get_lib()
    m, n = 30, 6
    cfg = HQRConfig(p=3, a=2, low_tree="greedy", high_tree="fibonacci")
    want = HQRTree(m, n, cfg)._assemble(range(6))
    low, high = cfg.low.table(1, 6), cfg.high.table(1, 3)
    written, out = _raw_expand(lib, m, n, cfg, low, high, len(want))
    assert written == len(want)
    assert EliminationArray(*(arr[:written] for arr in out)) == want
    # a capacity below the list: refused, and nothing written past it
    for cap in (0, 1, len(want) - 1):
        written, out = _raw_expand(lib, m, n, cfg, low, high, cap)
        assert written == -1
        assert all((arr[cap:] == arr[-1]).all() for arr in out)
    # a capacity above it: the count says so (the caller compares)
    assert _raw_expand(lib, m, n, cfg, low, high, len(want) + 2)[0] == len(want)
    # a table that ends before, or lacks, a q some cluster needs
    short = (low[0][:4], low[1], low[2])
    assert _raw_expand(lib, m, n, cfg, short, high, len(want))[0] == -1
    holed = (np.array(low[0]), low[1], low[2])
    holed[0][5] = -1
    assert _raw_expand(lib, m, n, cfg, holed, high, len(want))[0] == -1
    no_high = (np.full_like(high[0], -1), high[1], high[2])
    assert _raw_expand(lib, m, n, cfg, low, no_high, len(want))[0] == -1


@needs_native
def test_a_refusal_falls_back_to_the_reference(monkeypatch):
    m, n = 30, 6
    cfg = HQRConfig(p=3, a=2, low_tree="greedy", high_tree="fibonacci")
    want = HQRTree(m, n, cfg)._assemble(range(6))
    table = PanelTree.table

    def narrow(self, qlo, qhi):  # a table that misses the largest q
        start, victims, killers = table(self, qlo, qhi)
        return start[:qhi], victims, killers

    monkeypatch.setattr(PanelTree, "table", narrow)
    tree = HQRTree(m, n, cfg)
    assert tree._expand() is None
    _same_list(tree.elimination_list(), want)


# --------------------------------------------------------------------- #
# the trees' flat tables
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", TREE_NAMES)
def test_table_holds_the_pairs_it_was_asked_for(name):
    tree = type(make_tree(name))()  # a private instance: nothing cached
    start, victims, killers = tree.table(5, 9)
    assert start.format == "q" and len(start) == 10
    assert max(start[:5]) < 0 and min(start[5:]) >= 0
    later = tree.table(2, 3)  # grows downward without moving what is there
    assert tree.table(5, 9) is later and tree.table(2, 3) is later
    assert np.array_equal(later[0][5:], start[5:])
    assert later[0][4] < 0 and len(later[0]) == 10
    wide = tree.table(0, 40)
    for q in (0, 1, 2, 3, 5, 9, 17, 40):
        at = wide[0][q]
        want_v, want_k = tree.pairs(q)
        assert len(want_v) == max(q - 1, 0)
        assert np.array_equal(wide[1][at : at + len(want_v)], want_v)
        assert np.array_equal(wide[2][at : at + len(want_k)], want_k)
    for arr in wide:
        assert arr.readonly
    assert victims.format == killers.format == "i"


def test_table_rejects_a_tree_that_does_not_kill_q_minus_one():
    class Lazy(PanelTree):
        name = "lazy"

        def _positions(self, q):
            return [1], [0]  # one kill, whatever q

    assert len(Lazy().table(2, 2)[1]) == 1
    with pytest.raises(ValueError, match="lazy tree kills 1 of 4 rows"):
        Lazy().table(4, 4)
