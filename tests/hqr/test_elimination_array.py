"""The array-backed elimination list: equal to an object-per-elimination
oracle, a drop-in ``Sequence[Elimination]``, and as strict as
``Elimination`` itself."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.verify.reference import TaskGraph
from repro.hqr import HQRConfig, HQRTree, check_elimination_list, hqr_elimination_list
from repro.hqr.levels import top_local_row
from repro.io import eliminations_from_json, eliminations_to_json
from repro.trees import TREE_NAMES, Elimination, make_tree, panel_elimination_list
from repro.trees.base import EliminationArray

settings.register_profile("elim-array", max_examples=300, deadline=None)
settings.load_profile("elim-array")


# --------------------------------------------------------------------- #
# oracle: the generator as it was before the array form, one frozen
# Elimination per kill, with its own copy of the four tree orders
# --------------------------------------------------------------------- #
def _oracle_tree(name, rows):
    q = len(rows)
    out = []
    if name == "flat":
        out = [(victim, rows[0]) for victim in rows[1:]]
    elif name == "binary":
        stride = 1
        while stride < q:
            for lo in range(stride, q, 2 * stride):
                out.append((rows[lo], rows[lo - stride]))
            stride *= 2
    elif name == "greedy":
        alive = list(rows)
        while len(alive) > 1:
            z = len(alive) // 2
            out.extend(zip(alive[-z:], alive[-2 * z : -z]))
            alive = alive[:-z]
    else:
        sizes, f1, f2, remaining = [], 1, 1, q - 1
        while remaining > 0:
            sizes.append(min(f1, remaining))
            remaining -= sizes[-1]
            f1, f2 = f2, f1 + f2
        groups, start = [], 1
        for size in sizes:
            groups.append(list(range(start, start + size)))
            start += size
        for group in reversed(groups):
            for local in group:
                out.append((rows[local], rows[local - len(group)]))
    return out


def _oracle_panel(m, k, cfg):
    p, a, domino = cfg.p, cfg.a, cfg.domino
    level0, level1, level2, top_rows = [], [], [], []
    for r in range(p):
        ltop = top_local_row(k, r, p)
        if ltop * p + r >= m:
            continue
        top_rows.append(ltop * p + r)
        lmax = (m - 1 - r) // p
        base = min(k, lmax) if domino else ltop
        leaders = []
        for d in range(base // a, lmax // a + 1):
            start = max(base, d * a)
            end = min(lmax, d * a + a - 1)
            if start > end:
                continue
            leaders.append(start)
            for loc in range(start + 1, end + 1):
                level0.append(Elimination(k, loc * p + r, start * p + r, ts=True))
        for victim, killer in _oracle_tree(
            cfg.low_tree, [loc * p + r for loc in leaders]
        ):
            level1.append(Elimination(k, victim, killer))
        if domino:
            for loc in range(ltop + 1, base + 1):
                level2.append(Elimination(k, loc * p + r, ltop * p + r))
    level3 = [
        Elimination(k, victim, killer)
        for victim, killer in _oracle_tree(cfg.high_tree, sorted(top_rows))
    ]
    return level0 + level1 + level2 + level3


def _oracle_list(m, n, cfg):
    return [e for k in range(min(n, m - 1)) for e in _oracle_panel(m, k, cfg)]


configs = st.builds(
    HQRConfig,
    p=st.integers(1, 9),  # up to p > m: clusters with no rows
    q=st.integers(1, 3),
    a=st.integers(1, 8),
    low_tree=st.sampled_from(TREE_NAMES),
    high_tree=st.sampled_from(TREE_NAMES),
    domino=st.booleans(),
)


@given(m=st.integers(1, 40), n=st.integers(1, 40), cfg=configs)
def test_array_list_equals_object_oracle(m, n, cfg):
    want = _oracle_list(m, n, cfg)
    got = hqr_elimination_list(m, n, cfg)
    assert isinstance(got, EliminationArray)
    assert got == want and want == got
    assert list(got) == want
    assert got.ts.tolist() == [e.ts for e in want]


@pytest.mark.parametrize("low,high", [("greedy", "fibonacci"), ("binary", "flat")])
@pytest.mark.parametrize("domino", [True, False])
@pytest.mark.parametrize(
    "m,n,p,a",
    [
        (1, 1, 3, 2), (1, 6, 1, 1), (9, 1, 2, 3),  # one row, one column
        (6, 6, 2, 2), (5, 11, 3, 1),  # m <= n
        (4, 3, 9, 2), (7, 7, 40, 1),  # p > m: clusters with no rows
        (30, 4, 1, 10**9), (30, 4, 4, 10**9),  # one TS domain per cluster
        (41, 5, 3, 7), (64, 16, 15, 4),
    ],
)
def test_edge_shapes_equal_object_oracle(m, n, p, a, domino, low, high):
    """The corners the native generator special-cases nothing for: the list
    (from C when there is a compiler) against the object oracle."""
    cfg = HQRConfig(p=p, a=a, low_tree=low, high_tree=high, domino=domino)
    want = _oracle_list(m, n, cfg)
    got = hqr_elimination_list(m, n, cfg)
    assert got == want and list(got) == want
    assert got.ts.tolist() == [e.ts for e in want]


@given(m=st.integers(1, 24), n=st.integers(1, 24), cfg=configs)
def test_panels_concatenate_to_the_list(m, n, cfg):
    tree = HQRTree(m, n, cfg)
    panels = [e for k in range(tree.panels) for e in tree.panel_eliminations(k)]
    assert panels == tree.elimination_list()
    for k in range(tree.panels):
        assert tree.panel_eliminations(k) == _oracle_panel(m, k, cfg)


@given(q=st.integers(0, 70), name=st.sampled_from(TREE_NAMES), step=st.integers(1, 4))
def test_tree_pairs_gather_equals_oracle(q, name, step):
    rows = list(range(5, 5 + q * step, step))
    tree = make_tree(name)
    assert tree.eliminations(rows) == _oracle_tree(name, rows)
    victims, killers = tree.pairs(q)
    assert victims.format == killers.format == "i"
    assert victims.readonly and killers.readonly
    assert tree.pairs(q)[0] is victims  # one cached positional form per q


@pytest.mark.parametrize("name", TREE_NAMES)
@pytest.mark.parametrize("ts", [None, True, False])
@pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (2, 1), (5, 5), (6, 9), (13, 4), (40, 7)])
def test_pipelined_list_equals_object_oracle(name, ts, m, n):
    """``panel_elimination_list`` as it was: one tree per panel over rows
    ``k .. m-1``, one frozen Elimination per kill, TS only by default on
    the flat tree."""
    want_ts = (name == "flat") if ts is None else ts
    want = [
        Elimination(k, victim, killer, ts=want_ts)
        for k in range(min(n, m - 1))
        for victim, killer in _oracle_tree(name, list(range(k, m)))
    ]
    got = panel_elimination_list(m, n, make_tree(name), ts=ts)
    assert isinstance(got, EliminationArray)
    assert got == want and list(got) == want
    assert got.ts.tolist() == [e.ts for e in want]


def test_pipelined_list_rejects_empty_matrices():
    for m, n in [(0, 3), (3, 0), (-1, 2)]:
        with pytest.raises(ValueError, match="m and n must be positive"):
            panel_elimination_list(m, n, make_tree("greedy"))


# --------------------------------------------------------------------- #
# list compatibility
# --------------------------------------------------------------------- #
CFG = HQRConfig(p=3, q=2, a=2, low_tree="binary", high_tree="greedy")


def test_empty_list_compares_like_a_list():
    for m, n in [(1, 1), (1, 5)]:
        elims = hqr_elimination_list(m, n, CFG)
        assert elims == [] and [] == elims
        assert len(elims) == 0 and not list(elims)
    assert hqr_elimination_list(4, 2, CFG) != []


def test_indexing_slicing_and_membership():
    elims = hqr_elimination_list(12, 4, CFG)
    as_list = list(elims)
    assert all(type(e) is Elimination for e in as_list)
    assert type(as_list[0].panel) is int and type(as_list[0].ts) is bool
    assert elims[0] == as_list[0] and elims[-1] == as_list[-1]
    assert elims[3:11] == as_list[3:11]
    assert elims[::-2] == as_list[::-2]
    assert isinstance(elims[:5], EliminationArray)
    assert as_list[7] in elims
    assert elims.index(as_list[7]) == 7
    assert list(reversed(elims)) == as_list[::-1]
    with pytest.raises(IndexError):
        elims[len(elims)]
    with pytest.raises(TypeError):
        hash(elims)
    assert elims != as_list[:-1]
    assert elims != [as_list[1]] + as_list[1:]


def test_arrays_are_contiguous_typed_and_read_only():
    elims = hqr_elimination_list(12, 4, CFG)
    for arr, dtype in (
        (elims.panel, "i"), (elims.victim, "i"),
        (elims.killer, "i"), (elims.ts, "B"),
    ):
        assert arr.format == dtype and arr.c_contiguous
        with pytest.raises(TypeError, match="read-only"):
            arr[0] = 1


def test_consumers_accept_the_array_list():
    m, n = 12, 4
    elims = hqr_elimination_list(m, n, CFG)
    as_list = list(elims)
    check_elimination_list(elims, m, n)
    graph = TaskGraph.from_eliminations(elims, m, n)
    ref = TaskGraph.from_eliminations(as_list, m, n)
    assert [t.key() for t in graph.tasks] == [t.key() for t in ref.tasks]
    assert graph.predecessors == ref.predecessors
    back, m2, n2, _ = eliminations_from_json(eliminations_to_json(elims, m, n))
    assert (back, m2, n2) == (as_list, m, n)
    assert EliminationArray.of(as_list) == elims
    assert EliminationArray.of(elims) is elims


# --------------------------------------------------------------------- #
# the Elimination invariants, checked on whole arrays
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "panel,victim,killer",
    [
        (0, 3, 3),  # victim == killer
        (2, 2, 5),  # victim on the diagonal
        (2, 1, 5),  # victim above the diagonal
        (2, 4, 1),  # killer above the diagonal
    ],
)
def test_tampered_arrays_raise_the_elimination_error(panel, victim, killer):
    with pytest.raises(ValueError) as scalar:
        Elimination(panel, victim, killer)
    good = hqr_elimination_list(8, 3, CFG)
    for at in (0, 5, len(good) - 1):
        arrays = [np.array(a) for a in (good.panel, good.victim, good.killer)]
        for arr, value in zip(arrays, (panel, victim, killer)):
            arr[at] = value
        with pytest.raises(ValueError) as vectorised:
            EliminationArray(*arrays, good.ts)
        assert str(vectorised.value) == str(scalar.value)


def test_ragged_arrays_rejected():
    with pytest.raises(ValueError):
        EliminationArray([0, 0], [1, 2], [0], [0, 0])
