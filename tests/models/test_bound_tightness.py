"""§V's "who is critical-path-bound where", as numbers: the list pass's
bound over the simulated makespan on the 72 Figure 6(a) points (EXPERIMENTS.md
§"Simulate less" holds the table)."""

import pytest

from repro._ccore import native_available
from repro.bench.runner import BenchSetup
from repro.dag.compiled import compiled_from_eliminations
from repro.hqr import HQRConfig, hqr_elimination_list
from repro.models.bounds import list_bound
from repro.runtime.core import run_core_batch

pytestmark = pytest.mark.skipif(
    not native_available(),
    reason="2.4 M simulated tasks: a C-core measurement",
)

HIGH = ("greedy", "binary", "flat", "fibonacci")
A_VALUES = (1, 4, 8)
M_VALUES = (16, 32, 64, 128, 256, 512)


@pytest.fixture(scope="module")
def table():
    """(high, a, m) -> (bound / simulated makespan, binding term)."""
    setup = BenchSetup()
    keys = [(h, a, m) for h in HIGH for a in A_VALUES for m in M_VALUES]
    lists = [
        hqr_elimination_list(m, 16, HQRConfig(
            p=15, q=4, a=a, low_tree="greedy", high_tree=h, domino=False,
        ))
        for h, a, m in keys
    ]
    graphs = [  # built outside the graph cache: freed with the module
        compiled_from_eliminations(
            elims, m, 16, setup.layout, setup.machine, setup.b
        )
        for elims, (_, _, m) in zip(lists, keys)
    ]
    results = run_core_batch(graphs, setup.machine, setup.b)
    bounds = [
        list_bound(elims, m, 16, setup.layout, setup.machine, setup.b)
        for elims, (_, _, m) in zip(lists, keys)
    ]
    for gb, res in zip(bounds, results):
        assert gb.bound <= res.makespan
    return {
        key: (gb.bound / res.makespan, gb.binding)
        for key, gb, res in zip(keys, bounds, results)
    }


def test_bound_is_within_a_quarter_of_the_makespan(table):
    ratios = [ratio for ratio, _ in table.values()]
    assert 0.78 < min(ratios) and max(ratios) <= 1.0


def test_critical_path_binds_up_to_m_128(table):
    for (_, _, m), (_, binding) in table.items():
        if m <= 128:
            assert binding == "critical-path"


def test_larger_a_delays_the_switch_to_work_bound(table):
    """a = 1 is work-bound from m = 256; a >= 4 only at m = 512, where
    11 of the 12 points are (fibonacci with a = 8 is not, yet)."""
    def work_bound(a, m):
        return [table[h, a, m][1] == "node-work" for h in HIGH]

    assert all(work_bound(1, 256))
    assert not any(work_bound(4, 256) + work_bound(8, 256))
    at_512 = work_bound(1, 512) + work_bound(4, 512) + work_bound(8, 512)
    assert sum(at_512) == 11
    assert table["fibonacci", 8, 512][1] == "critical-path"
