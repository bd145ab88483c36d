"""Property-style simulator invariants across random configurations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.verify.reference import ClusterSimulator, TaskGraph
from repro.hqr import HQRConfig, hqr_elimination_list
from repro.models.bounds import list_bound
from repro.runtime import Machine
from repro.tiles.layout import BlockCyclic2D, Cyclic1D

settings.register_profile("sim", max_examples=25, deadline=None)
settings.load_profile("sim")

configs = st.builds(
    HQRConfig,
    p=st.integers(1, 4),
    a=st.integers(1, 4),
    low_tree=st.sampled_from(["flat", "binary", "greedy", "fibonacci"]),
    high_tree=st.sampled_from(["flat", "binary", "greedy", "fibonacci"]),
    domino=st.booleans(),
)


@given(
    m=st.integers(2, 14),
    n=st.integers(1, 10),
    cfg=configs,
    nodes=st.integers(1, 6),
    cores=st.integers(1, 4),
)
def test_simulation_respects_bounds_and_conserves_work(m, n, cfg, nodes, cores):
    b = 40
    elims = hqr_elimination_list(m, n, cfg)
    g = TaskGraph.from_eliminations(elims, m, n)
    mach = Machine(nodes=nodes, cores_per_node=cores)
    lay = Cyclic1D(nodes)
    res = ClusterSimulator(mach, lay, b).run(g)
    # 1. no schedule beats the list pass's bound
    assert res.makespan >= list_bound(elims, m, n, lay, mach, b).bound
    # 2. work conservation: busy time equals the sum of kernel durations
    work = sum(mach.task_seconds(t.kind, b) for t in g.tasks)
    assert res.busy_seconds == pytest.approx(work)
    # 3. single node => no messages
    if nodes == 1:
        assert res.messages == 0


@given(m=st.integers(4, 14), n=st.integers(2, 8), cfg=configs)
def test_more_resources_never_hurt(m, n, cfg):
    """Monotonicity: doubling cores per node cannot slow the schedule
    (with an otherwise identical machine and layout)."""
    b = 40
    g = TaskGraph.from_eliminations(hqr_elimination_list(m, n, cfg), m, n)
    lay = BlockCyclic2D(2, 2)
    small = ClusterSimulator(Machine(nodes=4, cores_per_node=1), lay, b).run(g)
    big = ClusterSimulator(Machine(nodes=4, cores_per_node=8), lay, b).run(g)
    assert big.makespan <= small.makespan * 1.0001


@given(m=st.integers(4, 12), n=st.integers(2, 6), cfg=configs)
def test_trace_is_complete_and_consistent(m, n, cfg):
    b = 40
    g = TaskGraph.from_eliminations(hqr_elimination_list(m, n, cfg), m, n)
    sim = ClusterSimulator(
        Machine(nodes=2, cores_per_node=2), Cyclic1D(2), b, record_trace=True
    )
    res = sim.run(g)
    assert len(res.trace) == len(g)
    # every task's trace entry respects its predecessors' completion
    end_of = {tid: end for tid, _, _, end in res.trace}
    start_of = {tid: start for tid, _, start, _ in res.trace}
    for t in range(len(g)):
        for p in g.predecessors[t]:
            assert start_of[t] >= end_of[p] - 1e-12
