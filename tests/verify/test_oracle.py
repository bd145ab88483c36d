"""The legality oracle: clean on real traces, loud on tampered ones.

Each tampering test perturbs one aspect of a genuine reference trace and
asserts the matching invariant fires — proving the oracle would catch an
engine that actually scheduled that way.
"""

import dataclasses

import pytest

from repro.verify.reference import TaskGraph
from repro.hqr.hierarchy import hqr_elimination_list
from repro.models.bounds import list_bound
from repro.verify.engines import core_engine
from repro.verify.generator import VerifyCase
from repro.verify.oracle import check_schedule
from repro.verify.runner import verify_case


def make_case(**over):
    base = dict(
        index=0, seed=0, m=6, n=3, b=8, p=2, q=2, a=2,
        low_tree="greedy", high_tree="binary", domino=False,
        layout_kind="grid", nodes=4, cores_per_node=2,
        comm_serialized=True, site_size=0, latency=2.0e-6, bandwidth=1.4e9,
        priority=None,
    )
    base.update(over)
    return VerifyCase(**base)


def traced(case):
    elims = hqr_elimination_list(case.m, case.n, case.config())
    graph = TaskGraph.from_eliminations(elims, case.m, case.n)
    return graph, core_engine(case, graph)


def fired(case, graph, result):
    return {v.invariant for v in check_schedule(case, graph, result)}


@pytest.fixture(scope="module")
def base():
    case = make_case()
    graph, result = traced(case)
    return case, graph, result


def test_real_trace_is_clean(base):
    case, graph, result = base
    assert check_schedule(case, graph, result) == []
    assert result.comm_trace  # the grid case does communicate


def test_untraced_result_rejected(base):
    case, graph, result = base
    bare = dataclasses.replace(result, trace=None, comm_trace=None)
    with pytest.raises(ValueError):
        check_schedule(case, graph, bare)


def test_dropped_task_caught(base):
    case, graph, result = base
    tampered = dataclasses.replace(result, trace=result.trace[:-1])
    assert fired(case, graph, tampered) == {"completeness"}


def test_duration_tampering_caught(base):
    case, graph, result = base
    t, node, s, e = result.trace[0]
    trace = [(t, node, s, e * 2.0)] + result.trace[1:]
    assert "duration" in fired(case, graph, dataclasses.replace(result, trace=trace))


def test_placement_tampering_caught(base):
    case, graph, result = base
    t, node, s, e = result.trace[0]
    trace = [(t, (node + 1) % case.nodes, s, e)] + result.trace[1:]
    assert "placement" in fired(case, graph, dataclasses.replace(result, trace=trace))


def test_core_oversubscription_caught(base):
    # launch everything at t=0 (durations kept): far more concurrent tasks
    # than cores, and updates running before their panels
    case, graph, result = base
    trace = [(t, node, 0.0, e - s) for t, node, s, e in result.trace]
    violations = fired(case, graph, dataclasses.replace(result, trace=trace))
    assert "core-occupancy" in violations
    assert "data-arrival" in violations


def test_channel_double_booking_caught(base):
    case, graph, result = base
    comm = list(result.comm_trace)
    # re-depart a second transfer of some node at the exact instant an
    # earlier transfer already holds its serialized channel
    (i, first), (j, second) = [
        (k, msg) for k, msg in enumerate(comm) if msg[1] == comm[0][1]
    ][:2]
    comm[j] = second[:3] + (first[3],) + second[4:]
    tampered = dataclasses.replace(result, comm_trace=comm)
    assert "channel-overlap" in fired(case, graph, tampered)


def test_missing_message_caught(base):
    case, graph, result = base
    tampered = dataclasses.replace(result, comm_trace=result.comm_trace[:-1])
    violations = fired(case, graph, tampered)
    assert "message-count" in violations


def test_early_start_caught(base):
    # pull one communicating task's start before its input arrival
    case, graph, result = base
    arrivals = {(p, dst): arr for p, _, dst, _, arr in result.comm_trace}
    node_of = {t: node for t, node, _, _ in result.trace}
    trace = list(result.trace)
    for idx, (t, node, s, e) in enumerate(trace):
        late = [
            arrivals[(p, node)]
            for p in graph.predecessors[t]
            if node_of[p] != node and (p, node) in arrivals
        ]
        if late and s >= max(late) > 0.0:
            trace[idx] = (t, node, 0.0, e)
            break
    else:  # pragma: no cover - the base case does communicate
        pytest.fail("no cross-node consumer found to tamper with")
    assert "data-arrival" in fired(case, graph, dataclasses.replace(result, trace=trace))


def test_makespan_report_mismatch_caught(base):
    case, graph, result = base
    tampered = dataclasses.replace(result, makespan=result.makespan + 1.0)
    assert "makespan-trace" in fired(case, graph, tampered)


def test_message_byte_mismatch_caught(base):
    case, graph, result = base
    tampered = dataclasses.replace(result, bytes_sent=result.bytes_sent + 8)
    assert "message-bytes" in fired(case, graph, tampered)


def test_bandwidth_bound_fires_when_strictly_positive():
    # the strict (memory-term) bound is positive only for many nodes:
    # square matrices need P > 36 before F/(P sqrt(8W)) clears W
    case = make_case(
        m=8, n=8, b=40, layout_kind="cyclic", nodes=49,
        cores_per_node=1, comm_serialized=False, p=1, q=1, a=1,
        low_tree="binary", high_tree="binary",
    )
    graph, result = traced(case)
    assert check_schedule(case, graph, result) == []  # real run clears it
    starved = dataclasses.replace(result, bytes_sent=0)
    assert "bandwidth-bound" in fired(case, graph, starved)


def test_makespan_bound_counts_the_links(base):
    """The bound is the list pass's, with no slack: a makespan that clears
    ``max(work / cores, plain critical path)`` but not the link costs on
    the critical path is caught."""
    case, graph, result = base
    machine = case.machine()
    elims = hqr_elimination_list(case.m, case.n, case.config())
    gb = list_bound(elims, case.m, case.n, case.layout(), machine, case.b)
    plain = max(gb.work / machine.cores, gb.plain_critical_path)
    assert plain < gb.bound <= result.makespan
    between = dataclasses.replace(result, makespan=(plain + gb.bound) / 2)
    assert "makespan-bound" in fired(case, graph, between)


def test_a_message_count_the_list_pass_does_not_reach_is_caught(base):
    """A run that reports one message more, with a comm trace and bytes
    that agree with it, is caught by the list pass's count alone."""
    case, graph, result = base
    extra = dataclasses.replace(
        result, messages=result.messages + 1,
        comm_trace=[*result.comm_trace, result.comm_trace[-1]],
        bytes_sent=result.bytes_sent + case.machine().tile_bytes(case.b),
    )
    violations = check_schedule(case, graph, extra)
    assert [v.detail for v in violations if v.invariant == "message-count"] == [
        f"{extra.messages} messages reported, {result.messages} by the list pass"
    ]


def test_zero_message_tiny_case_is_legal():
    """Regression: the asymptotic bandwidth bound (no -W memory term)
    flagged this legal schedule — an n=1 panel on a 1x2 grid keeps every
    tile on node 0 and needs zero messages."""
    case = make_case(m=2, n=1, p=1, q=2, nodes=2, a=1)
    assert verify_case(case) is None
