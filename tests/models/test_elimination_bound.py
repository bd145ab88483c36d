"""The bound read from an elimination list (``hqr_build_dag``'s bound mode):
exactly the two-column subgraph's longest path, admissible with no
tolerance, equal to the graph pass on the benchmark's shapes, and refusing
what the builder refuses."""

import random

import pytest

from repro._ccore import native_available
from repro.bench.runner import BenchSetup
from repro.verify.reference import TaskGraph, compile_graph
from repro.dag.compiled import compiled_from_eliminations, task_coordinates
from repro.hqr import HQRConfig, hqr_elimination_list
from repro.models.bounds import elimination_bound, graph_bounds
from repro.runtime.core import _machine_params, run_core
from repro.runtime.machine import Machine
from repro.tiles.layout import BlockCyclic2D
from repro.trees.base import EliminationArray
from repro.tune import initial_case
from repro.verify.engines import _simulator
from repro.verify.generator import generate_cases, propose_neighbor

needs_native = pytest.mark.skipif(
    not native_available(), reason="the bound mode is part of the native build"
)
TREES = ("flat", "binary", "greedy", "fibonacci")


def subgraph_bound(cg, elims, machine, b):
    """The oracle: the graph pass (``_graph_bound_py``) restricted to every
    factorization kernel and every update of the column next to its panel
    (``task_coordinates``), over the graph's own edges between them; node
    work over every task.  ``(critical_path, node_work)``."""
    _, panel, col, _ = task_coordinates(elims, cg.m, cg.n)
    kept = ((col < 0) | (col == panel + 1)).tolist()
    nnodes, cores, _, hierarchical, *links, site = _machine_params(machine, b)
    kind, node = cg.kind.tolist(), cg.node.tolist()
    sp, si, dur = cg.succ_ptr.tolist(), cg.succ_idx.tolist(), cg.dur_table.tolist()
    ready, work, cp = [0.0] * len(kind), [0.0] * nnodes, 0.0
    for t, home in enumerate(node):
        fin = ready[t] + dur[kind[t]]
        work[home] += dur[kind[t]]
        if not kept[t]:
            continue
        cp = max(cp, fin)
        for s in si[sp[t]:sp[t + 1]]:
            arrival = fin
            if node[s] != home:
                inter = hierarchical and site[home] != site[node[s]]
                lat, bwt = links[2:] if inter else links[:2]
                arrival = fin + lat + bwt
            if kept[s]:
                ready[s] = max(ready[s], arrival)
    small = len(kind) + sp[-1] < 2**21
    margin = 1.0 - 2.0**-30
    return cp, max(w / cores * margin for w in work) if small else 0.0


def verify_cases():
    """200 generator cases; every fourth on the ideal machine of its shape."""
    for case in generate_cases(3, 200):
        machine = case.machine()
        if case.index % 4 == 3:
            machine = Machine.ideal(case.nodes, case.cores_per_node)
        yield case, machine


@needs_native
@pytest.mark.parametrize("core", ("python", "c"))
def test_the_subgraph_bound_never_exceeds_the_makespan(core):
    """Site networks, unserialized channels, the ideal machine, priorities
    and data reuse: the bound mode is the oracle bit for bit, its node work
    is the graph pass's, its path is at most the graph pass's, and
    ``max(path, node work) <= makespan`` with no tolerance."""
    for case, machine in verify_cases():
        elims = hqr_elimination_list(case.m, case.n, case.config())
        graph = TaskGraph.from_eliminations(elims, case.m, case.n)
        cg = compile_graph(graph, case.layout(), machine, case.b)
        cp, node_work = elimination_bound(
            elims, case.m, case.n, case.layout(), machine, case.b
        )
        assert (cp, node_work) == subgraph_bound(cg, elims, machine, case.b)
        gb = graph_bounds([cg], machine, case.b)[0]
        assert node_work == gb.node_work and cp <= gb.critical_path
        makespan = run_core(
            cg, machine, case.b, prio=_simulator(case, graph).priority_values(graph),
            record_trace=core == "python",
        ).result.makespan
        assert max(cp, node_work) <= makespan, case.describe()


def figure6_points():
    """Figure 6(a): low tree greedy, no domino, 16 tile columns."""
    for high in ("greedy", "binary", "flat", "fibonacci"):
        for a in (1, 4, 8):
            for m in (16, 32, 64, 128, 256, 512):
                yield m, 16, HQRConfig(
                    p=15, q=4, a=a, low_tree="greedy", high_tree=high,
                    domino=False,
                )


def serve_cold_points():
    """The repository benchmark's 60 cold served questions (every
    ``(m, n, a)`` once, trees and domino drawn from seed 1553)."""
    rng = random.Random(1553)
    for m in (48, 96, 160, 224):
        for n in (6, 12, 16):
            for a in (1, 2, 4, 6, 8):
                yield m, n, HQRConfig(
                    p=15, q=4, a=a, low_tree=rng.choice(TREES),
                    high_tree=rng.choice(TREES), domino=rng.random() < 0.5,
                )


def tune_neighbours():
    """The benchmark tune chains' start point, its neighbours and theirs."""
    machine = Machine.edel()
    start = initial_case(96, 12, 280, machine, grid_p=15, grid_q=4).replaced(
        a=1, low_tree="greedy", high_tree="fibonacci", domino=True
    )
    rng, seen = random.Random(0), {start: None}
    for hop in range(2):
        for case in list(seen):
            for _ in range(16):
                seen.setdefault(propose_neighbor(case, rng, fixed_machine=True))
    return [(96, 12, case.config(), case.layout()) for case in seen]


@needs_native
@pytest.mark.parametrize("points", ["figure6", "serve_cold", "tune"])
def test_the_path_is_the_graph_pass_on_the_benchmark_shapes(points):
    """Where the repository benchmark bounds, a longest path stays in the
    two columns: the bound mode's terms are the graph pass's, bitwise."""
    setup = BenchSetup()
    if points == "tune":
        shapes = tune_neighbours()
        assert len(shapes) > 20
    else:
        chosen = figure6_points() if points == "figure6" else serve_cold_points()
        shapes = [(m, n, cfg, setup.layout) for m, n, cfg in chosen]
    for m, n, cfg, layout in shapes:
        elims = hqr_elimination_list(m, n, cfg)
        cg = compiled_from_eliminations(elims, m, n, layout, setup.machine, setup.b)
        gb = graph_bounds([cg], setup.machine, setup.b)[0]
        cp, node_work = elimination_bound(elims, m, n, layout, setup.machine, setup.b)
        assert (cp, node_work) == (gb.critical_path, gb.node_work), (m, n, cfg)
        del cg


@needs_native
def test_an_elimination_outside_the_matrix_is_refused():
    machine, layout = Machine(nodes=4, cores_per_node=2), BlockCyclic2D(2, 2)
    elims = hqr_elimination_list(6, 3, HQRConfig(p=2))
    assert elimination_bound(elims, 6, 3, layout, machine, 16) is not None
    for panel, victim, killer in ((0, 6, 0), (3, 4, 3), (0, 1, 7), (-1, 0, 1)):
        bad = EliminationArray([panel], [victim], [killer], [1])
        with pytest.raises(ValueError, match="outside 6 x 3 tiles"):
            elimination_bound(bad, 6, 3, layout, machine, 16)


@needs_native
def test_an_owner_outside_the_machine_is_refused():
    """A 3 x 2 grid needs six nodes: on four, tiles land on nodes 4 and 5."""
    elims = hqr_elimination_list(6, 3, HQRConfig(p=3))
    with pytest.raises(ValueError, match=r"owner outside \[0, 4\)"):
        elimination_bound(
            elims, 6, 3, BlockCyclic2D(3, 2), Machine(nodes=4, cores_per_node=2), 16
        )


def test_no_bound_without_the_native_core(no_native):
    elims = hqr_elimination_list(6, 3, HQRConfig(p=2))
    machine = Machine(nodes=4, cores_per_node=2)
    assert elimination_bound(elims, 6, 3, BlockCyclic2D(2, 2), machine, 16) is None
