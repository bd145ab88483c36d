"""The message-passing engine audits the simulator's traffic.

Both run the same compiled graph, but each derives its messages its own
way: the engine ships, on every cross-rank edge, the tiles the two kernels
share; the event loop sends each producer's tile once to each remote node.
The engine's distinct (producer, destination rank) pairs must therefore be
exactly the simulator's message count, and every task must run where the
graph places it.
"""

import numpy as np
import pytest

from repro.dag.compiled import compiled_from_eliminations
from repro.distributed.engine import DistributedEngine, ThreadComm
from repro.hqr import HQRConfig, hqr_elimination_list
from repro.runtime import Machine
from repro.runtime.core import run_core
from repro.runtime.executor import numeric_graph
from repro.tiles.layout import Block1D, BlockCyclic2D, Cyclic1D


class RecordingComm(ThreadComm):
    """A :class:`ThreadComm` that remembers every (destination, tag) sent."""

    def __init__(self, size):
        super().__init__(size)
        self.sent = []

    def send(self, payload, dest, tag, source):
        self.sent.append((dest, tag))
        super().send(payload, dest, tag, source)


CASES = [
    (8, 4, HQRConfig(p=2, q=2, a=2), BlockCyclic2D(2, 2)),
    (12, 5, HQRConfig(p=3, a=2), Cyclic1D(3)),
    (10, 6, HQRConfig(p=2, q=2, a=2, domino=True), BlockCyclic2D(2, 2)),
    (9, 3, HQRConfig(p=3, a=1, low_tree="binary"), Cyclic1D(3)),
    (12, 4, HQRConfig(p=4, a=3, low_tree="flat", high_tree="fibonacci"), Block1D(4, 12)),
    (16, 6, HQRConfig(p=4, a=2, low_tree="greedy", high_tree="binary"), Cyclic1D(4)),
]


@pytest.mark.parametrize("m,n,cfg,layout", CASES, ids=lambda c: str(c))
def test_engine_traffic_equals_simulator_messages(rng, m, n, cfg, layout):
    b = 3
    elims = hqr_elimination_list(m, n, cfg)
    graph, coords = numeric_graph(elims, m, n, layout)
    comm = RecordingComm(layout.nodes)
    engine = DistributedEngine(graph, coords, layout, comm)
    results = engine.run_threaded(rng.standard_normal((m * b, n * b)), b)

    machine = Machine.edel()
    simulated = compiled_from_eliminations(elims, m, n, layout, machine, b)
    # every task runs on the rank the simulator places it on
    np.testing.assert_array_equal(engine.graph.node, simulated.node)
    ran = np.bincount(simulated.node, minlength=layout.nodes)
    assert [results[r].tasks_run for r in range(layout.nodes)] == ran.tolist()
    # ...which is the owner of its tile, the rule the engine's layout states
    row, panel, col, _ = coords
    owner = [layout.owner(i, j) for i, j in zip(row, np.where(col < 0, panel, col))]
    np.testing.assert_array_equal(simulated.node, owner)

    ptr, preds = engine.graph.pred_ptr, engine.graph.pred_idx
    pairs = set()
    for dest, tag in comm.sent:
        consumer, k = divmod(tag, engine._tag_stride)
        pairs.add((int(preds[ptr[consumer] + k]), dest))
    messages = run_core(simulated, machine, b).result.messages
    assert messages > 0
    assert len(pairs) == messages
