"""The loop A/B tool (``tools/loop_ab.py``) drives the C loop as
``run_core_batch`` does: a packed ``Batch`` run on the loaded core gives
``run_core_batch``'s makespans, busy times and message counts."""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro import _ccore
from repro.bench.runner import BenchSetup
from repro.dag.compiled import compiled_from_eliminations
from repro.hqr.config import HQRConfig
from repro.hqr.hierarchy import hqr_elimination_list
from repro.runtime.core import run_core_batch
from repro.runtime.machine import Machine
from repro.tiles.layout import BlockCyclic2D

TOOL = Path(__file__).resolve().parents[2] / "tools" / "loop_ab.py"


@pytest.fixture
def loop_ab(monkeypatch):
    """The tool as a module; the ``sys.path`` entries it adds are undone."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("loop_ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not _ccore.native_available(), reason="no native core")
def test_a_batch_reads_what_run_core_batch_reads(loop_ab):
    machine = Machine(nodes=8, cores_per_node=4)
    setup = BenchSetup(b=40, grid_p=4, grid_q=2, machine=machine)
    questions = (
        (8, 3, HQRConfig(p=4, q=2, a=1, low_tree="flat", high_tree="binary")),
        (12, 4, HQRConfig(p=4, q=2, a=2, low_tree="greedy", high_tree="fibonacci")),
        (16, 2, HQRConfig(p=4, q=2, a=4, low_tree="binary", high_tree="flat",
                          domino=True)),
    )
    graphs = [
        compiled_from_eliminations(
            hqr_elimination_list(m, n, config), m, n, BlockCyclic2D(4, 2),
            machine, setup.b,
        )
        for m, n, config in questions
    ]
    batch = loop_ab.Batch(graphs, setup)
    _, (makespans, busy, messages) = batch.run(_ccore.get_lib())
    results = run_core_batch(graphs, setup.machine, setup.b)
    assert makespans.tolist() == [r.makespan for r in results]
    assert busy.tolist() == [r.busy_seconds for r in results]
    assert messages.tolist() == [r.messages for r in results]
