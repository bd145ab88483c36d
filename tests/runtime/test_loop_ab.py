"""The loop A/B tool (``tools/loop_ab.py``) drives the C loop as
``run_core_batch`` does: a packed ``Batch`` run on the loaded core gives
``run_core_batch``'s makespans, busy times and message counts, and so does
a core whose entry has another signature (one from before the data-reuse
flag was deleted), declared and called with its own."""

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


#: the batched entry's head in the working tree, and as it read while it
#: took a data-reuse flag (here refusing a nonzero one)
_HEAD = ("    const int32_t *site_of,\n"
         "    double *out_makespan, double *out_busy, int64_t *out_messages,\n"
         "    int32_t *out_rc)\n{\n")
_FLAGGED_HEAD = ("    const int32_t *site_of, int32_t data_reuse,\n"
                 "    double *out_makespan, double *out_busy, int64_t *out_messages,\n"
                 "    int32_t *out_rc)\n{\n"
                 "    if (data_reuse)\n        return 7;\n")


def _setup_and_graphs():
    machine = Machine(nodes=8, cores_per_node=4)
    setup = BenchSetup(b=40, grid_p=4, grid_q=2, machine=machine)
    questions = (
        (8, 3, HQRConfig(p=4, q=2, a=1, low_tree="flat", high_tree="binary")),
        (12, 4, HQRConfig(p=4, q=2, a=2, low_tree="greedy", high_tree="fibonacci")),
        (16, 2, HQRConfig(p=4, q=2, a=4, low_tree="binary", high_tree="flat",
                          domino=True)),
    )
    return setup, [
        compiled_from_eliminations(
            hqr_elimination_list(m, n, config), m, n, BlockCyclic2D(4, 2),
            machine, setup.b,
        )
        for m, n, config in questions
    ]


def _assert_reads_like_run_core_batch(batch, side, setup, graphs):
    _, (makespans, busy, messages) = batch.run(side)
    results = run_core_batch(graphs, setup.machine, setup.b)
    assert makespans.tolist() == [r.makespan for r in results]
    assert busy.tolist() == [r.busy_seconds for r in results]
    assert messages.tolist() == [r.messages for r in results]


@pytest.mark.skipif(not _ccore.native_available(), reason="no native core")
def test_a_batch_reads_what_run_core_batch_reads(loop_ab):
    setup, graphs = _setup_and_graphs()
    side = loop_ab.Side(_ccore.get_lib(), loop_ab.c_source(None))
    assert "data_reuse" not in dict(side.params)
    _assert_reads_like_run_core_batch(
        loop_ab.Batch(graphs, setup), side, setup, graphs
    )


@pytest.mark.skipif(not _ccore.native_available(), reason="no native core")
def test_a_core_with_the_old_signature_is_called_with_its_own(
    loop_ab, tmp_path, monkeypatch
):
    """The working tree's loop behind the entry head of a core that still
    took ``int32_t data_reuse`` after ``site_of``: declared with the
    tree's argument list, the call would shift every output pointer."""
    source = loop_ab.c_source(None)
    assert source.count(_HEAD) == 1
    old = source.replace(_HEAD, _FLAGGED_HEAD)
    params = loop_ab.batch_signature(old)
    names = [name for name, _ in params]
    assert names[names.index("site_of") + 1] == "data_reuse"
    assert len(params) == len(loop_ab.batch_signature(source)) + 1
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(loop_ab, "c_source", lambda rev: old)
    side = loop_ab.compile_side("old")
    assert side.params == params
    setup, graphs = _setup_and_graphs()
    _assert_reads_like_run_core_batch(
        loop_ab.Batch(graphs, setup), side, setup, graphs
    )
