"""The planning chain loads only what it runs.

With the native core loaded, a sweep, a tune chain and a served plan hold
every list and graph in the core's own typed buffers, and every package
exports its names lazily: none of them, nor ``repro --help``, may import
numpy.  Nor may they load OpenSSL (``_hashlib``: the fingerprints use
CPython's built-in SHA-256), package metadata (``importlib.metadata``:
``__version__`` is a literal) or ``subprocess`` (the compiler's module, loaded
only to build the core).  Each step runs in one fresh interpreter (the
test suite's own process loads several of them), in order, checking
``sys.modules`` after each.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro import _ccore

SRC = Path(__file__).resolve().parents[2] / "src"

CHILD = textwrap.dedent(
    """
    import runpy
    import sys

    UNUSED = ("numpy", "_hashlib", "importlib.metadata", "subprocess")

    def clean(step):
        loaded = [name for name in UNUSED if name in sys.modules]
        assert not loaded, f"{step} imported {loaded}"
        print("clean:", step)

    import repro

    clean("import repro")

    from repro import _ccore
    from repro.bench.runner import BenchSetup, run_config_sweep
    from repro.hqr.config import HQRConfig
    from repro.runtime.machine import Machine

    assert _ccore.native_available()
    setup = BenchSetup(b=280, grid_p=15, grid_q=4, machine=Machine.edel())
    points = [
        (m, 8, HQRConfig(p=15, q=4, a=a, low_tree="greedy", high_tree=high))
        for m in (16, 32) for a in (1, 4) for high in ("binary", "fibonacci")
    ]
    cold = run_config_sweep(points, setup)
    assert all(r.makespan > 0 for r in cold)
    clean("a cold run_config_sweep")

    from repro.tune import Annealer, CoolingSchedule, EnergyEvaluator, initial_case

    start = initial_case(24, 4, 280, setup.machine, grid_p=15, grid_q=4)
    result = Annealer(
        EnergyEvaluator(24, 4, 280, setup.machine), start, sys.argv[1],
        seed=3, budget=24, batch_size=4,
        schedule=CoolingSchedule(t0=0.05, alpha=0.85, floor=1e-4),
    ).run()
    assert result.proposals == 24 and result.best
    clean("an Annealer chain")

    from repro.serve.client import ServeClient
    from repro.serve.server import PlanningDaemon
    from repro.serve.service import PlannerService

    daemon = PlanningDaemon(PlannerService(setup=setup), port=0, workers=2)
    daemon.start()
    try:
        client = ServeClient(port=daemon.port)
        client.wait_ready()
        question = {"m": 40, "n": 6, "config": {
            "p": 15, "q": 4, "a": 2, "low": "greedy", "high": "flat",
            "domino": True}}
        first = client.plan("interactive", question)
        again = client.plan("interactive", question)
        assert first.status == again.status == 200, (first.body, again.body)
        assert not first.body["cache_hit"] and again.body["cache_hit"]
        assert first.body["makespan_s"] == again.body["makespan_s"]
        client.close()
    finally:
        daemon.shutdown()
    clean("a cold and a hot POST /plan")

    sys.argv = ["repro", "--help"]
    try:
        runpy.run_module("repro.cli", run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (0, None), exc.code
    clean("repro --help")
    """
)


@pytest.mark.skipif(
    not _ccore.native_available(),
    reason="no native core: the numpy twins plan, as they must",
)
def test_the_planning_chain_never_imports_numpy(tmp_path):
    env = {
        key: value for key, value in os.environ.items()
        if key not in ("PYTHONPATH", "PYTHONSTARTUP")
    }
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(_ccore.cache_root())
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path / "tune")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.count("clean:") == 5, done.stdout
