#!/usr/bin/env python
"""A/B the native cluster event loop of two revisions, apart from Python.

Usage::

    PYTHONPATH=src python tools/loop_ab.py REV_A [REV_B] [--rounds 10]

``REV_B`` defaults to the working tree.  Each side's ``_C_SOURCE`` (from
``git show REV:src/repro/_ccore.py``) is compiled by ``_ccore._build``,
with its flags, into a temporary ``REPRO_CACHE_DIR``.  Three graph sets are
built once, by the working tree's planner, on the paper's setup (§V-A: the
edel machine, b = 280, a 15 x 4 grid): the 72 Figure 6(a) points of the sweep
workloads, the 60 cold questions of ``serve_mix`` and the 73 graphs the two
``tune_chain`` chains simulate (caught by a spy on ``run_core_batch``, the
one call that simulates them).  Each round then times one single-thread
``hqr_simulate_cluster_batch`` call per side and set (best of
``--repeat``), the side going first alternating by round, so host drift
lands on both sides alike and no packing, planning or interpreter time is
in the numbers.

Prints nanoseconds a task per side and set (median, quartiles, min), the
rounds B won and a verdict: B is faster only when it wins at least nine
tenths of the rounds and the medians differ by more than A's q1-q3 spread
(the rule perf/ claims a gain by).  The verdict sets no exit code.  Exits
1 when the two sides' makespans, busy times or message counts differ in
any bit, 2 when a side does not build or its loop refuses a graph.
"""

from __future__ import annotations

import argparse
import ast
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "perf"))

import numpy as np  # noqa: E402

from repro import _ccore  # noqa: E402
from repro.runtime.core import (  # noqa: E402
    _address_tables,
    _graph_columns,
    _machine_params,
)


def die(msg: str):
    print(f"loop_ab: {msg}", file=sys.stderr)
    raise SystemExit(2)


def c_source(rev: str | None) -> str:
    """The ``_C_SOURCE`` literal of ``rev`` (``None``: the working tree)."""
    path = "src/repro/_ccore.py"
    if rev is None:
        text = (REPO_ROOT / path).read_text()
    else:
        proc = subprocess.run(
            ["git", "show", f"{rev}:{path}"], cwd=REPO_ROOT,
            capture_output=True, text=True,
        )
        if proc.returncode:
            die(f"{rev}: {proc.stderr.strip()}")
        text = proc.stdout
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "_C_SOURCE" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    die(f"{rev or 'working tree'}: no _C_SOURCE in {path}")


def compile_side(rev: str | None):
    """``rev``'s C core, built by ``_ccore._build`` with its flags."""
    lib = _ccore._build(c_source(rev))
    if lib is None:
        die(f"{rev or 'working tree'}: the C core did not build")
    return lib


def graph_sets():
    """The paper's setup and, per set name, its graphs (program order)."""
    import workloads
    from repro.bench.runner import compiled_graph_for
    from repro.hqr.config import HQRConfig

    setup = workloads.bench_setup()
    cold = [
        (q["m"], q["n"], HQRConfig(
            p=c["p"], q=c["q"], a=c["a"], low_tree=c["low"],
            high_tree=c["high"], domino=c["domino"],
        ))
        for q in workloads.cold_questions(0) for c in [q["config"]]
    ]
    sets = {"fig6a": workloads.sweep_points(), "serve_cold": cold}
    graphs = {
        name: [
            compiled_graph_for(m, n, cfg, setup.layout, setup.machine, setup.b)
            for m, n, cfg in points
        ]
        for name, points in sets.items()
    }
    graphs["tune_chain"] = tune_graphs(setup)
    return setup, graphs


def tune_graphs(setup):
    """The graphs the perf workload's ``tune_chain`` chains simulate."""
    import workloads
    from repro.runtime import core

    caught = []
    real = core.run_core_batch

    def spy(graphs, machine, b, **kw):
        if (machine, b) != (setup.machine, setup.b) or any(kw.values()):
            die("tune_chain simulates off the paper's setup")
        caught.extend(graphs)
        return real(graphs, machine, b, **kw)

    with tempfile.TemporaryDirectory(prefix="loop_ab_tune_") as tmp:
        work = workloads.make("tune_chain", 1, Path(tmp), None)
        work.prepare()
        work.reset()
        core.run_core_batch = spy
        try:
            work.run()
        finally:
            core.run_core_batch = real
            work.close()
    return caught


class Batch:
    """One graph set packed once for ``hqr_simulate_cluster_batch``."""

    def __init__(self, graphs, setup):
        self.columns = _graph_columns(graphs)
        nulls = [None] * len(graphs)
        self.tables = _address_tables(self.columns + [nulls, nulls])
        self.ntasks = np.array([len(k) for k in self.columns[1]], np.int64)
        params = _machine_params(setup.machine, setup.b)
        self.params = [int(v) for v in params[:4]] + list(params[4:8])
        self.site_of = np.asarray(params[8], dtype=np.int32)

    def run(self, lib):
        """(seconds, outputs) of one single-thread call."""
        n = len(self.ntasks)
        mk, busy = np.zeros(n), np.zeros(n)
        msgs, rc = np.zeros(n, np.int64), np.zeros(n, np.int32)
        t0 = time.perf_counter()
        lib.hqr_simulate_cluster_batch(
            n, 1, self.ntasks.ctypes.data,
            *self.tables,
            *self.params, self.site_of.ctypes.data, 0,
            mk.ctypes.data, busy.ctypes.data, msgs.ctypes.data, rc.ctypes.data,
        )
        elapsed = time.perf_counter() - t0
        if rc.any():
            bad = np.flatnonzero(rc)
            die(f"graphs {bad.tolist()} refused, rc {rc[bad].tolist()}")
        return elapsed, (mk, busy, msgs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev_a")
    ap.add_argument("rev_b", nargs="?", help="default: the working tree")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--repeat", type=int, default=5, help="calls a run")
    args = ap.parse_args(argv)
    if args.rounds < 2 or args.repeat < 1:
        ap.error("--rounds must be >= 2 and --repeat >= 1")

    with tempfile.TemporaryDirectory(prefix="loop_ab_") as tmp:
        # every library this process builds, its planner's included
        os.environ["REPRO_CACHE_DIR"] = tmp
        libs = {
            side: compile_side(rev)
            for side, rev in (("A", args.rev_a), ("B", args.rev_b))
        }
        setup, sets = graph_sets()
        batches = {name: Batch(graphs, setup) for name, graphs in sets.items()}
        ns = {(name, side): [] for name in batches for side in libs}
        mismatched = []
        for r in range(args.rounds):
            order = ("A", "B") if r % 2 == 0 else ("B", "A")
            for name, batch in batches.items():
                tasks = int(batch.ntasks.sum())
                out = {}
                for side in order:
                    best = float("inf")
                    for _ in range(args.repeat):
                        elapsed, out[side] = batch.run(libs[side])
                        best = min(best, elapsed)
                    ns[name, side].append(best / tasks * 1e9)
                if any(
                    a.tobytes() != b.tobytes()
                    for a, b in zip(out["A"], out["B"])
                ):
                    mismatched.append((r, name))

    print(f"A = {args.rev_a}, B = {args.rev_b or 'working tree'}; "
          f"{args.rounds} rounds, best of {args.repeat}, 1 thread")
    print(f"{'set':<11} {'graphs':>6} {'tasks':>9}  side  "
          f"{'median':>7} {'q1':>7} {'q3':>7} {'min':>7}  (ns a task)")
    for name, batch in batches.items():
        for side in libs:
            xs = ns[name, side]
            q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
            print(f"{name:<11} {len(batch.ntasks):>6} "
                  f"{int(batch.ntasks.sum()):>9}  {side:>4}  "
                  f"{med:7.1f} {q1:7.1f} {q3:7.1f} {min(xs):7.1f}")
        wins = sum(b < a for a, b in zip(ns[name, "A"], ns[name, "B"]))
        q1, med_a, q3 = statistics.quantiles(
            ns[name, "A"], n=4, method="inclusive"
        )
        med_b = statistics.median(ns[name, "B"])
        faster = wins >= 0.9 * args.rounds and med_a - med_b > q3 - q1
        print(f"{name:<11} B/A median x{med_b / med_a:.3f}, B faster in "
              f"{wins} of {args.rounds} rounds: "
              + ("B is faster" if faster else "no gain shown"))
    if mismatched:
        print(f"MISMATCH: outputs differ in (round, set) {mismatched}")
        return 1
    print("outputs bit-identical on every round")
    return 0


if __name__ == "__main__":
    sys.exit(main())
