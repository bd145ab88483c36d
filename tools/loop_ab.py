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
``tune_chain`` chains simulate (their questions caught by a spy on
``bench.runner._answer``, the one call that answers a miss).  Each round then times one single-thread
``hqr_simulate_cluster_batch`` call per side and set (best of
``--repeat``), the side going first alternating by round, so host drift
lands on both sides alike and no packing, planning or interpreter time is
in the numbers.  Each side's entry is declared and called with the
signature in its own source (a core from before the data-reuse flag was
deleted takes that flag, passed as 0).

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
import ctypes
import os
import re
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


#: a parameter's ctypes type by its C type; every pointer is an address
_CTYPES = {"int64_t": ctypes.c_int64, "int32_t": ctypes.c_int32,
           "double": ctypes.c_double}


def batch_signature(source: str) -> list[tuple[str, type]]:
    """``(name, ctypes type)`` of each parameter of ``source``'s
    ``hqr_simulate_cluster_batch``, in order: revisions differ in them
    (a core before the data-reuse flag was deleted takes one more)."""
    match = re.search(r"\bhqr_simulate_cluster_batch\(([^)]*)\)\s*\{", source)
    if match is None:
        die("no hqr_simulate_cluster_batch definition in the C source")
    params = []
    for decl in match.group(1).split(","):
        words = re.findall(r"\w+", decl)
        ctype = ctypes.c_void_p if "*" in decl else _CTYPES.get(words[-2])
        if ctype is None:
            die(f"hqr_simulate_cluster_batch: cannot pass {decl.strip()!r}")
        params.append((words[-1], ctype))
    return params


class Side:
    """A built C core's ``hqr_simulate_cluster_batch``, declared with the
    signature of the source it was built from."""

    def __init__(self, lib, source: str):
        self.params = batch_signature(source)
        # a fresh function object: the library's own attribute keeps its
        # declaration
        self.entry = lib["hqr_simulate_cluster_batch"]
        self.entry.restype = ctypes.c_int32
        self.entry.argtypes = [ctype for _, ctype in self.params]

    def __call__(self, **values):
        """Call the entry with the values of its own parameters, by name:
        a value it has no parameter for is left out, and a parameter with
        no value is refused."""
        missing = [name for name, _ in self.params if name not in values]
        if missing:
            die(f"hqr_simulate_cluster_batch: no value for {missing}")
        return self.entry(*[values[name] for name, _ in self.params])


def compile_side(rev: str | None) -> Side:
    """``rev``'s C core, built by ``_ccore._build`` with its flags (a core
    older than an entry the tree declares lacks that one, which ``_build``
    then refuses to load: the library is opened here instead)."""
    source = c_source(rev)
    try:
        _ccore._build(source)
    except AttributeError:
        pass
    digest = _ccore.sha256_hex(source.encode())[:16]
    path = _ccore.cache_root() / "ccore" / f"hqr_ccore_{digest}.so"
    if not path.exists():
        die(f"{rev or 'working tree'}: the C core did not build")
    return Side(ctypes.CDLL(str(path)), source)


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
    """The graphs the perf workload's ``tune_chain`` chains simulate: the
    questions their ``answers`` calls miss, each built once here."""
    import workloads
    from repro.bench import runner

    caught = []
    real = runner._answer

    def spy(asked, machine, b, out):
        if (machine, b) != (setup.machine, setup.b):
            die("tune_chain simulates off the paper's setup")
        caught.extend(question for _, question, _ in asked)
        return real(asked, machine, b, out)

    with tempfile.TemporaryDirectory(prefix="loop_ab_tune_") as tmp:
        work = workloads.make("tune_chain", 1, Path(tmp), None)
        work.prepare()
        work.reset()
        runner._answer = spy
        try:
            work.run()
        finally:
            runner._answer = real
            work.close()
    return [runner._build_graph(*q, setup.machine, setup.b) for q in caught]


class Batch:
    """One graph set packed once for ``hqr_simulate_cluster_batch``."""

    #: the entry's names for ``tables`` and ``params``
    TABLES = ("dur_table", "kind", "node_of", "wait", "succ_ptr", "succ_idx",
              "rank", "task_of_rank")
    MACHINE = ("nnodes", "cores_per_node", "serialized", "hierarchical",
               "lat_intra", "bwt_intra", "lat_inter", "bwt_inter")

    def __init__(self, graphs, setup):
        self.columns = _graph_columns(graphs)
        nulls = [None] * len(graphs)
        self.tables = _address_tables(self.columns + [nulls, nulls])
        self.ntasks = np.array([len(k) for k in self.columns[1]], np.int64)
        params = _machine_params(setup.machine, setup.b)
        self.params = [int(v) for v in params[:4]] + list(params[4:8])
        self.site_of = np.asarray(params[8], dtype=np.int32)

    def run(self, side: Side):
        """(seconds, outputs) of one single-thread call."""
        n = len(self.ntasks)
        mk, busy = np.zeros(n), np.zeros(n)
        msgs, rc = np.zeros(n, np.int64), np.zeros(n, np.int32)
        values = dict(
            zip(self.TABLES, self.tables),
            **dict(zip(self.MACHINE, self.params)),
            npoints=n, nthreads=1, ntasks=self.ntasks.ctypes.data,
            site_of=self.site_of.ctypes.data, data_reuse=0,
            out_makespan=mk.ctypes.data, out_busy=busy.ctypes.data,
            out_messages=msgs.ctypes.data, out_rc=rc.ctypes.data,
        )
        t0 = time.perf_counter()
        side(**values)
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
        sides = {
            side: compile_side(rev)
            for side, rev in (("A", args.rev_a), ("B", args.rev_b))
        }
        setup, sets = graph_sets()
        batches = {name: Batch(graphs, setup) for name, graphs in sets.items()}
        ns = {(name, side): [] for name in batches for side in sides}
        mismatched = []
        for r in range(args.rounds):
            order = ("A", "B") if r % 2 == 0 else ("B", "A")
            for name, batch in batches.items():
                tasks = int(batch.ntasks.sum())
                out = {}
                for side in order:
                    best = float("inf")
                    for _ in range(args.repeat):
                        elapsed, out[side] = batch.run(sides[side])
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
        for side in sides:
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
