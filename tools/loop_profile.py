#!/usr/bin/env python
"""Line-level profile of the native cluster event loop.

Usage::

    PYTHONPATH=src python tools/loop_profile.py [REV] [--rounds 40] [--top 25]

``REV`` defaults to the working tree.  Its ``_C_SOURCE``, with a SIGPROF
sampler prepended, is built by ``_ccore._build`` (its flags, plus ``-g``)
into a temporary ``REPRO_CACHE_DIR``.  The three graph sets of
``tools/loop_ab.py`` then go through ``--rounds`` single-thread
``hqr_simulate_cluster_batch`` calls each, while the sampler records the
interrupted program counter on every tick of the process's CPU time
(``ITIMER_PROF``).  ``addr2line`` maps each counter to its innermost
function and source line, so an inlined helper such as ``ev_pop`` counts as
itself, and the tool prints the share of samples by function and, for the
``--top`` lines, by source line (numbered within ``_C_SOURCE``) with its
text.  A sample outside the library (the ctypes call around the loop)
counts as ``(outside)``.

Exits 2 when ``addr2line`` is missing, the source does not build, or the
loop refuses a graph.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import loop_ab  # noqa: E402
from repro import _ccore  # noqa: E402

SAMPLER = r"""#define _GNU_SOURCE
#include <dlfcn.h>
#include <signal.h>
#include <stdint.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define PROF_CAP (1 << 20)
static uintptr_t prof_pc[PROF_CAP];
static volatile int64_t prof_len;

static void prof_tick(int sig, siginfo_t *si, void *ctx) {
    (void)sig;
    (void)si;
    const mcontext_t *mc = &((ucontext_t *)ctx)->uc_mcontext;
#if defined(__x86_64__)
    uintptr_t pc = (uintptr_t)mc->gregs[REG_RIP];
#elif defined(__aarch64__)
    uintptr_t pc = (uintptr_t)mc->pc;
#else
    uintptr_t pc = 0;
#endif
    if (prof_len < PROF_CAP)
        prof_pc[prof_len++] = pc;
}

/* sample every usec of process CPU time; 0 stops */
int32_t prof_timer(int64_t usec) {
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = prof_tick;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    if (usec && sigaction(SIGPROF, &sa, NULL))
        return -1;
    struct itimerval it = {{0, usec}, {0, usec}};
    return setitimer(ITIMER_PROF, &it, NULL);
}

/* copies the samples into out; *base is the library's load address */
int64_t prof_read(uintptr_t *out, int64_t cap, uintptr_t *base) {
    Dl_info info;
    *base = dladdr((void *)prof_tick, &info) ? (uintptr_t)info.dli_fbase : 0;
    int64_t n = prof_len < cap ? prof_len : cap;
    memcpy(out, prof_pc, (size_t)n * sizeof(uintptr_t));
    return n;
}
"""
PERIOD_US = 100  # asked for; the kernel samples at most once a tick


def die(msg: str):
    print(f"loop_profile: {msg}", file=sys.stderr)
    raise SystemExit(2)


def build(source: str):
    """The sampled library and its path (``-g`` rides on the compiler)."""
    cc = _ccore._compiler()
    if cc is None:
        die("no C compiler")
    os.environ["CC"] = f"{cc} -g"
    lib = _ccore._build(source)
    if lib is None:
        die("the sampled C core did not build")
    lib.prof_timer.restype = ctypes.c_int32
    lib.prof_timer.argtypes = [ctypes.c_int64]
    lib.prof_read.restype = ctypes.c_int64
    lib.prof_read.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]
    return lib, Path(lib._name)


def symbolize(so: Path, offsets) -> dict:
    """offset -> (innermost function, line in the compiled file or 0)."""
    offsets = sorted(offsets)
    proc = subprocess.run(
        ["addr2line", "-e", str(so), "-a", "-f", "-i",
         *[hex(o) for o in offsets]],
        capture_output=True, text=True, check=True,
    )
    where, key, fresh = {}, None, False
    lines = proc.stdout.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            key, fresh = int(lines[i], 16), True
            i += 1
            continue
        func, loc = lines[i], lines[i + 1]
        i += 2
        if fresh:  # the first frame of a group is the innermost
            line = loc.rsplit(":", 1)[-1].split(" ")[0]
            where[key] = (func, int(line) if line.isdigit() else 0)
            fresh = False
    return where


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", nargs="?", help="default: the working tree")
    ap.add_argument("--rounds", type=int, default=40)
    ap.add_argument("--top", type=int, default=25, help="source lines shown")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")
    if shutil.which("addr2line") is None:
        die("addr2line (binutils) is not on PATH; it maps the samples")

    c_source = loop_ab.c_source(args.rev)
    with tempfile.TemporaryDirectory(prefix="loop_profile_") as tmp:
        os.environ["REPRO_CACHE_DIR"] = tmp
        setup, sets = loop_ab.graph_sets()
        batches = {
            name: loop_ab.Batch(graphs, setup) for name, graphs in sets.items()
        }
        lib, so = build(SAMPLER + c_source)
        for _ in range(args.rounds):
            for batch in batches.values():
                if lib.prof_timer(PERIOD_US):
                    die("setitimer refused the sampler")
                batch.run(lib)
                lib.prof_timer(0)
        cap = 1 << 20
        pcs = (ctypes.c_size_t * cap)()
        base = ctypes.c_size_t()
        n = lib.prof_read(pcs, cap, ctypes.byref(base))
        hits = Counter(pc - base.value for pc in pcs[:n])
        size = so.stat().st_size
        where = symbolize(so, [o for o in hits if 0 <= o < size])
    if not n:
        die("no samples: the loop ran under one tick of CPU time")

    prefix = SAMPLER.count("\n")
    src_lines = c_source.split("\n")
    by_func, by_line = Counter(), Counter()
    for off, k in hits.items():
        func, line = where.get(off, ("(outside)", 0))
        by_func[func] += k
        by_line[func, line - prefix if line > prefix else 0] += k

    print(f"loop_profile: {args.rev or 'working tree'}; {len(batches)} sets "
          f"({', '.join(batches)}) x {args.rounds} rounds, 1 thread, "
          f"{n} samples")
    print(f"{'share':>6} {'samples':>7}  function")
    for func, k in by_func.most_common():
        print(f"{k / n:6.1%} {k:>7}  {func}")
    print(f"\n{'share':>6} {'samples':>7}  {'line':>5}  source (function)")
    for (func, line), k in by_line.most_common(args.top):
        text = src_lines[line - 1].strip() if 0 < line <= len(src_lines) else ""
        print(f"{k / n:6.1%} {k:>7}  {line or '?':>5}  {text[:60]}  ({func})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
