#!/usr/bin/env python
"""Capture or check the golden bitwise fixtures of the event-loop core.

Usage::

    PYTHONPATH=src python tools/capture_golden.py            # (re)write
    PYTHONPATH=src python tools/capture_golden.py --check    # CI drift gate

The fixture file (``tests/runtime/fixtures/golden_core.json``) freezes
makespans, busy times, message counts, task/comm-trace digests, fault
accounting, and R-factor fingerprints for a fixed case set — captured
from the pre-unification engines and enforced against the unified core
by ``tests/runtime/test_core_equivalence.py`` and the
``core-equivalence`` CI job.  The cases and the capture live in
``tests/runtime/golden.py``, beside the fixture.

``--check`` recomputes every value with the *current* engines and exits
non-zero on any difference: an intentional semantic change must
regenerate the fixture in the same commit and justify the diff.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, os.path.join(REPO_ROOT, "tests", "runtime"))

from golden import (  # noqa: E402
    GOLDEN_RELPATH,
    capture_fixture,
    compare_fixture,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare a fresh capture against the committed fixture "
        "instead of rewriting it",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(REPO_ROOT, GOLDEN_RELPATH),
        help="fixture path (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    fresh = capture_fixture()
    if args.check:
        try:
            with open(args.out) as fh:
                frozen = json.load(fh)
        except FileNotFoundError:
            print(f"no fixture at {args.out}; run without --check first")
            return 2
        diffs = compare_fixture(frozen, fresh)
        if diffs:
            print(f"golden fixture drift ({len(diffs)} fields):")
            for d in diffs:
                print(f"  {d}")
            return 1
        nscalar = len(frozen.get("scalar", {}))
        nfault = len(frozen.get("faulty", {}))
        nqr = len(frozen.get("qr", {}))
        print(
            f"golden fixtures clean: {nscalar} scalar, {nfault} faulty, "
            f"{nqr} qr cases bitwise-identical"
        )
        return 0

    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(fresh, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
