"""Provenance stamp for benchmark reports.

``repro faults --json`` and ``repro tune --bench --json`` put
:func:`run_metadata` under ``meta``: the commit the code came from,
whether the working tree differed from it, and the interpreter and host
that produced the numbers.  Speed itself is judged by ``perf/``
(``BENCHMARK.json``), not by comparing these reports.
"""

from __future__ import annotations

import datetime
import os
import platform
import subprocess
import sys

__all__ = ["run_metadata"]

#: the checkout the stamp describes: the one holding this package
_HERE = os.path.dirname(os.path.abspath(__file__))


def _git(*args: str) -> str | None:
    """Stripped stdout of ``git *args`` in :data:`_HERE`, or None when
    git is missing or the directory is not a checkout."""
    try:
        out = subprocess.run(
            ["git", *args],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=_HERE,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_metadata() -> dict:
    """Provenance stamp for a benchmark report.

    ``dirty`` is True when ``git status --porcelain`` lists any change,
    so ``git_sha`` alone does not name the code that ran.
    """
    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD") or None,
        "dirty": None if status is None else bool(status),
        "python": f"{sys.version_info.major}.{sys.version_info.minor}."
        f"{sys.version_info.micro}",
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "hostname": platform.node(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
    }
