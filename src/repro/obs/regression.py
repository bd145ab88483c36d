"""Bench-regression gate over ``BENCH_*.json`` artifacts.

``repro bench`` / ``repro faults`` reports are stamped with
:func:`run_metadata` (git SHA, python version, CPU count, platform,
timestamp).  :func:`compare_reports` gates a current report against a
baseline: wall-time metrics may not exceed the baseline by more than
``max_ratio``, and reports from *different machines* are refused
(``comparable=False``) rather than compared apples-to-oranges — CI
passes ``allow_cross_machine=True`` explicitly when it means it.

Gated metrics (present-in-both only, so old baselines degrade
gracefully): ``micro.compiled_s``, ``micro.reference_s``,
``sweep_wall_s``.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

__all__ = [
    "compare_reports",
    "format_gate",
    "gate_files",
    "run_metadata",
]

#: metadata fields that must match for wall-times to be comparable
MACHINE_FIELDS = ("platform", "cpu_count", "python")

#: dotted paths of gated wall-time metrics (absent-in-either is skipped,
#: so baselines predating a metric still gate on the rest)
GATED_METRICS = (
    "micro.compiled_s",
    "micro.reference_s",
    "sweep_wall_s",
    "serve_wall_s",
    "tune_wall_s",
)


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def run_metadata() -> dict:
    """Provenance stamp for a benchmark report."""
    return {
        "git_sha": _git_sha(),
        "python": f"{sys.version_info.major}.{sys.version_info.minor}."
        f"{sys.version_info.micro}",
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "hostname": platform.node(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
    }


def _dig(report: dict, dotted: str):
    cur = report
    for part in dotted.split("."):
        if not isinstance(cur, dict) or part not in cur:
            return None
        cur = cur[part]
    return cur


def machine_mismatches(current: dict, baseline: dict) -> list[str] | None:
    """Metadata fields that differ, or None when either stamp is absent.

    ``python`` compares major.minor only — interpreter patch releases do
    not shift the benchmarks.
    """
    cm, bm = current.get("meta"), baseline.get("meta")
    if not isinstance(cm, dict) or not isinstance(bm, dict):
        return None  # unstamped (pre-observability) report: can't tell
    out = []
    for field in MACHINE_FIELDS:
        a, b = cm.get(field), bm.get(field)
        if field == "python" and a and b:
            a = ".".join(str(a).split(".")[:2])
            b = ".".join(str(b).split(".")[:2])
        if a != b:
            out.append(f"{field}: baseline {b!r} != current {a!r}")
    return out


def compare_reports(
    current: dict,
    baseline: dict,
    *,
    max_ratio: float = 2.0,
    allow_cross_machine: bool = False,
) -> dict:
    """Gate ``current`` against ``baseline``.

    Returns ``{"ok", "comparable", "mismatches", "regressions",
    "checked"}``; ``ok`` is False when any gated metric regressed beyond
    ``max_ratio`` *or* the machines differ and cross-machine comparison
    was not explicitly allowed.
    """
    if max_ratio <= 0:
        raise ValueError(f"max_ratio must be positive, got {max_ratio}")
    mismatches = machine_mismatches(current, baseline)
    comparable = not mismatches  # None (unstamped) or [] both compare
    result: dict = {
        "max_ratio": max_ratio,
        "comparable": comparable,
        "mismatches": mismatches or [],
        "regressions": [],
        "checked": [],
    }
    if not comparable and not allow_cross_machine:
        result["ok"] = False
        return result

    for metric in GATED_METRICS:
        base = _dig(baseline, metric)
        now = _dig(current, metric)
        if not isinstance(base, (int, float)) or not isinstance(
            now, (int, float)
        ):
            continue
        if base <= 0:
            continue
        ratio = now / base
        result["checked"].append(
            {"metric": metric, "baseline_s": base, "current_s": now,
             "ratio": ratio}
        )
        if ratio > max_ratio:
            result["regressions"].append(
                {
                    "metric": metric,
                    "baseline_s": base,
                    "current_s": now,
                    "ratio": ratio,
                    "limit": max_ratio,
                }
            )
    result["ok"] = not result["regressions"]
    return result


def gate_files(
    current_path: str | Path,
    baseline_path: str | Path,
    *,
    max_ratio: float = 2.0,
    allow_cross_machine: bool = False,
) -> dict:
    """File-path front end of :func:`compare_reports`."""
    current = json.loads(Path(current_path).read_text())
    baseline = json.loads(Path(baseline_path).read_text())
    out = compare_reports(
        current,
        baseline,
        max_ratio=max_ratio,
        allow_cross_machine=allow_cross_machine,
    )
    out["current"] = str(current_path)
    out["baseline"] = str(baseline_path)
    return out


def format_gate(result: dict) -> str:
    """Human-readable gate verdict."""
    lines = [
        f"bench regression gate  (limit {result['max_ratio']:.2f}x, "
        f"{len(result['checked'])} metrics checked)"
    ]
    if result["mismatches"]:
        head = (
            "REFUSED: reports are from different machines"
            if not result.get("ok") and not result["regressions"]
            else "warning: cross-machine comparison"
        )
        lines.append(f"  {head}:")
        for m in result["mismatches"]:
            lines.append(f"    {m}")
    for c in result["checked"]:
        verdict = "ok"
        if any(r["metric"] == c["metric"] for r in result["regressions"]):
            verdict = "REGRESSED"
        lines.append(
            f"  {c['metric']:>18}: baseline {c['baseline_s'] * 1e3:9.1f}ms  "
            f"current {c['current_s'] * 1e3:9.1f}ms  "
            f"({c['ratio']:.2f}x)  {verdict}"
        )
    lines.append("PASS" if result.get("ok") else "FAIL")
    return "\n".join(lines)
