"""Compare two full sets written by ``perf/run.py`` (``perf/out/result.json``).

    python3 perf/compare.py A.json B.json

For every workload x end-to-end metric: both values, B's difference
relative to A, the metric's bound, and a verdict - ``same`` when the
difference is within the bound, else ``better`` or ``worse``; the suffix
``unresolved`` marks a pairing whose own sample-to-sample spread in A (q1
to q3 over the value) is wider than the bound, so the verdict cannot be
trusted.  Exact counts of the three single-threaded workloads are compared
too and must be identical.  Exit code 1 when anything is ``worse`` or a
count differs, 2 when the two sets did not do the same amount of work.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: two clients race for the serve cache, so its hit and miss counts vary
EXACT_COUNT_WORKLOADS = ("sweep_cold", "sweep_warm", "tune_chain")


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def declared_metrics() -> dict:
    """name -> {unit, better, bound}, from BENCHMARK.json."""
    spec = load(Path(__file__).resolve().parent.parent / "BENCHMARK.json")
    return {m["name"]: m for m in spec["end_to_end"]}


def verdict(a: dict, b: dict, metric: dict) -> tuple[float, str]:
    diff = (b["value"] - a["value"]) / a["value"]
    bound = metric["bound"]
    if abs(diff) <= bound:
        word = "same"
    else:
        word = "worse" if (diff > 0) == (metric["better"] == "lower") else "better"
    if (a["q3"] - a["q1"]) / a["value"] > bound:
        word += " unresolved"
    return diff, word


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    a, b = load(argv[1]), load(argv[2])
    metrics = declared_metrics()
    bad = 0
    for side, res in (("A", a), ("B", b)):
        meta = res["meta"]
        print(
            f"{side}: {argv[1] if side == 'A' else argv[2]} "
            f"sha={meta['git_sha']} seed={meta['seed']} "
            f"rounds={meta['plan']['rounds']} comparable={meta['comparable']}"
        )
    if a["meta"]["plan"] != b["meta"]["plan"]:
        sys.stderr.write(
            "perf: the two sets were taken with different plans (rounds, "
            "set-up repeats or iteration counts); they cannot be compared\n"
        )
        return 2
    print(f"{'workload':<11} {'metric':<12} {'A':>10} {'B':>10} "
          f"{'diff':>8} {'bound':>6}  verdict")
    for name, wa in a["workloads"].items():
        wb = b["workloads"][name]
        for metric, sa in wa["end_to_end"].items():
            sb = wb["end_to_end"][metric]
            diff, word = verdict(sa, sb, metrics[metric])
            bad += word.startswith("worse")
            print(
                f"{name:<11} {metric:<12} {sa['value']:>10.4f} "
                f"{sb['value']:>10.4f} {diff:>+8.1%} "
                f"{metrics[metric]['bound']:>6.0%}  {word}"
            )
    for name in EXACT_COUNT_WORKLOADS:
        wa, wb = a["workloads"][name], b["workloads"][name]
        same = (
            wa["counts"] == wb["counts"]
            and wa["counts_repeat"] and wb["counts_repeat"]
        )
        bad += not same
        print(f"{name:<11} counts {'identical' if same else 'DIFFER'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
