"""Consolidated report from ``benchmarks/results/``.

After a benchmark run, ``python -m repro.bench.report`` (or
:func:`build_report`) gathers the per-artifact text files into one
markdown report, with the paper-expected values inlined for side-by-side
reading.
"""

from __future__ import annotations

import pathlib

#: artifact -> (title, paper expectation one-liner)
ARTIFACTS: dict[str, tuple[str, str]] = {
    "table1.txt": ("Table I — flat tree, panel 0", "killers all 0, steps 1..11"),
    "table2.txt": ("Table II — flat tree, 3 panels", "perfect pipeline, last step 13"),
    "table3.txt": ("Table III — binary tree, 3 panels", "binomial killers; see EXPERIMENTS.md on steps"),
    "table4.txt": ("Table IV — greedy, 3 panels", "finishes at step 8"),
    "figures1-4.txt": ("Figures 1-4 — panel-0 trees", "flat / binary / flat-binary / domain"),
    "figure5.txt": ("Figure 5 — tile levels", "(4,1),(5,1) level 2; top tiles on first p diagonals"),
    "figure6a.txt": ("Figure 6(a) — low greedy", "a=4 ~ +10% at large M; a=1 best small"),
    "figure6b.txt": ("Figure 6(b) — low flat", "a>1 >> +10% at large M"),
    "figure6_binary.txt": ("Figure 6, omitted — low binary", "similar to greedy (§V-B)"),
    "figure6_fibonacci.txt": ("Figure 6, omitted — low fibonacci", "similar to greedy (§V-B)"),
    "figure7.txt": ("Figure 7 — domino x low tree", "domino helps TS, most for flat"),
    "figure8.txt": ("Figure 8 — M x 4480", "HQR > SLHD10 > BBD+10 > SCALAPACK"),
    "figure9.txt": ("Figure 9 — 67200 x N", "SLHD10 -> 2/3 HQR at square; SCALAPACK builds"),
    "headline_tall_skinny.txt": ("Headline: tall-skinny % of peak", "57.5 / 43.5 / 18.3 / 6.4"),
    "headline_square.txt": ("Headline: square % of peak", "68.7 / 62.2 / 46.7 / 44.2"),
    "ablation_levels.txt": ("Ablation — hierarchy levels", "each level contributes"),
    "ablation_domino_square.txt": ("Ablation — domino on square", "domino hurts"),
    "ablation_network.txt": ("Ablation — comm serialization", "contention costs"),
    "ablation_priority.txt": ("Ablation — scheduler priority", "program order competitive"),
    "comm_counts.txt": ("Communication — §III-A counts", "HQR p-1/panel vs flat m-k-1"),
    "comm_lower_bound.txt": ("Communication — CA bound", "all above, HQR closest"),
    "comm_multilevel.txt": ("Extension — multilevel hierarchy", "deep stack competitive"),
    "ext_tile_size.txt": ("Extension — tile size", "b=280 competitive; messages fall with b"),
    "ext_strong_scaling.txt": ("Extension — strong scaling", "sub-linear on tall-skinny"),
}


def build_report(results_dir: str | pathlib.Path) -> str:
    """Markdown report over whatever artifacts exist in ``results_dir``."""
    root = pathlib.Path(results_dir)
    lines = ["# Benchmark report", ""]
    missing = []
    for name, (title, expect) in ARTIFACTS.items():
        path = root / name
        if not path.exists():
            missing.append(name)
            continue
        lines += [f"## {title}", "", f"*Paper expectation:* {expect}", "", "```"]
        lines += path.read_text().rstrip("\n").splitlines()
        lines += ["```", ""]
    if missing:
        lines += [
            "## Not yet generated",
            "",
            *(f"- `{name}`" for name in missing),
            "",
            "Run `pytest benchmarks/ --benchmark-only` to produce them.",
        ]
    return "\n".join(lines)


def main(argv=None) -> int:  # pragma: no cover - thin CLI
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--results",
        default=pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "results",
    )
    parser.add_argument("--out", default="-")
    args = parser.parse_args(argv)
    text = build_report(args.results)
    if args.out == "-":
        print(text)
    else:
        pathlib.Path(args.out).write_text(text + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
