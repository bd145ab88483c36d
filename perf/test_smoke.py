"""Smoke test of the benchmark itself, over one ``run.py --smoke`` set.

Run with ``python -m pytest perf -q``; tier-1 (``testpaths = tests``) does
not collect it, because it takes most of a minute.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke() -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads((HERE / "out" / "result.json").read_text())


def test_every_declared_metric_is_printed_with_its_unit(spec, smoke):
    printed = {tuple(line.split()) for line in smoke[0].splitlines()}
    for workload in spec["workloads"]:
        for m in spec["end_to_end"] + spec["per_layer"]:
            assert any(
                len(p) == 4 and p[0] == workload["name"]
                and p[1] == m["name"] and p[3] == m["unit"]
                for p in printed
            ), (workload["name"], m["name"])


def test_names_are_plain(spec):
    for entry in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(entry["name"]), entry["name"]


def test_no_operation_failed(smoke):
    for name, w in smoke[1]["workloads"].items():
        assert w["ops_attempted"] > 0, name
        assert w["ops_failed"] == 0, name


def test_sweeps_are_attributed(smoke):
    for name in ("sweep_cold", "sweep_warm"):
        layers = smoke[1]["workloads"][name]["per_layer"]
        assert layers["bench.runner.unattributed_share"]["value"] < 0.15
        assert layers["trace.identity_error"]["value"] < 0.01


def test_span_parents_resolve(spec, smoke):
    for workload in spec["workloads"]:
        path = HERE / "out" / f"{workload['name']}.spans.jsonl"
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        ids = {s["id"] for s in spans}
        assert len(ids) == len(spans)
        assert all(s["parent"] is None or s["parent"] in ids for s in spans)
        assert all(s["end"] >= s["start"] for s in spans)
