"""End-to-end verification sweeps, divergence detection, and shrinking."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.verify import (
    VerifyCase,
    available_engines,
    replay_report,
    verify,
)
import repro.verify.runner as runner
from repro._ccore import native_available
from repro.hqr.hierarchy import HQRTree
from repro.verify.engines import core_engine, result_key
from repro.verify.generator import sample_case
from repro.verify.runner import format_report, write_report
from repro.verify.shrink import shrink_case


def test_fixed_seed_sweep_is_clean():
    """The tier-1 bridge for ``repro verify``: a small fixed-seed budget
    must be bitwise-identical across every engine and oracle-clean."""
    report = verify(seed=0, budget=25)
    assert report["ok"] is True
    assert report["cases_run"] == 25
    assert report["failures"] == []
    names = report["engines"]
    assert names[0] == "core"
    # post-unification the product is two-way: core vs the C inner loop
    # (plus the engine-independent oracle); nothing else is registered
    assert set(names) <= {"core", "core-c"}
    from repro._ccore import native_available

    if native_available():
        assert "core-c" in names


def test_engine_registry_order_is_deterministic():
    engines = available_engines()
    assert list(engines) == list(available_engines())
    assert list(engines)[0] == "core"


def test_result_key_is_bitwise():
    case = sample_case(0, 1)
    from repro.verify.reference import TaskGraph
    from repro.hqr.hierarchy import hqr_elimination_list

    graph = TaskGraph.from_eliminations(
        hqr_elimination_list(case.m, case.n, case.config()), case.m, case.n
    )
    res = core_engine(case, graph)
    nudged = dataclasses.replace(res, makespan=res.makespan * (1.0 + 1e-15))
    assert result_key(res) != result_key(nudged)


def _lossy_engine(case, graph, built):
    """A deliberately perturbed engine: reports one phantom message."""
    res = core_engine(case, graph)
    return dataclasses.replace(res, messages=res.messages + 1)


def test_perturbed_engine_is_caught_and_minimized():
    engines = {"core": core_engine, "lossy": _lossy_engine}
    report = verify(seed=0, budget=5, engines=engines, max_failures=1)
    assert report["ok"] is False
    assert report["cases_run"] == 1  # max_failures stops the sweep
    [failure] = report["failures"]
    assert failure["kind"] == "engine-divergence"
    assert "messages" in failure["detail"]["diverged"]["lossy"]
    # the perturbation fires on every case, so the shrinker must walk the
    # (m, n, a, p, q) lattice all the way to its floor
    mini = failure["minimized"]
    assert mini is not None
    assert (mini["m"], mini["n"], mini["a"], mini["p"], mini["q"]) == (2, 1, 1, 1, 1)
    assert "messages" in failure["minimized_detail"]["diverged"]["lossy"]
    text = format_report(report)
    assert "engine-divergence" in text and "minimized" in text


def test_shrink_stops_at_predicate_boundary():
    """The shrinker keeps only reductions that still fail — a failure
    needing m >= 4 and q >= 2 minimizes to exactly that boundary."""
    case = dataclasses.replace(
        sample_case(0, 0), m=17, n=5, a=4, p=3, q=3,
        layout_kind="grid", nodes=9,
    )

    def failing(c):
        return "boom" if c.m >= 4 and c.q >= 2 else None

    mini, failure = shrink_case(case, failing)
    assert failure == "boom"
    assert (mini.m, mini.q) == (4, 2)
    assert (mini.n, mini.a, mini.p) == (1, 1, 1)
    assert mini.nodes == mini.p * mini.q


def test_shrink_flaky_predicate_flagged():
    case = sample_case(0, 0)
    mini, failure = shrink_case(case, lambda c: None)
    assert mini == case and failure is None


def test_report_round_trip_and_replay(tmp_path):
    engines = {"core": core_engine, "lossy": _lossy_engine}
    report = verify(seed=1, budget=2, engines=engines, max_failures=1)
    assert not report["ok"]
    path = tmp_path / "VERIFY_test.json"
    write_report(report, str(path))
    loaded = json.loads(path.read_text())
    restored = VerifyCase.from_dict(loaded["failures"][0]["minimized"])
    assert restored.m == 2 and restored.n == 1
    # replayed against the real engines the perturbation is gone: fixed
    assert replay_report(loaded) == []


def test_replay_reports_still_broken_failures():
    case = sample_case(0, 3)
    report = {
        "failures": [
            {
                "case": case.to_dict(),
                "kind": "engine-divergence",
                "detail": {},
                "minimized": None,
                "minimized_detail": None,
            }
        ]
    }
    # the real engines agree on this case, so nothing reproduces
    assert replay_report(report) == []


#: a report written before the data-reuse flag was deleted: a perturbed
#: engine's failure at seed 1, budget 1, its cases carrying the flag
OLD_REPORT = Path(__file__).parent / "fixtures" / "report_with_data_reuse.json"


def test_a_report_written_with_the_data_reuse_flag_replays(capsys):
    """Its cases load with the key dropped, the case the seed draws is
    still that case apart from the key (the flag's draw is kept), and
    ``repro verify --replay`` finds the failure fixed."""
    from repro.cli import main

    entry = json.loads(OLD_REPORT.read_text())["failures"][0]
    assert entry["case"]["data_reuse"] is entry["minimized"]["data_reuse"] is True
    drawn = {k: v for k, v in entry["case"].items() if k != "data_reuse"}
    assert sample_case(1, 0).to_dict() == drawn
    assert VerifyCase.from_dict(entry["minimized"]).m == 2
    assert main(["verify", "--replay", str(OLD_REPORT)]) == 0
    assert "all 1 reported failures are fixed" in capsys.readouterr().out


def test_format_report_clean_summary():
    report = verify(seed=2, budget=3)
    text = format_report(report)
    assert "seed=2" in text and "OK" in text


def test_verify_stdout_repeats_byte_for_byte(capsys):
    """Two runs of one seed and budget print the same stdout; the wall
    time goes to stderr only."""
    from repro.cli import main

    printed = []
    for _ in range(2):
        assert main(["verify", "--seed", "0", "--budget", "3"]) == 0
        out, err = capsys.readouterr()
        printed.append(out)
        assert "verify took" in err and "verify took" not in out
    assert printed[0] == printed[1]
    assert "cases run: 3\n" in printed[0]


def _drops_an_edge(build):
    """A production builder whose graphs lose their last successor edge."""

    def built(*args):
        cg = build(*args)
        nedges = len(cg.succ_idx)
        wait = np.array(cg.wait)
        wait[cg.succ_idx[-1]] -= 1
        return dataclasses.replace(
            cg,
            wait=wait,
            succ_ptr=np.minimum(cg.succ_ptr, nedges - 1),
            succ_idx=cg.succ_idx[:-1],
        )

    return built


def test_a_dropped_edge_is_a_minimized_build_divergence(monkeypatch):
    for name in ("_build_native", "compiled_from_eliminations"):
        monkeypatch.setattr(runner, name, _drops_an_edge(getattr(runner, name)))
    report = verify(seed=0, budget=5, max_failures=1)
    [failure] = report["failures"]
    assert failure["kind"] == "build-divergence"
    assert {"wait", "succ_ptr", "succ_idx"} <= set(failure["detail"]["graph"])
    mini = failure["minimized"]
    assert (mini["m"], mini["n"], mini["a"], mini["p"], mini["q"]) == (2, 1, 1, 1, 1)
    assert failure["minimized_detail"]["graph"] == failure["detail"]["graph"]


@pytest.mark.skipif(not native_available(), reason="needs the native core")
@pytest.mark.parametrize(
    "stage, owner, name",
    [("graph", runner, "_build_native"), ("list", HQRTree, "_expand")],
)
def test_a_native_refusal_is_a_failure(monkeypatch, stage, owner, name):
    """Production falls back to the Python builder when a native call
    refuses; verify counts the refusal instead of hiding it."""
    monkeypatch.setattr(owner, name, lambda *args: None)
    report = verify(seed=0, budget=3, max_failures=1, shrink=False)
    [failure] = report["failures"]
    assert failure["kind"] == "build-divergence"
    assert failure["detail"] == {stage: "refused"}


def test_a_report_from_before_the_build_check_still_replays(tmp_path):
    case = sample_case(0, 3).to_dict()
    del case["batched"]
    legacy = {
        "tool": "repro verify", "seed": 0, "budget": 4, "cases_run": 4,
        "engines": ["core", "core-c"], "ok": False,
        "failures": [{
            "case": case, "kind": "engine-divergence",
            "detail": {"baseline": "core", "diverged": {}},
            "minimized": None, "minimized_detail": None,
        }],
        "elapsed_seconds": 0.1,
    }
    path = tmp_path / "VERIFY_legacy.json"
    path.write_text(json.dumps(legacy))
    assert replay_report(json.loads(path.read_text())) == []
