"""Annealer, CoolingSchedule and SampleBuffer semantics."""

import json

import pytest

from repro.runtime.machine import Machine
from repro.tune import Annealer, CoolingSchedule, EnergyEvaluator, SampleBuffer
from repro.tune import sampler
from repro.tune.energy import initial_case


MACHINE = Machine(nodes=4, cores_per_node=2)


def make_annealer(out_dir, **kw):
    kw.setdefault("seed", 0)
    kw.setdefault("budget", 40)
    kw.setdefault("batch_size", 8)
    ev = EnergyEvaluator(8, 2, 16, MACHINE)
    return Annealer(ev, initial_case(8, 2, 16, MACHINE), str(out_dir), **kw)


# ------------------------------------------------------------- schedule


def test_cooling_schedule_geometric_with_floor():
    sched = CoolingSchedule(t0=1.0, alpha=0.5, floor=0.2)
    assert sched.temperature(0) == 1.0
    assert sched.temperature(1) == 0.5
    assert sched.temperature(2) == 0.25
    assert sched.temperature(3) == 0.2  # floored


@pytest.mark.parametrize(
    "kw", [{"t0": 0.0}, {"alpha": 0.0}, {"alpha": 1.5}, {"floor": 0.0}]
)
def test_cooling_schedule_validates(kw):
    with pytest.raises(ValueError):
        CoolingSchedule(**kw)


# --------------------------------------------------------------- buffer


def test_buffer_thins_prospectively_and_bounds_disk(tmp_path):
    path = str(tmp_path / "s.jsonl")
    buf = SampleBuffer(path, max_kept=4, chunk=2)
    for i in range(40):
        buf.offer({"i": i})
    buf.flush()
    lines = [json.loads(l) for l in open(path, encoding="utf-8")]
    # stride doubles as caps are hit; never more than 2 * max_kept lines
    assert len(lines) <= 2 * buf.max_kept
    assert buf.thin > 1
    # the first samples (stride 1) were never rewritten
    assert lines[0] == {"i": 0}
    assert [l["i"] for l in lines] == sorted(l["i"] for l in lines)


def test_buffer_state_round_trip_resumes_stream(tmp_path):
    path = str(tmp_path / "s.jsonl")
    buf = SampleBuffer(path, max_kept=8, chunk=3)
    offered = [{"i": i} for i in range(20)]
    for s in offered[:11]:
        buf.offer(s)
    buf.flush()
    state = buf.state()

    resumed = SampleBuffer(path, max_kept=8, chunk=3)
    resumed.restore(state)
    for s in offered[11:]:
        resumed.offer(s)
    resumed.flush()
    got = [json.loads(l)["i"] for l in open(path, encoding="utf-8")]

    fresh = SampleBuffer(str(tmp_path / "f.jsonl"), max_kept=8, chunk=3)
    for s in offered:
        fresh.offer(s)
    fresh.flush()
    want = [json.loads(l)["i"] for l in open(fresh.path, encoding="utf-8")]
    assert got == want


def test_buffer_restore_truncates_post_checkpoint_lines(tmp_path):
    path = str(tmp_path / "s.jsonl")
    buf = SampleBuffer(path, chunk=1)
    buf.offer({"i": 0})
    state = buf.state()
    buf.offer({"i": 1})  # flushed after the checkpoint was taken

    resumed = SampleBuffer(path, chunk=1)
    resumed.restore(state)
    assert open(path, encoding="utf-8").read() == '{"i": 0}\n'


def test_buffer_restore_refuses_short_file(tmp_path):
    path = str(tmp_path / "s.jsonl")
    buf = SampleBuffer(path, chunk=1)
    for i in range(3):
        buf.offer({"i": i})
    state = buf.state()
    (tmp_path / "s.jsonl").write_text('{"i": 0}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="refusing to resume"):
        SampleBuffer(path, chunk=1).restore(state)


# ------------------------------------------------------------- annealer


def test_same_seed_reproduces_stream_and_best(tmp_path):
    r1 = make_annealer(tmp_path / "a").run()
    r2 = make_annealer(tmp_path / "b").run()
    assert r1.best == r2.best
    assert r1.proposals == r2.proposals == 40
    assert r1.accepted == r2.accepted
    assert r1.accept_history == r2.accept_history
    s1 = (tmp_path / "a" / "samples.jsonl").read_bytes()
    s2 = (tmp_path / "b" / "samples.jsonl").read_bytes()
    assert s1 == s2 and s1  # identical and non-empty


def test_different_seeds_differ(tmp_path):
    r1 = make_annealer(tmp_path / "a", seed=0).run()
    r2 = make_annealer(tmp_path / "b", seed=1).run()
    assert (
        (tmp_path / "a" / "samples.jsonl").read_bytes()
        != (tmp_path / "b" / "samples.jsonl").read_bytes()
    )
    assert r1.proposals == r2.proposals  # budget spent either way


def test_best_is_sorted_and_truncated(tmp_path):
    result = make_annealer(tmp_path, top_k=3).run()
    energies = [e["energy"] for e in result.best]
    assert len(result.best) <= 3
    assert energies == sorted(energies)
    # the chain's best is at least as good as the starting point
    assert energies[0] <= result.e0


def test_stop_then_resume_is_bitwise_identical(tmp_path):
    _stop_then_resume(tmp_path, indented=False)


def test_resume_reads_an_indented_checkpoint(tmp_path):
    """Checkpoints written before the compact form still resume bitwise."""
    _stop_then_resume(tmp_path, indented=True)


def _stop_then_resume(tmp_path, indented):
    # uninterrupted reference
    ref = make_annealer(tmp_path / "ref").run()
    ref_stream = (tmp_path / "ref" / "samples.jsonl").read_bytes()

    # interrupted after 2 batches: request_stop from a batch-boundary hook
    a = make_annealer(tmp_path / "run")
    orig = a._run_batch

    def hooked():
        orig()
        if a.batch_idx == 2:
            a.request_stop()

    a._run_batch = hooked
    partial = a.run()
    assert partial.interrupted
    assert partial.proposals == 16
    if indented:
        path = tmp_path / "run" / "checkpoint.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    resumed = make_annealer(tmp_path / "run", resume=True).run()
    assert not resumed.interrupted
    assert resumed.proposals == ref.proposals
    assert resumed.best == ref.best
    assert resumed.accept_history == ref.accept_history
    assert (tmp_path / "run" / "samples.jsonl").read_bytes() == ref_stream


def _count_writes(monkeypatch):
    """Record the batch index of every checkpoint the annealer writes."""
    written = []
    real = sampler._atomic_write_json

    def recording(path, payload):
        written.append(payload["batch_idx"])
        real(path, payload)

    monkeypatch.setattr(sampler, "_atomic_write_json", recording)
    return written


def test_checkpoints_at_start_and_end_between_intervals(tmp_path, monkeypatch):
    """A chain shorter than the interval writes two checkpoints, and the
    last equals what a checkpoint after every batch leaves."""
    written = _count_writes(monkeypatch)
    result = make_annealer(tmp_path / "clock").run()
    assert written == [0, result.batches] and result.batches == 5
    monkeypatch.setattr(sampler, "CHECKPOINT_INTERVAL_S", 0.0)
    del written[:]
    make_annealer(tmp_path / "every").run()
    assert written == list(range(result.batches + 1))
    for name in ("checkpoint.json", "samples.jsonl"):
        assert (tmp_path / "clock" / name).read_bytes() == (
            tmp_path / "every" / name
        ).read_bytes()


def test_requested_stop_writes_its_checkpoint(tmp_path, monkeypatch):
    written = _count_writes(monkeypatch)
    a = make_annealer(tmp_path)
    orig = a._run_batch

    def hooked():
        orig()
        if a.batch_idx == 2:
            a.request_stop()

    a._run_batch = hooked
    assert a.run().interrupted
    assert written == [0, 2]


def test_a_raising_batch_leaves_the_last_clean_checkpoint(tmp_path, monkeypatch):
    """An exception mid-batch writes nothing: the file on disk is the
    checkpoint of the last finished batch, and it resumes bitwise."""
    ref = make_annealer(tmp_path / "ref").run()
    monkeypatch.setattr(sampler, "CHECKPOINT_INTERVAL_S", 0.0)
    written = _count_writes(monkeypatch)
    a = make_annealer(tmp_path / "run")
    path = tmp_path / "run" / "checkpoint.json"
    orig = a._run_batch
    clean = []

    def dies(cases, keys):
        raise RuntimeError("evaluator died")

    def hooked():
        if a.batch_idx == 3:
            clean.append(path.read_bytes())
            # asked once the batch has drawn its proposals from the RNG
            a.evaluator.bounds = dies
        orig()

    a._run_batch = hooked
    with pytest.raises(RuntimeError, match="evaluator died"):
        a.run()
    assert written == [0, 1, 2, 3]
    assert path.read_bytes() == clean[0]
    assert json.loads(clean[0])["batch_idx"] == 3
    monkeypatch.setattr(sampler, "CHECKPOINT_INTERVAL_S", 1.0)
    resumed = make_annealer(tmp_path / "run", resume=True).run()
    assert resumed.best == ref.best
    assert resumed.accept_history == ref.accept_history
    assert (tmp_path / "run" / "samples.jsonl").read_bytes() == (
        tmp_path / "ref" / "samples.jsonl"
    ).read_bytes()


def test_a_round_that_makes_no_progress_raises(tmp_path, monkeypatch):
    """A dry run that needs nothing while the replay stops where it began
    would loop for ever: the batch raises, naming itself and the index."""
    a = make_annealer(tmp_path / "run")
    monkeypatch.setattr(a, "_needed", lambda batch, t: {})
    with pytest.raises(RuntimeError, match=r"batch 0: proposal 0 is neither known"):
        a.run()


def test_fresh_run_refuses_existing_checkpoint(tmp_path):
    make_annealer(tmp_path).run()
    with pytest.raises(FileExistsError, match="resume"):
        make_annealer(tmp_path)


def test_resume_refuses_parameter_mismatch(tmp_path):
    a = make_annealer(tmp_path)
    a.request_stop()
    a.run()  # evaluates the start, checkpoints, stops immediately
    with pytest.raises(ValueError, match="do not match"):
        make_annealer(tmp_path, resume=True, budget=41)


def test_resume_refuses_missing_checkpoint(tmp_path):
    with pytest.raises(FileNotFoundError):
        make_annealer(tmp_path, resume=True)


def _damage(name, text):
    """``checkpoint.json``'s text with one damage applied."""
    ck = json.loads(text)
    if name == "truncated":
        return text[: len(text) // 2]
    if name == "not an object":
        return json.dumps([ck])
    if name == "missing field":
        del ck["e0"]
    elif name == "mistyped counter":
        ck["batch_idx"] = str(ck["batch_idx"])
    elif name == "history not a list":
        ck["accept_history"] = {}
    elif name == "case not an object":
        ck["current"]["case"] = None
    else:  # a malformed rng_state: each breaks _restore differently
        ck["rng_state"] = {
            "rng_state too short": ck["rng_state"][:1],
            "rng_state an object": {"0": 3},
            "rng_state words not a list": [3, 7, None],
            "rng_state words too few": [3, ck["rng_state"][1][:9], None],
        }[name]
    return json.dumps(ck)


DAMAGES = {  # damage -> the field the error must name (None: the top level)
    "truncated": None, "not an object": None, "missing field": "e0",
    "mistyped counter": "batch_idx", "history not a list": "accept_history",
    "case not an object": "current", "rng_state too short": "rng_state",
    "rng_state an object": "rng_state",
    "rng_state words not a list": "rng_state",
    "rng_state words too few": "rng_state",
}


@pytest.mark.parametrize("damage", DAMAGES)
def test_a_damaged_checkpoint_fails_closed(tmp_path, damage):
    """However ``checkpoint.json`` is broken, resuming raises one
    ``ValueError`` naming the file and the field, nothing else."""
    a = make_annealer(tmp_path)
    a.request_stop()
    a.run()
    path = tmp_path / "checkpoint.json"
    path.write_text(_damage(damage, path.read_text()))
    field = DAMAGES[damage]
    where = "its top level" if field is None else f"field '{field}'"
    with pytest.raises(ValueError) as info:
        make_annealer(tmp_path, resume=True)
    assert str(info.value).startswith(f"cannot resume from {path} ({where}): ")
    assert info.value.__cause__ is None


def test_the_cli_exits_2_on_a_damaged_checkpoint(tmp_path, capsys):
    from repro.cli import main

    args = [
        "tune", "--m", "8", "--n", "2", "--nodes", "4", "--cores", "2",
        "--seed", "3", "--budget", "16", "--batch-size", "8",
        "--out", str(tmp_path),
    ]
    assert main(args) == 0
    path = tmp_path / "checkpoint.json"
    path.write_text(_damage("rng_state words not a list", path.read_text()))
    capsys.readouterr()
    assert main(args + ["--resume"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro tune: cannot resume from {path} (field 'rng_state')")
    assert "Traceback" not in err


def test_max_evaluations_stops_early(tmp_path):
    result = make_annealer(tmp_path / "cap", max_evaluations=1).run()
    # the start costs 1 evaluation, so the cap trips before any batch
    assert result.batches == 0
    assert result.proposals == 0
    assert not result.interrupted


def test_axes_restriction_and_validation(tmp_path):
    result = make_annealer(
        tmp_path / "ok", axes=("domino",), budget=8, batch_size=4
    ).run()
    # only the domino axis may move: every sampled case differs from the
    # start in at most that flag
    start = initial_case(8, 2, 16, MACHINE)
    for line in open(tmp_path / "ok" / "samples.jsonl", encoding="utf-8"):
        case = json.loads(line)["case"]
        assert case["a"] == start.a
        assert case["low_tree"] == start.low_tree
        assert case["high_tree"] == start.high_tree
        assert (case["p"], case["q"]) == (start.p, start.q)
    assert result.proposals == 8

    with pytest.raises(ValueError, match="unknown axis"):
        make_annealer(tmp_path / "bad", axes=("bogus",))


def test_metrics_export(tmp_path):
    from repro.obs.metrics import MetricsRegistry

    a = make_annealer(tmp_path)
    result = a.run()
    reg = MetricsRegistry()
    a.metrics_into(reg, result)
    prom = reg.to_prometheus()
    assert "repro_tune_proposals_total 40" in prom
    assert "repro_tune_best_makespan_seconds" in prom
    assert "repro_tune_acceptance_rate" in prom
    assert f"repro_tune_bounded_total {result.bounded}" in prom
