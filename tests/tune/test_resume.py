"""Interrupted `repro tune` resumes bitwise identically.

This drives the real CLI in subprocesses: a run is interrupted with an
actual SIGINT mid-chain (`REPRO_TUNE_BATCH_DELAY` widens the batch
boundaries so the signal lands deterministically between batches), or
SIGKILLed once an interval checkpoint has landed, then `--resume`
continues it.  The resumed run's accepted-sample stream and best-k must
equal an uninterrupted run's byte for byte.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent

ARGS = [
    "--m", "8", "--n", "2", "--b", "16",
    "--nodes", "4", "--cores", "2",
    "--seed", "0", "--budget", "40", "--batch-size", "8",
]


def run_tune(
    out_dir, json_path, *extra, env_extra=None, wait=True, args=ARGS
):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.update(env_extra or {})
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "tune", *args,
         "--out", str(out_dir), "--json", str(json_path), *extra],
        env=env,
        cwd=str(REPO),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    if not wait:
        return proc
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, f"tune failed:\n{out}\n{err}"
    return proc


def test_sigint_then_resume_matches_uninterrupted(tmp_path):
    # 1. the uninterrupted reference (no delay: results are unaffected)
    run_tune(tmp_path / "ref", tmp_path / "ref.json")
    ref_stream = (tmp_path / "ref" / "samples.jsonl").read_bytes()
    ref = json.loads((tmp_path / "ref.json").read_text(encoding="utf-8"))
    assert ref["result"]["proposals"] == 40

    # 2. start a slowed run and SIGINT it once the first checkpoint lands
    out = tmp_path / "run"
    proc = run_tune(
        out, tmp_path / "partial.json", wait=False,
        env_extra={"REPRO_TUNE_BATCH_DELAY": "0.3"},
    )
    ckpt = out / "checkpoint.json"
    deadline = time.monotonic() + 60
    while not ckpt.exists() and time.monotonic() < deadline:
        time.sleep(0.02)
    assert ckpt.exists(), "no checkpoint appeared within 60s"
    time.sleep(0.1)
    proc.send_signal(signal.SIGINT)
    stdout, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 3, f"expected exit 3:\n{stdout}\n{stderr}"
    assert "--resume" in stderr  # the hint telling the user how to go on

    partial = json.loads(
        (tmp_path / "partial.json").read_text(encoding="utf-8")
    )
    assert partial["result"]["interrupted"]
    assert partial["result"]["proposals"] < 40

    # 3. resume (full speed) and compare byte for byte
    run_tune(out, tmp_path / "resumed.json", "--resume")
    resumed = json.loads(
        (tmp_path / "resumed.json").read_text(encoding="utf-8")
    )
    assert not resumed["result"]["interrupted"]
    assert resumed["result"]["proposals"] == 40
    assert resumed["result"]["best"] == ref["result"]["best"]
    assert (
        resumed["result"]["accept_history"]
        == ref["result"]["accept_history"]
    )
    assert (out / "samples.jsonl").read_bytes() == ref_stream


def test_sigkill_after_an_interval_checkpoint_resumes_bitwise(tmp_path):
    """A hard kill loses the batches since the last checkpoint, nothing
    else: ``--resume`` truncates back to it and replays them bitwise."""
    args = [*ARGS[:-1], "2"]  # batch size 2: 20 slowed batches
    run_tune(tmp_path / "ref", tmp_path / "ref.json", args=args)
    ref = json.loads((tmp_path / "ref.json").read_text(encoding="utf-8"))

    out = tmp_path / "run"
    proc = run_tune(
        out, tmp_path / "killed.json", wait=False, args=args,
        env_extra={"REPRO_TUNE_BATCH_DELAY": "0.3"},
    )
    ckpt = out / "checkpoint.json"
    deadline = time.monotonic() + 60
    batch = 0
    while batch == 0 and time.monotonic() < deadline:
        time.sleep(0.02)
        if ckpt.exists():  # replaced atomically: never read half-written
            batch = json.loads(ckpt.read_text(encoding="utf-8"))["batch_idx"]
    assert batch > 0, "no interval checkpoint appeared within 60s"
    proc.send_signal(signal.SIGKILL)
    proc.communicate(timeout=120)
    assert proc.returncode == -signal.SIGKILL
    killed = json.loads(ckpt.read_text(encoding="utf-8"))
    assert 0 < killed["proposals"] < 40  # stopped mid-chain, no final write

    run_tune(out, tmp_path / "resumed.json", "--resume", args=args)
    resumed = json.loads(
        (tmp_path / "resumed.json").read_text(encoding="utf-8")
    )
    assert resumed["result"]["proposals"] == 40
    assert resumed["result"]["best"] == ref["result"]["best"]
    assert (
        resumed["result"]["accept_history"]
        == ref["result"]["accept_history"]
    )
    assert (out / "samples.jsonl").read_bytes() == (
        tmp_path / "ref" / "samples.jsonl"
    ).read_bytes()


def test_resume_without_checkpoint_exits_cleanly(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "tune", *ARGS,
         "--out", str(tmp_path / "void"), "--resume"],
        env=env,
        cwd=str(REPO),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert "checkpoint" in proc.stderr.lower()
