"""Tests for the docs-check tool (``tools/check_docs.py``).

The in-process run doubles as the tier-1 guarantee behind the CI
``docs-check`` job: every committed doc must parse clean *right now*,
not just on the runner.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "check_docs", REPO / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_docs)


# ---------------------------------------------------------------- unit


SAMPLE = """\
Intro prose with `repro tune --bogus` inline (ignored: not fenced).

```bash
$ repro tune --m 64 --n 8 --seed 0
PYTHONPATH=src python -m repro.cli verify \\
    --seed 0 \\
    --budget 200
# a comment, skipped
repro verify: seed=0 cases=120     <- echoed output, skipped
python -m repro bench --scale small
not-repro --ignored
```

```
repro obs trace A.json --diff B.json
```
"""


def test_extract_commands_basic():
    cmds = [cmd for _, cmd in check_docs.extract_commands(SAMPLE)]
    assert cmds == [
        "repro tune --m 64 --n 8 --seed 0",
        "python -m repro.cli verify --seed 0 --budget 200",
        "python -m repro bench --scale small",
        "repro obs trace A.json --diff B.json",
    ]


def test_extract_commands_reports_first_line_of_continuation():
    linenos = [ln for ln, _ in check_docs.extract_commands(SAMPLE)]
    # the continuation command is attributed to the line it starts on
    assert linenos == [4, 5, 10, 15]


def test_extract_skips_unfenced_and_non_repro():
    text = "repro tune --m 4\n\n```\nls -la\necho repro\n```\n"
    assert check_docs.extract_commands(text) == []


def test_command_argv_strips_launcher():
    assert check_docs.command_argv("repro tune --m 4") == ["tune", "--m", "4"]
    assert check_docs.command_argv(
        "python -m repro.cli obs trace a.json --diff b.json"
    ) == ["obs", "trace", "a.json", "--diff", "b.json"]


def test_check_command_flags_unknown_arguments():
    from repro.cli import build_parser

    parser = build_parser()
    assert check_docs.check_command(parser, ["tune", "--m", "8"]) is None
    err = check_docs.check_command(parser, ["tune", "--no-such-flag"])
    assert err is not None and "--no-such-flag" in err


def test_check_links_flags_dead_relative_target(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "[ok](real.md) and [dead](missing.md)\n"
        "```\n[inside fence](also-missing.md)\n```\n",
        encoding="utf-8",
    )
    (tmp_path / "real.md").write_text("x", encoding="utf-8")
    problems = check_docs.check_links(doc, doc.read_text(encoding="utf-8"))
    assert len(problems) == 1
    assert "missing.md" in problems[0]


def test_env_vars_must_be_both_documented_and_read(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "Set `REPRO_KEPT=1`, or the deleted\n`REPRO_GONE`.\n", encoding="utf-8"
    )
    src = tmp_path / "mod.py"
    src.write_text(
        '"""REPRO_ONLY_MENTIONED in a docstring is not a read."""\n'
        'import os\n'
        'a = os.environ.get("REPRO_KEPT", "0")\n'
        'b = os.environ.get(\n    "REPRO_SECRET"\n)\n'
        'c = os.environ["REPRO_KEPT"]\n',
        encoding="utf-8",
    )
    documented = check_docs.env_vars([doc], check_docs._ENV_VAR)
    read = check_docs.env_vars([src], check_docs._ENV_READ)
    assert set(documented) == {"REPRO_KEPT", "REPRO_GONE"}
    assert set(read) == {"REPRO_KEPT", "REPRO_SECRET"}
    problems = check_docs.check_env_vars(documented, read)
    assert len(problems) == 2
    assert "doc.md:2: REPRO_GONE is documented but read nowhere" in problems[0]
    assert "mod.py:4: REPRO_SECRET is read but documented" in problems[1]


# ---------------------------------------- the real docs, in-process


def test_repo_docs_are_clean(capsys):
    """Tier-1 mirror of the CI docs-check job: exit code must be 0."""
    assert check_docs.main([]) == 0
    out = capsys.readouterr().out
    assert "0 problem(s)" in out


def test_repo_docs_cover_the_tune_surface():
    """The tuning guide exists and documents the new CLI."""
    tuning = REPO / "docs" / "tuning.md"
    assert tuning.exists()
    cmds = [
        cmd
        for _, cmd in check_docs.extract_commands(
            tuning.read_text(encoding="utf-8")
        )
    ]
    assert any("--resume" in c for c in cmds)
    assert any("--bench" in c for c in cmds)
