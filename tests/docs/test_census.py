"""Tests for the caller census and its gate (``tools/census.py``)."""

import pytest

import importlib.util
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "census", REPO / "tools" / "census.py"
)
census = sys.modules["census"] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(census)


def write(root: Path, rel: str, text: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_counts_references_per_scope(tmp_path, capsys):
    write(tmp_path, "src/pkg/__init__.py", (
        "from pkg.a import used, orphan\n"
        "__all__ = ['used', 'orphan']\n"
    ))
    write(tmp_path, "src/pkg/a.py", (
        "def used():\n    return 1\n\n\n"
        "def orphan(k):\n"
        '    """orphan() in a docstring is no reference."""\n'
        "    return orphan(k - 1) if k else 0  # recursion is no caller\n\n\n"
        "def _private():\n    return used()\n\n\n"
        "class Shape:\n    pass\n"
    ))
    write(tmp_path, "src/pkg/b.py", "import pkg.a as a\n\nx = a.used()\n")
    write(tmp_path, "tests/test_a.py", (
        "from pkg.a import orphan, Shape\n\n"
        "def test_it():\n    assert orphan(2) == 0 and Shape()\n"
    ))
    write(tmp_path, "benchmarks/bench.py", "from pkg import orphan\norphan(1)\n")
    write(tmp_path, ".github/workflows/ci.yml", "run: echo orphan Shape Shape\n")
    rows = {d.name: d for d in census.census(tmp_path)}
    assert sorted(rows) == ["Shape", "orphan", "used"]  # no private name
    # _private's call and b.py's attribute access; imports do not count
    assert rows["used"].refs["src"] == 2
    assert rows["orphan"].refs["src"] == 0
    assert (rows["orphan"].refs["tests"], rows["orphan"].refs["benchmarks"],
            rows["orphan"].refs["ci"]) == (1, 1, 1)
    assert (rows["orphan"].line, rows["orphan"].lines) == (5, 3)
    assert rows["Shape"].refs["src"] == 0 and rows["Shape"].refs["ci"] == 2
    # no allow list: both orphans are unlisted, and the gate fails
    assert census.main(["--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "orphan" in out and "Shape" in out and "\nused " not in out
    assert "unlisted: orphan (src/pkg/a.py:5)" in out
    assert out.rstrip().endswith(
        "3 public definitions in src/; 2 of them, 5 lines, "
        "have no src/ reference; 2 unlisted, 0 stale"
    )
    assert census.main(["--root", str(tmp_path), "used", "gone"]) == 0
    out = capsys.readouterr().out
    assert "src/pkg/a.py:1" in out
    assert "gone: no public top-level definition in src/" in out


def orphan_tree(root: Path) -> None:
    write(root, "src/pkg/a.py", (
        "def used():\n    return 1\n\n\n"
        "def orphan():\n    return used()\n"
    ))


def test_allow_list_settles_an_orphan(tmp_path, capsys):
    orphan_tree(tmp_path)
    write(tmp_path, "tools/census_allow.txt", (
        "# comment lines and blank lines are skipped\n\n"
        "orphan   the tests' oracle\n"
    ))
    assert census.allow_list(tmp_path) == {"orphan": "the tests' oracle"}
    assert census.main(["--root", str(tmp_path)]) == 0
    assert "0 unlisted, 0 stale" in capsys.readouterr().out


@pytest.mark.parametrize("listed", ["gone", "used"])
def test_a_listed_name_gone_or_called_is_stale(tmp_path, capsys, listed):
    orphan_tree(tmp_path)
    write(tmp_path, "tools/census_allow.txt", (
        f"orphan  an oracle\n{listed}  was an orphan once\n"
    ))
    assert census.main(["--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert f"stale: {listed} is listed" in out and "1 stale" in out


@pytest.mark.parametrize("text,error", [
    ("orphan\n", "orphan has no reason"),
    ("orphan   \n", "orphan has no reason"),
    ("orphan  one\norphan  two\n", "orphan listed twice"),
])
def test_every_allow_line_has_one_name_and_a_reason(
    tmp_path, capsys, text, error
):
    orphan_tree(tmp_path)
    write(tmp_path, "tools/census_allow.txt", text)
    with pytest.raises(ValueError, match=error):
        census.allow_list(tmp_path)
    assert census.main(["--root", str(tmp_path)]) == 1
    assert error in capsys.readouterr().out


def test_this_repository_reports():
    """Every public name in ``src/`` has a ``src/`` caller or a reasoned
    line in ``tools/census_allow.txt``, and no line there is stale: the
    in-process mirror of CI's census step."""
    defs = census.census(REPO)
    unlisted, stale = census.verdict(defs, census.allow_list(REPO))
    assert [d.name for d in unlisted] == [] and stale == []
    orphans = {d.name for d in defs if not d.refs["src"]}
    assert "run_core" not in orphans and "hqr_elimination_list" not in orphans
