"""Tests for the caller census (``tools/census.py``)."""

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
    assert census.main(["--root", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "orphan" in out and "Shape" in out and "\nused " not in out
    assert out.rstrip().endswith(
        "3 public definitions in src/; 2 of them, 5 lines, "
        "have no src/ reference"
    )
    assert census.main(["--root", str(tmp_path), "used", "gone"]) == 0
    out = capsys.readouterr().out
    assert "src/pkg/a.py:1" in out
    assert "gone: no public top-level definition in src/" in out


def test_this_repository_reports(capsys):
    """The report runs on the repository itself and lists only names with
    no ``src/`` reference; a name the pipeline calls is never among them."""
    defs = census.census(REPO)
    orphans = {d.name for d in defs if not d.refs["src"]}
    assert len(defs) > len(orphans) > 0
    assert "run_core" not in orphans and "hqr_elimination_list" not in orphans
    assert census.main([]) == 0
    assert "have no src/ reference" in capsys.readouterr().out
