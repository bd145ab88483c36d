#!/usr/bin/env python
"""Caller census of the public names in ``src/``, and its gate.

Every top-level ``def`` and ``class`` in ``src/`` whose name does not
start with ``_`` is a public name.  For each one the census counts the
references in each scope:

* ``src``, ``tests``, ``perf``, ``benchmarks``, ``examples``, ``tools``:
  the ``Name`` and ``Attribute`` nodes of every ``*.py`` file, read with
  :mod:`ast`.  Imports, ``__all__`` lists, strings and comments are not
  references, and neither is a name used inside its own definition
  (recursion, a classmethod building its own class);
* ``ci``: whole-word matches in ``.github/workflows/ci.yml``.

Names are matched by spelling, not by binding: ``x.name`` counts for
every public ``name``.  The report lists the names with no ``src``
reference — reached only from tests, benchmarks, examples, tools or CI,
or from nothing.  Each one is kept on purpose, with its reason on a line
of ``tools/census_allow.txt``, or deleted.

Usage: ``python tools/census.py [--root DIR] [NAME ...]`` prints the
no-``src``-caller table and exits 1 when a name in it is not listed in
``DIR/tools/census_allow.txt``, or when a listed name is stale: gone
from ``src/``, or called there now.  With ``NAME`` arguments it prints
the row of each named definition, whatever its counts, and exits 0.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: the directories counted, in column order; ``ci`` is the workflow file
SCOPES = ("src", "tests", "perf", "benchmarks", "examples", "tools")
CI_FILE = Path(".github/workflows/ci.yml")
ALLOW_FILE = Path("tools/census_allow.txt")
COLUMNS = SCOPES + ("ci",)


@dataclass
class Definition:
    """One public top-level name and its references per scope."""

    name: str
    path: str  # relative to the root
    line: int
    lines: int  # length of the definition, decorators excluded
    refs: Counter = field(default_factory=Counter)


def definitions(root: Path) -> list[Definition]:
    """Every public top-level ``def`` / ``class`` under ``root/src``."""
    out = []
    for path in sorted((root / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            if isinstance(node, kinds) and not node.name.startswith("_"):
                out.append(Definition(
                    node.name, str(path.relative_to(root)), node.lineno,
                    node.end_lineno - node.lineno + 1,
                ))
    return out


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def references(tree: ast.AST) -> list[tuple[str, int]]:
    """``(name, line)`` of every ``Name`` / ``Attribute`` in ``tree``,
    outside imports and ``__all__``."""
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)) or _is_all(node):
            continue
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        stack.extend(ast.iter_child_nodes(node))
    return out


def census(root: Path = REPO) -> list[Definition]:
    """The definitions under ``root/src`` with their reference counts."""
    defs = definitions(root)
    by_name: dict[str, list[Definition]] = {}
    for d in defs:
        by_name.setdefault(d.name, []).append(d)
    for scope in SCOPES:
        for path in sorted((root / scope).rglob("*.py")):
            rel = str(path.relative_to(root))
            tree = ast.parse(path.read_text(), filename=rel)
            for name, line in references(tree):
                for d in by_name.get(name, ()):
                    inside = d.path == rel and d.line <= line < d.line + d.lines
                    if not inside:
                        d.refs[scope] += 1
    ci = root / CI_FILE
    if ci.exists():
        words = Counter(re.findall(r"\b\w+\b", ci.read_text()))
        for d in defs:
            d.refs["ci"] = words[d.name]
    return defs


def allow_list(root: Path) -> dict[str, str]:
    """``name -> reason`` from ``root/tools/census_allow.txt`` (empty when
    the file is absent); ``#`` starts a comment line.  A line without a
    reason, or a name listed twice, raises ``ValueError``."""
    path = root / ALLOW_FILE
    allowed: dict[str, str] = {}
    if not path.exists():
        return allowed
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        name, *reason = line.split(None, 1)
        if not reason:
            raise ValueError(f"{ALLOW_FILE}:{number}: {name} has no reason")
        if name in allowed:
            raise ValueError(f"{ALLOW_FILE}:{number}: {name} listed twice")
        allowed[name] = reason[0].strip()
    return allowed


def verdict(
    defs: list[Definition], allowed: dict[str, str]
) -> tuple[list[Definition], list[str]]:
    """The orphans not in ``allowed``, and the ``allowed`` names that are
    stale: no public definition of that name in ``src/`` lacks a caller
    there (it was deleted, or it gained one)."""
    orphans = [d for d in defs if not d.refs["src"]]
    unlisted = [d for d in orphans if d.name not in allowed]
    stale = sorted(set(allowed) - {d.name for d in orphans})
    return unlisted, stale


def format_rows(defs: list[Definition]) -> list[str]:
    head = f"{'name':<32} {'lines':>5} " + " ".join(
        f"{c:>5}" for c in ("src", "tests", "perf", "bench", "ex", "tools", "ci")
    ) + "  where"
    rows = [head]
    for d in defs:
        counts = " ".join(f"{d.refs[c]:>5}" for c in COLUMNS)
        rows.append(f"{d.name:<32} {d.lines:>5} {counts}  {d.path}:{d.line}")
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=REPO,
                        help="repository to count (default: this one)")
    parser.add_argument("names", nargs="*",
                        help="print these definitions' rows instead")
    args = parser.parse_args(argv)
    defs = census(args.root)
    if args.names:
        wanted = set(args.names)
        print("\n".join(format_rows([d for d in defs if d.name in wanted])))
        missing = wanted - {d.name for d in defs}
        for name in sorted(missing):
            print(f"{name}: no public top-level definition in src/")
        return 0
    try:
        allowed = allow_list(args.root)
    except ValueError as exc:
        print(exc)
        return 1
    orphans = [d for d in defs if not d.refs["src"]]
    print("\n".join(format_rows(orphans)))
    unlisted, stale = verdict(defs, allowed)
    for d in unlisted:
        print(f"unlisted: {d.name} ({d.path}:{d.line}) has no src/ caller "
              f"and no line in {ALLOW_FILE}")
    for name in stale:
        print(f"stale: {name} is listed in {ALLOW_FILE} but is gone from "
              f"src/ or has a src/ caller")
    print(
        f"{len(defs)} public definitions in src/; {len(orphans)} of them, "
        f"{sum(d.lines for d in orphans)} lines, have no src/ reference; "
        f"{len(unlisted)} unlisted, {len(stale)} stale"
    )
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
