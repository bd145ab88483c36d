#!/usr/bin/env python
"""Documentation accuracy checker (the ``docs-check`` CI job).

Three classes of doc rot this catches:

1. **Stale CLI invocations** — every ``repro ...`` / ``python -m repro
   ...`` command inside a fenced code block of ``README.md`` and
   ``docs/*.md`` is parsed against the *current* argparse surface
   (``repro.cli.build_parser``).  Nothing is executed: a command passes
   when ``parse_args`` accepts it (or exits 0, e.g. ``--version``).
   A renamed flag or removed subcommand fails the build instead of
   silently rotting in the docs.

2. **Dead intra-repo links** — every relative markdown link in the
   scanned files must resolve to an existing file.

3. **Environment knobs out of step** — a ``REPRO_*`` variable named in
   the scanned files but read nowhere under ``src/`` (a deleted knob
   lingering in the docs), or read under ``src/`` but documented in none
   of them.

Usage: ``python tools/check_docs.py [--verbose]`` from the repo root
(or anywhere; paths are resolved relative to this file).  Exit 0 =
clean, 1 = findings (each printed as ``file:line: problem``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: files scanned for commands and links
DOC_GLOBS = ("README.md", "docs/*.md")

_FENCE = re.compile(r"^(`{3,}|~{3,})")
#: [text](target) — target split from an optional #anchor
_LINK = re.compile(r"\[[^\]^\[]*\]\(([^)#\s]+)(?:#[^)]*)?\)")
#: an environment-variable assignment prefix (VAR=value cmd ...)
_ENV_PREFIX = re.compile(r"^[A-Z_][A-Z0-9_]*=\S+$")
_ENV_VAR = re.compile(r"\bREPRO_[A-Z0-9_]+\b")
#: how ``src/`` reads one: environ.get("X"), environ["X"], getenv("X")
_ENV_READ = re.compile(
    r"""(?:environ(?:\.get)?\s*[\[(]|getenv\s*\()\s*["'](REPRO_[A-Z0-9_]+)["']"""
)


def doc_files() -> list[Path]:
    files: list[Path] = []
    for pattern in DOC_GLOBS:
        files.extend(sorted(REPO.glob(pattern)))
    return files


def fenced_lines(text: str):
    """Yield ``(lineno, line)`` for lines inside fenced code blocks."""
    fence = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        m = _FENCE.match(stripped)
        if m:
            if fence is None:
                fence = m.group(1)[0] * 3
            elif stripped.startswith(fence):
                fence = None
            continue
        if fence is not None:
            yield lineno, line


def extract_commands(text: str) -> list[tuple[int, str]]:
    """``repro`` command lines in fenced blocks, continuations joined."""
    commands: list[tuple[int, str]] = []
    pending: tuple[int, str] | None = None
    for lineno, raw in fenced_lines(text):
        line = raw.strip()
        if pending is not None:
            start, acc = pending
            joined = acc + " " + line
            if joined.endswith("\\"):
                pending = (start, joined[:-1].strip())
            else:
                commands.append((start, joined))
                pending = None
            continue
        if line.startswith("$ "):  # console-style prompt
            line = line[2:].strip()
        if not line or line.startswith("#"):
            continue
        words = line.split()
        # drop env prefixes: PYTHONPATH=src REPRO_BENCH_SCALE=full cmd ...
        while words and _ENV_PREFIX.match(words[0]):
            words = words[1:]
        if not words:
            continue
        is_repro = words[0] == "repro" or (
            len(words) >= 3
            and words[0] == "python"
            and words[1] == "-m"
            and words[2] in ("repro", "repro.cli")
        )
        if not is_repro:
            continue
        # echoed program output, not an invocation: "repro verify: seed=0 ..."
        subcmd = words[1] if words[0] == "repro" else words[3:4] and words[3]
        if isinstance(subcmd, str) and subcmd.endswith(":"):
            continue
        cmd = " ".join(words)
        if cmd.endswith("\\"):
            pending = (lineno, cmd[:-1].strip())
        else:
            commands.append((lineno, cmd))
    if pending is not None:
        commands.append(pending)
    return commands


def command_argv(cmd: str) -> list[str]:
    """Shell-split a doc command into the argv seen by ``repro``."""
    words = shlex.split(cmd, comments=True)
    if words and words[0] == "python":
        words = words[3:]  # python -m repro[.cli]
    else:
        words = words[1:]  # repro
    return words


def check_command(parser: argparse.ArgumentParser, argv: list[str]) -> str | None:
    """Parse one argv; return an error message or None.  Never executes."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stderr(sink), contextlib.redirect_stdout(sink):
            parser.parse_args(argv)
    except SystemExit as exc:  # argparse error (or --help/--version: code 0)
        if exc.code not in (0, None):
            detail = sink.getvalue().strip().splitlines()
            return detail[-1] if detail else f"exit {exc.code}"
    return None


def _rel(path: Path) -> Path:
    try:
        return path.relative_to(REPO)
    except ValueError:  # scanned file outside the repo (tests)
        return path


def check_links(path: Path, text: str) -> list[str]:
    problems = []
    fenced = {lineno for lineno, _ in fenced_lines(text)}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if lineno in fenced:
            continue
        for m in _LINK.finditer(line):
            target = m.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            resolved = (path.parent / target).resolve()
            if not resolved.exists():
                problems.append(
                    f"{_rel(path)}:{lineno}: dead link -> {target}"
                )
    return problems


def env_vars(paths, pattern: re.Pattern) -> dict[str, str]:
    """``REPRO_*`` name -> ``file:line`` of its first match in ``paths``."""
    found: dict[str, str] = {}
    for path in paths:
        text = path.read_text(encoding="utf-8")
        for m in pattern.finditer(text):
            name = m.group(m.lastindex or 0)
            lineno = text.count("\n", 0, m.start()) + 1
            found.setdefault(name, f"{_rel(path)}:{lineno}")
    return found


def check_env_vars(documented: dict[str, str], read: dict[str, str]) -> list[str]:
    problems = [
        f"{where}: {name} is documented but read nowhere under src/"
        for name, where in sorted(documented.items())
        if name not in read
    ]
    problems += [
        f"{where}: {name} is read but documented in none of "
        f"{', '.join(DOC_GLOBS)}"
        for name, where in sorted(read.items())
        if name not in documented
    ]
    return problems


def main(argv: list[str] | None = None) -> int:
    opts = argparse.ArgumentParser(description=__doc__)
    opts.add_argument("--verbose", action="store_true")
    args = opts.parse_args(argv)

    sys.path.insert(0, str(REPO / "src"))
    from repro.cli import build_parser

    parser = build_parser()
    problems: list[str] = []
    n_commands = 0
    for path in doc_files():
        text = path.read_text(encoding="utf-8")
        for lineno, cmd in extract_commands(text):
            n_commands += 1
            error = check_command(parser, command_argv(cmd))
            if error:
                problems.append(
                    f"{_rel(path)}:{lineno}: "
                    f"does not parse: `{cmd}` ({error})"
                )
            elif args.verbose:
                print(f"ok: {_rel(path)}:{lineno}: {cmd}")
        problems.extend(check_links(path, text))
    problems.extend(check_env_vars(
        env_vars(doc_files(), _ENV_VAR),
        env_vars(sorted((REPO / "src").rglob("*.py")), _ENV_READ),
    ))

    for problem in problems:
        print(problem)
    print(
        f"docs-check: {n_commands} commands parsed across "
        f"{len(doc_files())} files, {len(problems)} problem(s)"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
