#!/usr/bin/env python
"""Docs gate: markdown lint + executable-snippet smoke for ``docs/`` + README.

Two passes, no third-party dependencies (runs in CI and locally via
``python tools/check_docs.py``):

1. **Lint** every markdown file in ``docs/`` plus ``README.md``: code
   fences must be balanced and carry an info string (so the snippet runner
   knows what is executable), exactly one H1 per file, heading levels never
   skip, and every relative link target must exist in the repository.
2. **Cite** — every ``*.md`` file named in the python files of ``src/``,
   ``benchmarks/`` and ``examples/`` must exist, resolved against the
   repository root or the citing file's directory, so a docstring cannot
   send its reader to a document that is not there.
3. **Execute** the ``python`` code fences of the files listed in
   ``EXECUTABLE_DOCS``, in order, in one shared namespace per file — the
   same pattern as the examples CI step, so the documented serving
   walkthrough is guaranteed to run against the current code.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"
LINTED_FILES = sorted(DOCS_DIR.glob("*.md")) + [REPO_ROOT / "README.md"]
#: Docs whose ``python`` fences form one runnable, ordered walkthrough.
EXECUTABLE_DOCS = [DOCS_DIR / "serving.md", DOCS_DIR / "sharding.md",
                   DOCS_DIR / "kernels.md", DOCS_DIR / "benchmarks.md",
                   DOCS_DIR / "streaming.md",
                   DOCS_DIR / "static-analysis.md"]

#: Program trees whose markdown citations must resolve.
CITING_DIRS = [REPO_ROOT / "src", REPO_ROOT / "benchmarks", REPO_ROOT / "examples"]

_CITATION = re.compile(r"[\w./-]+\.md\b")
_FENCE = re.compile(r"^(```+)\s*(\S*)\s*$")
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^(#{1,6})\s+\S")


def _fences(text: str) -> List[Tuple[int, str, str]]:
    """(start_line, info_string, body) of every code fence in ``text``."""
    fences = []
    info = None
    start = 0
    body: List[str] = []
    for number, line in enumerate(text.splitlines(), start=1):
        match = _FENCE.match(line)
        if match and info is None:
            info, start, body = match.group(2), number, []
        elif match:
            fences.append((start, info, "\n".join(body)))
            info = None
        elif info is not None:
            body.append(line)
    if info is not None:
        raise ValueError(f"unbalanced code fence opened at line {start}")
    return fences


def lint(path: Path) -> List[str]:
    errors: List[str] = []
    text = path.read_text()
    try:
        fences = _fences(text)
    except ValueError as error:
        return [str(error)]
    for line, info, _ in fences:
        if not info:
            errors.append(f"line {line}: code fence without a language "
                          f"(use ```text for plain blocks)")

    # strip fence bodies before heading/link checks
    stripped: List[str] = []
    in_fence = False
    for line in text.splitlines():
        if _FENCE.match(line):
            in_fence = not in_fence
            continue
        if not in_fence:
            stripped.append(line)

    levels = [len(match.group(1)) for line in stripped
              if (match := _HEADING.match(line))]
    if levels.count(1) != 1:
        errors.append(f"expected exactly one H1, found {levels.count(1)}")
    for previous, current in zip(levels, levels[1:]):
        if current > previous + 1:
            errors.append(f"heading level jumps from h{previous} to h{current}")

    for line_number, line in enumerate(stripped, start=1):
        for target in _LINK.findall(line):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            relative = target.split("#", 1)[0]
            if relative and not (path.parent / relative).exists():
                errors.append(f"broken link target {target!r}")
    return errors


def dangling_citations(path: Path) -> List[str]:
    """The ``*.md`` files a program file cites that do not exist."""
    return [f"line {number}: cites {cited}, which does not exist"
            for number, line in enumerate(path.read_text().splitlines(), start=1)
            for cited in _CITATION.findall(line)
            if not any((base / cited).exists() for base in (REPO_ROOT, path.parent))]


def run_snippets(path: Path) -> int:
    """Execute the ``python`` fences of one doc in a shared namespace."""
    namespace: dict = {"__name__": f"docs_snippet:{path.name}"}
    executed = 0
    for line, info, body in _fences(path.read_text()):
        if info != "python":
            continue
        try:
            exec(compile(body, f"{path}:{line}", "exec"), namespace)
        except Exception as error:  # noqa: BLE001 - report and fail the gate
            raise SystemExit(
                f"FAIL {path.relative_to(REPO_ROOT)} snippet at line {line}: "
                f"{type(error).__name__}: {error}") from error
        executed += 1
    return executed


def main() -> int:
    if not DOCS_DIR.is_dir():
        print("docs/ directory missing", file=sys.stderr)
        return 1
    failures = 0
    for path in LINTED_FILES:
        errors = lint(path)
        for error in errors:
            print(f"LINT {path.relative_to(REPO_ROOT)}: {error}",
                  file=sys.stderr)
        failures += len(errors)
    cited = sorted(path for directory in CITING_DIRS for path in directory.rglob("*.py"))
    for path in cited:
        errors = dangling_citations(path)
        for error in errors:
            print(f"CITE {path.relative_to(REPO_ROOT)}: {error}", file=sys.stderr)
        failures += len(errors)
    if failures:
        return 1
    for path in EXECUTABLE_DOCS:
        executed = run_snippets(path)
        print(f"OK {path.relative_to(REPO_ROOT)}: lint clean, "
              f"{executed} python snippets executed")
    others = [p for p in LINTED_FILES if p not in EXECUTABLE_DOCS]
    print(f"OK {len(others)} further files lint clean: "
          + ", ".join(str(p.relative_to(REPO_ROOT)) for p in others))
    print(f"OK {len(cited)} python files under src/, benchmarks/, examples/ "
          f"cite only markdown files that exist")
    return 0


if __name__ == "__main__":
    sys.exit(main())
