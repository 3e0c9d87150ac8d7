"""The docs gate's citation pass: program files cite only markdown that exists."""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.check_docs import CITING_DIRS, dangling_citations  # noqa: E402


def test_missing_citation_is_reported(tmp_path):
    source = tmp_path / "module.py"
    source.write_text('"""Loaders.\n\nSee DESIGN.md for the mapping."""\n')
    assert dangling_citations(source) == [
        "line 3: cites DESIGN.md, which does not exist"]


def test_existing_citations_resolve(tmp_path):
    (tmp_path / "notes.md").write_text("# Notes\n")
    source = tmp_path / "module.py"
    source.write_text("# see notes.md, docs/serving.md and README.md\n")
    assert dangling_citations(source) == []


def test_program_trees_cite_no_missing_markdown():
    dangling = {str(path.relative_to(REPO_ROOT)): errors
                for directory in CITING_DIRS for path in directory.rglob("*.py")
                if (errors := dangling_citations(path))}
    assert dangling == {}
