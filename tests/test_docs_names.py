"""Docs name only what exists: every backticked dotted ``repro.…`` name
in the prose documents resolves by import + ``getattr``."""

import pkgutil
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
]
#: A backticked dotted name, bare or written as a call.
NAME = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)[`(]")
NAMES = sorted(
    {
        (path.name, name)
        for path in DOCUMENTS
        for name in NAME.findall(path.read_text(encoding="utf-8"))
    }
)


def test_the_documents_name_something():
    assert len(NAMES) >= 40


@pytest.mark.parametrize("document, name", NAMES)
def test_documented_name_resolves(document, name):
    try:
        pkgutil.resolve_name(name)
    except (ImportError, AttributeError) as error:
        pytest.fail(f"{document} names `{name}`, which does not exist: {error}")
