"""The package declares `requires-python >= 3.10` but is tested on a newer
interpreter: each source file must at least parse as Python 3.10."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src").rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_parses_as_python_3_10(path):
    """A best-effort check of syntax only: `feature_version` rejects most
    newer grammar (`except*`, PEP 695 type parameters), but a call into a
    newer standard library, or a newer construct the parser does not gate,
    still passes."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
