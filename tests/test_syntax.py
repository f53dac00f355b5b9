"""Checks of the tooling itself. The package declares `requires-python >=
3.10` but is tested on a newer interpreter: each source file must at least
parse as Python 3.10. And a failing property must report as a failure
under the repo's pytest settings, which turn every other warning into an
error."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_parses_as_python_3_10(path):
    """A best-effort check of syntax only: `feature_version` rejects most
    newer grammar (`except*`, PEP 695 type parameters), but a call into a
    newer standard library, or a newer construct the parser does not gate,
    still passes."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_failing_property_reports_as_a_failure(tmp_path):
    """Run from `tmp_path`, so Hypothesis writes its patch file there."""
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_below_five(x):\n"
        "    assert x < 5\n"
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "1 failed" in out and "INTERNALERROR" not in out, out
