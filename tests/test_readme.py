"""README.md's Python examples run as written, each block on its own, under
the suite's settings (every warning an error)."""

import re
from pathlib import Path

import pytest

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
EXAMPLES = re.findall(r"^```python\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert EXAMPLES


@pytest.mark.parametrize("index", range(len(EXAMPLES)), ids=lambda index: f"block{index}")
def test_readme_example_runs(index):
    exec(compile(EXAMPLES[index], f"README.md python block {index}", "exec"), {})
