"""The README's library tour runs as written, so deleting or renaming a
documented name fails the suite."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_library_tour_runs():
    blocks = python_blocks()
    assert blocks, "README.md has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
