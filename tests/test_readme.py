"""Every ```python block of README.md runs as written, so the documented
API cannot drift from the code."""

import re
from pathlib import Path

import pytest

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
# (line number of the block's first line, its code)
BLOCKS = [(README.count("\n", 0, m.start(1)) + 1, m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```$", README, re.M | re.S)]


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"line-{line}" for line, _ in BLOCKS])
def test_readme_python_block_runs(line, code):
    # padded with newlines, so a traceback names the README's own line
    exec(compile("\n" * (line - 1) + code, "README.md", "exec"), {"__name__": "readme"})
