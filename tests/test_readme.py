"""Every ```python block of README.md runs as written, so the documented
API cannot drift from the code, and README's listing of the algebra
catalogs is what the oracle's printer prints of them."""

import re
from pathlib import Path

import pytest

from splitalg.identities import CATALOG_NAMES, catalog
from splitalg.model import SIGNATURE_OPS

from oracle import formula

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


def test_readme_lists_each_algebra_catalog_as_printed():
    listing = README[README.index("\n## The algebra catalogs\n"):]
    blocks = re.findall(r"^### (\S+)\n\n```text\n(.*?)^```$", listing, re.M | re.S)
    assert [name for name, _ in blocks] == [name for name in CATALOG_NAMES if name in SIGNATURE_OPS]
    for name, text in blocks:
        assert text == "".join(f"{s.id}: {formula(s)}\n" for s in catalog(name)), name
