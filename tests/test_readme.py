"""Every ```python block of README.md runs as written, so a public name the
README uses cannot be renamed or deleted without this test failing."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})
