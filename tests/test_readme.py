"""The README's Python API example runs, and uses only exported names."""

import contextlib
import io
import os
import re

import steinmle
import steinmle.montecarlo

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _api_block():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Python API", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_api_block_uses_exported_names():
    block = _api_block()
    assert set(re.findall(r"\bsm\.(\w+)", block)) <= set(steinmle.__all__)
    for names in re.findall(r"from steinmle\.montecarlo import ([\w, ]+)", block):
        assert {n.strip() for n in names.split(",")} <= set(steinmle.montecarlo.__all__)


def test_readme_api_block_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_api_block(), README, "exec"), {})
    assert "7460" in out.getvalue()  # the Beta(1.5, 1) minimal n the comment names
