"""Each fenced `python` block of README.md runs as written, so an API change
that breaks a documented example fails here."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text: str):
    """`(line, code)` of each fenced `python` block, `line` being the
    1-based README line of its first line of code."""
    for match in re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S):
        yield text.count("\n", 0, match.start(1)) + 1, match.group(1)


def test_readme_python_examples_run():
    blocks = list(python_blocks(README.read_text()))
    assert blocks
    for line, code in blocks:
        # Padded to its README line, so a traceback names that line.
        exec(compile("\n" * (line - 1) + code, str(README), "exec"), {})
