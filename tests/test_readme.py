"""The README's library example runs as written: every name it imports
resolves and its asserts hold."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    """The Python fence under "## Library entry points"."""
    section = README.read_text(encoding="utf-8").split("\n## Library entry points\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_block_runs():
    block = library_block()
    assert "from commcycles import" in block
    exec(compile(block, str(README), "exec"), {})
