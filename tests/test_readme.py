"""The README's library example runs as written: every name it imports
resolves and its asserts hold.  Its two CLI tables state what `cli` reads."""

import re
from pathlib import Path

from commcycles import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    """The Python fence under "## Library entry points"."""
    section = README.read_text(encoding="utf-8").split("\n## Library entry points\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_block_runs():
    block = library_block()
    assert "from commcycles import" in block
    exec(compile(block, str(README), "exec"), {})


def cli_table(header: str) -> dict[str, tuple[str, ...]]:
    """The table under this header row, as name -> flags in the order listed
    (dashes as underscores), one entry per name of a row."""
    lines = README.read_text(encoding="utf-8").split(f"\n{header}\n|---|---|\n", 1)[1].split("\n")
    table = {}
    for line in lines[: next(i for i, line in enumerate(lines) if not line.startswith("|"))]:
        names, flags = line.strip("|").split("|")
        reads = tuple(flag.lstrip("-").replace("-", "_") for flag in re.findall(r"`([^`]+)`", flags))
        table.update(dict.fromkeys(re.findall(r"`([^`]+)`", names), reads))
    return table


def test_cli_tables_match_the_code():
    assert cli_table("| command | global flags |") == cli._READS
    assert cli_table("| `mc` identity | identity options |") == {identity: opts for identity, (_, opts) in cli._MC.items()}
