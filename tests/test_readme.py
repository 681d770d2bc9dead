"""The README's example sessions, replayed through the CLI.

Every fenced block whose first line is ``$ cstar-jensen ...`` runs that
command through ``cli.cli_main`` and must print the block's other lines in
order; a line ``...`` skips ahead over any number of printed lines.
"""
import shlex
from pathlib import Path

import pytest

from cstar_jensen.cli import cli_main

README = Path(__file__).resolve().parent.parent / "README.md"
PROMPT = "$ cstar-jensen "


def sessions():
    """(command, expected lines) of every README block that starts with
    the prompt."""
    found, block = [], None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            if block and block[0].startswith(PROMPT):
                found.append((block[0][len(PROMPT):], block[1:]))
            block = [] if block is None else None
        elif block is not None:
            block.append(line)
    return found


def unmatched(expected, printed):
    """The first expected line the printed lines do not give, or None."""
    i, skipping = 0, False
    for line in expected:
        if line == "...":
            skipping = True
            continue
        if skipping:
            while i < len(printed) and printed[i] != line:
                i += 1
        if i == len(printed) or printed[i] != line:
            return line
        i, skipping = i + 1, False
    if not skipping and i < len(printed):
        return f"(nothing more expected, but printed {printed[i]!r})"
    return None


SESSIONS = sessions()


def test_readme_has_sessions():
    assert len(SESSIONS) >= 4


@pytest.mark.parametrize(("command", "expected"), SESSIONS, ids=[c for c, _ in SESSIONS])
def test_readme_session(command, expected, capsys):
    cli_main(shlex.split(command))
    printed = capsys.readouterr().out.splitlines()
    assert unmatched(expected, printed) is None, "\n".join(printed)

