"""The README against the code it describes.

Every fenced block whose first line is ``$ cstar-jensen ...`` runs that
command through ``cli.cli_main`` and must print the block's other lines in
order; a line ``...`` skips ahead over any number of printed lines. Every
module-qualified name the README cites in inline code, such as
``alg.stack_blocks``, must be an attribute of its module.
"""
import re
import shlex
from pathlib import Path

import pytest

from cstar_jensen import algebra, cli, harness, hilbert, identities, mappings
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



# the module of each prefix the README qualifies names with
MODULES = {
    "alg": algebra, "hb": hilbert, "mp": mappings, "idn": identities, "harness": harness,
    "identities": identities, "algebra": algebra, "hilbert": hilbert, "mappings": mappings,
    "cli": cli,
}
QUALIFIED = re.compile(r"(?<![\w.])(" + "|".join(MODULES) + r")\.([A-Za-z_]\w*)")


def cited_names():
    """(prefix, name) of every module-qualified name in the README's inline
    code, outside fenced blocks, each once; a file name such as
    ``identities.py`` is not one."""
    text = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"), flags=re.S | re.M)
    spans = re.findall(r"`([^`]+)`", text)
    found = (hit for span in spans for hit in QUALIFIED.findall(span))
    return list(dict.fromkeys(hit for hit in found if hit[1] != "py"))


CITED = cited_names()


def test_readme_cites_code():
    assert len(CITED) >= 10


@pytest.mark.parametrize(("prefix", "name"), CITED, ids=[f"{p}.{n}" for p, n in CITED])
def test_readme_name_resolves(prefix, name):
    assert hasattr(MODULES[prefix], name)
