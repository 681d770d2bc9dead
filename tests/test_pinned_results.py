"""The gated runs of tools/compare_results.py, run in this process.

tests/pinned_results.json holds, per run, the exit code and the sha256 of
the stdout and of the report's results array that the run gave in the
gate's process for its tree (tools/pin_results.py writes it). Each run here
goes through compare_results.run_in_process, the gate's one record
builder, with the seed environment variable unset and its report in a
temporary directory, and must give the same three values. The runs go
once in the gate's order and once reversed: state that one run leaves
behind for the next, such as a cache, would show as a difference.
"""
import importlib.util
import json
import platform
from pathlib import Path

import numpy as np
import pytest

import cstar_jensen
from cstar_jensen.harness import SEED_ENV_VAR

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_results.py"
_spec = importlib.util.spec_from_file_location("compare_results", TOOL)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)
PINS = Path(__file__).resolve().parent / "pinned_results.json"
SRC = Path(cstar_jensen.__file__).resolve().parent.parent


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_gated_runs_match_their_pins(tmp_path, monkeypatch, order):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    workdir = tmp_path / "work"
    workdir.mkdir()
    # a bundled scenario name is read as a path first, so run where none is
    monkeypatch.chdir(workdir)
    pins = json.loads(PINS.read_text())
    runs = compare.gated_runs(tmp_path, SRC)
    if order == "reversed":
        runs.reverse()
    got = [compare.pinned(argv, compare.run_in_process(argv, workdir), tmp_path) for argv in runs]
    want = {run["argv"]: run for run in pins["runs"]}
    differ = [run["argv"] for run in got if want.get(run["argv"]) != run]
    differ += sorted(set(want) - {run["argv"] for run in got})
    versions = (
        f"pinned with Python {pins['python']}, numpy {pins['numpy']}; "
        f"run with Python {platform.python_version()}, numpy {np.__version__}"
    )
    count = f"{len(differ)} of {len(pins['runs'])} runs differ"
    assert not differ, f"{count} ({versions}): " + "; ".join(differ)
