"""The gated runs of tools/compare_results.py, replayed in process.

tests/pinned_results.json holds, per run, the exit code and the sha256 of
the stdout and of the report's results array that the run gave in a fresh
process (tools/pin_results.py writes it). Each run here calls cli_main
with the seed environment variable unset, writes its report into a
temporary directory, and must give the same three values.
"""
import contextlib
import importlib.util
import io
import json
import platform
from pathlib import Path

import numpy as np

import cstar_jensen
from cstar_jensen.cli import cli_main
from cstar_jensen.harness import SEED_ENV_VAR

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_results.py"
_spec = importlib.util.spec_from_file_location("compare_results", TOOL)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)
PINS = Path(__file__).resolve().parent / "pinned_results.json"
SRC = Path(cstar_jensen.__file__).resolve().parent.parent


def replay(argv, workdir: Path) -> dict:
    """The run record compare_results.run_one makes of argv, from cli_main."""
    report = workdir / "report.json"
    report.unlink(missing_ok=True)
    if argv[0] in compare.REPORTING:
        argv = (*argv, "--report", str(report))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(list(argv))
    return {
        "code": code,
        "stdout": out.getvalue().replace(str(report), compare.REPORT_PLACEHOLDER),
        "results": compare.results_bytes(report.read_text()) if report.exists() else None,
    }


def test_gated_runs_match_their_pins(tmp_path, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    workdir = tmp_path / "work"
    workdir.mkdir()
    # a bundled scenario name is read as a path first, so run where none is
    monkeypatch.chdir(workdir)
    pins = json.loads(PINS.read_text())
    got = [
        compare.pinned(argv, replay(argv, workdir), tmp_path)
        for argv in compare.gated_runs(tmp_path, SRC)
    ]
    want = {run["argv"]: run for run in pins["runs"]}
    differ = [run["argv"] for run in got if want.get(run["argv"]) != run]
    differ += sorted(set(want) - {run["argv"] for run in got})
    versions = (
        f"pinned with Python {pins['python']}, numpy {pins['numpy']}; "
        f"run with Python {platform.python_version()}, numpy {np.__version__}"
    )
    count = f"{len(differ)} of {len(pins['runs'])} runs differ"
    assert not differ, f"{count} ({versions}): " + "; ".join(differ)
