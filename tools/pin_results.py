"""Pin the gated runs of one source tree, for tests/test_pinned_results.py.

    python3 tools/pin_results.py SRC > tests/pinned_results.json

SRC is a ``src`` directory that holds a ``cstar_jensen`` package. The script
runs every run of ``compare_results.gated_runs`` on it, each in a fresh
Python process exactly as ``compare_results.py`` runs it, and prints JSON:
the Python and numpy versions, and per run its argv, exit code and the
sha256 of its stdout and of its report's ``results`` array.
"""
from __future__ import annotations

import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

import compare_results as compare


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    src = Path(args[0]).resolve()
    if not (src / "cstar_jensen" / "__init__.py").is_file():
        print(f"error: {src} holds no cstar_jensen package", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        directory, workdir = Path(tmp), Path(tmp) / "work"
        workdir.mkdir()
        runs = [
            compare.pinned(argv_run, compare.run_one(src, argv_run, workdir), directory)
            for argv_run in compare.gated_runs(directory, src)
        ]
    pins = {"python": platform.python_version(), "numpy": np.__version__, "runs": runs}
    print(json.dumps(pins, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
