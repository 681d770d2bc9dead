"""Check that two source trees give byte-identical results.

    python3 tools/compare_results.py PARENT_SRC CHANGE_SRC

Each argument is a ``src`` directory that holds a ``cstar_jensen`` package.
For each tree, in a fresh Python process per run, the script runs
``verify`` on every bundled scenario at seeds 7 and 12345, ``decompose``
on the first mapping of every bundled scenario that has a pair,
``solve-kernel`` on every bundled scenario and on six scenario files with a
non-zero a-biadditive kernel that it writes to a temporary directory, and
``example-l2 --p 0.3 --n 6``. It then compares, run by run, the exit code,
the stdout (with the report path replaced by a placeholder) and, for
``verify`` and ``decompose``, the exact bytes of the report's ``results``
array. Only the timestamps and the digest outside ``results`` may differ.

Exit status: 0 when every run agrees, 1 on any difference, 2 when an
argument is not a source tree.
"""
from __future__ import annotations

import cmath
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (7, 12345)
REPORT_PLACEHOLDER = "<report>"
# the subcommands that write a report
REPORTING = ("verify", "decompose")


# Block-scalar coefficients whose kernel is not zero, by the rule of the
# benchmark's block_scalar_coefficient: block k holds c = (1 + e^{i theta})/2,
# block j holds Re c and any other block Re c -/+ 0.3; each for G ranks 1, 2.
KERNEL_CASES = (((1, 1), 0, 1, 1.1), ((2, 1), 1, 0, -2.0), ((1, 1, 1), 2, 0, 0.8))
KERNEL_RANKS = (1, 2)


def block_scalar(dims, values) -> dict:
    """The wire form of the element with values[b] * 1 on block b."""
    blocks = [
        [[[v.real, v.imag] if r == c else [0.0, 0.0] for c in range(n)] for r in range(n)]
        for v, n in zip(map(complex, values), dims)
    ]
    return {"shape": list(dims), "blocks": blocks}


def write_kernel_scenarios(directory: Path) -> list[Path]:
    paths = []
    for dims, k, j, theta in KERNEL_CASES:
        c = (1 + cmath.exp(1j * theta)) / 2
        values = [c.real + (0.3 if c.real < 0.5 else -0.3)] * len(dims)
        values[k], values[j] = c, c.real
        zero = block_scalar(dims, [0.0] * len(dims))
        for rank in KERNEL_RANKS:
            obj = {
                "algebra": list(dims),
                "coefficient": {**block_scalar(dims, values), "strict_order": False},
                "spaces": {"F": 1, "E": 1, "G": rank},
                "mappings": [
                    {"label": "zero", "map": {"kind": "linear", "coeffs": [[zero] * rank]}}
                ],
                "checks": ["eq-1.1"],
                "seed": 5 + rank,
            }
            path = directory / f"kernel_{''.join(map(str, dims))}_g{rank}.json"
            path.write_text(json.dumps(obj))
            paths.append(path)
    return paths


def scenario_paths(src: Path) -> list[Path]:
    return sorted((src / "cstar_jensen" / "scenarios").glob("*.json"))


def runs(paths) -> list[tuple[str, ...]]:
    verify = [
        ("verify", "--scenario", path.stem, "--seed", str(seed))
        for path in paths
        for seed in SEEDS
    ]
    decompose = []
    for path in paths:
        obj = json.loads(path.read_text())
        if obj.get("pair") is not None:
            label = obj["mappings"][0]["label"]
            decompose.append(("decompose", "--scenario", path.stem, "--mapping", label))
    kernel = [("solve-kernel", "--scenario", path.stem) for path in paths]
    return verify + decompose + kernel + [("example-l2", "--p", "0.3", "--n", "6")]


def results_bytes(text: str) -> str | None:
    """The exact text of the top-level results array of a report, or None."""
    key = '"results":'
    start = text.find(key)
    if start < 0:
        return None
    start += len(key)
    try:
        _, end = json.JSONDecoder().raw_decode(text, start)
    except json.JSONDecodeError:
        return None
    return text[start:end]


def run_one(src: Path, argv: tuple[str, ...], workdir: Path) -> dict:
    report = workdir / "report.json"
    report.unlink(missing_ok=True)
    if argv[0] in REPORTING:
        argv = (*argv, "--report", str(report))
    env = {k: v for k, v in os.environ.items() if k != "CSTAR_JENSEN_SEED"}
    env["PYTHONPATH"] = str(src)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "cstar_jensen.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=workdir,
    )
    results = results_bytes(report.read_text()) if report.exists() else None
    return {
        "code": proc.returncode,
        "stdout": proc.stdout.replace(str(report), REPORT_PLACEHOLDER),
        "stderr": proc.stderr,
        "results": results,
    }


def first_difference(a: str | None, b: str | None) -> str:
    if a is None or b is None:
        return f"present in one run only ({a is not None} vs {b is not None})"
    pos = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return f"first differs at byte {pos}: {a[pos:pos + 60]!r} vs {b[pos:pos + 60]!r}"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in args]
    for tree in trees:
        if not (tree / "cstar_jensen" / "__init__.py").is_file():
            print(f"error: {tree} holds no cstar_jensen package", file=sys.stderr)
            return 2
    paths = [scenario_paths(tree) for tree in trees]
    names = [[p.stem for p in tree_paths] for tree_paths in paths]
    if names[0] != names[1]:
        print(f"DIFF bundled scenarios: {names[0]} vs {names[1]}")
        return 1

    differences = 0
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [Path(tmp) / "parent", Path(tmp) / "change"]
        for d in dirs:
            d.mkdir()
        kernel_files = write_kernel_scenarios(Path(tmp))
        all_runs = runs(paths[0]) + [("solve-kernel", "--scenario", str(p)) for p in kernel_files]
        for argv_run in all_runs:
            parent, change = (run_one(t, argv_run, d) for t, d in zip(trees, dirs))
            label = " ".join(argv_run)
            problems = []
            if parent["code"] != change["code"]:
                problems.append(f"exit code {parent['code']} vs {change['code']}")
            if parent["stdout"] != change["stdout"]:
                problems.append("stdout " + first_difference(parent["stdout"], change["stdout"]))
            if parent["results"] != change["results"]:
                problems.append(
                    "results " + first_difference(parent["results"], change["results"])
                )
            if argv_run[0] in REPORTING and parent["results"] is None:
                problems.append("no report written: " + parent["stderr"].strip()[-200:])
            if problems:
                differences += 1
                print(f"DIFF {label}")
                for problem in problems:
                    print(f"  {problem}")
            else:
                print(f"same {label} (exit {parent['code']})")
    total = len(all_runs)
    print(f"{total - differences} of {total} runs identical")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
