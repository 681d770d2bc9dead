"""Run two trees' benchmark in order-alternated pairs, and compare them.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W --pairs N --seed S [S ...]

Each tree is a checkout root that holds ``perfbench/run.py`` and ``src``.
Pair i runs ``perfbench/run.py --workload W --seed S --seconds 20 --trace 0``
once in each tree, one after the other: the parent first in even pairs and
the change first in odd ones, so a machine that drifts during a pair does
not favour one tree. With several seeds, pair i takes seed i mod their
number.

The script prints every run's end-to-end metrics, as the last line of
``run.py``'s standard output gives them, then each tree's median of each
metric, then each pair's change/parent ratio of each metric. It writes
nothing but what ``run.py`` writes in its own tree.

Exit status: 0 when every run is ``correct``, 1 when a run is not or gives
no result, 2 on a bad argument.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

TREES = ("parent", "change")
SECONDS = 20
# run.py ends within its own budget of 170 s
RUN_TIMEOUT_S = 300


def run_once(tree: Path, workload: str, seed: int) -> dict | None:
    """The result object of one run of the tree's benchmark, or None when
    it printed none."""
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    return parse_result(done.stdout)


def parse_result(stdout: str) -> dict | None:
    """The JSON object on the last line of run.py's standard output."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def _line(pair, tree, seed, correct, cells) -> str:
    return f"{pair:>4} {tree:<6} {seed:>6} {correct:<7} " + " ".join(f"{c:>14}" for c in cells)


def _number(value, spec=".6g") -> str:
    return "-" if value is None else format(value, spec)


def summarize(runs) -> tuple[list[str], bool]:
    """The report lines of runs, a list of (pair, tree, seed, result) with
    result None for a run that gave none, and whether every run was correct."""
    names = []
    for *_, result in runs:
        for name in (result or {}).get("metrics", {}):
            if name not in names:
                names.append(name)
    lines = [_line("pair", "tree", "seed", "correct", names)]
    values = {}
    all_correct = True
    for pair, tree, seed, result in runs:
        correct = bool(result and result.get("correct"))
        all_correct &= correct
        metrics = (result or {}).get("metrics", {})
        values[pair, tree] = [metrics[n]["value"] if n in metrics else None for n in names]
        lines.append(_line(pair, tree, seed, str(correct).lower(), map(_number, values[pair, tree])))
    lines.append("medians")
    for tree in TREES:
        cells = []
        for column in zip(*(row for (_, t), row in values.items() if t == tree)):
            got = [v for v in column if v is not None]
            cells.append(_number(statistics.median(got) if got else None))
        lines.append(_line("", tree, "", "", cells))
    lines.append("change / parent")
    for pair in sorted({pair for pair, _ in values}):
        old, new = (values[pair, tree] for tree in TREES)
        ratios = [n / o if o and n is not None else None for o, n in zip(old, new)]
        lines.append(_line(pair, "", "", "", [_number(r, ".4f") for r in ratios]))
    return lines, all_correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for name, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file():
            print(f"error: the {name} tree {tree} holds no perfbench/run.py", file=sys.stderr)
            return 2
    if args.pairs < 1:
        print("error: --pairs must be at least 1", file=sys.stderr)
        return 2
    runs = []
    for pair in range(args.pairs):
        seed = args.seed[pair % len(args.seed)]
        for tree in TREES if pair % 2 == 0 else TREES[::-1]:
            result = run_once(trees[tree], args.workload, seed)
            runs.append((pair, tree, seed, result))
            print(f"pair {pair} {tree} seed {seed}: {json.dumps(result)}", file=sys.stderr)
    lines, all_correct = summarize(runs)
    print("\n".join(lines))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
