"""Run two trees' benchmark in order-alternated pairs, and compare them.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W --pairs N --seed S [S ...]

Each tree is a checkout root that holds ``perfbench/run.py`` and ``src``.
Pair i runs ``perfbench/run.py --workload W --seed S --seconds 20 --trace 0``
once in each tree, one after the other, with Python's byte-code cache off.
Of k seeds, pair i takes seed i mod k. Its order (``schedule``) flips
from one seed to the next within a round of k pairs, and from one round
to the next for each seed: each seed meets both orders, and a machine that
drifts during a pair does not favour one tree. With one seed the parent
runs first in even pairs and the change first in odd ones.

A tree whose ``src`` or ``perfbench`` holds a ``__pycache__`` is refused:
compiled byte-code in one tree alone changes its start-up figures.

The script prints every run's end-to-end metrics, as the last line of
``run.py``'s standard output gives them, then each tree's median of each
metric, then each pair's change/parent ratio of each metric, then one
decision line per metric. By the metric's ``better`` direction in the
parent tree's ``BENCHMARK.json`` that line counts the pairs the change
won (a tie counts for neither tree), gives the parent's quartiles, and
says whether the change's median is better than the parent's by more
than the parent's interquartile range: a gain is worth claiming when the
change wins nearly every pair and that answer is yes. It writes nothing
but what ``run.py`` writes in its own tree.

Exit status: 0 when every run is ``correct``, 1 when a run is not or gives
no result, 2 on a bad argument or a tree that holds byte-code, before any
run.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

TREES = ("parent", "change")
SECONDS = 20
# run.py ends within its own budget of 170 s
RUN_TIMEOUT_S = 300
# the directories of a tree whose byte-code would change what it measures
SOURCES = ("src", "perfbench")


def run_once(tree: Path, workload: str, seed: int) -> dict | None:
    """The result object of one run of the tree's benchmark, or None when
    it printed none."""
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        argv, cwd=tree, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    return parse_result(done.stdout)


def schedule(pairs: int, seeds) -> list[tuple[int, int, tuple[str, str]]]:
    """(pair, seed, trees in run order) of each pair: of k seeds, pair i
    takes seed i mod k, and the parent runs first when its round i // k
    and its seed's index i mod k are both even or both odd."""
    k = len(seeds)
    return [
        (pair, seeds[pair % k], TREES if (pair // k + pair % k) % 2 == 0 else TREES[::-1])
        for pair in range(pairs)
    ]


def byte_code(tree: Path) -> Path | None:
    """The first __pycache__ directory under the tree's SOURCES, or None."""
    return next((p for name in SOURCES for p in sorted((tree / name).rglob("__pycache__"))), None)


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


def directions(tree: Path) -> dict[str, str]:
    """The better direction ("lower" or "higher") of each end-to-end metric
    that the tree's BENCHMARK.json declares; none when it has no such file."""
    path = tree / "BENCHMARK.json"
    if not path.is_file():
        return {}
    return {m["name"]: m["better"] for m in json.loads(path.read_text()).get("end_to_end", [])}


def quartiles(values) -> tuple[float, float]:
    """The first and third quartiles of values, linearly interpolated
    between the order statistics (numpy's default percentile)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def decision(name: str, better: str | None, pairs) -> str:
    """The decision line of one metric over pairs, a list of (parent,
    change) values with None for a run that gave none."""
    if better not in ("lower", "higher"):
        return f"{name}: no better direction in the parent's BENCHMARK.json"
    sign = 1 if better == "higher" else -1
    both = [(old, new) for old, new in pairs if old is not None and new is not None]
    won = sum(sign * (new - old) > 0 for old, new in both)
    old = [o for o, _ in pairs if o is not None]
    new = [n for _, n in pairs if n is not None]
    if not old or not new:
        return f"{name} ({better} is better): change better in {won} of {len(both)} pairs"
    q1, q3 = quartiles(old)
    gain = sign * (statistics.median(new) - statistics.median(old))
    return (
        f"{name} ({better} is better): change better in {won} of {len(both)} pairs; "
        f"parent quartiles {_number(q1)}-{_number(q3)}; median better by {_number(gain)}, "
        f"more than the parent's IQR {_number(q3 - q1)}: {'yes' if gain > q3 - q1 else 'no'}"
    )


def summarize(runs, better=None) -> tuple[list[str], bool]:
    """The report lines of runs, a list of (pair, tree, seed, result) with
    result None for a run that gave none, and whether every run was correct.
    better maps a metric's name to its better direction, "lower" or
    "higher", for the decision lines."""
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
    pairs = sorted({pair for pair, _ in values})
    for pair in pairs:
        old, new = (values[pair, tree] for tree in TREES)
        ratios = [n / o if o and n is not None else None for o, n in zip(old, new)]
        lines.append(_line(pair, "", "", "", [_number(r, ".4f") for r in ratios]))
    lines.append("decisions")
    for k, name in enumerate(names):
        column = [tuple(values[pair, tree][k] for tree in TREES) for pair in pairs]
        lines.append(decision(name, (better or {}).get(name), column))
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
    for name, tree in trees.items():
        cache = byte_code(tree)
        if cache is not None:
            print(f"error: the {name} tree holds compiled byte-code in {cache}", file=sys.stderr)
            return 2
    runs = []
    for pair, seed, order in schedule(args.pairs, args.seed):
        for tree in order:
            result = run_once(trees[tree], args.workload, seed)
            runs.append((pair, tree, seed, result))
            print(f"pair {pair} {tree} seed {seed}: {json.dumps(result)}", file=sys.stderr)
    lines, all_correct = summarize(runs, directions(trees["parent"]))
    print("\n".join(lines))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
