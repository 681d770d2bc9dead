"""Time harness.run_suite, emit_report and the kernel solve on two source
trees in one process, alternating.

    python3 tools/bench_inprocess.py PARENT_SRC CHANGE_SRC SCENARIO [SCENARIO ...]
        [--rounds N] [--samples N]

Each tree is a ``src`` directory that holds a ``cstar_jensen`` package. The
package of each is copied into one temporary directory under a name of its
own, ``cstar_jensen_parent`` and ``cstar_jensen_change``. Every import
inside the package is relative, so both copies load side by side in this
one process, on the same numpy and the same BLAS. Each copy reads every
scenario file with its own ``harness.load_scenario``, once, before any
timing; ``--samples N`` overrides each file's sample count, as the CLI's
``--samples`` does.

A round times, with ``time.perf_counter``, one ``run_suite`` call of each
tree on each scenario, then its ``emit_report`` of that report into a
file in the temporary directory, so that work moved from the checks into
the report shows as such, and then what ``solve-kernel`` computes on the
scenario: ``mappings.solve_abiadditive_kernel`` of its coefficient in G
and ``kernel_constraint_residual`` of every member at the CLI's seeds
(``--samples`` does not apply to it; a kernel the solver refuses times
the refusal). The parent goes first in even rounds and the change
first in odd ones, so a machine that drifts during a round favours
neither. Before the first round each tree runs and writes every scenario
once, untimed, to fill its caches, and then runs ``run_suite`` on it once
more, untimed, under ``tracemalloc``.

For each scenario and each of the three stages the script prints each tree's
best and median time, the change/parent ratio of the medians, and in how
many rounds the change was the faster; then each tree's ``tracemalloc``
peak of that untimed ``run_suite`` call. Set ``OPENBLAS_NUM_THREADS=1`` in
the environment to time one BLAS thread. Exit status: 0, or 2 on a bad
argument.
"""
from __future__ import annotations

import argparse
import importlib
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

TREES = ("parent", "change")
STAGES = ("run_suite", "emit_report", "solve_kernel")
PACKAGE = "cstar_jensen"
ROUNDS = 10


def load_copy(src: Path, name: str, directory: Path):
    """src's package, copied into directory as the package
    ``cstar_jensen_<name>`` and imported from there with its harness."""
    alias = f"{PACKAGE}_{name}"
    shutil.copytree(src / PACKAGE, directory / alias, ignore=shutil.ignore_patterns("__pycache__"))
    importlib.import_module(f"{alias}.harness")
    return importlib.import_module(alias)


def solve_kernel(package, scenario) -> None:
    """solve-kernel's work on scenario, without its printing: the kernel of
    the coefficient in G, and each member's re-verification at seed
    [scenario seed, member index]; a refused kernel ends it."""
    mappings, a = package.mappings, scenario.coefficient
    try:
        solution = mappings.solve_abiadditive_kernel(a, scenario.space_g)
    except package.errors.DomainError:
        return
    for i, member in enumerate(solution.basis):
        mappings.kernel_constraint_residual(member, a, seed=[scenario.seed, i])


def time_call(package, scenario, report_path) -> tuple[float, float, float]:
    """The wall times in seconds of one run_suite call, of emit_report of
    its report into report_path and of solve_kernel, in STAGES order."""
    harness = package.harness
    start = time.perf_counter()
    report = harness.run_suite(scenario)
    ran = time.perf_counter()
    harness.emit_report(report, report_path)
    emitted = time.perf_counter()
    solve_kernel(package, scenario)
    return ran - start, emitted - ran, time.perf_counter() - emitted


def traced_peak(package, scenario) -> int:
    """The tracemalloc peak, in bytes, of one run_suite call."""
    tracemalloc.start()
    try:
        package.harness.run_suite(scenario)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def measure(trees: dict, paths, rounds: int, report_path, samples=None) -> tuple[dict, dict]:
    """({path: {stage: {tree: [seconds per round]}}}, {path: {tree: peak
    bytes}}): each tree's package on its own scenarios, with the order of
    the trees flipping from round to round."""
    scenarios = {
        tree: [pkg.harness.load_scenario(p, samples=samples) for p in paths] for tree, pkg in trees.items()
    }
    peaks = {p: {} for p in paths}
    for tree, package in trees.items():
        for path, scenario in zip(paths, scenarios[tree]):
            time_call(package, scenario, report_path)
            peaks[path][tree] = traced_peak(package, scenario)
    times = {p: {stage: {tree: [] for tree in trees} for stage in STAGES} for p in paths}
    for rnd in range(rounds):
        order = TREES if rnd % 2 == 0 else TREES[::-1]
        for i, path in enumerate(paths):
            for tree in order:
                seconds = time_call(trees[tree], scenarios[tree][i], report_path)
                for stage, t in zip(STAGES, seconds):
                    times[path][stage][tree].append(t)
    return times, peaks


def summary(times: dict, peaks: dict) -> list[str]:
    """Per scenario and stage, one line per tree with its best and median
    time in ms, and one with the ratio of the medians and the rounds the
    change won; then per scenario one line per tree with its peak in MB."""
    lines = []
    for path, per_stage in times.items():
        for stage, per_tree in per_stage.items():
            for tree in TREES:
                t = per_tree[tree]
                lines.append(
                    f"{path} {stage} {tree}: best {min(t) * 1e3:.3f} ms,"
                    f" median {statistics.median(t) * 1e3:.3f} ms"
                )
            old, new = per_tree["parent"], per_tree["change"]
            ratio = statistics.median(new) / statistics.median(old)
            wins = sum(n < o for o, n in zip(old, new))
            lines.append(
                f"{path} {stage} change/parent median {ratio:.3f},"
                f" change faster in {wins} of {len(old)} rounds"
            )
        for tree in TREES:
            peak = peaks[path][tree] / 2**20
            lines.append(f"{path} run_suite {tree}: tracemalloc peak {peak:.1f} MB")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("scenarios", nargs="+", type=Path)
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    parser.add_argument("--samples", type=int)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.samples is not None and args.samples < 1:
        parser.error("--samples must be at least 1")
    for src in (args.parent, args.change):
        if not (src / PACKAGE / "__init__.py").is_file():
            parser.error(f"{src} holds no {PACKAGE} package")
    for path in args.scenarios:
        if not path.is_file():
            parser.error(f"no scenario file {path}")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            trees = {tree: load_copy(src.resolve(), tree, Path(tmp))
                     for tree, src in zip(TREES, (args.parent, args.change))}
            paths = [str(p) for p in args.scenarios]
            report = Path(tmp) / "report.json"
            times, peaks = measure(trees, paths, args.rounds, report, args.samples)
        finally:
            sys.path.remove(tmp)
    print("\n".join(summary(times, peaks)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
