"""tools/bench_inprocess.py: an in-process A/B of run_suite, emit_report
and the kernel solve on two copies of this tree, loaded side by side under names of
their own."""
import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import cstar_jensen as cj
from cstar_jensen import harness
from cstar_jensen import mappings as mp

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_inprocess.py"
SCENARIOS = ROOT / "src" / "cstar_jensen" / "scenarios"


def tree_copy(directory: Path) -> Path:
    """A src directory holding a copy of this tree's package."""
    src = directory / "src"
    shutil.copytree(ROOT / "src" / "cstar_jensen", src / "cstar_jensen",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return src


def run(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=120)


def test_two_copies_time_every_scenario_in_alternating_rounds(tmp_path):
    parent, change = tree_copy(tmp_path / "parent"), tree_copy(tmp_path / "change")
    scenarios = [SCENARIOS / "constant_map.json", SCENARIOS / "kernel_probe.json"]
    done = run(parent, change, *scenarios, "--rounds", "3", "--samples", "5")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    stages = ("run_suite", "emit_report", "solve_kernel")
    # per scenario: three lines per stage, then each tree's traced peak
    per_scenario = 3 * len(stages) + 2
    assert len(lines) == per_scenario * len(scenarios)
    for path, chunk in zip(scenarios, (lines[i : i + per_scenario] for i in range(0, len(lines), per_scenario))):
        for k, stage in enumerate(stages):
            block = chunk[3 * k : 3 * k + 3]
            assert block[0].startswith(f"{path} {stage} parent: best ")
            assert " ms, median " in block[0]
            assert block[1].startswith(f"{path} {stage} change: best ")
            assert block[2].startswith(f"{path} {stage} change/parent median ")
            assert block[2].endswith("of 3 rounds")
        for line, tree in zip(chunk[-2:], ("parent", "change")):
            assert line.startswith(f"{path} run_suite {tree}: tracemalloc peak ")
            assert line.endswith(" MB")
    # the copies are loaded from a temporary directory, never from the trees
    assert not any(p.name == "__pycache__" for p in tmp_path.rglob("*"))


def test_a_tree_without_a_package_is_refused(tmp_path):
    done = run(tmp_path, tree_copy(tmp_path / "change"), SCENARIOS / "constant_map.json")
    assert done.returncode == 2
    assert "holds no cstar_jensen package" in done.stderr


def test_samples_below_one_are_refused(tmp_path):
    src = tree_copy(tmp_path / "tree")
    done = run(src, src, SCENARIOS / "constant_map.json", "--samples", "0")
    assert done.returncode == 2
    assert "--samples must be at least 1" in done.stderr


def test_a_missing_scenario_is_refused(tmp_path):
    src = tree_copy(tmp_path / "tree")
    done = run(src, src, tmp_path / "missing.json")
    assert done.returncode == 2
    assert "no scenario file" in done.stderr


def test_the_kernel_stage_reverifies_every_member_at_the_cli_seeds(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_inprocess", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    scenario = harness.load_scenario(str(SCENARIOS / "kernel_probe.json"))
    dimension = mp.solve_abiadditive_kernel(scenario.coefficient, scenario.space_g).dimension
    seeds, reverify = [], mp.kernel_constraint_residual
    monkeypatch.setattr(
        mp, "kernel_constraint_residual", lambda psi, a, seed: seeds.append(seed) or reverify(psi, a, seed=seed)
    )
    tool.solve_kernel(cj, scenario)
    assert dimension > 0
    assert seeds == [[scenario.seed, i] for i in range(dimension)]
