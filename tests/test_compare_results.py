"""tools/compare_results.py: the solve-kernel rule under --verdicts, and
the runner that gives each tree's runs one process."""
import importlib.util
import math
import shutil
from pathlib import Path

import pytest

import cstar_jensen
from cstar_jensen import mappings as mp
from cstar_jensen.harness import SEED_ENV_VAR

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_results.py"
_spec = importlib.util.spec_from_file_location("compare_results", TOOL)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)
PACKAGE = Path(cstar_jensen.__file__).resolve().parent


def kernel_run(residuals, code=0, dimension=None, verdict="pass"):
    """The run record of a solve-kernel run that printed these residuals."""
    lines = [
        f"kernel dimension: {len(residuals) if dimension is None else dimension}",
        "singular values: smallest kept 3.536e-01, largest dropped 0.000e+00, threshold 5.617e-15",
    ]
    lines += [f"basis[{i}]: constraint residual {r:.3e}" for i, r in enumerate(residuals)]
    lines.append(f"re-verification {verdict} (worst {max(residuals):.3e}, bound 1.0e-08)")
    return {"code": code, "stdout": "\n".join(lines) + "\n", "stderr": "", "results": None}


def test_bound_is_the_packages():
    assert compare.KERNEL_RESIDUAL_TOL == mp.KERNEL_RESIDUAL_TOL


def test_other_residual_digits_agree():
    parent = kernel_run([4.3e-17, 9.6e-17, 0.0])
    change = kernel_run([7.2e-17, 8.3e-17, 1.1e-16])
    assert compare.kernel_problems(parent, change) == []
    assert compare.byte_problems(parent, change) != []


def test_the_zero_kernel_line_is_a_verdict():
    zero = {
        "code": 0,
        "stdout": "kernel dimension: 0\nsingular values: smallest kept 1.0e+00, "
        "largest dropped none, threshold 1.0e-15\n"
        "only the zero map intertwines both conjugations\n",
        "stderr": "",
        "results": None,
    }
    assert compare.kernel_problems(zero, zero) == []
    assert compare.kernel_problems(zero, kernel_run([1e-17])) != []


def test_each_compared_part_counts():
    parent = kernel_run([1e-17, 2e-17])
    for change in (
        kernel_run([1e-17, 2e-17], code=1),
        kernel_run([1e-17, 2e-17], dimension=3),
        kernel_run([1e-17, 2e-17, 3e-17]),
        kernel_run([1e-17, 2e-17], verdict="FAIL"),
    ):
        assert compare.kernel_problems(parent, change) != []


def test_a_residual_above_the_bound_counts_in_either_tree():
    good, bad = kernel_run([1e-17, 2e-17]), kernel_run([1e-17, 2e-7])
    assert "change: 1 residuals above" in " ".join(compare.kernel_problems(good, bad))
    assert "parent: 1 residuals above" in " ".join(compare.kernel_problems(bad, good))
    nan = kernel_run([1e-17, float("nan")])
    assert compare.kernel_problems(good, nan) != []


def test_the_last_line_gives_each_trees_largest_kernel_residual():
    parent = [kernel_run([4.3e-17, 9.6e-17])["stdout"], kernel_run([2.1e-16])["stdout"]]
    change = [kernel_run([0.0, 0.0])["stdout"], kernel_run([3.0e-17])["stdout"]]
    assert compare.largest_kernel_residual(parent) == 2.1e-16
    assert compare.kernel_residual_line(parent, change) == (
        "largest solve-kernel residual: parent 2.100e-16, change 3.000e-17"
    )


def test_a_nan_residual_is_the_largest_and_no_residual_reads_none():
    nan = [kernel_run([1e-17, float("nan"), 2e-17])["stdout"]]
    assert math.isnan(compare.largest_kernel_residual(nan))
    zero = "kernel dimension: 0\nonly the zero map intertwines both conjugations\n"
    assert compare.largest_kernel_residual([zero]) is None
    assert compare.kernel_residual_line([zero], nan) == (
        "largest solve-kernel residual: parent none, change nan"
    )


# docstrings, comments and blank lines around three lines of code, two of
# them a string that is no docstring
DOCUMENTED = '''"""The module.

Its docstring.
"""
# a comment

def f():
    """f's docstring."""
    return """two
    lines"""  # a trailing comment
'''


def test_the_line_count_is_wc_l_of_each_package(tmp_path):
    trees = [tmp_path / "parent", tmp_path / "change"]
    for tree, texts in zip(trees, (["a\nb\n", "c\n", DOCUMENTED], ["a\n", "no_newline"])):
        (tree / "cstar_jensen").mkdir(parents=True)
        for i, text in enumerate(texts):
            (tree / "cstar_jensen" / f"m{i}.py").write_text(text)
        (tree / "cstar_jensen" / "notes.txt").write_text("\n\n\n")
    assert compare.package_lines(trees[0]) == 13
    assert compare.code_lines(DOCUMENTED) == 3
    assert compare.line_count_line(trees) == (
        "lines of cstar_jensen/*.py: parent 13, change 1; holding code: parent 6, change 2"
    )


# A stand-in for a tree's CLI: each run prints where it runs, its argv and
# whether the seed variable is set; the subcommand "raise" raises, and
# "vanish" ends the process at once with status 0.
FAKE_CLI = f"""
import os


def cli_main(argv):
    print(os.getcwd())
    print(" ".join(argv))
    print({SEED_ENV_VAR!r} in os.environ)
    if argv[0] == "raise":
        raise RuntimeError("a raising run")
    if argv[0] == "vanish":
        os._exit(0)
    return 0
"""


def fake_tree(root: Path, init: str = "") -> Path:
    """A src directory whose cstar_jensen has the bundled scenarios, the
    fake CLI and init as its __init__."""
    package = root / "cstar_jensen"
    shutil.copytree(PACKAGE / "scenarios", package / "scenarios")
    (package / "__init__.py").write_text(init)
    (package / "cli.py").write_text(FAKE_CLI)
    return root


def test_run_tree_runs_every_argv_in_order_in_the_workdir(tmp_path, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "99")
    src, workdir = fake_tree(tmp_path / "src"), tmp_path / "work"
    workdir.mkdir()
    runs = [("solve-kernel", "--scenario", "kernel_probe"), ("verify", "--scenario", "x"), ("list-checks",)]
    records = compare.run_tree(src, runs, workdir)
    shown = ["solve-kernel --scenario kernel_probe", "verify --scenario x --report <report>", "list-checks"]
    assert records == [
        {"code": 0, "stdout": f"{workdir.resolve()}\n{argv}\nFalse\n", "stderr": "", "results": None}
        for argv in shown
    ]


def test_a_raising_run_leaves_its_traceback_in_its_record(tmp_path):
    src, workdir = fake_tree(tmp_path / "src"), tmp_path / "work"
    workdir.mkdir()
    raised, after = compare.run_tree(src, [("raise",), ("list-checks",)], workdir)
    assert raised["code"] == 1
    assert raised["stderr"].startswith("Traceback")
    assert "RuntimeError: a raising run" in raised["stderr"]
    assert after["code"] == 0 and after["stderr"] == ""


def test_a_tree_that_cannot_be_imported_exits_two_and_is_named(tmp_path, capsys):
    broken = fake_tree(tmp_path / "broken", init="raise RuntimeError('broken on import')\n")
    assert compare.main([str(broken), str(PACKAGE.parent)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: the process of {broken} exited 1")
    assert err.rstrip().endswith("RuntimeError: broken on import")


def test_a_process_that_gives_back_no_records_fails(tmp_path):
    src, workdir = fake_tree(tmp_path / "src"), tmp_path / "work"
    workdir.mkdir()
    with pytest.raises(compare.TreeFailed, match="exited 0 without a record per run"):
        compare.run_tree(src, [("list-checks",), ("vanish",)], workdir)
