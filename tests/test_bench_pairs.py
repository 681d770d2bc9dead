"""tools/bench_pairs.py: its reading of run.py's result line and its summary,
on canned result lines, with no benchmark run."""
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def stdout(p50, rate, correct=True):
    """run.py's standard output for a run with these metrics."""
    metrics = {"task_p50_s": {"value": p50, "unit": "s"}, "samples_per_s": {"value": rate, "unit": "1/s"}}
    result = {"correct": correct, "attempted": 10, "failed": 0 if correct else 1, "metrics": metrics}
    return f"task_p50_s {p50}\nenv {{}}\n{json.dumps(result)}\n"


def runs(*values, correct=True):
    """Order-alternated (pair, tree, seed, result) records, one pair per
    ((parent p50, rate), (change p50, rate))."""
    out = []
    for pair, (old, new) in enumerate(values):
        trees = [("parent", old), ("change", new)]
        for tree, (p50, rate) in trees if pair % 2 == 0 else trees[::-1]:
            out.append((pair, tree, 7, bench.parse_result(stdout(p50, rate, correct))))
    return out


def test_the_result_is_the_last_line():
    assert bench.parse_result(stdout(0.002, 1e5))["metrics"]["task_p50_s"]["value"] == 0.002
    assert bench.parse_result("error: time budget exhausted\n") is None
    assert bench.parse_result("") is None
    assert bench.parse_result('{"correct": true}\n') is None


def test_summary_lists_every_run_the_medians_and_each_pairs_ratio():
    lines, ok = bench.summarize(runs(((0.002, 100.0), (0.001, 150.0)), ((0.004, 120.0), (0.003, 110.0)),
                                     ((0.003, 90.0), (0.002, 135.0))))
    assert ok
    assert lines[0].split() == ["pair", "tree", "seed", "correct", "task_p50_s", "samples_per_s"]
    assert [line.split()[:4] for line in lines[1:7]] == [
        ["0", "parent", "7", "true"], ["0", "change", "7", "true"],
        ["1", "change", "7", "true"], ["1", "parent", "7", "true"],
        ["2", "parent", "7", "true"], ["2", "change", "7", "true"],
    ]
    assert lines[7] == "medians"
    assert lines[8].split() == ["parent", "0.003", "100"]
    assert lines[9].split() == ["change", "0.002", "135"]
    assert lines[10] == "change / parent"
    assert [line.split() for line in lines[11:14]] == [
        ["0", "0.5000", "1.5000"], ["1", "0.7500", "0.9167"], ["2", "0.6667", "1.5000"],
    ]
    assert lines[14] == "decisions"
    assert len(lines) == 17


def test_a_run_that_is_not_correct_or_gives_no_result_fails_the_summary():
    assert not bench.summarize(runs(((0.002, 100.0), (0.001, 150.0)), correct=False))[1]
    broken = runs(((0.002, 100.0), (0.001, 150.0)))
    broken[1] = (0, "change", 7, None)
    lines, ok = bench.summarize(broken)
    assert not ok
    assert lines[2].split() == ["0", "change", "7", "false", "-", "-"]
    assert lines[lines.index("decisions") - 1].split() == ["0", "-", "-"]
    assert lines[-2:] == [
        "task_p50_s: no better direction in the parent's BENCHMARK.json",
        "samples_per_s: no better direction in the parent's BENCHMARK.json",
    ]
    lines, _ = bench.summarize(broken, {"task_p50_s": "lower", "samples_per_s": "higher"})
    assert lines[-1] == "samples_per_s (higher is better): change better in 0 of 0 pairs"


# four pairs of (parent, change) runs of ((task_p50_s, samples_per_s), ...)
FOUR = (((1.0, 100.0), (0.8, 150.0)), ((1.2, 120.0), (1.2, 110.0)),
        ((1.1, 110.0), (0.9, 105.0)), ((1.3, 130.0), (1.0, 140.0)))


def test_each_metric_gets_its_decision_line():
    """Pairs won by the better direction, a tie for neither tree, the
    parent's quartiles, and whether the median moved by more than their
    distance."""
    lines, ok = bench.summarize(runs(*FOUR), {"task_p50_s": "lower", "samples_per_s": "higher"})
    assert ok
    assert lines[-3:] == [
        "decisions",
        "task_p50_s (lower is better): change better in 3 of 4 pairs; parent quartiles "
        "1.075-1.225; median better by 0.2, more than the parent's IQR 0.15: yes",
        "samples_per_s (higher is better): change better in 2 of 4 pairs; parent quartiles "
        "107.5-122.5; median better by 10, more than the parent's IQR 15: no",
    ]


def test_a_median_that_moves_the_wrong_way_is_no_gain():
    swapped = tuple((new, old) for old, new in FOUR)
    lines, _ = bench.summarize(runs(*swapped), {"task_p50_s": "lower"})
    assert lines[-2] == (
        "task_p50_s (lower is better): change better in 0 of 4 pairs; parent quartiles "
        "0.875-1.05; median better by -0.2, more than the parent's IQR 0.175: no"
    )


def test_directions_come_from_the_benchmark_file(tmp_path):
    assert bench.directions(tmp_path) == {}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "task_p50_s", "better": "lower"}, {"name": "samples_per_s", "better": "higher"}]}))
    assert bench.directions(tmp_path) == {"task_p50_s": "lower", "samples_per_s": "higher"}
    assert bench.directions(TOOL.parent.parent)["peak_rss_mb"] == "lower"


def test_a_tree_without_the_benchmark_is_refused(tmp_path, capsys):
    root = str(TOOL.parent.parent)
    assert bench.main([root, str(tmp_path), "--workload", "kernel_solve", "--pairs", "1", "--seed", "7"]) == 2
    assert capsys.readouterr().err.startswith(f"error: the change tree {tmp_path} holds no perfbench/run.py")


def orders(pairs, seeds):
    """Each seed's run orders, by the tree that runs first, in pair order."""
    out = {seed: [] for seed in seeds}
    for _, seed, order in bench.schedule(pairs, seeds):
        assert sorted(order) == sorted(bench.TREES)
        out[seed].append(order[0])
    return out


def test_one_seed_alternates_the_order_pair_by_pair():
    assert [pair for pair, _, _ in bench.schedule(4, [7])] == [0, 1, 2, 3]
    assert orders(4, [7]) == {7: ["parent", "change", "parent", "change"]}


def test_two_seeds_each_meet_both_orders():
    # pair i takes seed i mod 2; the order flips for each seed round by round
    assert [seed for _, seed, _ in bench.schedule(8, [7, 101])] == [7, 101] * 4
    assert orders(8, [7, 101]) == {
        7: ["parent", "change", "parent", "change"],
        101: ["change", "parent", "change", "parent"],
    }
    firsts = [order[0] for _, _, order in bench.schedule(8, [7, 101])]
    assert firsts.count("parent") == firsts.count("change") == 4


def test_three_seeds_each_meet_both_orders():
    assert [seed for _, seed, _ in bench.schedule(6, [11, 202, 303])] == [11, 202, 303] * 2
    assert orders(6, [11, 202, 303]) == {
        11: ["parent", "change"], 202: ["change", "parent"], 303: ["parent", "change"],
    }


def tree(root, *cache):
    """A checkout root holding perfbench/run.py, src, and the directory cache
    under root when given."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text("")
    (root / "src" / "cstar_jensen").mkdir(parents=True)
    if cache:
        root.joinpath(*cache).mkdir(parents=True)
    return root


@pytest.mark.parametrize("cache", [("src", "cstar_jensen", "__pycache__"), ("perfbench", "__pycache__")])
@pytest.mark.parametrize("which", ["parent", "change"])
def test_a_tree_that_holds_byte_code_is_refused_before_any_run(tmp_path, capsys, monkeypatch, cache, which):
    monkeypatch.setattr(bench, "run_once", lambda *args: pytest.fail("a run started"))
    trees = {name: tree(tmp_path / name, *(cache if name == which else ())) for name in bench.TREES}
    argv = [str(trees["parent"]), str(trees["change"]), "--workload", "jensen_pool", "--pairs", "2", "--seed", "7"]
    assert bench.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the {which} tree holds compiled byte-code in {tmp_path.joinpath(which, *cache)}\n"
