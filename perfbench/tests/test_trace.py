"""Self-test of the benchmark's tracing and result plumbing.

    python3 -m pytest perfbench/tests -q

The worker runs are small (one round) but real, so this takes about a
minute on a 2-core machine.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402


def worker(workload, *extra, seed=11):
    args = ["--workload", workload, "--seed", str(seed), "--rounds", "1", *extra]
    return run.run_worker(args, run.Deadline(300))[1]


@pytest.fixture(scope="module")
def traced_pool():
    return [worker("jensen_pool", "--trace") for _ in range(2)]


def counts(result):
    return {name: stat[0] for name, stat in result["stats"].items()}


def test_traced_counts_repeat(traced_pool):
    first, second = traced_pool
    assert counts(first) == counts(second)
    assert first["samples"] == second["samples"]


def test_traced_counts_repeat_on_campaign():
    first, second = (worker("campaign", "--trace") for _ in range(2))
    assert counts(first) == counts(second)


def test_jensen_check_counted_once_per_task(traced_pool):
    result = traced_pool[0]
    calls = result["stats"]["identities.check_orthogonal_jensen"][0]
    assert calls == result["attempted"] == len(result["task_times"]) == 30


def test_self_times_fit_in_traced_wall(traced_pool):
    for result in traced_pool:
        total_self = sum(stat[2] for stat in result["stats"].values())
        assert 0 < total_self <= result["traced_wall_s"]


def test_generator_timed_per_item():
    from cstar_jensen import algebra as alg
    from cstar_jensen import hilbert as hb
    from cstar_jensen import identities as idn
    from cstar_jensen import mappings as mp

    shape = alg.AlgebraShape((2,))
    space = hb.ModuleSpace(shape, 2)
    a = alg.validate_coefficient(alg.scale(alg.unit(shape), 0.3))
    f = mp.Linear([[alg.unit(shape)], [alg.unit(shape)]])
    sampler = hb.disjoint_support_sampler(space, [0], [1])
    t = tracer.Tracer()
    t.install()
    try:
        idn.check_orthogonal_jensen(f, a, sampler, n=25, seed=3)
    finally:
        t.uninstall()
    assert tracer.wrapped_count() == 0
    gen_calls, gen_incl, _ = t.stats["hilbert.orthogonal_pairs"]
    item_calls, item_incl, _ = t.stats["hilbert.sample_orthogonal_pair"]
    assert gen_calls == 1 and item_calls == 25
    # the draws run inside the generator's resumptions, so its time covers them
    assert gen_incl >= item_incl > 0
    # coarse span for the check, its task id is the tracer's set-up marker
    assert [s[0] for s in t.spans] == ["identities.check_orthogonal_jensen"]
    assert t.spans[0][2] > t.spans[0][1] and t.spans[0][4] == -1


def test_untraced_run_never_loads_the_tracer():
    result = worker("jensen_pool")
    assert result["tracer_loaded"] is False
    assert result["stats"] is None
    assert result["failed"] == 0


def test_tail_has_ten_tasks_beyond():
    times = [float(i) for i in range(40)]
    value, pct, beyond = run.tail(times)
    assert value == 29.0 and beyond == 10 and pct == 75.0


def test_import_seconds_counts_outermost_imports():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     scipy._lib",
            "import time:        50 |        150 |   scipy",
            "import time:       200 |        200 |   scipy.linalg",
            "import time:        10 |        400 | cstar_jensen",
            "import time:         5 |          5 | cstar_jensen.cli",
        ]
    )
    assert run.import_seconds(text, "scipy") == pytest.approx(350e-6)
    assert run.import_seconds(text, "cstar_jensen") == pytest.approx(405e-6)


def test_benchmark_alone_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [*spec["command"], "--workload", "campaign", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
