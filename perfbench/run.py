"""Benchmark of the cstar-jensen verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: jensen_pool, campaign, kernel_solve (see README.md here). Every
workload runs in fresh child processes (worker.py) with one client in a
closed loop: the next task starts when the previous one has returned.

With ``--trace 0`` the command prints the end-to-end metrics: set-up time
(median over several fresh processes), the median and tail task time,
residual samples per second, peak resident memory and the failure fraction.
With ``--trace 1`` it runs half as many rounds twice, untraced and traced,
and prints the per-layer metrics of the traced run, the import cost measured
with ``python -X importtime`` and the tracing overhead.

A run does a fixed amount of work: ``R = round(S / ROUND_S[workload])``
rounds of the workload's inputs, where ``ROUND_S`` is the length of one
round on the reference machine. It lasts about ``S`` seconds there, and a
faster program does the same tasks sooner, so runs on two commits compare
the same work.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A wrong verdict,
a raising task or a failed re-verification counts as failed and makes the
exit code 1; a broken set-up prints no result and exits 2.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from tracer import CHECK_FUNCTIONS, LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"

WORKLOADS = ("jensen_pool", "campaign", "kernel_solve")
# seconds of --seconds that buy one round. For jensen_pool and campaign this
# is how long a round takes on the reference machine (2-core x86-64, Python
# 3.11, numpy 2.4, one BLAS thread). A kernel_solve round takes about 8 s
# there; its runs last about 1.6 x --seconds so that each case repeats 4 times
# at --seconds 20, because its few, very unequal cases leave the median and
# the tail to one or two cases each.
ROUND_S = {"jensen_pool": 2.4, "campaign": 6.3, "kernel_solve": 5.0}
# fresh processes timed for setup_s; one more runs first to fill caches
SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
# the whole command must end within this many seconds
BUDGET_S = 170.0
# one BLAS thread: the benchmark is a single client on a shared machine
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("time budget exhausted")
        return left


def child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_worker(args: list[str], deadline: Deadline) -> tuple[float, dict | None]:
    """Start worker.py; return (seconds until READY, parsed last line or None)."""
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "worker-stderr.log", "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=err,
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], deadline.left())
            line = proc.stdout.readline() if ready else b""
            setup = time.perf_counter() - start
            if line.strip() != b"READY":
                raise BenchError(f"worker {' '.join(args)} failed during set-up")
            out, _ = proc.communicate(timeout=deadline.left())
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    lines = out.decode().strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, tasks beyond) of the highest percentile that has
    at least 10 tasks beyond it; the maximum when there are fewer tasks."""
    ordered = sorted(times)
    k = max(len(ordered) - 11, 0) if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


def import_seconds(stderr: str, family: str) -> float:
    """Cumulative -X importtime seconds of the outermost imports of family."""
    rows = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or "imported" in line:
            continue
        label = parts[2][1:]
        depth = (len(label) - len(label.lstrip(" "))) // 2
        rows.append((depth, label.strip(), int(parts[1])))
    total = 0
    ancestors: list[tuple[int, str]] = []
    # the output is post-order; read backwards, a parent comes before its children
    for depth, name, cumulative in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        in_family = name == family or name.startswith(family + ".")
        if in_family and not any(
            a == family or a.startswith(family + ".") for _, a in ancestors
        ):
            total += cumulative
        ancestors.append((depth, name))
    return total / 1e6


def measure_imports(deadline: Deadline) -> dict:
    cli, scipy = [], []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import cstar_jensen.cli"],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=deadline.left(),
        )
        if proc.returncode != 0:
            raise BenchError(f"import of cstar_jensen.cli failed: {proc.stderr[-500:]}")
        cli.append(import_seconds(proc.stderr, "cstar_jensen"))
        scipy.append(import_seconds(proc.stderr, "scipy"))
    return {"cli.import_s": statistics.median(cli), "cli.import.scipy_s": statistics.median(scipy)}


def git_commit() -> str | None:
    """HEAD of the repository holding the benchmark, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """sha256 over the library's files, so runs name the code they measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "cstar_jensen").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args, child: dict) -> dict:
    return {
        **child["versions"],
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": child["blas_threads"],
        "blas_env": CHILD_ENV,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": child["rounds"],
        "tasks": len(child["task_times"]),
        "samples": child["samples"],
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def reference_times(child: dict) -> list[float]:
    """Task times at the reference speed: the interpreter-bound part is scaled
    by the bracketing calibrations, the native (LAPACK) part is left as is."""
    cal = child["calibrations"]
    return [
        (t - native) * calibrate.speed_factor(cal[i], cal[i + 1]) + native
        for i, (t, native) in enumerate(zip(child["task_times"], child["native_times"]))
    ]


def setup_time(worker: list[str], deadline: Deadline) -> float:
    """Reference-speed set-up seconds of one fresh set-up-only process."""
    before = calibrate.measure()
    setup, _ = run_worker(worker + ["--setup-only"], deadline)
    return setup * calibrate.speed_factor(before, calibrate.measure())


def end_to_end(args, rounds: int, deadline: Deadline) -> tuple[dict, dict, dict]:
    worker = ["--workload", args.workload, "--seed", str(args.seed)]
    run_worker(worker + ["--setup-only"], deadline)  # fills the file caches
    setups = [setup_time(worker, deadline) for _ in range(SETUP_RUNS)]
    _, child = run_worker(worker + ["--rounds", str(rounds)], deadline)
    times = reference_times(child)
    tail_s, tail_pct, beyond = tail(times)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "task_p50_s": metric(statistics.median(times), "s"),
        "task_tail_s": metric(tail_s, "s"),
        "samples_per_s": metric(child["samples"] / sum(times), "1/s"),
        "peak_rss_mb": metric(child["peak_rss_mb"], "MB"),
    }
    raw = child["task_times"]
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "task_p50_s": f"wall {statistics.median(raw):.4g} s unscaled",
        "task_tail_s": f"p{tail_pct:.1f} of {len(times)} tasks, {beyond} beyond; wall {tail(raw)[0]:.4g} s unscaled",
        "samples_per_s": f"wall {child['samples'] / sum(raw):.4g} 1/s unscaled",
    }
    return metrics, notes, child


def layer_metrics(stats: dict, samples: int, report_bytes: int) -> dict:
    def get(name, field):
        return stats.get(name, (0, 0.0, 0.0))[field]

    def layer_sum(layer, field):
        return sum(v[field] for k, v in stats.items() if k.split(".", 1)[0] == layer)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = metric(layer_sum(layer, 0), "count")
        out[f"{layer}.self_s"] = metric(layer_sum(layer, 2), "s")
    for name in ("algebra.cstar_norm", "hilbert.sample_vector"):
        out[f"{name}.calls"] = metric(get(name, 0), "count")
        out[f"{name}.self_s"] = metric(get(name, 2), "s")
    for name in (
        "algebra.mul",
        "hilbert.inner_product",
        "hilbert.act",
        "hilbert.module_norm",
        "identities.decompose",
    ):
        out[f"{name}.calls"] = metric(get(name, 0), "count")
    evals = get("mappings.Mapping.__call__", 0)
    out["mappings.evals"] = metric(evals, "count")
    out["mappings.evals_per_sample"] = metric(evals / samples if samples else 0.0, "ratio")
    inclusive = [
        "mappings.validate_pair",
        "mappings.solve_abiadditive_kernel",
        "mappings.kernel_constraint_residual",
        *(f"identities.{f}" for f in CHECK_FUNCTIONS),
        "harness.load_scenario",
        "harness.run_suite",
        "harness.emit_report",
        "jsonutil.canonical_dumps",
    ]
    for name in inclusive:
        out[f"{name}.s"] = metric(get(name, 1), "s")
    out["jsonutil.report_bytes"] = metric(report_bytes, "bytes")
    return out


def traced(args, rounds: int, deadline: Deadline) -> tuple[dict, dict, dict]:
    # the same tasks run twice, untraced then traced; half the rounds each
    # keeps the pair about as long as one untraced run
    rounds = max(1, rounds // 2)
    worker = ["--workload", args.workload, "--seed", str(args.seed), "--rounds", str(rounds)]
    _, plain = run_worker(worker, deadline)
    _, child = run_worker(worker + ["--trace"], deadline)
    if child["tracer_loaded"] is not True or plain["tracer_loaded"] is not False:
        raise BenchError("the tracer loaded in the wrong run")
    metrics = layer_metrics(child["stats"], child["samples"], child["report_bytes"])
    metrics.update({k: metric(v, "s") for k, v in measure_imports(deadline).items()})
    overhead = sum(reference_times(child)) / sum(reference_times(plain))
    metrics["trace.overhead"] = metric(overhead, "ratio")
    # tasks and failures of the untraced run count as well
    child["attempted"] += plain["attempted"]
    child["failed"] += plain["failed"]
    child["failures"] += plain["failures"]
    notes = {"trace.overhead": "traced task time / untraced task time, same tasks"}
    return metrics, notes, child


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = Deadline(BUDGET_S)
    if not (SRC / "cstar_jensen" / "cli.py").is_file():
        print(f"error: no library source at {SRC / 'cstar_jensen'}", file=sys.stderr)
        return 2
    rounds = max(1, round(args.seconds / ROUND_S[args.workload]))
    try:
        measure = traced if args.trace else end_to_end
        metrics, notes, child = measure(args, rounds, deadline)
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = child["attempted"]
    failed = child["failed"]
    env = environment(args, child)
    for failure in child["failures"]:
        print(f"FAILED {failure}")
    for name, m in metrics.items():
        note = notes.get(name)
        print(f"{name:<42} {m['value']:>14.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    fail_frac = failed / attempted
    print(f"{'fail_frac':<42} {fail_frac:>14.6g} ratio  ({failed} of {attempted} tasks)")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**result, "fail_frac": fail_frac, "notes": notes, "env": env}, indent=1))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
