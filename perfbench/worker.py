"""One benchmark process: set up a workload, run its tasks, report as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --rounds R [--trace] [--setup-only]

The library is imported from ``src/`` next to this directory and nowhere
else. Set-up is importing ``cstar_jensen.cli`` and building the workload's
inputs; the process prints ``READY`` when it is done, so the parent can time
set-up from the moment it started the process. Then it runs ``R`` rounds of
the workload's tasks one at a time, checks each output with the workload's
oracle outside the timed call, and prints one JSON object on its last line.
There is no warm-up: a user's ``verify`` or ``solve-kernel`` runs in a fresh
process too.
With ``--trace`` the library's public functions are wrapped first (see
tracer.py) and the JSON carries the per-name counters; without it the tracer
module is never imported.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE.parent / ".perfbench_out"


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    import cstar_jensen.cli  # noqa: F401  the user's entry point; part of set-up

    origin = Path(cstar_jensen.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        print(f"error: cstar_jensen imported from {origin}, not {SRC}", file=sys.stderr)
        return 2
    import calibrate
    import workloads

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        traced_from = time.perf_counter()
    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, str(OUT_DIR))
    print("READY", flush=True)
    if args.setup_only:
        workload.close()
        return 0

    # reference timings bracket every task: calibrations[i] and [i + 1]
    times, native, calibrations = [], [], [calibrate.measure()]
    failures, samples = [], 0
    for rnd in range(args.rounds):
        for i in range(len(workload)):
            if tracer is not None:
                tracer.task = len(times)
            start = time.perf_counter()
            try:
                out = workload.run(rnd, i)
            except Exception as exc:  # a raising task is a counted failure
                times.append(time.perf_counter() - start)
                native.append(0.0)
                failures.append(f"round {rnd} task {i}: {type(exc).__name__}: {exc}")
            else:
                times.append(time.perf_counter() - start)
                native.append(workload.native_seconds(out))
                failure, n = workload.check(rnd, i, out)
                samples += n
                if failure is not None:
                    failures.append(f"round {rnd}: {failure}")
            calibrations.append(calibrate.measure())
    workload.close()
    finished = time.perf_counter()

    import numpy
    import scipy

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": args.rounds,
        "attempted": len(times),
        "task_times": times,
        "native_times": native,
        "calibrations": calibrations,
        "samples": samples,
        "failed": len(failures),
        "failures": failures[:10],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "report_bytes": getattr(workload, "report_bytes", 0),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "blas_threads": blas_threads(),
        "tracer_loaded": "tracer" in sys.modules,
        "stats": None,
    }
    if tracer is not None:
        tracer.uninstall()
        result["stats"] = tracer.stats
        result["traced_wall_s"] = finished - traced_from
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
        spans_path.write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "task"], "spans": tracer.spans})
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
