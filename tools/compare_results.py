"""Check that two source trees give byte-identical results, or the same verdicts.

    python3 tools/compare_results.py [--verdicts] PARENT_SRC CHANGE_SRC

Each argument is a ``src`` directory that holds a ``cstar_jensen`` package.
For each tree, in one fresh Python process, the script runs
``verify`` on every bundled scenario at seeds 7 and 12345, ``verify`` with
the ``--samples 7 --tol 1e-8`` overrides on two scenarios, ``decompose``
on the first mapping of every bundled scenario that has a pair,
``solve-kernel`` on every bundled scenario and on twelve scenario files with a
non-zero a-biadditive kernel that it writes to a temporary directory,
``verify`` on two more written files with the sampler modes no bundled
scenario gates (a ``pair_image`` sampler, and three ``explicit`` pairs
cycled through ``--samples 7``), ``verify`` at both seeds on a written
file over the algebra [4, 4] with E rank 8, whose 4 x 32 wide matrices
are where summation order matters most, ``verify`` at both seeds on a
written file over [1, 3], whose 3x3 Grams take the closed-form top
eigenvalue, and ``example-l2 --p 0.3 --n 6``. It then
compares, run by run, the exit code, the stdout (with the report path
replaced by a placeholder) and, for ``verify`` and ``decompose``, the exact
bytes of the report's ``results`` array. Only the timestamps and the
digest outside ``results`` may differ.

With ``--verdicts``, for a change that draws different samples from the
same seed, the ``verify`` and ``decompose`` runs are compared by exit code
and by the ``(label, id, pass, samples)`` of each report entry, in order;
residuals, worst inputs and stdout may differ, and each entry whose
verdict differs is listed. A ``solve-kernel`` run is compared by exit code,
by its ``kernel dimension:`` and ``singular values:`` lines byte for byte,
by its number of ``basis[i]`` lines and by the verdict of its last line,
and every residual it prints, in either tree, must be at most
KERNEL_RESIDUAL_TOL: a basis of a null space of dimension above one is
not unique, so a change to the solver may return another one, whose
residual digits differ. ``example-l2`` runs are still compared byte for
byte. The second-to-last line names the largest ``|change - parent|`` of
``max_residual`` over the entries whose verdicts agree, and where it is,
so a rounding-level drift shows as one; the last line gives the largest
residual the ``solve-kernel`` runs of each tree print, so a move of their
digits shows its size.

In either mode, the line after the summary gives each tree's
``wc -l cstar_jensen/*.py``, the size of the package that gave those runs,
and its lines that hold code: no blank line, comment or docstring.

``gated_runs`` lists the runs. ``run_in_process`` builds the record of
every run: it calls the tree's ``cli_main`` and captures the exit code,
stdout, stderr and report. ``run_tree`` calls it for every run, in order,
in one process per tree, started with the tree on its path and
``CSTAR_JENSEN_SEED`` unset. ``tools/pin_results.py`` pins the records of
``run_tree`` for ``tests/test_pinned_results.py``, which builds them with
``run_in_process`` in the test's own process.

Exit status: 0 when every run agrees, 1 on any difference, 2 when an
argument is not a source tree or a tree's process dies; the error then
names the tree and quotes the end of that process's stderr.
"""
from __future__ import annotations

import ast
import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import tokenize
import traceback
from pathlib import Path

SEEDS = (7, 12345)
# verify runs that pass both scenario overrides
OVERRIDES = ("--samples", "7", "--tol", "1e-8")
OVERRIDE_SCENARIOS = ("affine_roundtrip", "perturb_negative")
REPORT_PLACEHOLDER = "<report>"
# the directory of the written scenario files, in a pinned run's argv
DIR_PLACEHOLDER = "<dir>"
# the subcommands that write a report
REPORTING = ("verify", "decompose")
# the fields of a report entry that make its verdict
VERDICT = ("label", "id", "pass", "samples")
# the bound solve-kernel re-verifies each member against, the package's
# mappings.KERNEL_RESIDUAL_TOL
KERNEL_RESIDUAL_TOL = 1e-8
# the solve-kernel lines verdict mode still compares byte for byte
KERNEL_FIXED = ("kernel dimension:", "singular values:")


# Block-scalar coefficients whose kernel is not zero, by the rule of the
# benchmark's block_scalar_coefficient: block k holds c = (1 + e^{i theta})/2,
# block j holds Re c and any other block Re c -/+ 0.3; each for G ranks 1, 2, 3.
# The (2, 1) and (2, 2) cases put a kernel on output blocks 0 and 1 of size 2.
KERNEL_CASES = (
    ((1, 1), 0, 1, 1.1),
    ((2, 1), 1, 0, -2.0),
    ((1, 1, 1), 2, 0, 0.8),
    ((2, 2), 0, 1, 2.4),
)
KERNEL_RANKS = (1, 2, 3)


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


# The bundled scenario the sampler runs rewrite: it has a pair, all 21 checks,
# an even E rank and an affine map, whose eq-1.1 residuals differ from pair to
# pair, so the worst input names one pair out of many.
SAMPLER_BASE = "affine_roundtrip"
EXPLICIT_PAIRS = 3
EXPLICIT_OVERRIDES = ("--samples", "7")


def dense_element(dims, rnd: random.Random) -> dict:
    """The wire form of an element of dense blocks drawn from rnd."""
    blocks = [
        [[[rnd.uniform(-1, 1), rnd.uniform(-1, 1)] for _ in range(n)] for _ in range(n)]
        for n in dims
    ]
    return {"shape": list(dims), "blocks": blocks}


def negated(element: dict) -> dict:
    blocks = [[[[-re, -im] for re, im in r] for r in b] for b in element["blocks"]]
    return {**element, "blocks": blocks}


def write_sampler_scenarios(directory: Path, src: Path) -> list[tuple[str, ...]]:
    """The verify runs of the pair_image and explicit sampler files."""
    base = json.loads((src / "cstar_jensen" / "scenarios" / f"{SAMPLER_BASE}.json").read_text())
    dims, rank = base["algebra"], base["spaces"]["E"]
    rnd = random.Random(11)
    pairs = []
    for _ in range(EXPLICIT_PAIRS):
        # <(u, u, ...), (v, -v, ...)> sums u v^* - u v^* + ..., zero up to rounding
        u, v = dense_element(dims, rnd), dense_element(dims, rnd)
        x = {"rank": rank, "coords": [u] * rank}
        y = {"rank": rank, "coords": [v, negated(v)] * (rank // 2)}
        pairs.append([x, y])
    image, explicit = directory / "sampler_pair_image.json", directory / "sampler_explicit.json"
    image.write_text(json.dumps({**base, "sampler": {"mode": "pair_image"}}))
    explicit.write_text(json.dumps({**base, "sampler": {"mode": "explicit", "pairs": pairs}}))
    return [
        ("verify", "--scenario", str(image)),
        ("verify", "--scenario", str(explicit), *EXPLICIT_OVERRIDES),
    ]


# The bundled scenario the written verify files rewrite. wide_shift shifts
# F = A^4 into E = A^8 over WIDE_DIMS; three_shift keeps morphism_shift's own
# ranks over THREE_DIMS, whose 3x3 Grams take the closed-form top eigenvalue.
WIDE_BASE = "morphism_shift"
WIDE_DIMS = [4, 4]
WIDE_SPACES = {"F": 4, "E": 8, "G": 2}
THREE_DIMS = [1, 3]


def write_wide_scenario(
    directory: Path, src: Path, dims=WIDE_DIMS, spaces=WIDE_SPACES, name="wide_shift"
) -> list[tuple[str, ...]]:
    """The verify runs, at both seeds, of a file name.json built like the
    bundled morphism_shift, over the algebra dims with the ranks spaces
    (morphism_shift's own when None): coefficient 1/2 and a seeded random
    linear plus constant map."""
    base = json.loads((src / "cstar_jensen" / "scenarios" / f"{WIDE_BASE}.json").read_text())
    spaces = base["spaces"] if spaces is None else spaces
    rnd = random.Random(13)
    e_rank, g_rank = spaces["E"], spaces["G"]
    coeffs = [[dense_element(dims, rnd) for _ in range(g_rank)] for _ in range(e_rank)]
    value = {"rank": g_rank, "coords": [dense_element(dims, rnd) for _ in range(g_rank)]}
    affine = {
        "kind": "sum",
        "children": [{"kind": "linear", "coeffs": coeffs}, {"kind": "constant", "value": value}],
    }
    path = directory / f"{name}.json"
    path.write_text(json.dumps({
        **base,
        "algebra": dims,
        "coefficient": {**block_scalar(dims, [0.5] * len(dims)), "strict_order": True},
        "spaces": spaces,
        "mappings": [{"label": "affine", "map": affine}],
    }))
    return [("verify", "--scenario", str(path), "--seed", str(seed)) for seed in SEEDS]


def scenario_paths(src: Path) -> list[Path]:
    return sorted((src / "cstar_jensen" / "scenarios").glob("*.json"))


def runs(paths) -> list[tuple[str, ...]]:
    verify = [
        ("verify", "--scenario", path.stem, "--seed", str(seed))
        for path in paths
        for seed in SEEDS
    ]
    verify += [("verify", "--scenario", name, *OVERRIDES) for name in OVERRIDE_SCENARIOS]
    decompose = []
    for path in paths:
        obj = json.loads(path.read_text())
        if obj.get("pair") is not None:
            label = obj["mappings"][0]["label"]
            decompose.append(("decompose", "--scenario", path.stem, "--mapping", label))
    kernel = [("solve-kernel", "--scenario", path.stem) for path in paths]
    return verify + decompose + kernel + [("example-l2", "--p", "0.3", "--n", "6")]


def gated_runs(directory: Path, src: Path) -> list[tuple[str, ...]]:
    """Every run the gate compares, in order: runs() on src's bundled
    scenarios, then solve-kernel on the kernel files, the sampler runs, the
    wide runs and the three_shift runs, whose scenario files are written
    into directory."""
    kernel = [("solve-kernel", "--scenario", str(p)) for p in write_kernel_scenarios(directory)]
    sampler = write_sampler_scenarios(directory, src)
    wide = write_wide_scenario(directory, src)
    three = write_wide_scenario(directory, src, THREE_DIMS, spaces=None, name="three_shift")
    return runs(scenario_paths(src)) + kernel + sampler + wide + three


def pinned(argv: tuple[str, ...], run: dict, directory: Path) -> dict:
    """What tests/pinned_results.json keeps of a run: its argv with
    directory written as DIR_PLACEHOLDER, its exit code, and the sha256 of
    its stdout and of its results array (None when it wrote no report)."""

    def digest(text):
        return None if text is None else hashlib.sha256(text.encode()).hexdigest()

    return {
        "argv": " ".join(argv).replace(str(directory), DIR_PLACEHOLDER),
        "code": run["code"],
        "stdout": digest(run["stdout"]),
        "results": digest(run["results"]),
    }


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


def run_in_process(argv: tuple[str, ...], workdir: Path) -> dict:
    """The record of one run: the cli_main of whichever cstar_jensen is on
    the path, called on argv, with a report into workdir for a reporting
    run. It holds the exit code, the stdout with the report path written as
    REPORT_PLACEHOLDER, the stderr, and the text of the report's results
    array (None when no report was written). A run that raises leaves its
    traceback in stderr and exits 1, as an uncaught exception exits Python;
    a tree that cannot be imported raises here."""
    from cstar_jensen.cli import cli_main

    report = workdir / "report.json"
    report.unlink(missing_ok=True)
    if argv[0] in REPORTING:
        argv = (*argv, "--report", str(report))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except Exception:
            traceback.print_exc()
            code = 1
    return {
        "code": code,
        "stdout": out.getvalue().replace(str(report), REPORT_PLACEHOLDER),
        "stderr": err.getvalue(),
        "results": results_bytes(report.read_text()) if report.exists() else None,
    }


def serve_runs() -> None:
    """The body of a tree's process: the runs come as JSON on stdin, their
    records go back as JSON on stdout, and whatever else the tree prints
    outside a run goes to stderr."""
    records, sys.stdout = sys.stdout, sys.stderr
    json.dump([run_in_process(tuple(argv), Path.cwd()) for argv in json.load(sys.stdin)], records)


class TreeFailed(Exception):
    """A tree's process died, or gave back no record per run."""


def run_tree(src: Path, runs, workdir: Path) -> list[dict]:
    """The records of runs on the tree src, in order, from one fresh Python
    process with src and this directory on its path, workdir as its
    working directory and CSTAR_JENSEN_SEED unset. Raises TreeFailed,
    naming src and quoting the end of the process's stderr, when the
    process exits non-zero or gives back anything but one record per run."""
    env = {k: v for k, v in os.environ.items() if k != "CSTAR_JENSEN_SEED"}
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(Path(__file__).resolve().parent)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", "import compare_results; compare_results.serve_runs()"],
        input=json.dumps(runs),
        capture_output=True,
        text=True,
        env=env,
        cwd=workdir,
    )
    try:
        records = json.loads(proc.stdout)
    except json.JSONDecodeError:
        records = None
    fields = ["code", "stdout", "stderr", "results"]
    if proc.returncode or not (
        isinstance(records, list)
        and len(records) == len(runs)
        and all(isinstance(r, dict) and list(r) == fields for r in records)
    ):
        tail = proc.stderr.strip()[-2000:]
        raise TreeFailed(f"the process of {src} exited {proc.returncode} without a record per run:\n{tail}")
    return records


def verdicts(results: str | None) -> list[tuple] | None:
    """The (label, id, pass, samples) of each entry of a results array."""
    if results is None:
        return None
    return [tuple(e[k] for k in VERDICT) for e in json.loads(results)]


def largest_drift(parent: dict, change: dict) -> tuple[float, str] | None:
    """The largest |change - parent| of max_residual over the entries of two
    reporting runs whose verdicts agree, with the entry's label and id; None
    when no entry agrees. Equal values differ by 0 (two NaNs too), a finite
    and a non-finite value by inf."""
    if parent["results"] is None or change["results"] is None:
        return None
    best = None
    for old, new in zip(json.loads(parent["results"]), json.loads(change["results"])):
        if any(old[k] != new[k] for k in VERDICT):
            continue
        # float() also reads the "NaN" and "Infinity" strings of a report
        a, b = float(old["max_residual"]), float(new["max_residual"])
        if old["max_residual"] == new["max_residual"]:
            delta = 0.0
        elif math.isfinite(a) and math.isfinite(b):
            delta = abs(b - a)
        else:
            delta = math.inf
        if best is None or delta > best[0]:
            best = (delta, f"{old['label']} {old['id']}")
    return best


def verdict_problems(parent: dict, change: dict) -> list[str]:
    """The differences between two reporting runs that verdict mode counts."""
    problems = []
    if parent["code"] != change["code"]:
        problems.append(f"exit code {parent['code']} vs {change['code']}")
    before, after = verdicts(parent["results"]), verdicts(change["results"])
    if before is None or after is None:
        if before != after:
            problems.append(f"report written: {before is not None} vs {after is not None}")
    elif [e[:2] for e in before] != [e[:2] for e in after]:
        problems.append("the (label, id) entries differ")
    else:
        for old, new in zip(before, after):
            if old != new:
                problems.append(f"{old[0]} {old[1]}: (pass, samples) {old[2:]} vs {new[2:]}")
    return problems


def kernel_summary(stdout: str) -> tuple[dict, list[float]]:
    """What verdict mode compares of a solve-kernel run, and the residuals
    it prints."""
    lines = stdout.splitlines()
    # float() reads the "nan" and "inf" that a residual may print as
    residuals = [float(line.rsplit(" ", 1)[1]) for line in lines if line.startswith("basis[")]
    compared = {
        "fixed lines": [line for line in lines if line.startswith(KERNEL_FIXED)],
        "basis lines": len(residuals),
        # the last line up to its numbers: "re-verification pass", or that
        # only the zero map intertwines
        "verdict": lines[-1].split(" (")[0] if lines else None,
    }
    return compared, residuals


def kernel_problems(parent: dict, change: dict) -> list[str]:
    """The differences between two solve-kernel runs that verdict mode counts."""
    problems = []
    if parent["code"] != change["code"]:
        problems.append(f"exit code {parent['code']} vs {change['code']}")
    (before, old_residuals), (after, new_residuals) = (
        kernel_summary(run["stdout"]) for run in (parent, change)
    )
    for name in before:
        if before[name] != after[name]:
            problems.append(f"{name} {before[name]!r} vs {after[name]!r}")
    for tree, residuals in (("parent", old_residuals), ("change", new_residuals)):
        above = [r for r in residuals if not r <= KERNEL_RESIDUAL_TOL]
        if above:
            problems.append(
                f"{tree}: {len(above)} residuals above {KERNEL_RESIDUAL_TOL:.1e}, first {above[0]:.3e}"
            )
    return problems


def largest_kernel_residual(stdouts) -> float | None:
    """The largest residual that solve-kernel runs with these stdouts
    print: NaN when any of them is NaN, None when they print none."""
    residuals = [r for out in stdouts for r in kernel_summary(out)[1]]
    if not residuals:
        return None
    return math.nan if any(math.isnan(r) for r in residuals) else max(residuals)


def kernel_residual_line(parent_stdouts, change_stdouts) -> str:
    """The last line of verdict mode: the largest solve-kernel residual of
    each tree, so a move of the residual digits shows its size."""
    parts = []
    for tree, stdouts in (("parent", parent_stdouts), ("change", change_stdouts)):
        worst = largest_kernel_residual(stdouts)
        parts.append(f"{tree} {'none' if worst is None else f'{worst:.3e}'}")
    return "largest solve-kernel residual: " + ", ".join(parts)


def byte_problems(parent: dict, change: dict) -> list[str]:
    """The differences between two runs that byte mode counts."""
    problems = []
    if parent["code"] != change["code"]:
        problems.append(f"exit code {parent['code']} vs {change['code']}")
    if parent["stdout"] != change["stdout"]:
        problems.append("stdout " + first_difference(parent["stdout"], change["stdout"]))
    if parent["results"] != change["results"]:
        problems.append("results " + first_difference(parent["results"], change["results"]))
    return problems


def package_lines(tree: Path) -> int:
    """The lines of tree's cstar_jensen/*.py, as wc -l counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "cstar_jensen").glob("*.py"))


# tokens that hold no code
LAYOUT_TOKENS = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The lines of source that hold code: a line that a token other than a
    comment or layout touches, and that no docstring (of the module, a
    class or a function, found by ast) covers."""
    documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, documented) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT_TOKENS:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docs)


def package_code_lines(tree: Path) -> int:
    """The lines of tree's cstar_jensen/*.py that hold code (code_lines)."""
    return sum(code_lines(p.read_text()) for p in (tree / "cstar_jensen").glob("*.py"))


def line_count_line(trees) -> str:
    parent, change = (package_lines(tree) for tree in trees)
    code = [package_code_lines(tree) for tree in trees]
    return (
        f"lines of cstar_jensen/*.py: parent {parent}, change {change}; "
        f"holding code: parent {code[0]}, change {code[1]}"
    )


def first_difference(a: str | None, b: str | None) -> str:
    if a is None or b is None:
        return f"present in one run only ({a is not None} vs {b is not None})"
    pos = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return f"first differs at byte {pos}: {a[pos:pos + 60]!r} vs {b[pos:pos + 60]!r}"


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    by_verdict = "--verdicts" in args
    if by_verdict:
        args.remove("--verdicts")
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
    drift = None
    kernel_stdouts = ([], [])
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [Path(tmp) / "parent", Path(tmp) / "change"]
        for d in dirs:
            d.mkdir()
        all_runs = gated_runs(Path(tmp), trees[0])
        try:
            records = [run_tree(t, all_runs, d) for t, d in zip(trees, dirs)]
        except TreeFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for argv_run, parent, change in zip(all_runs, *records):
            label = " ".join(argv_run)
            if by_verdict and argv_run[0] in REPORTING:
                problems = verdict_problems(parent, change)
                found = largest_drift(parent, change)
                if found is not None and (drift is None or found[0] > drift[0]):
                    drift = (found[0], f"{label}: {found[1]}")
            elif by_verdict and argv_run[0] == "solve-kernel":
                problems = kernel_problems(parent, change)
                for stdouts, run in zip(kernel_stdouts, (parent, change)):
                    stdouts.append(run["stdout"])
            else:
                problems = byte_problems(parent, change)
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
    agree = "with the same verdicts" if by_verdict else "identical"
    print(f"{total - differences} of {total} runs {agree}")
    print(line_count_line(trees))
    if by_verdict:
        where = "no entry" if drift is None else f"{drift[0]:.3e} at {drift[1]}"
        print(f"largest |change - parent| max_residual with the same verdict: {where}")
        print(kernel_residual_line(*kernel_stdouts))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
