"""The benchmark's workloads: seeded inputs, one timed call per task, one oracle.

A workload object is built once per process (that is set-up) and then holds
one round of distinct inputs. ``run(rnd, i)`` is the timed call for input
``i`` in round ``rnd``; ``check(rnd, i, out)`` is the untimed oracle and
returns ``(failure, samples)``, where ``failure`` is None or a one-line
reason and ``samples`` counts residual samples. ``native_seconds(out)`` is
the part of the task spent in dense LAPACK calls, which the benchmark does
not scale to the reference speed (see calibrate.py).

The library is reached through module attributes only (``idn.check_...``),
so the traced run sees every call the workload makes.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time

import numpy as np

from cstar_jensen import algebra as alg
from cstar_jensen import catalog
from cstar_jensen import cli
from cstar_jensen import harness
from cstar_jensen import hilbert as hb
from cstar_jensen import identities as idn
from cstar_jensen import mappings as mp


def _sub_seed(*parts: int) -> int:
    """A 32-bit seed that depends on every part."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# jensen_pool: the acceptance criterion 1 recipe


class JensenPool:
    """Eq. (1.1) on random affine maps, 200 disjoint-support pairs per task.

    One round holds one instance per (shape, rank E, rank G) cell of the
    criterion 1 grid, in seeded order. The structure of a round is then the
    same for every seed and only the numbers change, so the task mix, and
    with it the median, does not depend on the seed.
    """

    SHAPES = ((1,), (2,), (1, 1), (2, 1), (3,))
    E_RANKS = (2, 3, 4)
    G_RANKS = (1, 2)
    PAIRS = 200
    TOL = 1e-9

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        rng = np.random.default_rng(_sub_seed(seed, 1))
        cells = [
            (dims, e, g) for dims in self.SHAPES for e in self.E_RANKS for g in self.G_RANKS
        ]
        self.instances = [self._instance(*cells[k], rng) for k in rng.permutation(len(cells))]

    def __len__(self) -> int:
        return len(self.instances)

    @staticmethod
    def _element(shape, rng, spread):
        blocks = [
            spread * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            for d in shape.block_dims
        ]
        return alg.AlgebraElement(shape, blocks)

    def _instance(self, dims, e_rank, g_rank, rng):
        shape = alg.AlgebraShape(dims)
        space_e = hb.ModuleSpace(shape, e_rank)
        space_g = hb.ModuleSpace(shape, g_rank)
        # strict coefficient: self-adjoint, spectrum in [0.15, 0.85] per block
        blocks = []
        for d in dims:
            lam = rng.uniform(0.15, 0.85, d)
            q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            blocks.append((q * lam) @ q.conj().T)
        a = alg.validate_coefficient(alg.AlgebraElement(shape, blocks), require_strict_order=True)
        coeffs = [
            [self._element(shape, rng, 0.7) for _ in range(g_rank)] for _ in range(e_rank)
        ]
        f = mp.compose_jensen(mp.Linear(coeffs), None, hb.sample_vector(space_g, rng))
        half = e_rank // 2
        sampler = hb.disjoint_support_sampler(space_e, range(half), range(half, e_rank))
        return f, a, sampler

    def run(self, rnd: int, i: int):
        f, a, sampler = self.instances[i]
        return idn.check_orthogonal_jensen(
            f, a, sampler, n=self.PAIRS, tol=self.TOL, seed=[self.seed, rnd, i]
        )

    def check(self, rnd: int, i: int, entry):
        if entry.samples != self.PAIRS:
            return f"instance {i}: {entry.samples} samples, expected {self.PAIRS}", entry.samples
        if not (entry.passed and entry.max_residual <= self.TOL):
            return (
                f"instance {i} round {rnd}: affine map fails eq-1.1 at "
                f"{entry.max_residual:.3e}",
                entry.samples,
            )
        return None, entry.samples

    def native_seconds(self, out) -> float:
        return 0.0

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# campaign: `cstar-jensen verify` on every bundled scenario


class Campaign:
    """``cli_main(["verify", ...])`` in-process on all 11 bundled scenarios.

    Set-up loads and validates every scenario once; each task then runs the
    full user path (load, pair validation, checks, canonical report).
    """

    NEGATIVE = frozenset({"quad_negative", "perturb_negative"})

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.names = tuple(catalog.SCENARIO_NAMES)
        self.entries = {}
        for name in self.names:
            scenario = harness.load_scenario(catalog.bundled_scenario_path(name))
            self.entries[name] = len(scenario.mappings) * len(scenario.checks)
        self.report = os.path.join(workdir, f"campaign-report-{os.getpid()}.json")
        self.report_bytes = 0

    def __len__(self) -> int:
        return len(self.names)

    def _argv(self, rnd: int, i: int) -> list[str]:
        return [
            "verify",
            "--scenario",
            self.names[i],
            "--seed",
            str(_sub_seed(self.seed, rnd, i) % 2**31),
            "--report",
            self.report,
        ]

    def run(self, rnd: int, i: int):
        argv = self._argv(rnd, i)
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.report)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.cli_main(argv)
        return code, err.getvalue().strip()

    def check(self, rnd: int, i: int, out):
        code, err = out
        name = self.names[i]
        where = f"{name} seed {self._argv(rnd, i)[4]}"
        expected = 1 if name in self.NEGATIVE else 0
        if code != expected:
            return f"{where}: exit {code}, expected {expected} ({err})", 0
        try:
            with open(self.report, "rb") as fh:
                raw = fh.read()
            report = json.loads(raw)
            results = report["results"]
            samples = sum(int(e["samples"]) for e in results)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"{where}: unreadable report ({type(exc).__name__}: {exc})", 0
        self.report_bytes += len(raw)
        if len(results) != self.entries[name]:
            return f"{where}: {len(results)} results, expected {self.entries[name]}", samples
        if report.get("overall_pass") is not (expected == 0):
            return f"{where}: overall_pass disagrees with exit {code}", samples
        for e in results:
            if isinstance(e.get("worst_input"), dict) and "error" in e["worst_input"]:
                return f"{where}: {e['id']} errored: {e['worst_input']['error']}", samples
        if name == "quad_negative":
            jensen = [e for e in results if e["id"] == "eq-1.1"]
            if not jensen or jensen[0]["pass"] or not jensen[0]["max_residual"] >= 1e-3:
                return f"{where}: eq-1.1 must fail with residual >= 1e-3", samples
        return None, samples

    def native_seconds(self, out) -> float:
        return 0.0

    def close(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.report)


# ---------------------------------------------------------------------------
# kernel_solve: the a-biadditive kernel and its re-verification


def block_scalar_coefficient(dims, rng):
    """A coefficient c_k * 1 on block k, and the kernel dimension per output
    coordinate that theory predicts for it.

    For block-scalar a, a member Psi maps block k to block j only when
    a_j = |a_k|^2 and 1 - a_j = |1 - a_k|^2; it is then any real-linear map
    M_{n_k} -> M_{n_j}, 4 n_j^2 n_k^2 real dimensions. The second equation
    puts a_k on the circle |c - 1/2| = 1/2, and then a_j = Re a_k. One block
    alone never qualifies (a_k would be 0 or 1), so it gives dimension 0.
    With several blocks, one is a circle point c, one holds Re c and the rest
    hold a real value away from Re c, so exactly one block pair qualifies.
    """
    theta = rng.uniform(0.6, np.pi - 0.6) * rng.choice((-1.0, 1.0))
    c = 0.5 + 0.5 * np.exp(1j * theta)
    if len(dims) == 1:
        values, expected = [c], 0
    else:
        k, j = (int(b) for b in rng.permutation(len(dims))[:2])
        other = c.real + (0.3 if c.real < 0.5 else -0.3)
        values = [other] * len(dims)
        values[k], values[j] = c, c.real
        expected = 4 * dims[j] ** 2 * dims[k] ** 2
    shape = alg.AlgebraShape(dims)
    blocks = [v * np.eye(n, dtype=np.complex128) for v, n in zip(values, dims)]
    return alg.validate_coefficient(alg.AlgebraElement(shape, blocks)), expected


class KernelSolve:
    """``solve_abiadditive_kernel`` then ``kernel_constraint_residual`` on
    every basis member, as ``cstar-jensen solve-kernel`` does."""

    GRID = (
        [((2,), r) for r in (3, 4)]
        + [((3,), r) for r in (1, 2, 3, 4)]
        + [((1, 1), r) for r in (1, 2, 3, 4)]
        + [((2, 1), r) for r in (1, 2, 3)]
        + [((1, 1, 1), r) for r in (1, 2, 3)]
        + [((2, 2), r) for r in (1, 2, 3)]
    )
    SAMPLES = 20

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        rng = np.random.default_rng(_sub_seed(seed, 3))
        self.cases = []
        for dims, rank in self.GRID:
            a, per_coord = block_scalar_coefficient(dims, rng)
            self.cases.append((a, hb.ModuleSpace(a.value.shape, rank), per_coord * rank))

    def __len__(self) -> int:
        return len(self.cases)

    def run(self, rnd: int, i: int):
        a, target, _ = self.cases[i]
        start = time.perf_counter()
        solution = mp.solve_abiadditive_kernel(a, target)
        solve_s = time.perf_counter() - start
        residuals = [
            mp.kernel_constraint_residual(member, a, n=self.SAMPLES, seed=[self.seed, rnd, i, j])
            for j, member in enumerate(solution.basis)
        ]
        return solution.dimension, residuals, solve_s

    def check(self, rnd: int, i: int, out):
        dimension, residuals, _ = out
        a, target, expected = self.cases[i]
        where = f"case {self.GRID[i]}"
        samples = self.SAMPLES * len(residuals)
        if dimension != expected or len(residuals) != expected:
            return f"{where}: kernel dimension {dimension}, expected {expected}", samples
        worst = max(residuals, default=0.0)
        if not (math.isfinite(worst) and worst <= mp.KERNEL_RESIDUAL_TOL):
            return f"{where}: member re-verifies at {worst:.3e}", samples
        return None, samples

    def native_seconds(self, out) -> float:
        """The solve: dense Kronecker systems and their SVD."""
        return out[2]

    def close(self) -> None:
        pass


WORKLOADS = {
    "jensen_pool": JensenPool,
    "campaign": Campaign,
    "kernel_solve": KernelSolve,
}
