"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line with the measured numbers; run
with -s to see them on success. The shared pool of 500 random affine
instances is generated once and reused by the criteria that refer to it.
"""
import json
import time

import numpy as np
import pytest

import cstar_jensen as cj
from cstar_jensen import catalog, harness, hilbert as hb, identities as idn, mappings as mp
from cstar_jensen.cli import cli_main
from cstar_jensen.jsonutil import canonical_dumps

from support import (
    SHAPES,
    quartic_map,
    random_affine,
    random_strict_coefficient,
    range_vector,
    run_rows,
    values,
)

POOL_SEED = 20260814
POOL_SIZE = 500
SCALAR = cj.AlgebraShape((1,))


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def pool():
    """500 affine instances over the five shapes with strict coefficients."""
    rng = np.random.default_rng(POOL_SEED)
    instances = []
    for _ in range(POOL_SIZE):
        shape = cj.AlgebraShape(SHAPES[rng.integers(len(SHAPES))])
        e_rank = int(rng.integers(2, 5))
        g_rank = int(rng.integers(1, 3))
        space_e = cj.ModuleSpace(shape, e_rank)
        space_g = cj.ModuleSpace(shape, g_rank)
        a = random_strict_coefficient(shape, rng)
        f = random_affine(space_e, space_g, rng)
        half = e_rank // 2
        sampler = cj.disjoint_support_sampler(
            space_e, range(half), range(half, e_rank)
        )
        instances.append(
            {"shape": shape, "space_e": space_e, "a": a, "f": f, "sampler": sampler}
        )
    return instances


def test_criterion_1_jensen_soundness(pool):
    started = time.perf_counter()
    worst = 0.0
    for i, inst in enumerate(pool):
        entry = cj.check_orthogonal_jensen(
            inst["f"], inst["a"], inst["sampler"], n=200, tol=1e-9, seed=[1, i]
        )
        worst = max(worst, entry.max_residual)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed <= 60.0
    _report(
        1,
        ok,
        f"500 affine mappings x 200 orthogonal pairs: "
        f"max residual {worst:.3e} (<= 1e-9), runtime {elapsed:.1f}s (<= 60s)",
    )


def test_criterion_2_scaling_suite(pool):
    worst = 0.0
    for i, inst in enumerate(pool):
        # five vectors drawn on [2, i], the explicit sampler's two first
        x0, x1 = hb.sample_stacks(inst["space_e"], [2, i, 0], 1, 2)
        sampler = hb.explicit_sampler(inst["space_e"], [(x0.row(0), x1.row(0))])
        entries = run_rows("scaling", inst["f"], a=inst["a"], sampler=sampler, n=5, seed=[2, i])
        for entry in entries:
            worst = max(worst, entry.max_residual)
    scenario = harness.load_scenario(catalog.bundled_scenario_path("perturb_negative"))
    report = harness.run_suite(scenario)
    bump_worst = max(
        e.max_residual
        for _, e in report.results
        if e.identity_id.startswith("lemma2.1-")
    )
    ok = worst <= 1e-9 and bump_worst >= 1e-3
    _report(
        2,
        ok,
        f"six scaling identities on the pool: max residual {worst:.3e} (<= 1e-9); "
        f"forced bump sampler residual {bump_worst:.3e} (>= 1e-3)",
    )


def test_criterion_3_pair_expansion_grid():
    worst_identity = 0.0
    worst_validation = 0.0
    for p in (0.1, 0.25, 0.5, 0.75, 0.9):
        for n in (4, 8, 16):
            pair = cj.interleave_pair(p, n)
            worst_validation = max(worst_validation, pair.orth_residual, pair.balance_residual)
            rng = np.random.default_rng(int(p * 100) * 37 + n)
            f = random_affine(pair.phi.codomain, cj.ModuleSpace(SCALAR, 1), rng)
            # 20 pairs, drawn on the seed [3, n]
            (expansion,) = run_rows("expansion", f, pair=pair, n=20, seed=[3, n])
            (display,) = run_rows("orth-display", f, pair=pair, n=20, seed=[3, n])
            worst_identity = max(
                worst_identity, expansion.max_residual, display.max_residual
            )
    ok = worst_identity <= 1e-9 and worst_validation <= 1e-12
    _report(
        3,
        ok,
        f"two-variable expansion over p x N grid: max residual "
        f"{worst_identity:.3e} (<= 1e-9); pair validation "
        f"{worst_validation:.3e} (<= 1e-12)",
    )


def test_criterion_4_decomposition_roundtrip(pool):
    worst_dec = 0.0
    worst_b = 0.0
    worst_unique = 0.0
    for i, inst in enumerate(pool):
        pair = cj.inclusion_pair(inst["shape"], 1, inst["space_e"].rank, inst["a"])
        f, a = inst["f"], inst["a"]
        entries = [
            *run_rows("decompose", f, a=a, pair=pair, n=6, seed=[4, i, 0]),
            *run_rows("decompose", f, a=a, pair=pair, n=6, seed=[4, i, 1]),
            # A's additivity on K, which the decompose row leaves to its callers
            *run_rows("additive", f, pair=pair, n=6, seed=[4, i, 0, 5]),
        ]
        for entry in entries:
            worst_dec = max(worst_dec, entry.max_residual)
        f_space = pair.phi.domain
        x, y = (
            range_vector(pair, *hb.sample_stacks(f_space, [4, i, j], 1, 2)).row(0)
            for j in (2, 3)
        )
        (bxy,) = values([idn._polar(*idn._DRAW[:2])], f, (x, y))
        worst_b = max(worst_b, cj.module_norm(bxy))
        (unique,) = run_rows("unique", f, pair=pair, n=6, tol=1e-10, seed=[4, i, 4])
        worst_unique = max(worst_unique, unique.max_residual)
    ok = worst_dec <= 1e-9 and worst_b <= 1e-9 and worst_unique <= 1e-10
    _report(
        4,
        ok,
        f"decompose on the pool: property residuals {worst_dec:.3e} (<= 1e-9), "
        f"|B(x,y)| {worst_b:.3e} (<= 1e-9), thm2.7-unique "
        f"{worst_unique:.3e} (<= 1e-10)",
    )


def test_criterion_5_additive_and_quadratic_families():
    pair = cj.interleave_pair(0.5, 8)
    space_e = pair.phi.codomain
    space_g = cj.ModuleSpace(SCALAR, 1)
    rng = np.random.default_rng(55)

    affine = random_affine(space_e, space_g, rng)
    (additive,) = run_rows("additive", affine, pair=pair, n=40, seed=[5, 0])

    worst_quad = 0.0
    for k, scale in enumerate((0.5, 1.0, 2.5)):
        g_vec = cj.vec_scale(space_g.basis_vector(0), 1.0 + k)
        quad = mp.QuadDiag(space_e, g_vec, scale)
        (entry,) = run_rows("quadratic", quad, pair=pair, n=40, seed=[5, 1, k])
        worst_quad = max(worst_quad, entry.max_residual)

    # an affine map's centered even part is zero; a quartic map's is itself
    quartic = quartic_map(space_e, space_g.basis_vector(0))
    (negative,) = run_rows("quadratic", quartic, pair=pair, n=40, seed=[5, 2])

    ok = (
        additive.max_residual <= 1e-9
        and worst_quad <= 1e-9
        and negative.max_residual >= 1e-3
    )
    _report(
        5,
        ok,
        f"odd part additive {additive.max_residual:.3e} (<= 1e-9); quadratic "
        f"family {worst_quad:.3e} (<= 1e-9); quartic map fails the quadratic "
        f"equation at {negative.max_residual:.3e} (>= 1e-3)",
    )


def test_criterion_6_scalar_reduction():
    worst_affine = 0.0
    worst_detect = np.inf
    for k, p in enumerate((1 / 3, 1 / 2, 3 / 4)):
        pair = cj.interleave_pair(p, 8)
        space_e = pair.phi.codomain
        space_g = cj.ModuleSpace(SCALAR, 1)
        rng = np.random.default_rng(66 + k)
        affine = random_affine(space_e, space_g, rng)
        a = cj.validate_coefficient(cj.vec_scale(cj.unit(SCALAR), p))
        (entry,) = run_rows("scalar", affine, a=a, pair=pair, n=30, seed=[6, k])
        worst_affine = max(worst_affine, entry.max_residual)
        salted = mp.Sum([affine, mp.QuadDiag(space_e, space_g.basis_vector(0), 1.0)])
        (caught,) = run_rows("scalar", salted, a=a, pair=pair, n=30, seed=[6, k])
        worst_detect = min(worst_detect, caught.max_residual)
    ok = worst_affine <= 1e-9 and worst_detect >= 1e-3
    _report(
        6,
        ok,
        f"rational p quadratic part vanishes at {worst_affine:.3e} (<= 1e-9); "
        f"injected quadratic detected at {worst_detect:.3e} (>= 1e-3)",
    )


def test_criterion_7_negative_jensen_detection():
    scenario = harness.load_scenario(catalog.bundled_scenario_path("quad_negative"))
    report = harness.run_suite(scenario)
    entries = {e.identity_id: e for _, e in report.results}
    jensen = entries["eq-1.1"]
    ok = (
        not jensen.passed
        and jensen.max_residual >= 1e-3
        and entries["thm2.7-B-symmetric"].passed
        and entries["thm2.7-B-orth-preserving"].passed
        and not entries["thm2.7-B-a-biadditive"].passed
    )
    _report(
        7,
        ok,
        f"quadratic mapping with block-distinct scalars: eq-1.1 fails at "
        f"{jensen.max_residual:.3e} (>= 1e-3) while B stays symmetric and "
        f"orthogonality preserving; a-biadditivity is the broken hypothesis",
    )


def test_criterion_8_kernel_solver():
    for p in (0.3, 0.5, 0.77):
        a = cj.validate_coefficient(
            cj.vec_scale(cj.unit(SCALAR), p), require_strict_order=True
        )
        solution = cj.solve_abiadditive_kernel(a, cj.ModuleSpace(SCALAR, 1))
        if solution.dimension != 0:
            _report(8, False, f"scalar p={p} returned dimension {solution.dimension}")

    shape = cj.AlgebraShape((1, 1))
    cross = cj.validate_coefficient(
        cj.AlgebraElement(shape, [[[0.5]], [[0.5 + 0.5j]]])
    )
    worst = 0.0
    dims = []
    for rank in (1, 2):
        solution = cj.solve_abiadditive_kernel(cross, cj.ModuleSpace(shape, rank))
        dims.append(solution.dimension)
        for i, member in enumerate(solution.basis):
            worst = max(
                worst, cj.kernel_constraint_residual(member, cross, seed=[8, rank, i])
            )
    ok = dims == [4, 8] and worst <= 1e-8
    _report(
        8,
        ok,
        f"scalar coefficients force dimension 0; cross-block instance gives "
        f"dimensions {dims} with re-verification residual {worst:.3e} (<= 1e-8)",
    )


def test_criterion_9_byte_identical_reports(tmp_path):
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    for path in paths:
        code = cli_main(
            ["verify", "--scenario", "interleave_p050", "--report", str(path)]
        )
        assert code == 0
    first = json.loads(paths[0].read_text())
    second = json.loads(paths[1].read_text())
    same = canonical_dumps(first["results"]) == canonical_dumps(second["results"])
    ok = same and first["scenario_digest"] == second["scenario_digest"]
    _report(
        9,
        ok,
        "repeated verify runs produce byte-identical result arrays and digests",
    )
