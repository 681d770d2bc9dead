"""The ledger of known wrong verdicts: each test pins a verdict that the
verifier gets wrong today, with a margin, and its docstring names the
ROADMAP item that will close the gap. The change that closes a gap flips
its assert to the right verdict; a gap is never closed by editing this
file alone."""
import json

import numpy as np
import pytest

import cstar_jensen as cj
from cstar_jensen import algebra as alg
from cstar_jensen import catalog, harness
from cstar_jensen import hilbert as hb
from cstar_jensen import identities as idn
from cstar_jensen import mappings as mp
from cstar_jensen.cli import cli_main
from cstar_jensen.errors import PairConditionViolated

from support import cross_block_setup, haar_pairs, random_strict_coefficient, run_rows, values

SAMPLES = 200


def eq_1_1_readings(weights):
    """eq-1.1's max_residual on the weighted kernel map of
    cross_block_setup, under the sampler a scenario gets when it names
    none, and on SAMPLES Haar-rotated pairs given as an explicit sampler."""
    a, pair, f = cross_block_setup(weights=weights)
    default = harness._sampler_from_obj(None, f.domain, pair)
    assert default.mode == "disjoint_support"
    haar = hb.explicit_sampler(f.domain, haar_pairs(f.domain, SAMPLES, 0))
    return tuple(
        cj.check_orthogonal_jensen(f, a, sampler, n=SAMPLES, seed=0).max_residual
        for sampler in (default, haar)
    )


def test_weighted_kernel_map_passes_eq_1_1_under_the_default_sampler():
    """ROADMAP item 1(a). f(x) = Psi(x_0 x_0^* + 3 x_1 x_1^*) is not
    orthogonally a-Jensen: on Haar-rotated orthogonal pairs eq-1.1 reads
    far above any tolerance. The default disjoint_support sampler never
    draws two orthogonal vectors that share a coordinate, and on its pairs
    the map reads rounding alone, so eq-1.1 passes. Item 1's generic
    sampler closes the gap; then the first reading fails."""
    on_disjoint, on_haar = eq_1_1_readings((1.0, 3.0))
    assert on_disjoint <= 1e-15
    assert on_haar >= 0.1


def test_unit_weighted_kernel_map_passes_on_both():
    """The control for item 1(a): with equal weights the map is
    Psi(<x, x>), orthogonally a-Jensen, and reads rounding on both
    samplers, so the Haar pairs fail eq-1.1 only where the map does."""
    on_disjoint, on_haar = eq_1_1_readings((1.0, 1.0))
    assert on_disjoint <= 1e-15
    assert on_haar <= 1e-15


def polar_on_haar_pairs(weights):
    """The largest ||B(x, y)|| / (1 + ||B(x, y)||) of the weighted kernel
    map of cross_block_setup over SAMPLES Haar-rotated orthogonal pairs."""
    _, _, f = cross_block_setup(weights=weights)
    pairs = haar_pairs(f.domain, SAMPLES, 0)
    xs, ys = (alg.stack_vectors(f.domain, list(side)) for side in zip(*pairs))
    (b,) = values([idn._polar(*idn._DRAW[:2])], f, (xs, ys))
    norms = alg.module_norm(b)
    return float(np.max(norms / (1.0 + norms)))


def test_weighted_kernel_map_passes_orth_preserving():
    """ROADMAP item 1(b). The same map's polar form B does not preserve
    orthogonality: on Haar-rotated orthogonal pairs ||B(x, y)|| is far from
    0. Thm 2.7's row draws its orthogonal pairs as (phi(z), psi(w)), the
    pair's two coordinates of E, which never share one, so
    thm2.7-B-orth-preserving reads exactly 0 and passes. Item 1's generic
    pairs close the gap; then the row fails."""
    a, pair, f = cross_block_setup(weights=(1.0, 3.0))
    (entry,) = run_rows("thm2.7-B-orth-preserving", f, a=a, pair=pair, n=SAMPLES)
    assert entry.max_residual == 0.0
    assert entry.passed
    assert polar_on_haar_pairs((1.0, 3.0)) >= 0.1


def test_unit_weighted_polar_form_preserves_orthogonality():
    """The control for item 1(b): with equal weights B(x, y) reads rounding
    on the Haar-rotated pairs too."""
    assert polar_on_haar_pairs((1.0, 1.0)) <= 1e-14


REFUSED_PAIRS = [
    "constant_map", "interleave_p010", "interleave_p025", "interleave_p075", "interleave_p090",
]
VALID_PAIRS = [
    "affine_roundtrip", "interleave_p050", "morphism_shift", "quad_negative", "kernel_probe",
]


def scenario_pair(name):
    scenario = harness.load_scenario(catalog.bundled_scenario_path(name))
    return scenario.pair, scenario.coefficient


@pytest.mark.parametrize("name", REFUSED_PAIRS)
def test_a_pair_refused_for_the_scenario_coefficient_still_verifies(name):
    """ROADMAP item 24. The scenario's pair fails the balance condition for
    the scenario's own coefficient, the one Thm 2.7's rows read, yet verify
    exits 0: those rows passed on inputs that do not meet their hypothesis.
    Item 24 checks each family's hypotheses for the coefficient it reads;
    then these rows read not applicable."""
    pair, a = scenario_pair(name)
    with pytest.raises(PairConditionViolated) as refused:
        mp.validate_pair(pair.phi, pair.psi, a)
    assert refused.value.condition == "balance"
    assert refused.value.residual >= 0.1
    assert cli_main(["verify", "--scenario", name]) == 0


@pytest.mark.parametrize("name", VALID_PAIRS)
def test_the_other_pairs_validate_for_the_scenario_coefficient(name):
    """The control for item 24: every other bundled pair validates for its
    scenario's coefficient."""
    pair, a = scenario_pair(name)
    mp.validate_pair(pair.phi, pair.psi, a)


def test_a_map_off_the_kernel_reverifies_at_a_small_scale():
    """ROADMAP item 11 (scale-free). A (1, 1) kernel member plus 0.1 times
    seeded noise is 10 % off the kernel, and reads 0.1495 at scale 1. The
    same map times 1e-9 reads 2.13e-10: the 1 in the residual's denominator
    swamps both sides, and the map re-verifies. Item 2's residual rule
    closes the gap; then the small map fails as the large one does."""
    shape = cj.AlgebraShape((1, 1))
    a = cj.validate_coefficient(cj.AlgebraElement(shape, [[[0.5 + 0.5j]], [[0.5]]]))
    member = cj.solve_abiadditive_kernel(a, cj.ModuleSpace(shape, 1)).basis[0]
    noisy = member.matrix + 0.1 * np.random.default_rng(0).standard_normal(member.matrix.shape)
    large, small = (
        cj.kernel_constraint_residual(mp.KernelMap(member.codomain, s * noisy), a) for s in (1.0, 1e-9)
    )
    assert large >= 0.1
    assert small <= mp.KERNEL_RESIDUAL_TOL


def verify_obj(tmp_path, obj, name):
    """The exit code of verify through cli_main on the scenario obj, and
    eq-1.1's report entry."""
    path, report = tmp_path / f"{name}.json", tmp_path / f"{name}_report.json"
    path.write_text(json.dumps(obj))
    code = cli_main(["verify", "--scenario", str(path), "--report", str(report)])
    (eq_1_1,) = [e for e in json.loads(report.read_text())["results"] if e["id"] == "eq-1.1"]
    return code, eq_1_1


def quad_negative_at(tmp_path, scale):
    """quad_negative with its quad_diag map scaled by scale: the exit code
    of verify through cli_main, and eq-1.1's report entry."""
    obj = json.loads(open(catalog.bundled_scenario_path("quad_negative")).read())
    (entry,) = obj["mappings"]
    assert entry["map"]["kind"] == "quad_diag"
    entry["map"]["scale"] = scale
    return verify_obj(tmp_path, obj, f"quad_{scale}")


def test_quad_negative_passes_at_a_small_scale(tmp_path):
    """ROADMAP item 2. quad_negative's quadratic map breaks eq-1.1 by the
    same relative amount at every scale, and fails at scale 1. At scale
    1e-12 eq-1.1 reads 5.637e-12, below the 1e-9 tolerance, and verify
    exits 0. Item 2's residual rule closes the gap; then it exits 1."""
    code, eq_1_1 = quad_negative_at(tmp_path, 1e-12)
    assert code == 0
    assert eq_1_1["pass"] and eq_1_1["max_residual"] == pytest.approx(5.637e-12, rel=1e-3)


def test_quad_negative_fails_at_scale_1e_9(tmp_path):
    """The control for item 2: at scale 1e-9 eq-1.1 sees the defect, and
    verify exits 1."""
    code, eq_1_1 = quad_negative_at(tmp_path, 1e-9)
    assert code == 1
    assert not eq_1_1["pass"]


def shifted_quadratic_at(tmp_path, scale):
    """morphism_shift with a quad_diag of the given scale added to its
    affine map, g the first basis vector of G: verify's exit code and
    eq-1.1's entry."""
    obj = json.loads(open(catalog.bundled_scenario_path("morphism_shift")).read())
    (entry,) = obj["mappings"]
    space_g = cj.ModuleSpace(cj.AlgebraShape(obj["algebra"]), obj["spaces"]["G"])
    quad = {"kind": "quad_diag", "g": space_g.basis_vector(0).to_obj(), "scale": scale}
    entry["map"] = {"kind": "sum", "children": [entry["map"], quad]}
    return verify_obj(tmp_path, obj, f"shift_{scale}")


def test_a_small_quadratic_defect_passes_under_the_fixed_tolerance(tmp_path):
    """ROADMAP item 20. morphism_shift's affine map plus a quad_diag of
    scale 1e-11 is not orthogonally a-Jensen, yet every id reads below the
    fixed tol of 1e-9: eq-1.1 reads 4.85e-11, and verify exits 0. Item 32's
    large-norm pairs flip this case first; item 20's tolerance from
    rounding then needs its same-degree case."""
    code, eq_1_1 = shifted_quadratic_at(tmp_path, 1e-11)
    assert code == 0
    assert eq_1_1["pass"] and eq_1_1["max_residual"] == pytest.approx(4.85e-11, rel=1e-2)


def test_the_same_defect_fails_at_scale_1e_9(tmp_path):
    """The control for item 20: at scale 1e-9 eq-1.1 reads 4.85e-9 and
    fails, and verify exits 1."""
    code, eq_1_1 = shifted_quadratic_at(tmp_path, 1e-9)
    assert code == 1
    assert not eq_1_1["pass"] and eq_1_1["max_residual"] == pytest.approx(4.85e-9, rel=1e-2)


def balance_on_random_vectors(pair, a, rng, n=50):
    """The largest residual of a <phi(z), phi(w)> a^* = (1-a) <psi(z),
    psi(w)> (1-a)^* over n random pairs (z, w) of F."""
    z, w = hb.sample_stacks(pair.phi.domain, rng, n, 2)
    sides = (
        alg.act(alg.act(c, hb.inner_product(m(z), m(w))), alg.adjoint(c))
        for c, m in ((a.value, pair.phi), (a.co, pair.psi))
    )
    return float(np.max(alg.vec_residual(*sides)))


def test_an_inclusion_pair_validates_for_a_coefficient_it_does_not_balance():
    """ROADMAP item 3(a). validate_pair decides the pair conditions on
    basis vectors only, which settles them only for a central coefficient.
    inclusion_pair for a random strict non-central a over (2,), (2, 1) and
    (3, 2) validates, yet its balance condition on 50 random (z, w) reads
    0.61, 0.28 and 0.80. Item 17's exact decision closes the gap; then
    validate_pair refuses these pairs. A scalar coefficient is the
    control: its balance reads rounding on the same vectors."""
    rng = np.random.default_rng(0)
    for dims in ((2,), (2, 1), (3, 2)):
        shape = cj.AlgebraShape(dims)
        a = random_strict_coefficient(shape, rng)
        assert not all(np.allclose(b, b[0, 0] * np.eye(len(b))) for b in a.value.blocks)
        pair = cj.inclusion_pair(shape, 1, 2, a)
        mp.validate_pair(pair.phi, pair.psi, a)
        state = rng.bit_generator.state
        assert balance_on_random_vectors(pair, a, rng) >= 0.1, dims
        scalar = cj.validate_coefficient(cj.vec_scale(cj.unit(shape), 0.3), require_strict_order=True)
        control = cj.inclusion_pair(shape, 1, 2, scalar)
        rng.bit_generator.state = state
        assert balance_on_random_vectors(control, scalar, rng) <= 1e-15, dims


def perturb_negative_without_its_sampler(tmp_path, samples):
    obj = json.loads(open(catalog.bundled_scenario_path("perturb_negative")).read())
    del obj["sampler"]
    obj["samples"] = samples
    return verify_obj(tmp_path, obj, f"perturb_{samples}")


@pytest.mark.parametrize("samples", [12, 200])
def test_a_bump_passes_without_the_pair_that_hits_it(tmp_path, samples):
    """ROADMAP item 12. perturb_negative's bump fails only because its
    explicit pair hits the bump's site. With its sampler removed the
    default disjoint_support pairs never come near the site: eq-1.1 reads
    3.7e-17 at 12 and at 200 samples, and verify exits 0. Item 12's
    anchored pairs close the gap; then the 12-sample run exits 1."""
    code, eq_1_1 = perturb_negative_without_its_sampler(tmp_path, samples)
    assert code == 0
    assert eq_1_1["pass"] and eq_1_1["max_residual"] <= 1e-15


def test_the_bundled_perturb_negative_fails(tmp_path):
    """The control for item 12: the bundled file, with its explicit pair,
    exits 1, with eq-1.1 at 2.857e-2."""
    obj = json.loads(open(catalog.bundled_scenario_path("perturb_negative")).read())
    code, eq_1_1 = verify_obj(tmp_path, obj, "perturb_bundled")
    assert code == 1
    assert not eq_1_1["pass"] and eq_1_1["max_residual"] == pytest.approx(2.857e-2, rel=1e-3)
