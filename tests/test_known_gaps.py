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

from support import cross_block_setup, haar_pairs, run_rows, values

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
    0. The decompose row draws its orthogonal pairs as (phi(z), psi(w)),
    the pair's two coordinates of E, which never share one, so
    thm2.7-B-orth-preserving reads exactly 0 and passes. Item 1's generic
    pairs close the gap; then the row fails."""
    a, pair, f = cross_block_setup(weights=(1.0, 3.0))
    entries = run_rows("decompose", f, a=a, pair=pair, n=SAMPLES)
    (entry,) = [e for e in entries if e.identity_id == "thm2.7-B-orth-preserving"]
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


def quad_negative_at(tmp_path, scale):
    """quad_negative with its quad_diag map scaled by scale: the exit code
    of verify through cli_main, and eq-1.1's report entry."""
    obj = json.loads(open(catalog.bundled_scenario_path("quad_negative")).read())
    (entry,) = obj["mappings"]
    assert entry["map"]["kind"] == "quad_diag"
    entry["map"]["scale"] = scale
    path, report = tmp_path / f"quad_{scale}.json", tmp_path / f"report_{scale}.json"
    path.write_text(json.dumps(obj))
    code = cli_main(["verify", "--scenario", str(path), "--report", str(report)])
    (eq_1_1,) = [e for e in json.loads(report.read_text())["results"] if e["id"] == "eq-1.1"]
    return code, eq_1_1


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
