"""Identity checks, the odd/even split and the certified decomposition."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cstar_jensen as cj
from cstar_jensen import identities as idn
from cstar_jensen import mappings as mp
from cstar_jensen.errors import (
    DomainError,
    InvalidSampler,
    PairConditionViolated,
    PairNotValidated,
)

from support import SHAPES, random_affine, random_strict_coefficient, seeds

SCALAR = cj.AlgebraShape((1,))
TWO_BLOCKS = cj.AlgebraShape((1, 1))


def scalar_space(rank):
    return cj.ModuleSpace(SCALAR, rank)


def scalar_coefficient(shape, p):
    return cj.validate_coefficient(
        cj.scale(cj.unit(shape), p), require_strict_order=True
    )


def simple_affine():
    """f(x) = 3x + 5 over E = G = C."""
    space = scalar_space(1)
    three = cj.scale(cj.unit(SCALAR), 3.0)
    five = cj.vec_scale(space.basis_vector(0), 5.0)
    return cj.compose_jensen(cj.linear_map([[three]]), None, five)


class KernelQuad:
    """f(x) = Psi(<x, x>) for an intertwining Psi; genuinely a-Jensen."""

    def __init__(self, domain, psi):
        self.domain = domain
        self.codomain = psi.target
        self.psi = psi

    def __call__(self, x):
        return self.psi(cj.inner_product(x, x))


def cross_block_setup(rank=1):
    """Coefficient (1/2, (1+i)/2) with a nonzero intertwining kernel."""
    a = cj.validate_coefficient(
        cj.AlgebraElement(TWO_BLOCKS, [[[0.5]], [[0.5 + 0.5j]]])
    )
    space_f = cj.ModuleSpace(TWO_BLOCKS, 1)
    space_e = cj.ModuleSpace(TWO_BLOCKS, 2)
    z = cj.zero(TWO_BLOCKS)
    one = cj.unit(TWO_BLOCKS)
    phi = cj.linear_map([[one, z]])
    psi = cj.linear_map([[z, one]])
    pair = cj.validate_pair(phi, psi, a)
    target = cj.ModuleSpace(TWO_BLOCKS, rank)
    solution = cj.solve_abiadditive_kernel(a, target)
    f = KernelQuad(space_e, solution.basis[0])
    return a, pair, f


class TestScalingSuite:
    def test_exact_for_simple_affine(self):
        f = simple_affine()
        a = scalar_coefficient(SCALAR, 0.5)
        xs = [
            cj.vec_scale(scalar_space(1).basis_vector(0), t)
            for t in (0.0, 1.0, -2.0, 0.7)
        ]
        for entry in cj.scaling_identity_suite(f, a, xs):
            assert entry.passed
            assert entry.max_residual < 1e-14

    def test_quarter_residual_for_unit_quadratic(self):
        # f(x) = <x, x> g, a = 1/2, |x| = 1:
        # identity i gives |2 - 1| / (1 + 2 + 1) = 1/4 exactly
        space = scalar_space(1)
        g_space = scalar_space(1)
        f = mp.QuadDiag(space, g_space.basis_vector(0), 0.5)
        a = scalar_coefficient(SCALAR, 0.5)
        entries = cj.scaling_identity_suite(f, a, [space.basis_vector(0)])
        first = entries[0]
        assert first.identity_id == "lemma2.1-i"
        assert not first.passed
        assert first.max_residual == pytest.approx(0.25, abs=1e-14)

    @given(st.sampled_from(SHAPES), seeds())
    @settings(max_examples=25, deadline=None)
    def test_affine_passes_for_any_strict_coefficient(self, dims, seed):
        shape = cj.AlgebraShape(dims)
        rng = np.random.default_rng(seed)
        space_e = cj.ModuleSpace(shape, 3)
        space_g = cj.ModuleSpace(shape, 2)
        f = random_affine(space_e, space_g, rng)
        a = random_strict_coefficient(shape, rng)
        xs = [cj.sample_vector(space_e, rng) for _ in range(8)]
        for entry in cj.scaling_identity_suite(f, a, xs):
            assert entry.max_residual < 1e-11, entry.identity_id

    def test_report_ids_in_order(self):
        f = simple_affine()
        a = scalar_coefficient(SCALAR, 0.25)
        ids = [
            e.identity_id
            for e in cj.scaling_identity_suite(f, a, [scalar_space(1).zero()])
        ]
        assert ids == list(idn.SCALING_IDS)


class TestOrthogonalJensen:
    def test_affine_passes_on_disjoint_sampler(self):
        shape = cj.AlgebraShape((2, 1))
        space_e = cj.ModuleSpace(shape, 4)
        space_g = cj.ModuleSpace(shape, 1)
        rng = np.random.default_rng(14)
        f = random_affine(space_e, space_g, rng)
        a = random_strict_coefficient(shape, rng)
        sampler = cj.disjoint_support_sampler(space_e, [0, 1], [2, 3])
        entry = cj.check_orthogonal_jensen(f, a, sampler, n=50, seed=[1])
        assert entry.passed
        assert entry.samples == 50

    def test_quadratic_fails_for_scalar_coefficient(self):
        space_e = scalar_space(2)
        f = mp.QuadDiag(space_e, scalar_space(1).basis_vector(0), 1.0)
        a = scalar_coefficient(SCALAR, 0.5)
        sampler = cj.disjoint_support_sampler(space_e, [0], [1])
        entry = cj.check_orthogonal_jensen(f, a, sampler, n=40, seed=[2])
        assert not entry.passed
        assert entry.max_residual > 1e-3
        assert entry.worst_input is not None

    def test_kernel_quadratic_is_jensen(self):
        a, pair, f = cross_block_setup()
        sampler = cj.pair_image_sampler(pair)
        entry = cj.check_orthogonal_jensen(f, a, sampler, n=40, seed=[3])
        assert entry.passed

    def test_rejects_lying_sampler(self):
        space = scalar_space(2)
        x = space.basis_vector(0)
        y = cj.vec_add(space.basis_vector(0), space.basis_vector(1))
        sampler = cj.explicit_sampler(space, [(x, y)])
        f = cj.zero_linear(space, scalar_space(1))
        a = scalar_coefficient(SCALAR, 0.5)
        with pytest.raises(InvalidSampler):
            cj.check_orthogonal_jensen(f, a, sampler, n=1)


class TestPairExpansion:
    def test_affine_exact_over_interleave(self):
        pair = cj.interleave_pair(0.25, 8)
        rng = np.random.default_rng(15)
        f = random_affine(pair.phi.codomain, scalar_space(2), rng)
        samples = [
            (
                cj.sample_vector(pair.phi.domain, rng),
                cj.sample_vector(pair.phi.domain, rng),
            )
            for _ in range(20)
        ]
        entry = cj.pair_expansion_check(f, pair, samples)
        assert entry.passed
        assert entry.max_residual < 1e-12

    def test_orthogonality_display_vanishes(self):
        pair = cj.interleave_pair(0.75, 8)
        rng = np.random.default_rng(16)
        samples = [
            (
                cj.sample_vector(pair.phi.domain, rng),
                cj.sample_vector(pair.phi.domain, rng),
            )
            for _ in range(20)
        ]
        entry = idn.orthogonality_identity_check(pair, samples)
        assert entry.passed

    def test_display_detects_broken_balance(self):
        # psi scaled the wrong way: the display norm is order one
        space_f = scalar_space(1)
        z, one = cj.zero(SCALAR), cj.unit(SCALAR)
        phi = cj.linear_map([[one, z]])
        psi = cj.linear_map([[z, cj.scale(one, 3.0)]])
        a = scalar_coefficient(SCALAR, 0.5)
        e0 = space_f.basis_vector(0)
        norm = idn.orthogonality_display_norm(phi, psi, a, e0, e0)
        assert norm > 1e-3

    def test_requires_validated_pair(self):
        broken = mp.AdditivePair(
            cj.zero_linear(scalar_space(1), scalar_space(2)),
            cj.zero_linear(scalar_space(1), scalar_space(2)),
            scalar_coefficient(SCALAR, 0.5),
            False,
            math.inf,
            math.inf,
        )
        with pytest.raises(PairNotValidated):
            cj.pair_expansion_check(simple_affine(), broken, [])


class TestOddEvenSplit:
    def test_parts_recombine(self):
        space_e = scalar_space(2)
        rng = np.random.default_rng(17)
        f = random_affine(space_e, scalar_space(1), rng)
        odd, even = cj.odd_even_split(f)
        x = cj.sample_vector(space_e, rng)
        back = cj.vec_add(odd(x), even(x))
        assert cj.vec_residual(back, f(x)) < 1e-14

    def test_additive_part_vanishes_at_zero(self):
        f = simple_affine()
        A = cj.extract_additive_part(f)
        assert cj.module_norm(A(f.domain.zero())) == 0.0

    def test_polar_form_bitwise_symmetric(self):
        space_e = cj.ModuleSpace(TWO_BLOCKS, 3)
        rng = np.random.default_rng(18)
        f = random_affine(space_e, cj.ModuleSpace(TWO_BLOCKS, 1), rng)
        B = cj.extract_quadratic_form(f)
        x = cj.sample_vector(space_e, rng)
        y = cj.sample_vector(space_e, rng)
        assert cj.vec_residual(B(x, y), B(y, x)) == 0.0

    def test_polar_form_kills_zero_argument(self):
        space_e = scalar_space(2)
        rng = np.random.default_rng(19)
        f = random_affine(space_e, scalar_space(1), rng)
        B = cj.extract_quadratic_form(f)
        x = cj.sample_vector(space_e, rng)
        assert cj.module_norm(B(x, space_e.zero())) == 0.0

    def test_polarization_recovers_quad_form(self):
        space_e = cj.ModuleSpace(TWO_BLOCKS, 2)
        g_space = cj.ModuleSpace(TWO_BLOCKS, 1)
        bimap, diag = cj.quad_form(space_e, g_space.basis_vector(0), 0.8)
        B = cj.extract_quadratic_form(diag)
        rng = np.random.default_rng(20)
        for _ in range(10):
            x = cj.sample_vector(space_e, rng)
            y = cj.sample_vector(space_e, rng)
            assert cj.vec_residual(B(x, y), bimap(x, y)) < 1e-12


class TestPairRangeChecks:
    def test_linear_is_additive_on_range(self):
        pair = cj.interleave_pair(0.5, 8)
        rng = np.random.default_rng(21)
        f = random_affine(pair.phi.codomain, scalar_space(1), rng)
        A = cj.extract_additive_part(f)
        entry = idn.check_additivity_on_pair_range(A, pair, n=30, seed=[4])
        assert entry.passed

    def test_quadratic_is_not_additive(self):
        pair = cj.interleave_pair(0.5, 8)
        f = mp.QuadDiag(pair.phi.codomain, scalar_space(1).basis_vector(0), 1.0)
        entry = idn.check_additivity_on_pair_range(f, pair, n=30, seed=[5])
        assert not entry.passed
        assert entry.max_residual > 1e-3

    def test_quad_diag_satisfies_quadratic_equation(self):
        pair = cj.interleave_pair(0.5, 8)
        f = mp.QuadDiag(pair.phi.codomain, scalar_space(1).basis_vector(0), 1.0)
        entry = idn.check_quadratic_on_pair_range(f, pair, n=30, seed=[6])
        assert entry.passed
        assert entry.max_residual < 1e-12

    def test_linear_fails_quadratic_equation(self):
        pair = cj.interleave_pair(0.5, 8)
        rng = np.random.default_rng(22)
        f = random_affine(pair.phi.codomain, scalar_space(1), rng)
        A = cj.extract_additive_part(f)
        entry = idn.check_quadratic_on_pair_range(A, pair, n=30, seed=[7])
        assert not entry.passed
        assert entry.max_residual > 1e-3

    def test_balance_identities_hold_at_half(self):
        pair = cj.interleave_pair(0.5, 8)
        f = mp.QuadDiag(pair.phi.codomain, scalar_space(1).basis_vector(0), 1.0)
        doubled, plain = idn.check_pair_balance_identities(f, pair, n=20, seed=[8])
        assert doubled.identity_id == "prop2.5-id211"
        assert plain.identity_id == "prop2.5-id212"
        assert doubled.passed and plain.passed

    def test_balance_identities_fail_off_half(self):
        pair = cj.interleave_pair(0.25, 8)
        f = mp.QuadDiag(pair.phi.codomain, scalar_space(1).basis_vector(0), 1.0)
        doubled, plain = idn.check_pair_balance_identities(f, pair, n=20, seed=[9])
        assert not doubled.passed and not plain.passed
        assert doubled.max_residual > 1e-3


class TestDecompose:
    def test_affine_decomposition_certifies(self):
        shape = cj.AlgebraShape((2,))
        rng = np.random.default_rng(23)
        a = random_strict_coefficient(shape, rng)
        pair = cj.inclusion_pair(shape, 1, 3, a)
        f = random_affine(pair.phi.codomain, cj.ModuleSpace(shape, 2), rng)
        dec = cj.decompose(f, a, pair, n=40, seed=[10])
        assert dec.passed
        report = {e.identity_id: e for e in dec.property_report}
        assert set(report) == {
            "thm2.7-reconstruct",
            "prop2.3-additive",
            "thm2.7-A-a-additive",
            "thm2.7-B-symmetric",
            "thm2.7-B-biadditive",
            "thm2.7-B-a-biadditive",
            "thm2.7-B-orth-preserving",
        }
        x = cj.sample_vector(pair.phi.codomain, rng)
        assert cj.module_norm(dec.B(x, x)) < 1e-9

    def test_kernel_quadratic_decomposition_certifies(self):
        a, pair, f = cross_block_setup()
        dec = cj.decompose(f, a, pair, n=40, seed=[11])
        assert dec.passed
        # B is genuinely nonzero here
        x = idn.sample_pair_range(pair, [12])
        assert cj.module_norm(dec.B(x, x)) > 1e-3

    def test_quad_diag_breaks_only_a_biadditivity(self):
        pair = cj.interleave_pair(0.5, 4)
        a = scalar_coefficient(SCALAR, 0.5)
        f = mp.QuadDiag(pair.phi.codomain, scalar_space(1).basis_vector(0), 1.0)
        dec = cj.decompose(f, a, pair, n=30, seed=[13])
        report = {e.identity_id: e for e in dec.property_report}
        assert not dec.passed
        assert not report["thm2.7-B-a-biadditive"].passed
        assert report["thm2.7-B-a-biadditive"].max_residual > 1e-3
        assert report["thm2.7-reconstruct"].passed
        assert report["thm2.7-B-symmetric"].passed
        assert report["thm2.7-B-biadditive"].passed
        assert report["thm2.7-B-orth-preserving"].passed

    def test_two_seeds_agree(self):
        shape = cj.AlgebraShape((1,))
        rng = np.random.default_rng(24)
        a = scalar_coefficient(shape, 0.35)
        pair = cj.inclusion_pair(shape, 2, 4, a)
        f = random_affine(pair.phi.codomain, scalar_space(1), rng)
        first = cj.decompose(f, a, pair, n=20, seed=[14])
        second = cj.decompose(f, a, pair, n=20, seed=[15])
        entry = cj.uniqueness_check(f, first, second, n=30, tol=1e-10, seed=[16])
        assert entry.passed

    def test_uniqueness_detects_shifted_additive_part(self):
        shape = cj.AlgebraShape((1,))
        rng = np.random.default_rng(25)
        a = scalar_coefficient(shape, 0.5)
        pair = cj.inclusion_pair(shape, 2, 4, a)
        space_e = pair.phi.codomain
        f = random_affine(space_e, scalar_space(1), rng)
        g = cj.compose_jensen(
            mp.Sum([f, random_affine(space_e, scalar_space(1), rng)]),
            None,
            scalar_space(1).zero(),
        )
        first = cj.decompose(f, a, pair, n=20, seed=[17])
        second = cj.decompose(g, a, pair, n=20, seed=[18])
        entry = cj.uniqueness_check(f, first, second, n=30, tol=1e-10, seed=[19])
        assert not entry.passed
        assert entry.max_residual > 1e-3


class TestScalarReduction:
    @pytest.mark.parametrize("p", [1 / 3, 0.5, 0.75])
    def test_affine_quadratic_part_vanishes(self, p):
        pair = cj.interleave_pair(p, 8)
        rng = np.random.default_rng(26)
        f = random_affine(pair.phi.codomain, scalar_space(1), rng)
        entry = cj.check_scalar_affine_reduction(f, p, pair, n=30, seed=[20])
        assert entry.identity_id == "cor2.9-B-vanishes"
        assert entry.passed

    def test_injected_quadratic_detected(self):
        p = 0.5
        pair = cj.interleave_pair(p, 8)
        rng = np.random.default_rng(27)
        space_e = pair.phi.codomain
        quad = mp.QuadDiag(space_e, scalar_space(1).basis_vector(0), 1.0)
        f = mp.Sum([random_affine(space_e, scalar_space(1), rng), quad])
        entry = cj.check_scalar_affine_reduction(f, p, pair, n=30, seed=[21])
        assert not entry.passed
        assert entry.max_residual > 1e-3

    def test_nonconforming_pair_rejected(self):
        # the inclusion pair balances the unswapped condition, which for
        # p != 1/2 breaks the swapped one this check needs
        shape = cj.AlgebraShape((1,))
        a = scalar_coefficient(shape, 0.3)
        pair = cj.inclusion_pair(shape, 1, 2, a)
        f = random_affine(pair.phi.codomain, scalar_space(1), np.random.default_rng(28))
        with pytest.raises(PairConditionViolated):
            cj.check_scalar_affine_reduction(f, 0.3, pair, n=5, seed=[22])

    @pytest.mark.parametrize("bad", [0.0, 1.0, -1.0])
    def test_p_range_checked(self, bad):
        pair = cj.interleave_pair(0.5, 4)
        f = cj.zero_linear(pair.phi.codomain, scalar_space(1))
        with pytest.raises(DomainError):
            cj.check_scalar_affine_reduction(f, bad, pair)


class TestBumpSensitivity:
    def test_residual_grows_with_bump_size(self):
        space_e = scalar_space(2)
        space_g = scalar_space(1)
        site = space_e.basis_vector(0)
        other = space_e.basis_vector(1)
        a = scalar_coefficient(SCALAR, 0.5)
        sampler = cj.explicit_sampler(space_e, [(site, other)])
        base = cj.zero_linear(space_e, space_g)
        seen = []
        for size in (0.05, 0.1, 0.2, 0.4):
            delta = cj.vec_scale(space_g.basis_vector(0), size)
            f = cj.perturb(base, site, delta, 0.05)
            entry = cj.check_orthogonal_jensen(f, a, sampler, n=3, seed=[23])
            seen.append(entry.max_residual)
        assert all(r > 1e-3 for r in seen)
        assert seen == sorted(seen)


class TestWorstTracking:
    @pytest.mark.parametrize(
        "residuals",
        [[0.0, math.nan], [math.nan, 0.0], [0.1, math.nan, 0.2], [math.inf, math.nan, 1.0]],
    )
    def test_nan_residual_fails_the_check(self, residuals):
        worst = idn._Worst()
        for i, r in enumerate(residuals):
            worst.update(r, lambda i=i: {"index": i})
        entry = worst.result("eq-1.1", 1e-9)
        assert not entry.passed
        assert math.isnan(entry.max_residual)
        first_nan = next(i for i, r in enumerate(residuals) if math.isnan(r))
        assert entry.worst_input == {"index": first_nan}
        assert entry.samples == len(residuals)

    def test_finite_residuals_keep_the_largest(self):
        worst = idn._Worst()
        for i, r in enumerate([0.0, 3e-12, 1e-12, 3e-12]):
            worst.update(r, lambda i=i: {"index": i})
        entry = worst.result("eq-1.1", 1e-9)
        assert entry.passed and entry.max_residual == 3e-12
        assert entry.worst_input == {"index": 1}
