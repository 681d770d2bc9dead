"""Mapping constructors, pair validation and the intertwining kernel solver."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cstar_jensen as cj
from cstar_jensen import mappings as mp
from cstar_jensen.errors import (
    DomainError,
    PairConditionViolated,
    SpaceMismatch,
    ValidationError,
)

from support import (
    SHAPES,
    random_affine,
    random_element,
    random_strict_coefficient,
    ref_kernel_constraint_residual,
    ref_pair_condition_residuals,
    seeds,
)

SCALAR = cj.AlgebraShape((1,))
TWO_BLOCKS = cj.AlgebraShape((1, 1))


def scalar_space(rank):
    return cj.ModuleSpace(SCALAR, rank)


def inclusion(space_f, e_rank, column, weight=None):
    shape = space_f.algebra
    z = cj.zero(shape)
    w = cj.unit(shape) if weight is None else weight
    coeffs = [[z] * e_rank for _ in range(space_f.rank)]
    coeffs[0][column] = w
    return cj.Linear(coeffs)


class TestLinear:
    @given(st.sampled_from(SHAPES), seeds())
    @settings(max_examples=30)
    def test_module_linearity(self, dims, seed):
        shape = cj.AlgebraShape(dims)
        rng = np.random.default_rng(seed)
        domain = cj.ModuleSpace(shape, 3)
        codomain = cj.ModuleSpace(shape, 2)
        coeffs = [
            [random_element(shape, rng) for _ in range(2)] for _ in range(3)
        ]
        t = cj.Linear(coeffs)
        b = random_element(shape, rng)
        x = cj.sample_vector(domain, rng)
        y = cj.sample_vector(domain, rng)
        additive = cj.vec_residual(
            t(cj.vec_add(x, y)), cj.vec_add(t(x), t(y))
        )
        homog = cj.vec_residual(t(cj.act(b, x)), cj.act(b, t(x)))
        assert additive < 1e-12
        assert homog < 1e-12

    def test_wrong_space_rejected(self):
        t = cj.zero_linear(scalar_space(2), scalar_space(1))
        with pytest.raises(SpaceMismatch):
            t(scalar_space(3).zero())

    def test_ragged_coefficients_rejected(self):
        one = cj.unit(SCALAR)
        with pytest.raises(cj.ShapeError):
            cj.Linear([[one], [one, one]])


class TestQuadForm:
    def setup_method(self):
        self.space = cj.ModuleSpace(TWO_BLOCKS, 2)
        self.g_space = cj.ModuleSpace(TWO_BLOCKS, 1)
        self.diag = mp.QuadDiag(self.space, self.g_space.basis_vector(0), 0.75)
        self.bimap = self.diag.bimap

    def test_diagonal_matches_bimap(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = cj.sample_vector(self.space, rng)
            assert cj.vec_residual(self.diag(x), self.bimap(x, x)) < 1e-14

    def test_bimap_symmetric(self):
        rng = np.random.default_rng(4)
        x = cj.sample_vector(self.space, rng)
        y = cj.sample_vector(self.space, rng)
        assert cj.vec_residual(self.bimap(x, y), self.bimap(y, x)) < 1e-14

    def test_bimap_biadditive(self):
        rng = np.random.default_rng(5)
        x, y, z = (cj.sample_vector(self.space, rng) for _ in range(3))
        lhs = self.bimap(cj.vec_add(x, y), z)
        rhs = cj.vec_add(self.bimap(x, z), self.bimap(y, z))
        assert cj.vec_residual(lhs, rhs) < 1e-13

    def test_not_a_biadditive_for_scalar_coefficient(self):
        # B(a.x, a.x) = |a|^2 B(x, x), never a B(x, x) for a in (0, 1)
        a = cj.validate_coefficient(
            cj.scale(cj.unit(TWO_BLOCKS), 1 / 3), require_strict_order=True
        )
        rng = np.random.default_rng(6)
        x = cj.sample_vector(self.space, rng)
        ax = cj.act(a.value, x)
        r = cj.vec_residual(self.bimap(ax, ax), cj.act(a.value, self.bimap(x, x)))
        assert r > 1e-3

    def test_complex_scale_rejected(self):
        with pytest.raises(DomainError):
            mp.QuadDiag(self.space, self.g_space.basis_vector(0), 0.5 + 0.1j)

    def test_diag_is_even(self):
        rng = np.random.default_rng(7)
        x = cj.sample_vector(self.space, rng)
        assert cj.vec_residual(self.diag(x), self.diag(cj.vec_neg(x))) == 0.0


class TestBump:
    def test_fires_only_inside_radius(self):
        space = scalar_space(2)
        g_space = scalar_space(1)
        site = space.basis_vector(0)
        delta = cj.vec_scale(g_space.basis_vector(0), 0.1)
        base = cj.zero_linear(space, g_space)
        f = cj.perturb(base, site, delta, 0.05)
        assert cj.module_norm(f(site)) == pytest.approx(0.1, abs=1e-15)
        assert cj.module_norm(f(space.basis_vector(1))) == 0.0

    def test_radius_must_be_positive(self):
        space = scalar_space(2)
        with pytest.raises(DomainError):
            cj.perturb(
                cj.zero_linear(space, scalar_space(1)),
                space.basis_vector(0),
                scalar_space(1).basis_vector(0),
                0.0,
            )


class TestSerializationRoundtrip:
    def test_every_kind(self):
        space_e = scalar_space(2)
        space_g = scalar_space(1)
        rng = np.random.default_rng(8)
        quad = mp.QuadDiag(space_e, space_g.basis_vector(0), 0.5)
        bumped = cj.perturb(
            random_affine(space_e, space_g, rng),
            space_e.basis_vector(0),
            cj.vec_scale(space_g.basis_vector(0), 0.2),
            0.1,
        )
        candidates = [quad, bumped, cj.zero_linear(space_e, space_g)]
        probe = cj.sample_vector(space_e, rng)
        for f in candidates:
            back = cj.mapping_from_obj(cj.mapping_to_obj(f), space_e, space_g)
            assert cj.vec_residual(back(probe), f(probe)) == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            cj.mapping_from_obj(
                {"kind": "mystery"}, scalar_space(1), scalar_space(1)
            )

    def test_space_mismatch_detected(self):
        f = cj.zero_linear(scalar_space(2), scalar_space(1))
        with pytest.raises(SpaceMismatch):
            cj.mapping_from_obj(
                cj.mapping_to_obj(f), scalar_space(3), scalar_space(1)
            )


class TestInterleavePair:
    def test_frozen_values_at_half(self):
        pair = cj.interleave_pair(0.5, 4)
        e0 = pair.phi.domain.basis_vector(0)
        gram = cj.inner_product(pair.phi(e0), pair.phi(e0))
        # 1/(1-p)^2 = 4, and a <.,.> a* scales it back to 1
        assert cj.cstar_norm(gram) == pytest.approx(4.0, abs=1e-12)
        a = pair.coefficient
        balanced = cj.mul(cj.mul(a.value, gram), cj.adjoint(a.value))
        assert cj.cstar_norm(balanced) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.75, 0.9])
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_validates_exactly(self, p, n):
        pair = cj.interleave_pair(p, n)
        orth, balance = cj.pair_condition_residuals(
            pair.phi, pair.psi, pair.coefficient
        )
        assert pair.validated
        assert orth <= 1e-12
        assert balance <= 1e-12

    def test_coefficient_is_one_minus_p(self):
        pair = cj.interleave_pair(0.3, 4)
        expect = cj.scale(cj.unit(SCALAR), 0.7)
        assert cj.residual(pair.coefficient.value, expect) < 1e-15

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_p_out_of_range(self, bad):
        with pytest.raises(DomainError):
            cj.interleave_pair(bad, 4)

    @pytest.mark.parametrize("bad", [0, 1, 3, 7])
    def test_rank_must_be_even(self, bad):
        with pytest.raises(DomainError):
            cj.interleave_pair(0.5, bad)


class TestPairValidation:
    def test_balance_violation_reported(self):
        space_f = scalar_space(1)
        phi = inclusion(space_f, 2, 0)
        psi = inclusion(space_f, 2, 1, cj.scale(cj.unit(SCALAR), 2.0))
        a = cj.validate_coefficient(
            cj.scale(cj.unit(SCALAR), 0.5), require_strict_order=True
        )
        with pytest.raises(PairConditionViolated) as info:
            cj.validate_pair(phi, psi, a)
        assert info.value.condition == "balance"
        assert info.value.residual > 1e-3

    def test_orthogonality_violation_reported(self):
        space_f = scalar_space(1)
        phi = inclusion(space_f, 2, 0)
        a = cj.validate_coefficient(
            cj.scale(cj.unit(SCALAR), 0.5), require_strict_order=True
        )
        with pytest.raises(PairConditionViolated) as info:
            cj.validate_pair(phi, phi, a)
        assert info.value.condition == "orthogonality"

    def test_domain_mismatch(self):
        phi = inclusion(scalar_space(1), 2, 0)
        psi = inclusion(scalar_space(2), 2, 1)
        a = cj.validate_coefficient(
            cj.scale(cj.unit(SCALAR), 0.5), require_strict_order=True
        )
        with pytest.raises(SpaceMismatch):
            cj.validate_pair(phi, psi, a)

    def test_morphism_shift_pair(self):
        pair = cj.morphism_shift_pair(cj.AlgebraShape((2, 1)), 3)
        orth, balance = cj.pair_condition_residuals(
            pair.phi, pair.psi, pair.coefficient
        )
        assert orth == 0.0 and balance == 0.0
        # phi preserves inner products
        rng = np.random.default_rng(9)
        z = cj.sample_vector(pair.phi.domain, rng)
        w = cj.sample_vector(pair.phi.domain, rng)
        lhs = cj.inner_product(pair.phi(z), pair.phi(w))
        assert cj.residual(lhs, cj.inner_product(z, w)) == 0.0

    @given(st.sampled_from(SHAPES), seeds())
    @settings(max_examples=25, deadline=None)
    def test_inclusion_pair_balances_any_strict_coefficient(self, dims, seed):
        shape = cj.AlgebraShape(dims)
        rng = np.random.default_rng(seed)
        a = random_strict_coefficient(shape, rng)
        pair = cj.inclusion_pair(shape, 1, 3, a)
        orth, balance = cj.pair_condition_residuals(
            pair.phi, pair.psi, pair.coefficient
        )
        assert orth == 0.0
        assert balance < 1e-12

    def test_inclusion_pair_needs_room(self):
        a = cj.validate_coefficient(
            cj.scale(cj.unit(SCALAR), 0.4), require_strict_order=True
        )
        with pytest.raises(DomainError):
            cj.inclusion_pair(SCALAR, 2, 3, a)


class TestUnitaryEquivalence:
    def test_swap_is_unitary(self):
        z, one = cj.zero(SCALAR), cj.unit(SCALAR)
        swap = cj.Linear([[z, one], [one, z]])
        assert cj.check_unitary_equivalence(swap)

    def test_doubling_is_not(self):
        z, one = cj.zero(SCALAR), cj.unit(SCALAR)
        double = cj.Linear([[cj.scale(one, 2.0), z], [z, cj.scale(one, 2.0)]])
        assert not cj.check_unitary_equivalence(double)

    @given(seeds())
    @settings(max_examples=20)
    def test_adjoint_map_is_the_adjoint(self, seed):
        rng = np.random.default_rng(seed)
        domain = cj.ModuleSpace(TWO_BLOCKS, 2)
        codomain = cj.ModuleSpace(TWO_BLOCKS, 3)
        coeffs = [
            [random_element(TWO_BLOCKS, rng) for _ in range(3)] for _ in range(2)
        ]
        u = cj.Linear(coeffs)
        u_star = cj.adjoint_map(u)
        x = cj.sample_vector(domain, rng)
        y = cj.sample_vector(codomain, rng)
        lhs = cj.inner_product(u(x), y)
        rhs = cj.inner_product(x, u_star(y))
        assert cj.residual(lhs, rhs) < 1e-12


def unitary_element(shape, rng):
    blocks = []
    for d in shape.block_dims:
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        blocks.append(q)
    return cj.AlgebraElement(shape, blocks)


class TestUnitaryOnMatrixBlocks:
    SHAPE = cj.AlgebraShape((2, 1))

    def block_diagonal(self, seed):
        rng = np.random.default_rng(seed)
        z = cj.zero(self.SHAPE)
        u1, u2 = unitary_element(self.SHAPE, rng), unitary_element(self.SHAPE, rng)
        return [[u1, z], [z, u2]], rng

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_block_diagonal_unitary_passes(self, seed):
        coeffs, _ = self.block_diagonal(seed)
        assert cj.check_unitary_equivalence(cj.Linear(coeffs))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 1)])
    def test_perturbed_by_1e_6_fails(self, seed, entry):
        coeffs, rng = self.block_diagonal(seed)
        i, j = entry
        coeffs[i][j] = cj.add(coeffs[i][j], random_element(self.SHAPE, rng, spread=1e-6))
        assert not cj.check_unitary_equivalence(cj.Linear(coeffs))

    def test_mixing_unitary_passes(self):
        rng = np.random.default_rng(4)
        u1, u2 = unitary_element(self.SHAPE, rng), unitary_element(self.SHAPE, rng)
        h = 2 ** -0.5
        coeffs = [[cj.scale(u1, h), cj.scale(u2, h)], [cj.scale(u1, h), cj.scale(u2, -h)]]
        assert cj.check_unitary_equivalence(cj.Linear(coeffs))

    def test_isometry_onto_a_larger_space_fails(self):
        # u* u is the identity, u u* a projection
        u1 = unitary_element(self.SHAPE, np.random.default_rng(5))
        u = cj.Linear([[u1, cj.zero(self.SHAPE)]])
        ue = u(u.domain.basis_vector(0))
        assert cj.residual(cj.inner_product(ue, ue), cj.unit(self.SHAPE)) < 1e-15
        assert not cj.check_unitary_equivalence(u)


class TestKernelSolver:
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.77])
    def test_scalar_algebra_forces_zero(self, p):
        a = cj.validate_coefficient(
            cj.scale(cj.unit(SCALAR), p), require_strict_order=True
        )
        solution = cj.solve_abiadditive_kernel(a, scalar_space(1))
        assert solution.dimension == 0

    def test_central_scalar_on_matrix_block_forces_zero(self):
        shape = cj.AlgebraShape((2,))
        a = cj.validate_coefficient(
            cj.scale(cj.unit(shape), 0.4), require_strict_order=True
        )
        solution = cj.solve_abiadditive_kernel(a, cj.ModuleSpace(shape, 1))
        assert solution.dimension == 0

    def test_distinct_block_scalars_force_zero(self):
        a = cj.validate_coefficient(
            cj.AlgebraElement(TWO_BLOCKS, [[[1 / 3]], [[1 / 2]]]),
            require_strict_order=True,
        )
        solution = cj.solve_abiadditive_kernel(a, cj.ModuleSpace(TWO_BLOCKS, 1))
        assert solution.dimension == 0

    # a = (t, z) with |z|^2 = Re(z) = t couples block 2 to block 1 through
    # b -> alpha b + beta conj(b): four real parameters per value coordinate
    @pytest.mark.parametrize("rank,expect", [(1, 4), (2, 8)])
    def test_cross_block_kernel_dimension(self, rank, expect):
        a = cj.validate_coefficient(
            cj.AlgebraElement(TWO_BLOCKS, [[[0.5]], [[0.5 + 0.5j]]])
        )
        target = cj.ModuleSpace(TWO_BLOCKS, rank)
        solution = cj.solve_abiadditive_kernel(a, target)
        assert solution.dimension == expect
        for i, member in enumerate(solution.basis):
            assert cj.kernel_constraint_residual(member, a, seed=[31, i]) <= 1e-8

    def test_kernel_members_vanish_on_orthogonal_images(self):
        a = cj.validate_coefficient(
            cj.AlgebraElement(TWO_BLOCKS, [[[0.5]], [[0.5 + 0.5j]]])
        )
        space_f = cj.ModuleSpace(TWO_BLOCKS, 1)
        pair = cj.validate_pair(
            inclusion(space_f, 2, 0), inclusion(space_f, 2, 1), a
        )
        solution = cj.solve_abiadditive_kernel(a, cj.ModuleSpace(TWO_BLOCKS, 1))
        rng = np.random.default_rng(12)
        for member in solution.basis:
            z = cj.sample_vector(space_f, rng)
            w = cj.sample_vector(space_f, rng)
            value = member.bimap(pair.phi(z), pair.psi(w))
            assert cj.module_norm(value) < 1e-12


# ---------------------------------------------------------------------------
# dense reference for the kernel solver: one Kronecker system over all of
# Psi, with the rank rule of scipy.linalg.null_space


def _cvec(x):
    return np.concatenate([b.ravel() for b in x.blocks])


def _complex_basis(shape):
    out = []
    for k, n in enumerate(shape.block_dims):
        for idx in range(n * n):
            blocks = [np.zeros((m, m), dtype=np.complex128) for m in shape.block_dims]
            blocks[k].flat[idx] = 1.0
            out.append(cj.AlgebraElement(shape, blocks))
    return out


def _realify(mc):
    return np.block([[mc.real, -mc.imag], [mc.imag, mc.real]])


def dense_kernel_system(a, rank):
    shape = a.value.shape
    basis = _complex_basis(shape)

    def matrix(f):
        return np.stack([_cvec(f(e)) for e in basis], axis=1)

    def conj(x):
        return _realify(matrix(lambda e: cj.mul(cj.mul(x, e), cj.adjoint(x))))

    def act(x):
        return _realify(np.kron(np.eye(rank), matrix(lambda e: cj.mul(x, e))))

    rows, cols = 2 * shape.dim * rank, 2 * shape.dim
    eye_rows, eye_cols = np.eye(rows), np.eye(cols)
    return np.vstack([
        np.kron(eye_rows, conj(x).T) - np.kron(act(x), eye_cols)
        for x in (a.value, a.co)
    ])


def dense_null_dimension(system):
    s = np.linalg.svd(system, compute_uv=False)
    threshold = max(system.shape) * np.finfo(np.float64).eps * s[0]
    return system.shape[1] - int(np.count_nonzero(s > threshold)), threshold


def circle_coefficient(dims, j, k, theta=1.1):
    """Scalar blocks with a_k = c on the circle |c|^2 = Re(c) and a_j = Re(c):
    the block pair (j, k) is then unconstrained, its subsystem vanishes."""
    c = 0.5 + 0.5 * np.exp(1j * theta)
    values = [0.3 if c.real > 0.5 else 0.7] * len(dims)
    values[k], values[j] = c, c.real
    shape = cj.AlgebraShape(dims)
    return cj.validate_coefficient(
        cj.AlgebraElement(shape, [v * np.eye(n) for v, n in zip(values, dims)])
    )


def kernel_coefficient(kind, dims):
    """"central" (a scalar times 1), "random" (seeded, not self-adjoint)
    or a block pair (j, k) for circle_coefficient."""
    shape = cj.AlgebraShape(dims)
    if kind == "central":
        return cj.validate_coefficient(cj.scale(cj.unit(shape), 0.3))
    if kind == "random":
        rng = np.random.default_rng(10 * sum(dims) + len(dims))
        return cj.validate_coefficient(random_element(shape, rng, spread=0.5))
    return circle_coefficient(dims, *kind)


KERNEL_CASES = [
    ("central", (1,), 1),
    ("random", (1,), 2),
    ("central", (2,), 1),
    ("random", (2,), 1),
    ((0, 1), (1, 1), 1),
    ((1, 0), (1, 1), 2),
    ("random", (1, 1), 2),
    ((0, 1), (2, 1), 1),
    ((1, 0), (2, 1), 1),
    ("random", (2, 1), 1),
    ((2, 0), (1, 1, 1), 2),
    ("random", (1, 1, 1), 2),
]


class TestKernelSolverAgainstDense:
    @pytest.mark.parametrize("kind,dims,rank", KERNEL_CASES)
    def test_matches_dense_reference(self, kind, dims, rank):
        a = kernel_coefficient(kind, dims)
        system = dense_kernel_system(a, rank)
        dense_dim, dense_threshold = dense_null_dimension(system)
        solution = cj.solve_abiadditive_kernel(a, cj.ModuleSpace(a.value.shape, rank))
        assert solution.dimension == dense_dim == len(solution.basis)
        assert solution.threshold == pytest.approx(dense_threshold, rel=1e-9)
        if not solution.basis:
            return
        members = np.stack([m.matrix.ravel() for m in solution.basis])
        assert np.abs(system @ members.T).max() <= 1e3 * dense_threshold
        gram = members @ members.T
        assert np.abs(gram - np.eye(len(members))).max() < 1e-12

    @pytest.mark.parametrize("dims,j,k", [((1, 1), 0, 1), ((2, 1), 0, 1), ((1, 2), 0, 1), ((2, 2), 1, 0)])
    @pytest.mark.parametrize("rank", [1, 2])
    def test_vanishing_block_pair_keeps_all_members(self, dims, j, k, rank):
        # the (j, k) subsystem is zero up to rounding; a rank rule relative
        # to that subsystem alone would call it full rank and lose it
        a = circle_coefficient(dims, j, k)
        solution = cj.solve_abiadditive_kernel(a, cj.ModuleSpace(a.value.shape, rank))
        assert solution.dimension == rank * 4 * dims[j] ** 2 * dims[k] ** 2
        assert solution.largest_dropped <= solution.threshold
        assert solution.smallest_kept > 1e6 * solution.threshold

    def test_zero_kernel_has_nothing_dropped(self):
        a = kernel_coefficient("random", (2, 1))
        solution = cj.solve_abiadditive_kernel(a, cj.ModuleSpace(a.value.shape, 1))
        assert solution.dimension == 0
        assert solution.largest_dropped is None
        assert solution.smallest_kept > solution.threshold


def per_sample_kernel_residual(psi, a, n, seed):
    """kernel_constraint_residual one draw at a time through the object API."""
    rng = np.random.default_rng(seed)
    space_one = cj.ModuleSpace(psi.shape, 1)
    worst = 0.0
    for _ in range(n):
        b = cj.sample_vector(space_one, rng).coords[0]
        for x in (a.value, a.co):
            lhs = psi(cj.mul(cj.mul(x, b), cj.adjoint(x)))
            rhs = cj.act(x, psi(b))
            worst = max(worst, cj.vec_residual(lhs, rhs))
    return worst


class TestKernelResidual:
    @pytest.mark.parametrize("dims,rank", [((1,), 1), ((2,), 2), ((1, 1), 3), ((2, 1), 2), ((3,), 1)])
    def test_batched_matches_per_sample(self, dims, rank):
        shape = cj.AlgebraShape(dims)
        rng = np.random.default_rng(sum(dims) + 10 * rank)
        a = cj.validate_coefficient(random_element(shape, rng, spread=0.5))
        target = cj.ModuleSpace(shape, rank)
        psi = mp.KernelMap(
            shape, target, rng.standard_normal((2 * shape.dim * rank, 2 * shape.dim))
        )
        batched = cj.kernel_constraint_residual(psi, a, n=15, seed=[3, rank])
        reference = per_sample_kernel_residual(psi, a, 15, [3, rank])
        assert reference > 1e-2
        assert batched == pytest.approx(reference, rel=1e-12)

    def test_no_samples_gives_zero(self):
        a = circle_coefficient((1, 1), 0, 1)
        psi = cj.solve_abiadditive_kernel(a, cj.ModuleSpace(a.value.shape, 1)).basis[0]
        assert cj.kernel_constraint_residual(psi, a, n=0) == 0.0

    def test_nan_map_never_reverifies(self):
        a = circle_coefficient((1, 1), 0, 1)
        shape = a.value.shape
        psi = mp.KernelMap(
            shape, cj.ModuleSpace(shape, 1), np.full((2 * shape.dim, 2 * shape.dim), np.nan)
        )
        r = cj.kernel_constraint_residual(psi, a)
        assert not r <= mp.KERNEL_RESIDUAL_TOL


class TestPairOverflow:
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_overflowing_pair_is_not_certified(self):
        big = cj.scale(cj.unit(SCALAR), 1e200)
        z = cj.zero(SCALAR)
        phi = cj.Linear([[big, z]])
        psi = cj.Linear([[z, big]])
        a = cj.validate_coefficient(cj.scale(cj.unit(SCALAR), 0.5), require_strict_order=True)
        orth, balance = cj.pair_condition_residuals(phi, psi, a)
        assert math.isnan(orth) and math.isnan(balance)
        with pytest.raises(PairConditionViolated):
            cj.validate_pair(phi, psi, a)


# ---------------------------------------------------------------------------
# the stacked pair table and kernel re-verification against the per-element
# code they replaced (tests/support.py), bit for bit


def random_pair(shape, f_rank, e_rank, rng):
    phi, psi = (
        cj.Linear([[random_element(shape, rng) for _ in range(e_rank)] for _ in range(f_rank)])
        for _ in range(2)
    )
    return phi, psi, cj.validate_coefficient(random_element(shape, rng, spread=0.5))


def hexes(values):
    return [float(v).hex() for v in values]


class TestPairTableAgainstLoop:
    @pytest.mark.parametrize("dims", SHAPES)
    @pytest.mark.parametrize("f_rank", [1, 2, 3])
    def test_random_pairs_bit_for_bit(self, dims, f_rank):
        shape = cj.AlgebraShape(dims)
        rng = np.random.default_rng(100 * f_rank + sum(dims) + len(dims))
        for e_rank in (1, f_rank + 2):
            phi, psi, a = random_pair(shape, f_rank, e_rank, rng)
            got = cj.pair_condition_residuals(phi, psi, a)
            want = ref_pair_condition_residuals(phi, psi, a)
            assert hexes(got) == hexes(want)
            assert min(want) > mp.PAIR_VALIDATION_TOL  # none of them validates
            with pytest.raises(PairConditionViolated):
                cj.validate_pair(phi, psi, a)

    @pytest.mark.parametrize("dims", SHAPES)
    def test_grid_rows_are_the_basis_pairs(self, dims):
        shape = cj.AlgebraShape(dims)
        phi, psi, _ = random_pair(shape, 3, 2, np.random.default_rng(7))
        _, _, grams = mp.basis_pair_grams(phi, psi)
        space = phi.domain
        for k in range(space.rank ** 2):
            i, j = divmod(k, space.rank)
            x, y = space.basis_vector(i), space.basis_vector(j)
            singles = (
                cj.inner_product(phi(x), psi(y)),
                cj.inner_product(phi(x), phi(y)),
                cj.inner_product(psi(x), psi(y)),
            )
            for table, single in zip(grams, singles):
                want = [b.tobytes() for b in single.blocks]
                assert [b[k].tobytes() for b in table.blocks] == want

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_overflow_pair_bit_for_bit(self):
        big = cj.scale(cj.unit(SCALAR), 1e200)
        z = cj.zero(SCALAR)
        a = cj.validate_coefficient(cj.scale(cj.unit(SCALAR), 0.5), require_strict_order=True)
        phi, psi = cj.Linear([[big, z], [z, big]]), cj.Linear([[z, big], [big, z]])
        got = cj.pair_condition_residuals(phi, psi, a)
        assert hexes(got) == hexes(ref_pair_condition_residuals(phi, psi, a))
        assert all(math.isnan(v) for v in got)


class TestKernelResidualAgainstRawArrays:
    @pytest.mark.parametrize(
        "dims,j,k",
        [((1, 1), 0, 1), ((1, 1), 1, 0), ((2, 1), 0, 1), ((2, 1), 1, 0), ((1, 1, 1), 2, 0), ((2, 2), 1, 0)],
    )
    @pytest.mark.parametrize("rank", [1, 2])
    def test_solver_members_bit_for_bit(self, dims, j, k, rank):
        a = circle_coefficient(dims, j, k, theta=0.9 + 0.1 * rank)
        solution = cj.solve_abiadditive_kernel(a, cj.ModuleSpace(a.value.shape, rank))
        assert solution.dimension > 0
        for i, member in enumerate(solution.basis[:6]):
            got = cj.kernel_constraint_residual(member, a, seed=[41, i])
            assert got.hex() == ref_kernel_constraint_residual(member, a, seed=[41, i]).hex()
            assert got <= mp.KERNEL_RESIDUAL_TOL

    @pytest.mark.parametrize("dims", SHAPES + [(1, 1, 1), (2, 2)])
    @pytest.mark.parametrize("rank", [1, 3])
    @pytest.mark.parametrize("n", [0, 1, 20])
    def test_random_maps_bit_for_bit(self, dims, rank, n):
        shape = cj.AlgebraShape(dims)
        rng = np.random.default_rng(sum(dims) + 10 * len(dims) + 100 * rank + n)
        a = cj.validate_coefficient(random_element(shape, rng, spread=0.5))
        matrix = rng.standard_normal((2 * shape.dim * rank, 2 * shape.dim))
        psi = mp.KernelMap(shape, cj.ModuleSpace(shape, rank), matrix)
        got = cj.kernel_constraint_residual(psi, a, n=n, seed=[5, n])
        assert got.hex() == ref_kernel_constraint_residual(psi, a, n=n, seed=[5, n]).hex()
        assert (got == 0.0) == (n == 0)
