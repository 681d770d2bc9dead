"""Mapping constructors, pair validation and the intertwining kernel solver."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cstar_jensen as cj
from cstar_jensen import algebra as alg
from cstar_jensen import hilbert as hb
from cstar_jensen import mappings as mp
from cstar_jensen.errors import (
    DomainError,
    PairConditionViolated,
    ShapeError,
    SpaceMismatch,
    ValidationError,
)

from support import (
    SHAPES,
    coord_order_linear,
    mapping_to_obj,
    random_affine,
    random_element,
    random_strict_coefficient,
    ref_kernel_basis,
    ref_kernel_constraint_residual,
    ref_kernel_margins,
    ref_pair_condition_residuals,
    seeds,
    transfer_matrices,
    wide,
    wide_bits,
    within_summation_bound,
    zero_map,
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
        t = zero_map(scalar_space(2), scalar_space(1))
        with pytest.raises(SpaceMismatch):
            t(scalar_space(3).zero())

    def test_ragged_coefficients_rejected(self):
        one = cj.unit(SCALAR)
        with pytest.raises(ShapeError):
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
            cj.vec_scale(cj.unit(TWO_BLOCKS), 1 / 3), require_strict_order=True
        )
        rng = np.random.default_rng(6)
        x = cj.sample_vector(self.space, rng)
        ax = cj.act(a.value, x)
        r = cj.vec_residual(self.bimap(ax, ax), cj.act(a.value, self.bimap(x, x)))
        assert r > 1e-3

    def test_complex_scale_rejected(self):
        with pytest.raises(DomainError):
            mp.QuadDiag(self.space, self.g_space.basis_vector(0), 0.5 + 0.1j)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
    def test_non_finite_scale_rejected(self, scale):
        # a NaN or infinite scale would turn every value into NaN
        with pytest.raises(DomainError, match="scale must be finite"):
            mp.QuadDiag(self.space, self.g_space.basis_vector(0), scale)

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
        base = zero_map(space, g_space)
        f = mp.Sum([base, mp.Bump(site, delta, 0.05)])
        assert cj.module_norm(f(site)) == pytest.approx(0.1, abs=1e-15)
        assert cj.module_norm(f(space.basis_vector(1))) == 0.0

    def test_radius_must_be_positive(self):
        space = scalar_space(2)
        # NaN too: every norm < NaN is false, so the bump would never fire
        for radius in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError, match="bump radius must be positive"):
                mp.Sum(
                    [
                        zero_map(space, scalar_space(1)),
                        mp.Bump(
                            space.basis_vector(0),
                            scalar_space(1).basis_vector(0),
                            radius,
                        ),
                    ]
                )


class TestSerializationRoundtrip:
    def test_every_kind(self):
        space_e = scalar_space(2)
        space_g = scalar_space(1)
        rng = np.random.default_rng(8)
        quad = mp.QuadDiag(space_e, space_g.basis_vector(0), 0.5)
        bumped = mp.Sum(
            [
                random_affine(space_e, space_g, rng),
                mp.Bump(
                    space_e.basis_vector(0),
                    cj.vec_scale(space_g.basis_vector(0), 0.2),
                    0.1,
                ),
            ]
        )
        candidates = [quad, bumped, zero_map(space_e, space_g)]
        probe = cj.sample_vector(space_e, rng)
        for f in candidates:
            back = cj.mapping_from_obj(mapping_to_obj(f), space_e, space_g)
            assert cj.vec_residual(back(probe), f(probe)) == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            cj.mapping_from_obj(
                {"kind": "mystery"}, scalar_space(1), scalar_space(1)
            )

    def test_space_mismatch_detected(self):
        f = zero_map(scalar_space(2), scalar_space(1))
        with pytest.raises(SpaceMismatch):
            cj.mapping_from_obj(
                mapping_to_obj(f), scalar_space(3), scalar_space(1)
            )


class TestInterleavePair:
    def test_frozen_values_at_half(self):
        pair = cj.interleave_pair(0.5, 4)
        e0 = pair.phi.domain.basis_vector(0)
        gram = cj.inner_product(pair.phi(e0), pair.phi(e0))
        # 1/(1-p)^2 = 4, and a <.,.> a* scales it back to 1
        assert cj.module_norm(gram) == pytest.approx(4.0, abs=1e-12)
        a = pair.coefficient
        balanced = cj.act(cj.act(a.value, gram), cj.adjoint(a.value))
        assert cj.module_norm(balanced) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.75, 0.9])
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_validates_exactly(self, p, n):
        pair = cj.interleave_pair(p, n)
        assert pair.orth_residual <= 1e-12
        assert pair.balance_residual <= 1e-12

    def test_coefficient_is_one_minus_p(self):
        pair = cj.interleave_pair(0.3, 4)
        expect = cj.vec_scale(cj.unit(SCALAR), 0.7)
        assert cj.vec_residual(pair.coefficient.value, expect) < 1e-15

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_p_out_of_range(self, bad):
        with pytest.raises(DomainError):
            cj.interleave_pair(bad, 4)

    @pytest.mark.parametrize("bad", [0, 1, 3, 7])
    def test_rank_must_be_even(self, bad):
        with pytest.raises(DomainError):
            cj.interleave_pair(0.5, bad)

    def test_rank_within_the_size_bound(self, monkeypatch):
        # E = C^n has 2n real coordinates; the bound is lowered so that
        # nothing of the refused size is built
        monkeypatch.setattr(alg, "MAX_REAL_DIM", 8)
        assert cj.interleave_pair(0.5, 4).phi.codomain.rank == 4
        with pytest.raises(DomainError, match="more than 8 real coordinates"):
            cj.interleave_pair(0.5, 6)


class TestPairValidation:
    @pytest.mark.parametrize("dims", SHAPES)
    def test_the_pair_keeps_its_basis_grams(self, dims):
        # (<phi(e_i), phi(e_j)>, <psi(e_i), psi(e_j)>), as basis_pair_grams forms them
        shape = cj.AlgebraShape(dims)
        a = random_strict_coefficient(shape, np.random.default_rng(11))
        pair = cj.inclusion_pair(shape, 2, 4, a)
        _, _, (gram_phi, gram_psi) = mp.basis_pair_grams(pair.phi, pair.psi)
        for kept, want in zip(pair.grams, (gram_phi, gram_psi)):
            assert [b.tobytes() for b in kept.blocks] == [b.tobytes() for b in want.blocks]

    def test_balance_violation_reported(self):
        space_f = scalar_space(1)
        phi = inclusion(space_f, 2, 0)
        psi = inclusion(space_f, 2, 1, cj.vec_scale(cj.unit(SCALAR), 2.0))
        a = cj.validate_coefficient(
            cj.vec_scale(cj.unit(SCALAR), 0.5), require_strict_order=True
        )
        with pytest.raises(PairConditionViolated) as info:
            cj.validate_pair(phi, psi, a)
        assert info.value.condition == "balance"
        assert info.value.residual > 1e-3

    def test_orthogonality_violation_reported(self):
        space_f = scalar_space(1)
        phi = inclusion(space_f, 2, 0)
        a = cj.validate_coefficient(
            cj.vec_scale(cj.unit(SCALAR), 0.5), require_strict_order=True
        )
        with pytest.raises(PairConditionViolated) as info:
            cj.validate_pair(phi, phi, a)
        assert info.value.condition == "orthogonality"

    def test_domain_mismatch(self):
        phi = inclusion(scalar_space(1), 2, 0)
        psi = inclusion(scalar_space(2), 2, 1)
        a = cj.validate_coefficient(
            cj.vec_scale(cj.unit(SCALAR), 0.5), require_strict_order=True
        )
        with pytest.raises(SpaceMismatch):
            cj.validate_pair(phi, psi, a)

    def test_morphism_shift_pair(self):
        pair = mp.morphism_shift_pair(cj.AlgebraShape((2, 1)), 3)
        assert pair.orth_residual == 0.0 and pair.balance_residual == 0.0
        # phi preserves inner products
        rng = np.random.default_rng(9)
        z = cj.sample_vector(pair.phi.domain, rng)
        w = cj.sample_vector(pair.phi.domain, rng)
        lhs = cj.inner_product(pair.phi(z), pair.phi(w))
        assert cj.vec_residual(lhs, cj.inner_product(z, w)) == 0.0

    @given(st.sampled_from(SHAPES), seeds())
    @settings(max_examples=25, deadline=None)
    def test_inclusion_pair_balances_any_strict_coefficient(self, dims, seed):
        shape = cj.AlgebraShape(dims)
        rng = np.random.default_rng(seed)
        a = random_strict_coefficient(shape, rng)
        pair = cj.inclusion_pair(shape, 1, 3, a)
        assert pair.orth_residual == 0.0
        assert pair.balance_residual < 1e-12

    def test_inclusion_pair_needs_room(self):
        a = cj.validate_coefficient(
            cj.vec_scale(cj.unit(SCALAR), 0.4), require_strict_order=True
        )
        with pytest.raises(DomainError):
            cj.inclusion_pair(SCALAR, 2, 3, a)


class TestLinearArithmetic:
    """Linear.evaluate is X @ T_k per block: bit for bit against one 2-D
    product on each row's own wide matrix, and within the rigorous bound
    between two summation orders of the per-coordinate sums it replaced."""

    CASES = [(dims, 3, 2) for dims in SHAPES] + [((4,), 8, 4), ((4, 4), 8, 2), ((2,), 1, 6)]

    @staticmethod
    def linear(dims, m_in, m_out):
        shape = cj.AlgebraShape(dims)
        rng = np.random.default_rng([m_in, m_out, len(dims)])
        space = cj.ModuleSpace(shape, m_in)
        return random_affine(space, cj.ModuleSpace(shape, m_out), rng).children[0]

    @pytest.mark.parametrize("dims, m_in, m_out", CASES)
    def test_rows_match_one_product_each(self, dims, m_in, m_out):
        f = self.linear(dims, m_in, m_out)
        (stack,) = hb.sample_stacks(f.domain, [m_in, 3], 9)
        got = f(stack)
        for s in range(9):
            x = stack.row(s)
            want = wide_bits([a @ t for a, t in zip(wide(x), transfer_matrices(f.grid))])
            assert wide_bits(wide(got.row(s))) == want
            assert wide_bits(wide(f(x))) == want

    @pytest.mark.parametrize("dims, m_in, m_out", CASES)
    def test_transfer_matrices_match_the_block_layout(self, dims, m_in, m_out):
        # T_k holds C[i][j]'s block k at sub-block (i, j), the bits np.block
        # assembles, in one C-contiguous array
        f = self.linear(dims, m_in, m_out)
        for k, (t, want) in enumerate(zip(f.transfer, transfer_matrices(f.grid))):
            assert t.flags.c_contiguous
            assert wide_bits([t]) == wide_bits([want])
            grid = [[entry.blocks[k] for entry in row] for row in f.grid]
            assert wide_bits([t]) == wide_bits([np.block(grid)])

    @pytest.mark.parametrize("dims, m_in, m_out", CASES)
    def test_within_the_summation_bound(self, dims, m_in, m_out):
        f = self.linear(dims, m_in, m_out)
        for s in range(6):
            x = cj.sample_vector(f.domain, [m_in, 4, s])
            xw = wide(x)
            loop = coord_order_linear(f.grid, xw)
            for g, want, a, t in zip(f(x).blocks, loop, xw, transfer_matrices(f.grid)):
                assert within_summation_bound(g, want, a, t)


class TestKernelSolver:
    def test_overflowing_coefficient_is_a_domain_error(self):
        # entries above about 1.3e154 overflow the products of b -> a b a^*;
        # the solver refuses them, without numpy's warnings, before any SVD
        a = cj.validate_coefficient(cj.AlgebraElement(TWO_BLOCKS, [[[1e200]], [[0.5]]]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match="conjugation overflows"):
                cj.solve_abiadditive_kernel(a, cj.ModuleSpace(TWO_BLOCKS, 1))
        assert [str(w.message) for w in caught] == []

    def test_members_above_the_entry_bound_are_refused_before_pass_two(self, monkeypatch):
        # kernel_probe's coefficient on G = A^1: 4 members of 4 x 4 real
        # entries, 64 in all; the bound admits 64 and refuses 63 before
        # any full SVD
        a = cj.validate_coefficient(cj.AlgebraElement(TWO_BLOCKS, [[[0.5]], [[0.5 + 0.5j]]]))
        target = cj.ModuleSpace(TWO_BLOCKS, 1)
        monkeypatch.setattr(mp, "MAX_KERNEL_ENTRIES", 64)
        assert mp.solve_abiadditive_kernel(a, target).dimension == 4
        uv, svd = [], np.linalg.svd

        def recorded(m, **kw):
            uv.append(kw.get("compute_uv", True))
            return svd(m, **kw)

        monkeypatch.setattr(np.linalg, "svd", recorded)
        monkeypatch.setattr(mp, "MAX_KERNEL_ENTRIES", 63)
        message = "4 members of 16 real entries each, 64 in all, above the bound of 63"
        with pytest.raises(DomainError, match=message):
            mp.solve_abiadditive_kernel(a, target)
        # the singular values alone of the four block pairs' systems
        assert uv == [False] * 4

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.77])
    def test_scalar_algebra_forces_zero(self, p):
        a = cj.validate_coefficient(
            cj.vec_scale(cj.unit(SCALAR), p), require_strict_order=True
        )
        solution = cj.solve_abiadditive_kernel(a, scalar_space(1))
        assert solution.dimension == 0

    def test_central_scalar_on_matrix_block_forces_zero(self):
        shape = cj.AlgebraShape((2,))
        a = cj.validate_coefficient(
            cj.vec_scale(cj.unit(shape), 0.4), require_strict_order=True
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

    @pytest.mark.parametrize("dims", [(1, 1), (1, 1, 1)])
    def test_a_target_over_another_algebra_is_refused(self, dims):
        # the members' matrices would not fit a target over (2,)
        a = circle_coefficient(dims, 0, 1)
        with pytest.raises(SpaceMismatch):
            cj.solve_abiadditive_kernel(a, cj.ModuleSpace(cj.AlgebraShape((2,)), 1))

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
            x, y = pair.phi(z), pair.psi(w)
            value = member(cj.vec_add(cj.inner_product(x, y), cj.inner_product(y, x)))
            assert cj.module_norm(value) < 1e-12


# ---------------------------------------------------------------------------
# dense reference for the kernel solver: one Kronecker system over all of
# Psi, with the rank rule of scipy.linalg.null_space


def _rvec(x):
    """The real coordinates of an element: per block the real parts of its
    row-major entries, then their imaginary parts."""
    return np.concatenate([part for b in x.blocks for part in (b.real.ravel(), b.imag.ravel())])


def _real_basis(shape):
    """The elements whose real coordinates are the unit vectors, in order."""
    out = []
    for k, n in enumerate(shape.block_dims):
        for unit in (1.0, 1j):
            for idx in range(n * n):
                blocks = [np.zeros((m, m), dtype=np.complex128) for m in shape.block_dims]
                blocks[k].flat[idx] = unit
                out.append(cj.AlgebraElement(shape, blocks))
    return out


def dense_kernel_system(a, rank):
    """The constraints on the row-major vec of Psi's real matrix, whose
    output coordinates run over the rank coordinates of G in turn."""
    shape = a.value.shape
    basis = _real_basis(shape)

    def matrix(f):
        return np.stack([_rvec(f(e)) for e in basis], axis=1)

    def conj(x):
        return matrix(lambda e: cj.act(cj.act(x, e), cj.adjoint(x)))

    def act(x):
        return np.kron(np.eye(rank), matrix(lambda e: cj.act(x, e)))

    rows, cols = 2 * shape.dim * rank, 2 * shape.dim
    eye_rows, eye_cols = np.eye(rows), np.eye(cols)
    return np.vstack([
        np.kron(eye_rows, conj(x).T) - np.kron(act(x), eye_cols)
        for x in (a.value, a.co)
    ])


def dense_null_dimension(system):
    """The null dimension, the rank threshold and the singular values."""
    s = np.linalg.svd(system, compute_uv=False)
    threshold = max(system.shape) * np.finfo(np.float64).eps * s[0]
    return system.shape[1] - int(np.count_nonzero(s > threshold)), threshold, s


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


def seeded_unitary(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated_circle_coefficient(dims, j, k, thetas=(1.1, -2.0), seed=4):
    """a_k = U diag(c_1, c_2) U^* with c_p = (1 + e^{i theta_p}) / 2 on the
    circle, a_j = V diag(Re c_1, Re c_2) V^*, seeded unitaries U and V, and
    0.3 on any other block: no block is diagonal, yet each U e_p e_p^* U^*
    may map into the eigenvector V e_p of a_j."""
    rng = np.random.default_rng(seed)
    c = 0.5 + 0.5 * np.exp(1j * np.asarray(thetas))
    u, v = seeded_unitary(2, rng), seeded_unitary(2, rng)
    blocks = [0.3 * np.eye(n) for n in dims]
    blocks[k] = (u * c) @ u.conj().T
    blocks[j] = (v * c.real) @ v.conj().T
    return cj.validate_coefficient(cj.AlgebraElement(cj.AlgebraShape(dims), blocks))


def random_normal_coefficient(dims, rng):
    """Per block U diag(lambda) U^* with a seeded unitary U and eigenvalues
    drawn from circle points c, their real parts Re c and generic values,
    so that some block pairs have a kernel and most have none."""
    blocks = []
    for n in dims:
        theta = rng.uniform(0.6, np.pi - 0.6, n) * rng.choice((-1.0, 1.0), n)
        c = 0.5 + 0.5 * np.exp(1j * theta)
        generic = rng.uniform(0.1, 0.9, n) + 0.2j * rng.standard_normal(n)
        lam = rng.choice(np.concatenate([c, c.real, generic]), n)
        u = seeded_unitary(n, rng)
        blocks.append((u * lam) @ u.conj().T)
    return cj.validate_coefficient(cj.AlgebraElement(cj.AlgebraShape(dims), blocks))


def kernel_coefficient(kind, dims):
    """"central" (a scalar times 1), "random" (seeded, not self-adjoint),
    a block pair (j, k) for circle_coefficient, or ("rotated", j, k) for
    rotated_circle_coefficient."""
    shape = cj.AlgebraShape(dims)
    if kind == "central":
        return cj.validate_coefficient(cj.vec_scale(cj.unit(shape), 0.3))
    if kind == "random":
        rng = np.random.default_rng(10 * sum(dims) + len(dims))
        return cj.validate_coefficient(random_element(shape, rng, spread=0.5))
    if kind[0] == "rotated":
        return rotated_circle_coefficient(dims, *kind[1:])
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
    ((0, 1), (2, 2), 1),
    ((1, 0), (2, 2), 2),
    ((0, 1), (3, 1), 1),
    ((1, 0), (1, 3), 1),
    (("rotated", 0, 1), (2, 2), 1),
    (("rotated", 1, 0), (2, 2), 2),
]


class TestKernelSolverAgainstDense:
    @pytest.mark.parametrize("kind,dims,rank", KERNEL_CASES)
    def test_matches_dense_reference(self, kind, dims, rank):
        a = kernel_coefficient(kind, dims)
        system = dense_kernel_system(a, rank)
        dense_dim, dense_threshold, s = dense_null_dimension(system)
        solution = cj.solve_abiadditive_kernel(a, cj.ModuleSpace(a.value.shape, rank))
        assert solution.dimension == dense_dim == len(solution.basis)
        assert solution.threshold == pytest.approx(dense_threshold, rel=1e-9)
        assert solution.smallest_kept == pytest.approx(s[s > dense_threshold].min(), rel=1e-9)
        dropped = s[s <= dense_threshold]
        assert (solution.largest_dropped is None) == (dropped.size == 0)
        if dropped.size:
            assert solution.largest_dropped <= solution.threshold
            assert dropped.max() <= solution.threshold
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

    @pytest.mark.parametrize("j,k", [(0, 1), (1, 0)])
    def test_rotated_circle_has_a_kernel(self, j, k):
        # neither a_j nor a_k is diagonal, and output block j has n_j = 2
        a = rotated_circle_coefficient((2, 2), j, k)
        dense_dim, _, _ = dense_null_dimension(dense_kernel_system(a, 1))
        assert dense_dim > 0

    @pytest.mark.parametrize("kind,dims", [
        ((0, 1), (2, 2)),
        ((0, 1), (3, 1)),
        ((1, 0), (1, 3)),
        (("rotated", 1, 0), (2, 2)),
    ])
    def test_members_live_on_one_output_column(self, kind, dims):
        """Each member's non-zero rows lie in one column of one block of one
        coordinate, its columns in one input block; there are null_jk
        members per such (coordinate, block j, column, block k), where
        null_jk is the null dimension of the dense system's columns for
        one output column of block j and input block k."""
        rank = 2
        a = kernel_coefficient(kind, dims)
        shape = a.value.shape
        da = shape.dim
        solution = cj.solve_abiadditive_kernel(a, cj.ModuleSpace(shape, rank))
        # block k's real coordinates are the segment offsets[k]..offsets[k + 1]
        # of A's, and of each coordinate of G's
        offsets = 2 * np.cumsum((0,) + tuple(n * n for n in dims))

        def out_place(row):
            """(coordinate, block, column) of an output row."""
            i, pos = divmod(row, 2 * da)
            j = int(np.searchsorted(offsets, pos, side="right")) - 1
            return i, j, (pos - offsets[j]) % dims[j]

        def in_block(col):
            return int(np.searchsorted(offsets, col, side="right")) - 1

        counts = {}
        for member in solution.basis:
            rows, cols = np.nonzero(member.matrix)
            (place,) = {out_place(row) for row in rows}
            (k,) = {in_block(col) for col in cols}
            counts[place + (k,)] = counts.get(place + (k,), 0) + 1

        system = dense_kernel_system(a, rank)
        _, threshold, _ = dense_null_dimension(system)
        total = 0
        for j, nj in enumerate(dims):
            for k, nk in enumerate(dims):
                # the unknowns P[row, col] of column 0 of block j of coordinate 0
                # and of input block k
                out = offsets[j] + nj * np.arange(nj)
                rows = np.concatenate([out, out + nj * nj])
                cols = offsets[k] + np.arange(2 * nk * nk)
                unknowns = (rows[:, None] * 2 * da + cols[None, :]).ravel()
                s = np.linalg.svd(system[:, unknowns], compute_uv=False)
                null_jk = unknowns.size - int(np.count_nonzero(s > threshold))
                total += rank * nj * null_jk
                for i in range(rank):
                    for c in range(nj):
                        assert counts.get((i, j, c, k), 0) == null_jk
        assert solution.dimension == total == sum(counts.values())
        assert total > 0

    def test_zero_kernel_has_nothing_dropped(self):
        a = kernel_coefficient("random", (2, 1))
        solution = cj.solve_abiadditive_kernel(a, cj.ModuleSpace(a.value.shape, 1))
        assert solution.dimension == 0
        assert solution.largest_dropped is None
        assert solution.smallest_kept > solution.threshold


class TestKernelSolverPasses:
    """Pass 1 takes the singular values alone of every column system; only
    a piece with a null space is solved again for its singular vectors."""

    @staticmethod
    def spy_svd(monkeypatch):
        """np.linalg.svd, recording compute_uv of every call."""
        calls, svd = [], np.linalg.svd

        def spy(system, *args, **kwargs):
            calls.append(kwargs.get("compute_uv", True))
            return svd(system, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        return calls

    def test_a_full_rank_piece_gets_no_singular_vectors(self, monkeypatch):
        # one block holding a circle point c: c = |c|^2 fails, the kernel is 0
        c = 0.5 + 0.5 * np.exp(1.1j)
        shape = cj.AlgebraShape((3,))
        a = cj.validate_coefficient(cj.AlgebraElement(shape, [c * np.eye(3)]))
        calls = self.spy_svd(monkeypatch)
        solution = cj.solve_abiadditive_kernel(a, cj.ModuleSpace(shape, 2))
        assert solution.dimension == 0
        assert calls == [False]

    @pytest.mark.parametrize("dims,j,k", [((1, 1), 0, 1), ((2, 1), 1, 0), ((1, 2), 0, 1)])
    def test_only_the_piece_with_a_null_space_gets_them(self, monkeypatch, dims, j, k):
        # the block-scalar coefficient c on block k and Re c on block j:
        # block pair (j, k) alone has a kernel
        a = circle_coefficient(dims, j, k)
        calls = self.spy_svd(monkeypatch)
        solution = cj.solve_abiadditive_kernel(a, cj.ModuleSpace(a.value.shape, 2))
        assert solution.dimension == 2 * 4 * dims[j] ** 2 * dims[k] ** 2
        assert calls == [False] * 4 + [True]


# shapes of one to three blocks for random_normal_coefficient
NORMAL_SHAPES = [(1, 1), (2,), (2, 1), (2, 2), (3,), (1, 2, 1), (3, 2)]


class TestKernelMarginsAgainstFullSvd:
    """The rank decision from the values-only SVD of pass 1 against the one
    the full SVDs of ref_kernel_margins give: the same dimension, and the
    threshold and the nearest values on either side within a few ulps.
    LAPACK's values-only path may move the last bits of a singular value,
    so the threshold, a multiple of the largest one, is compared in its own
    ulps, and the kept and dropped values in ulps of the largest."""

    ULPS = 16

    def check(self, a, rank):
        target = cj.ModuleSpace(a.value.shape, rank)
        solution = cj.solve_abiadditive_kernel(a, target)
        dimension, threshold, kept, dropped, sigma_max = ref_kernel_margins(a, target)
        assert solution.dimension == dimension
        assert abs(solution.threshold - threshold) <= self.ULPS * np.spacing(threshold)
        for got, want in ((solution.smallest_kept, kept), (solution.largest_dropped, dropped)):
            assert (got is None) == (want is None)
            if want is not None:
                assert abs(got - want) <= self.ULPS * np.spacing(sigma_max)

    @pytest.mark.parametrize("kind,dims,rank", KERNEL_CASES)
    def test_kernel_cases(self, kind, dims, rank):
        self.check(kernel_coefficient(kind, dims), rank)

    @pytest.mark.parametrize("seed", range(4 * len(NORMAL_SHAPES)))
    def test_random_normal_coefficients(self, seed):
        dims, rank = NORMAL_SHAPES[seed % len(NORMAL_SHAPES)], 1 + seed % 2
        self.check(random_normal_coefficient(dims, np.random.default_rng([47, seed])), rank)


# coefficients with a kernel on several block pairs, and one with none
ASSEMBLY_CASES = [
    ((0, 1), (1, 1)),
    ((1, 0), (2, 1)),
    ((0, 1), (2, 1)),
    ("random", (2, 1)),
    ((2, 0), (1, 1, 1)),
    ((0, 1), (2, 2)),
    (("rotated", 1, 0), (2, 2)),
]


class TestKernelBasisAssembly:
    """The solver's members, views into one read-only array per piece,
    against the per-member scatter of ref_kernel_basis."""

    @pytest.mark.parametrize("kind,dims", ASSEMBLY_CASES)
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_members_match_the_per_member_scatter(self, kind, dims, rank):
        a = kernel_coefficient(kind, dims)
        target = cj.ModuleSpace(a.value.shape, rank)
        solution = cj.solve_abiadditive_kernel(a, target)
        want = ref_kernel_basis(a, target)
        assert solution.dimension == len(solution.basis) == len(want)
        for member, mat in zip(solution.basis, want):
            assert member.matrix.dtype == np.float64
            assert member.matrix.shape == mat.shape
            assert member.matrix.tobytes() == mat.tobytes()

    @pytest.mark.parametrize("kind,dims", ASSEMBLY_CASES[:1] + ASSEMBLY_CASES[-2:])
    def test_members_are_read_only(self, kind, dims):
        a = kernel_coefficient(kind, dims)
        basis = cj.solve_abiadditive_kernel(a, cj.ModuleSpace(a.value.shape, 2)).basis
        for psi in (basis[0], basis[-1]):
            with pytest.raises(ValueError):
                psi.matrix[0, 0] = 1.0
            with pytest.raises(ValueError):
                psi.matrix.flags.writeable = True
            with pytest.raises(AttributeError):
                psi.matrix = np.zeros_like(psi.matrix)

    def test_the_public_constructor_still_validates(self):
        a = kernel_coefficient((0, 1), (2, 2))
        shape = a.value.shape
        target = cj.ModuleSpace(shape, 2)
        member = cj.solve_abiadditive_kernel(a, target).basis[0]
        with pytest.raises(ShapeError, match=r"expected \(32, 16\)"):
            mp.KernelMap(target, member.matrix[:-1])
        with pytest.raises(ShapeError):
            mp.KernelMap(cj.ModuleSpace(shape, 1), member.matrix)
        copy = mp.KernelMap(target, member.matrix)
        assert copy.matrix.tobytes() == member.matrix.tobytes()
        assert not np.shares_memory(copy.matrix, member.matrix)


def per_sample_kernel_residual(psi, a, n, seed):
    """kernel_constraint_residual one draw at a time through the object API."""
    rng = np.random.default_rng(seed)
    space_one = cj.ModuleSpace(psi.domain.algebra, 1)
    worst = 0.0
    for _ in range(n):
        b = cj.sample_vector(space_one, rng)  # a vector of A^1 is an element
        for x in (a.value, a.co):
            lhs = psi(cj.act(cj.act(x, b), cj.adjoint(x)))
            rhs = cj.act(x, psi(b))
            worst = max(worst, cj.vec_residual(lhs, rhs))
    return worst


class TestKernelMap:
    def test_refuses_a_matrix_of_the_wrong_shape(self):
        shape = cj.AlgebraShape((2, 1))
        with pytest.raises(ShapeError, match=r"expected \(10, 10\)"):
            mp.KernelMap(cj.ModuleSpace(shape, 1), np.ones((3, 3)))

    def test_a_solver_member_is_a_mapping(self):
        a = kernel_coefficient((0, 1), (2, 2))
        target = cj.ModuleSpace(a.value.shape, 2)
        member = cj.solve_abiadditive_kernel(a, target).basis[0]
        assert isinstance(member, mp.Mapping)
        assert member.domain == alg.element_space(a.value.shape)
        assert member.codomain == target

    def test_an_argument_of_another_space_is_refused(self):
        # (2,) and (1, 1, 1, 1) both have 8 real coordinates; a vector of
        # A^2 is not an element either
        shape = cj.AlgebraShape((2,))
        psi = mp.KernelMap(cj.ModuleSpace(shape, 1), np.eye(2 * shape.dim))
        for space in (cj.ModuleSpace(cj.AlgebraShape((1, 1, 1, 1)), 1), cj.ModuleSpace(shape, 2)):
            with pytest.raises(SpaceMismatch):
                psi(space.zero())

    @pytest.mark.parametrize("dims", [(1,), (2,), (1, 1), (2, 1), (2, 2), (3,)])
    @pytest.mark.parametrize("rank", [1, 3])
    def test_batch_rows_are_the_single_elements_bit_for_bit(self, dims, rank):
        # a dense matrix: one matrix product over the batch would sum in
        # another order than a row alone and differ in the last bit
        shape = cj.AlgebraShape(dims)
        rng = np.random.default_rng([len(dims), sum(dims), rank])
        matrix = rng.standard_normal((2 * shape.dim * rank, 2 * shape.dim))
        psi = mp.KernelMap(cj.ModuleSpace(shape, rank), matrix)
        (b,) = hb.sample_stacks(psi.domain, [8, rank], 17)
        images = psi(b)
        for i in range(17):
            assert wide_bits(wide(images.row(i))) == wide_bits(wide(psi(b.row(i))))

    def test_a_sum_with_a_constant_adds_bit_for_bit(self):
        a = kernel_coefficient((0, 1), (2, 2))
        target = cj.ModuleSpace(a.value.shape, 2)
        member = cj.solve_abiadditive_kernel(a, target).basis[-1]
        c = cj.sample_vector(target, np.random.default_rng(3))
        total = mp.Sum([member, mp.Constant(member.domain, c)])
        (b,) = hb.sample_stacks(member.domain, [4], 9)
        for x in (b, b.row(5)):
            want = cj.vec_add(member(x), c)
            assert [g.tobytes() for g in total(x).blocks] == [w.tobytes() for w in want.blocks]

    @pytest.mark.parametrize("dims", [(1,), (2,), (2, 1)])
    def test_columns_from_real_coordinates_reproduce_the_map(self, dims):
        # Psi(b) = conj(b) in coordinate 1 of G = A^2: real-linear, not
        # complex-linear; column t of its matrix is the real coordinates
        # of Psi(e_t), where e_t has the unit vector t as real coordinates
        shape = cj.AlgebraShape(dims)
        target = cj.ModuleSpace(shape, 2)
        one = cj.ModuleSpace(shape, 1)

        def conj_in_coordinate_1(b):
            return cj.ModuleVector._wrap(
                target, tuple(np.concatenate([0 * m, m.conj()], axis=-1) for m in b.blocks)
            )

        units = alg.from_real(one, np.eye(2 * shape.dim))
        psi = mp.KernelMap(target, alg.to_real(conj_in_coordinate_1(units)).T)
        (draws,) = hb.sample_stacks(one, [6, len(dims)], 30)
        for b in (draws, draws.row(2)):
            assert np.max(cj.vec_residual(psi(b), conj_in_coordinate_1(b))) <= 1e-15


class TestKernelResidual:
    @pytest.mark.parametrize("dims,rank", [((1,), 1), ((2,), 2), ((1, 1), 3), ((2, 1), 2), ((3,), 1)])
    def test_batched_matches_per_sample(self, dims, rank):
        shape = cj.AlgebraShape(dims)
        rng = np.random.default_rng(sum(dims) + 10 * rank)
        a = cj.validate_coefficient(random_element(shape, rng, spread=0.5))
        target = cj.ModuleSpace(shape, rank)
        psi = mp.KernelMap(target, rng.standard_normal((2 * shape.dim * rank, 2 * shape.dim)))
        batched = cj.kernel_constraint_residual(psi, a, n=15, seed=[3, rank])
        reference = per_sample_kernel_residual(psi, a, 15, [3, rank])
        assert reference > 1e-2
        assert batched == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("n", [0, -1])
    def test_fewer_than_one_sample_is_refused(self, n):
        a = circle_coefficient((1, 1), 0, 1)
        psi = cj.solve_abiadditive_kernel(a, cj.ModuleSpace(a.value.shape, 1)).basis[0]
        with pytest.raises(DomainError, match="at least one sample"):
            cj.kernel_constraint_residual(psi, a, n=n)

    @staticmethod
    def noisy_member():
        """A (1, 1) kernel member plus seeded noise of 1e-4, and its
        coefficient."""
        shape = cj.AlgebraShape((1, 1))
        a = cj.validate_coefficient(cj.AlgebraElement(shape, [[[0.5 + 0.5j]], [[0.5]]]))
        member = cj.solve_abiadditive_kernel(a, cj.ModuleSpace(shape, 1)).basis[0]
        noise = 1e-4 * np.random.default_rng(0).standard_normal(member.matrix.shape)
        # the noise was drawn for the order (re 0, re 1, im 0, im 1) on both
        # sides; the real coordinates run (re 0, im 0, re 1, im 1)
        order = [0, 2, 1, 3]
        return a, member, member.matrix + noise[np.ix_(order, order)]

    def test_overflowing_map_never_reverifies(self):
        # a perturbed member reads 9.2e-5 at scale 1; at 1e157 its Grams
        # overflow, and the rescaled norms still see the gap (about 0.02,
        # without the 1 of the denominator); at 1e308 its values overflow
        # and the ratio would read 0.0 whatever the gap
        a, member, noisy = self.noisy_member()
        r = cj.kernel_constraint_residual(mp.KernelMap(member.codomain, noisy), a)
        assert r == pytest.approx(9.2e-5, rel=1e-2)
        with np.errstate(over="ignore", invalid="ignore"):
            big, huge = (
                cj.kernel_constraint_residual(mp.KernelMap(member.codomain, s * noisy), a)
                for s in (1e157, 1e308)
            )
        assert big > 1e-2
        assert math.isnan(huge)

    def test_nan_map_never_reverifies(self):
        a = circle_coefficient((1, 1), 0, 1)
        shape = a.value.shape
        psi = mp.KernelMap(cj.ModuleSpace(shape, 1), np.full((2 * shape.dim, 2 * shape.dim), np.nan))
        r = cj.kernel_constraint_residual(psi, a)
        assert not r <= mp.KERNEL_RESIDUAL_TOL

    @pytest.mark.parametrize("scale", [1e157, 1e308])
    def test_overflowing_map_bit_for_bit(self, scale):
        # at 1e157 only the Grams overflow and the norms are rescaled; at
        # 1e308 the values themselves do
        a, member, noisy = self.noisy_member()
        psi = mp.KernelMap(member.codomain, scale * noisy)
        with np.errstate(over="ignore", invalid="ignore"):
            got = cj.kernel_constraint_residual(psi, a)
            want = ref_kernel_constraint_residual(psi, a)
        assert got.hex() == want.hex()
        assert math.isfinite(got) == (scale < 1e300)

    def test_nan_map_bit_for_bit(self):
        a = circle_coefficient((1, 1), 0, 1)
        shape = a.value.shape
        psi = mp.KernelMap(cj.ModuleSpace(shape, 1), np.full((2 * shape.dim, 2 * shape.dim), np.nan))
        got = cj.kernel_constraint_residual(psi, a)
        assert math.isnan(got) and math.isnan(ref_kernel_constraint_residual(psi, a))

    @pytest.mark.parametrize("dims,rank", [((1, 1), 1), ((2, 1), 2), ((2, 2), 3)])
    def test_one_infinite_entry_bit_for_bit(self, dims, rank):
        shape = cj.AlgebraShape(dims)
        rng = np.random.default_rng(7 * sum(dims) + rank)
        a = cj.validate_coefficient(random_element(shape, rng, spread=0.5))
        matrix = rng.standard_normal((2 * shape.dim * rank, 2 * shape.dim))
        matrix[tuple(rng.integers(matrix.shape))] = np.inf
        psi = mp.KernelMap(cj.ModuleSpace(shape, rank), matrix)
        with np.errstate(over="ignore", invalid="ignore"):
            got = cj.kernel_constraint_residual(psi, a, seed=[9, rank])
            want = ref_kernel_constraint_residual(psi, a, seed=[9, rank])
        assert got.hex() == want.hex()
        assert not got <= mp.KERNEL_RESIDUAL_TOL

    def test_a_coefficient_over_another_algebra_is_refused(self):
        # (2,) and (1, 1, 1, 1) both have 8 real coordinates, so the real
        # matrices would multiply; only the shapes tell the algebras apart
        shape = cj.AlgebraShape((2,))
        psi = mp.KernelMap(cj.ModuleSpace(shape, 1), np.eye(2 * shape.dim))
        a = cj.validate_coefficient(cj.vec_scale(cj.unit(cj.AlgebraShape((1, 1, 1, 1))), 0.5))
        assert len(a.real_actions[0]) == 2 * shape.dim
        with pytest.raises(SpaceMismatch):
            cj.kernel_constraint_residual(psi, a)


class TestRealActions:
    """Coefficient.real_actions, built by act and adjoint, against the
    solver's kron matrices, and kept once per coefficient."""

    @pytest.mark.parametrize("dims", SHAPES + [(1, 1, 1), (2, 2)])
    def test_blocks_match_the_solvers_kron_matrices(self, dims):
        shape = cj.AlgebraShape(dims)
        rng = np.random.default_rng(len(dims))
        a = cj.validate_coefficient(random_element(shape, rng, spread=0.5))
        width = 2 * shape.dim
        offsets = 2 * np.cumsum((0,) + tuple(n * n for n in dims))
        conj, left = a.real_actions
        assert conj.shape == left.shape == (width, 2 * width)
        for half, x in enumerate((a.value, a.co)):
            kron_conj, kron_left = mp._block_actions(x)
            c, l_ = (m[:, half * width : (half + 1) * width] for m in (conj, left))
            between = np.ones((width, width), bool)
            for k, n in enumerate(dims):
                seg = slice(offsets[k], offsets[k + 1])
                between[seg, seg] = False
                # the solver's matrices act on columns, these on rows; its
                # left action is on one column of a block, so it acts on a
                # row-major block as the kron with the identity
                np.testing.assert_allclose(c[seg, seg].T, kron_conj[k], rtol=0, atol=1e-15)
                np.testing.assert_allclose(
                    l_[seg, seg].T, np.kron(kron_left[k], np.eye(n)), rtol=0, atol=1e-15
                )
            assert not c[between].any() and not l_[between].any()

    def test_read_only_and_kept(self):
        a = circle_coefficient((2, 1), 1, 0)
        assert a.real_actions is a.real_actions
        for m in a.real_actions:
            with pytest.raises(ValueError):
                m[0, 0] = 1.0

    def test_the_residual_never_uses_the_solvers_matrices(self, monkeypatch):
        a = circle_coefficient((2, 1), 1, 0)
        members = cj.solve_abiadditive_kernel(a, cj.ModuleSpace(a.value.shape, 2)).basis

        def refuse(x):
            raise AssertionError("re-verification went through the solver's matrices")

        monkeypatch.setattr(mp, "_block_actions", refuse)
        fresh = cj.validate_coefficient(a.value)
        for m in members:
            assert cj.kernel_constraint_residual(m, fresh) <= mp.KERNEL_RESIDUAL_TOL

    def test_built_once_per_coefficient_across_a_member_loop(self, monkeypatch):
        a = circle_coefficient((2, 2), 0, 1)
        members = cj.solve_abiadditive_kernel(a, cj.ModuleSpace(a.value.shape, 2)).basis
        assert len(members) > 1
        calls = []
        act = alg.act

        def counted(b, x):
            calls.append(1)
            return act(b, x)

        monkeypatch.setattr(alg, "act", counted)
        for i, member in enumerate(members):
            cj.kernel_constraint_residual(member, a, seed=[9, i])
            # x e_t and (x e_t) x^* for x = a and x = 1 - a, at the first
            # member only
            assert len(calls) == 4
        other = cj.validate_coefficient(a.value)
        cj.kernel_constraint_residual(members[0], other)
        assert len(calls) == 8


class TestPairOverflow:
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_overflowing_pair_is_not_certified(self):
        big = cj.vec_scale(cj.unit(SCALAR), 1e200)
        z = cj.zero(SCALAR)
        phi = cj.Linear([[big, z]])
        psi = cj.Linear([[z, big]])
        a = cj.validate_coefficient(cj.vec_scale(cj.unit(SCALAR), 0.5), require_strict_order=True)
        with pytest.raises(PairConditionViolated) as info:
            cj.validate_pair(phi, psi, a)
        # the cross terms are exactly zero, so the overflowing Grams fail
        # the balance condition alone
        assert info.value.condition == "balance" and math.isnan(info.value.residual)
        phis, psis, (gram_phi, gram_psi) = mp.basis_pair_grams(phi, psi)
        assert math.isnan(np.max(mp.balance_residuals(a, gram_phi, gram_psi)))
        assert hb.orthogonality_residual(phis, psis).tolist() == [0.0]

    def test_an_overflowing_coefficient_fails_the_balance_condition(self):
        # <phi(e_0), psi(e_0)> is exactly zero while a <phi, phi> a^* = 1e400
        # overflows: the pair is refused on balance, not on orthogonality
        one, z = cj.unit(SCALAR), cj.zero(SCALAR)
        phi, psi = cj.Linear([[one, z]]), cj.Linear([[z, one]])
        with np.errstate(over="ignore", invalid="ignore"):
            a = cj.validate_coefficient(cj.vec_scale(one, 1e200))
            with pytest.raises(PairConditionViolated) as info:
                cj.validate_pair(phi, psi, a)
        assert info.value.condition == "balance" and math.isnan(info.value.residual)

    @pytest.mark.parametrize("c", [1e78, 1e100])
    def test_pair_whose_grams_square_beyond_the_range_validates(self, c):
        # <phi(e_0), phi(e_0)> = c^2 is finite; the Gram of that element,
        # c^4, overflows, and its norm is rescaled rather than read as inf
        one, z = cj.unit(SCALAR), cj.zero(SCALAR)
        phi = cj.Linear([[cj.vec_scale(one, c), z]])
        psi = cj.Linear([[z, cj.vec_scale(one, c)]])
        a = cj.validate_coefficient(cj.vec_scale(one, 0.5), require_strict_order=True)
        with np.errstate(over="ignore", invalid="ignore"):
            pair = cj.validate_pair(phi, psi, a)
        assert pair.orth_residual == pair.balance_residual == 0.0

    def test_balance_beyond_the_gram_range_is_not_certified(self):
        # a = 2: a <phi, phi> a^* = 1e308 and (1-a) <psi, psi> (1-a)^* =
        # 1.69e308 are finite and 0.41 apart relative, but their norms
        # overflow, so the balance residual is NaN, not 0.0
        one, z = cj.unit(SCALAR), cj.zero(SCALAR)
        phi = cj.Linear([[cj.vec_scale(one, 5e153), z]])
        psi = cj.Linear([[z, cj.vec_scale(one, 1.3e154)]])
        a = cj.validate_coefficient(cj.vec_scale(one, 2.0))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(PairConditionViolated) as info:
                cj.validate_pair(phi, psi, a)
        assert info.value.condition == "balance"
        assert math.isnan(info.value.residual)


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


def pair_tables(phi, psi, a):
    """The largest orthogonality and balance residuals of a pair that
    validate_pair refuses on orthogonality: the residual it raises, and
    the maximum of mp.balance_residuals."""
    with pytest.raises(PairConditionViolated) as info:
        cj.validate_pair(phi, psi, a)
    assert info.value.condition == "orthogonality"
    _, _, (gram_phi, gram_psi) = mp.basis_pair_grams(phi, psi)
    return info.value.residual, np.max(mp.balance_residuals(a, gram_phi, gram_psi))


class TestPairTableAgainstLoop:
    @pytest.mark.parametrize("dims", SHAPES)
    @pytest.mark.parametrize("f_rank", [1, 2, 3])
    def test_random_pairs_bit_for_bit(self, dims, f_rank):
        shape = cj.AlgebraShape(dims)
        rng = np.random.default_rng(100 * f_rank + sum(dims) + len(dims))
        for e_rank in (1, f_rank + 2):
            phi, psi, a = random_pair(shape, f_rank, e_rank, rng)
            want = ref_pair_condition_residuals(phi, psi, a)
            assert hexes(pair_tables(phi, psi, a)) == hexes(want)
            assert min(want) > mp.PAIR_VALIDATION_TOL  # none of them validates

    @pytest.mark.parametrize("dims", SHAPES)
    @pytest.mark.parametrize("f_rank", [1, 2, 3])
    def test_orth_residual_is_the_largest_grid_residual(self, dims, f_rank):
        # refused random pairs, and a validated pair's orth_residual
        shape = cj.AlgebraShape(dims)
        rng = np.random.default_rng(100 * f_rank + sum(dims) + len(dims))
        for e_rank in (1, f_rank + 2):
            phi, psi, a = random_pair(shape, f_rank, e_rank, rng)
            grid = hb.orthogonality_residual(*mp.basis_pair_grams(phi, psi)[:2])
            assert hexes([pair_tables(phi, psi, a)[0]]) == hexes([np.max(grid)])
        pair = cj.inclusion_pair(shape, f_rank, 2 * f_rank + 1, random_strict_coefficient(shape, rng))
        grid = hb.orthogonality_residual(*mp.basis_pair_grams(pair.phi, pair.psi)[:2])
        assert hexes([pair.orth_residual]) == hexes([np.max(grid)])

    @pytest.mark.parametrize("dims", SHAPES)
    def test_grid_rows_are_the_basis_pairs(self, dims):
        shape = cj.AlgebraShape(dims)
        phi, psi, _ = random_pair(shape, 3, 2, np.random.default_rng(7))
        phis, psis, grams = mp.basis_pair_grams(phi, psi)
        space = phi.domain
        for k in range(space.rank ** 2):
            i, j = divmod(k, space.rank)
            x, y = space.basis_vector(i), space.basis_vector(j)
            singles = (
                phi(x),
                psi(y),
                cj.inner_product(phi(x), phi(y)),
                cj.inner_product(psi(x), psi(y)),
            )
            for table, single in zip((phis, psis, *grams), singles, strict=True):
                want = [b.tobytes() for b in single.blocks]
                assert [b[k].tobytes() for b in table.blocks] == want

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_overflow_pair_bit_for_bit(self):
        big = cj.vec_scale(cj.unit(SCALAR), 1e200)
        z = cj.zero(SCALAR)
        a = cj.validate_coefficient(cj.vec_scale(cj.unit(SCALAR), 0.5), require_strict_order=True)
        phi, psi = cj.Linear([[big, z], [z, big]]), cj.Linear([[z, big], [big, z]])
        got = pair_tables(phi, psi, a)
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
        psi = mp.KernelMap(cj.ModuleSpace(shape, rank), matrix)
        if n == 0:
            # no sample tests nothing, so it is refused rather than passed
            with pytest.raises(DomainError):
                cj.kernel_constraint_residual(psi, a, n=n, seed=[5, n])
            return
        got = cj.kernel_constraint_residual(psi, a, n=n, seed=[5, n])
        assert got.hex() == ref_kernel_constraint_residual(psi, a, n=n, seed=[5, n]).hex()
        assert got != 0.0
