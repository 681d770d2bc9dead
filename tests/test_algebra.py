"""Block matrix arithmetic, norms, spectra and coefficient validation."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings

import cstar_jensen as cj
from cstar_jensen import algebra as alg
from cstar_jensen import hilbert as hb
from cstar_jensen.errors import (
    NearSingular,
    NotSelfAdjoint,
    OrderViolation,
    ShapeError,
    SpaceMismatch,
    ValidationError,
)

from support import (
    random_element,
    ref_cstar_norm,
    random_self_adjoint,
    random_strict_coefficient,
    ref_top_of_three,
    seeds,
    shape_and_seed,
)


# ---------------------------------------------------------------------------
# oracle: characteristic polynomial by Faddeev-LeVerrier, roots by np.roots.
# Avoids the eigvalsh path the library uses for spectra and the Gram
# eigenvalue path it uses for norms.


def char_poly(mat):
    n = mat.shape[0]
    coeffs = [1.0 + 0.0j]
    m = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        m = mat @ m
        c = -np.trace(m) / k
        coeffs.append(c)
        m = m + c * np.eye(n)
    return coeffs


def oracle_spectrum_bounds(elem):
    lo, hi = np.inf, -np.inf
    for b in elem.blocks:
        roots = np.roots(char_poly(np.asarray(b)))
        lo = min(lo, roots.real.min())
        hi = max(hi, roots.real.max())
    return lo, hi


def oracle_norm(elem):
    worst = 0.0
    for b in elem.blocks:
        b = np.asarray(b)
        gram = b.conj().T @ b
        roots = np.roots(char_poly(gram))
        worst = max(worst, np.sqrt(max(roots.real.max(), 0.0)))
    return worst


TWO_BLOCKS = cj.AlgebraShape((1, 1))
M2 = cj.AlgebraShape((2,))
GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def two_scalars(x, y):
    return cj.AlgebraElement(TWO_BLOCKS, [[[x]], [[y]]])


class TestArithmetic:
    def test_add_blockwise(self):
        total = cj.vec_add(two_scalars(1 / 3, 1 / 2), two_scalars(2 / 3, 1 / 2))
        assert cj.vec_residual(total, cj.unit(TWO_BLOCKS)) == 0.0

    def test_nilpotent_square_vanishes(self):
        n = cj.AlgebraElement(M2, [[[0, 1], [0, 0]]])
        assert cj.module_norm(cj.act(n, n)) == 0.0

    def test_mul_respects_blocks(self):
        prod = cj.act(two_scalars(2.0, 3.0), two_scalars(5.0, 7.0))
        assert cj.vec_residual(prod, two_scalars(10.0, 21.0)) == 0.0

    def test_block_count_mismatch(self):
        with pytest.raises(ShapeError):
            cj.AlgebraElement(TWO_BLOCKS, [[[1.0]]])

    def test_non_square_block(self):
        with pytest.raises(ShapeError):
            cj.AlgebraElement(M2, [[[1.0, 2.0]]])

    def test_non_finite_entries(self):
        with pytest.raises(ValidationError):
            cj.AlgebraElement(M2, [[[np.inf, 0], [0, 0]]])

    @given(shape_and_seed())
    def test_add_commutes(self, case):
        shape, seed = case
        rng = np.random.default_rng(seed)
        x, y = random_element(shape, rng), random_element(shape, rng)
        assert cj.vec_residual(cj.vec_add(x, y), cj.vec_add(y, x)) == 0.0

    @given(shape_and_seed())
    def test_mul_associates(self, case):
        shape, seed = case
        rng = np.random.default_rng(seed)
        x, y, z = (random_element(shape, rng) for _ in range(3))
        lhs = cj.act(cj.act(x, y), z)
        rhs = cj.act(x, cj.act(y, z))
        assert cj.vec_residual(lhs, rhs) < 1e-12


# each operation on (element, element), and the same on plain vectors of A^1
ELEMENT_OPS = {
    "vec_add": lambda x, y: cj.vec_add(x, y),
    "vec_sub": lambda x, y: cj.vec_sub(x, y),
    "vec_neg": lambda x, y: cj.vec_neg(x),
    "vec_scale": lambda x, y: cj.vec_scale(x, 2.5 - 1j),
    "act": lambda x, y: cj.act(y, x),
    "adjoint": lambda x, y: cj.adjoint(x),
    "invert": lambda x, y: alg.invert(x),
}


class TestElementIsAVectorOfA1:
    """An element of A is a vector of A^1, the one array type."""

    def test_unit_is_a_vector_of_a1(self):
        one = cj.unit(M2)
        assert issubclass(cj.AlgebraElement, cj.ModuleVector)
        assert isinstance(one, cj.ModuleVector) and one.space == cj.ModuleSpace(M2, 1)
        assert one.shape == M2 and one.batch == ()

    @pytest.mark.parametrize("name", sorted(ELEMENT_OPS))
    def test_operations_keep_the_type_and_wire_format(self, name):
        op = ELEMENT_OPS[name]
        rng = np.random.default_rng(3)
        x, y = (random_element(TWO_BLOCKS, rng) for _ in range(2))
        got = op(x, y)
        assert type(got) is cj.AlgebraElement and got.shape == TWO_BLOCKS
        assert set(got.to_obj()) == {"shape", "blocks"}
        assert alg.element_from_obj(got.to_obj()).to_obj() == got.to_obj()
        # the same blocks as a plain vector of A^1, such as an F-vector of rank 1
        space = cj.ModuleSpace(TWO_BLOCKS, 1)
        plain = [cj.ModuleVector(space, [v]) for v in (x, y)]
        vec = op(*plain)
        assert type(vec) is cj.ModuleVector and vec.space == space
        assert vec.to_obj() == {"rank": 1, "coords": [got.to_obj()]}

    def test_rows_of_a_batch_of_elements_are_elements(self):
        xs = cj.ModuleSpace(M2, 2).basis()
        row = cj.inner_product(xs, xs).row(1)
        assert type(row) is cj.AlgebraElement and row.batch == ()
        assert cj.vec_residual(row, cj.unit(M2)) == 0.0

    def test_act_refuses_what_is_not_an_element_of_the_algebra(self):
        x = cj.ModuleSpace(M2, 2).basis_vector(0)
        for b in (
            cj.ModuleSpace(M2, 2).basis_vector(1),  # rank 2
            cj.ModuleSpace(TWO_BLOCKS, 1).basis_vector(0),  # another algebra
        ):
            with pytest.raises(SpaceMismatch):
                cj.act(b, x)

    def test_adjoint_refuses_a_vector_of_rank_two(self):
        with pytest.raises(SpaceMismatch):
            cj.adjoint(cj.ModuleSpace(M2, 2).basis_vector(1))


class TestInvolutionAndNorm:
    def test_shear_norm_is_golden_ratio(self):
        shear = cj.AlgebraElement(M2, [[[1, 1], [0, 1]]])
        assert cj.module_norm(shear) == pytest.approx(GOLDEN, abs=1e-12)

    def test_nilpotent_norm(self):
        n = cj.AlgebraElement(M2, [[[0, 2], [0, 0]]])
        assert cj.module_norm(n) == pytest.approx(2.0, abs=1e-14)

    def test_column_norm(self):
        col = cj.AlgebraElement(M2, [[[3, 0], [4, 0]]])
        assert cj.module_norm(col) == pytest.approx(5.0, abs=1e-12)

    @given(shape_and_seed())
    def test_norm_matches_char_poly_oracle(self, case):
        shape, seed = case
        x = random_element(shape, np.random.default_rng(seed))
        assert cj.module_norm(x) == pytest.approx(oracle_norm(x), rel=1e-9)

    @given(shape_and_seed())
    def test_cstar_identity(self, case):
        shape, seed = case
        x = random_element(shape, np.random.default_rng(seed))
        lhs = cj.module_norm(cj.act(cj.adjoint(x), x))
        assert lhs == pytest.approx(cj.module_norm(x) ** 2, rel=1e-9)

    @given(shape_and_seed())
    def test_involution_antimultiplicative(self, case):
        shape, seed = case
        rng = np.random.default_rng(seed)
        x, y = random_element(shape, rng), random_element(shape, rng)
        lhs = cj.adjoint(cj.act(x, y))
        rhs = cj.act(cj.adjoint(y), cj.adjoint(x))
        assert cj.vec_residual(lhs, rhs) < 1e-14

    @given(shape_and_seed())
    def test_involution_is_isometric(self, case):
        shape, seed = case
        x = random_element(shape, np.random.default_rng(seed))
        assert cj.module_norm(cj.adjoint(x)) == pytest.approx(
            cj.module_norm(x), rel=1e-12
        )


def batch_of(rows):
    """The elements rows as one element with a leading batch axis."""
    shape = rows[0].shape
    return cj.AlgebraElement._wrap(
        rows[0].space, tuple(np.stack([x.blocks[k] for x in rows]) for k in range(len(shape)))
    )


def bits(values):
    return [float(v).hex() for v in values]


def overflowed(shape):
    """An inf element and a NaN element, reached by overflowing arithmetic."""
    with np.errstate(over="ignore", invalid="ignore"):
        inf = cj.vec_scale(cj.vec_scale(cj.unit(shape), 1e200), 1e200)
        return inf, cj.vec_sub(inf, inf)


class TestNonFiniteNorm:
    @pytest.mark.parametrize("shape", [cj.AlgebraShape((1,)), M2, cj.AlgebraShape((1, 2))])
    def test_nan_block_reads_nan(self, shape):
        _, nan = overflowed(shape)
        assert np.isnan(cj.module_norm(nan))

    @pytest.mark.parametrize("shape", [cj.AlgebraShape((1,)), M2, cj.AlgebraShape((2, 1))])
    def test_inf_block_reads_inf(self, shape):
        inf, _ = overflowed(shape)
        assert cj.module_norm(inf) == np.inf

    @pytest.mark.parametrize("big", [(1e200, 1.0), (1.0, 1e200)])
    def test_nan_wins_over_inf_across_blocks(self, big):
        inf, _ = overflowed(TWO_BLOCKS)
        with np.errstate(over="ignore", invalid="ignore"):
            # inf - inf is NaN in one block, inf - finite is inf in the other
            mixed = cj.vec_sub(inf, cj.vec_scale(two_scalars(*big), 1e200))
        assert np.isnan(cj.module_norm(mixed))

    @pytest.mark.parametrize("shape", [cj.AlgebraShape((1,)), M2])
    def test_residual_propagates_nan(self, shape):
        _, nan = overflowed(shape)
        assert np.isnan(cj.vec_residual(nan, cj.unit(shape)))
        assert np.isnan(cj.vec_residual(cj.unit(shape), nan))

    def test_residual_of_overflowing_norms_is_nan(self):
        # 1 + 1e308 + 1.7e308 is inf, so the ratio would read 0.0 whatever
        # the gap; it must read NaN, as vec_residual does on the same values
        shape = cj.AlgebraShape((1,))
        lhs, rhs = (cj.vec_scale(cj.unit(shape), v) for v in (1e308, 1.7e308))
        space = cj.ModuleSpace(shape, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(cj.vec_residual(lhs, rhs))
            assert np.isnan(cj.vec_residual(cj.ModuleVector(space, [lhs]), cj.ModuleVector(space, [rhs])))

    @pytest.mark.parametrize("shape", [cj.AlgebraShape((1,)), M2])
    def test_vec_residual_propagates_nan(self, shape):
        _, nan = overflowed(shape)
        space = cj.ModuleSpace(shape, 2)
        poisoned = cj.ModuleVector(space, [cj.unit(shape), nan])
        assert np.isnan(cj.vec_residual(poisoned, space.zero()))
        assert np.isnan(cj.vec_residual(space.basis_vector(0), poisoned))

    def test_stack_mixes_finite_nan_and_inf_rows(self):
        inf, nan = overflowed(TWO_BLOCKS)
        with np.errstate(over="ignore", invalid="ignore"):
            inf_nan = cj.vec_sub(inf, cj.vec_scale(two_scalars(1e200, 1.0), 1e200))
        finite = two_scalars(3.0, -4.0j)
        rows = [finite, nan, inf, inf_nan, finite]
        norms = cj.module_norm(batch_of(rows))
        assert norms[0] == norms[4] == 4.0
        assert np.isnan(norms[1]) and np.isnan(norms[3])
        assert norms[2] == np.inf
        want = [ref_cstar_norm(x.blocks) for x in rows]
        assert bits(norms) == bits(cj.module_norm(x) for x in rows) == bits(want)

    @pytest.mark.parametrize("dims", [(2,), (3,), (1, 2), (2, 1, 3)])
    def test_stack_of_matrix_blocks_skips_the_svd_of_bad_rows(self, dims):
        shape = cj.AlgebraShape(dims)
        inf, nan = overflowed(shape)
        finite = random_element(shape, np.random.default_rng(2))
        rows = [nan, finite, inf, finite, nan]
        norms = cj.module_norm(batch_of(rows))  # one eigvalsh would drop a NaN
        want = [ref_cstar_norm(x.blocks) for x in rows]
        assert bits(norms) == bits(cj.module_norm(x) for x in rows) == bits(want)
        assert np.isnan(norms[0]) and norms[2] == np.inf

    @pytest.mark.parametrize("dims", [(1,), (2,), (3,), (2, 1)])
    def test_overflowing_gram_is_rescaled_row_by_row(self, dims):
        # a finite row whose Gram overflows reads its norm, not inf, and
        # the ordinary rows beside it keep the bits they get alone
        shape = cj.AlgebraShape(dims)
        rng = np.random.default_rng(len(dims) + max(dims))
        finite = random_element(shape, rng)
        huge = cj.vec_scale(random_element(shape, rng), 1e200)
        _, nan = overflowed(shape)
        rows = [finite, huge, nan, finite]
        with np.errstate(over="ignore", invalid="ignore"):
            norms = cj.module_norm(batch_of(rows))
            singles = [cj.module_norm(x) for x in rows]
        assert bits(norms) == bits(singles)
        assert bits(norms[[0, 3]]) == bits([ref_cstar_norm(finite.blocks)] * 2)
        assert np.isnan(norms[2])
        svd = max(np.linalg.svd(b, compute_uv=False)[0] for b in huge.blocks)
        assert norms[1] == pytest.approx(svd, rel=1e-14)

    @given(shape_and_seed())
    @settings(max_examples=30)
    def test_stack_norm_bit_for_bit(self, case):
        shape, seed = case
        rng = np.random.default_rng(seed)
        rows = [
            random_element(shape, rng, spread=10.0 ** rng.uniform(-8, 8))
            for _ in range(20)
        ]
        norms = cj.module_norm(batch_of(rows))
        want = [ref_cstar_norm(x.blocks) for x in rows]
        assert norms.tolist() == [cj.module_norm(x) for x in rows] == want

    @given(shape_and_seed())
    def test_finite_norm_unchanged_bit_for_bit(self, case):
        # the square root of the top eigenvalue of the Gram b b^* per block
        shape, seed = case
        x = random_element(shape, np.random.default_rng(seed))
        assert cj.module_norm(x) == ref_cstar_norm(x.blocks)


class TestTableResidual:
    @pytest.mark.parametrize("dims", [(1,), (2,), (2, 1), (3,)])
    def test_a_real_table_reads_as_vec_residual_of_its_sides(self, dims):
        # a [lhs - rhs, lhs, rhs] table written in real coordinates, as the
        # kernel re-verification writes it, and read back by one from_real;
        # its rows hold NaN, inf, inf - inf, entries near 1e200 whose Grams
        # overflow, and zeros
        space = cj.ModuleSpace(cj.AlgebraShape(dims), 2)
        rng = np.random.default_rng(sum(dims) + 5 * len(dims))
        lhs, rhs = rng.standard_normal((2, 8, 2 * space.rank * space.algebra.dim))
        rhs[1] = lhs[1] + 1e-12 * rhs[1]
        lhs[2, 0] = np.nan
        rhs[3, -1] = np.inf
        lhs[4, 0] = rhs[4, 0] = np.inf
        lhs[5] *= 1e200
        rhs[5] *= 1e200
        lhs[6] = rhs[6] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            table = np.stack([lhs - rhs, lhs, rhs])
            got = alg.table_residual(alg.from_real(space, table))
            want = cj.vec_residual(*(alg.from_real(space, side) for side in (lhs, rhs)))
        assert [x.hex() for x in got] == [x.hex() for x in want]
        assert np.isnan(got[2:5]).all() and got[6] == 0.0
        assert 0.0 < got[5] < 1.0 and 0.0 < got[1] < 1e-11


class TestVecScale:
    """A real scalar scales the real and imaginary parts as reals; a complex
    one multiplies as a complex number."""

    @pytest.mark.parametrize("shape", [cj.AlgebraShape((1,)), M2, TWO_BLOCKS])
    def test_inf_element_scales_to_inf(self, shape):
        inf, _ = overflowed(shape)
        half = cj.vec_scale(inf, 0.5)
        # a complex product gives inf + nanj: inf * 0 in the imaginary part
        for got, want in zip(half.blocks, inf.blocks):
            assert np.array_equal(got, want) and not np.isnan(got).any()
        assert cj.module_norm(half) == math.inf
        space = cj.ModuleSpace(shape, 2)
        vector = cj.vec_scale(cj.ModuleVector(space, [cj.unit(shape), inf]), 0.5)
        assert cj.module_norm(vector) == math.inf

    @pytest.mark.parametrize("dims", [(2,), (1, 3), (2, 2)])
    def test_adjoint_input_scales_entry_by_entry(self, dims):
        x = cj.adjoint(random_element(cj.AlgebraShape(dims), np.random.default_rng(5)))
        assert not all(b.flags.c_contiguous for b in x.blocks)
        got = cj.vec_scale(x, 0.3)
        for g, b in zip(got.blocks, x.blocks):
            want = [[complex(v.real * 0.3, v.imag * 0.3) for v in row] for row in b]
            assert np.ascontiguousarray(g).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("dims", [(1,), (2,), (2, 2)])
    def test_complex_scalar_is_the_complex_product(self, dims):
        x = random_element(cj.AlgebraShape(dims), np.random.default_rng(6))
        for y in (x, cj.adjoint(x)):
            for s in (2.5 - 1j, 0.5 + 0j):
                got = cj.vec_scale(y, s)
                assert [g.tobytes() for g in got.blocks] == [(s * b).tobytes() for b in y.blocks]


def with_zero_blocks(x, zeroed, value=0.0):
    """x with every block in zeroed set to value, a zero of either sign."""
    blocks = tuple(
        np.full_like(b, complex(value, value)) if k in zeroed else b for k, b in enumerate(x.blocks)
    )
    return type(x)._wrap(x.space, blocks)


class TestZeroBlocks:
    """block_norm skips a block that is zero in every row, and no norm
    moves: a zero block's top eigenvalue, +0.0, never raises the maximum."""

    @pytest.mark.parametrize("dims", [(1, 2), (2, 1, 3), (3, 3), (2, 2)])
    def test_block_zero_in_some_rows_matches_each_row(self, dims):
        shape = cj.AlgebraShape(dims)
        rng = np.random.default_rng(sum(dims))
        last, every = len(dims) - 1, tuple(range(len(dims)))
        zeroed = [(), (0,), (), every, (0,), (last,), every]
        rows = [
            with_zero_blocks(random_element(shape, rng, 10.0 ** rng.uniform(-6, 6)), ks, -0.0 if i % 2 else 0.0)
            for i, ks in enumerate(zeroed)
        ]
        norms = alg.block_norm(batch_of(rows).blocks)
        want = [ref_cstar_norm(x.blocks) for x in rows]
        assert bits(norms) == bits(alg.block_norm(x.blocks) for x in rows) == bits(want)
        assert norms[3] == norms[6] == 0.0

    @pytest.mark.parametrize("dims", [(1, 2), (2, 1, 3), (3, 3)])
    def test_block_zero_in_every_row_forms_no_gram(self, dims, monkeypatch):
        shape = cj.AlgebraShape(dims)
        rng = np.random.default_rng(len(dims))
        rows = [with_zero_blocks(random_element(shape, rng), (0,)) for _ in range(5)]
        seen = []
        top = alg._largest_eigenvalue
        monkeypatch.setattr(alg, "_largest_eigenvalue", lambda g: seen.append(g.shape) or top(g))
        norms = alg.block_norm(batch_of(rows).blocks)
        assert seen == [(5, n, n) for n in dims[1:]]
        monkeypatch.undo()
        assert bits(norms) == bits(ref_cstar_norm(x.blocks) for x in rows)

    @pytest.mark.parametrize("dims", [(1,), (2,), (3,), (2, 1, 3)])
    def test_zero_norm_is_positive_zero(self, dims):
        space = cj.ModuleSpace(cj.AlgebraShape(dims), 2)
        for value in (0.0, -0.0):
            single = with_zero_blocks(space.zero(), range(len(dims)), value)
            norm = cj.module_norm(single)
            assert type(norm) is float and norm == 0.0 and math.copysign(1.0, norm) == 1.0
            stack = cj.ModuleVector._wrap(space, tuple(np.stack([b] * 4) for b in single.blocks))
            norms = cj.module_norm(stack)
            assert norms.shape == (4,) and norms.dtype == np.float64
            assert not np.signbit(norms).any() and not norms.any()
        empty = cj.ModuleVector._wrap(space, tuple(b[:0] for b in space.basis().blocks))
        assert cj.module_norm(empty).shape == (0,)

    @pytest.mark.parametrize("dims", [(2, 1), (1, 3), (3, 2)])
    def test_non_finite_rows_beside_a_zero_block(self, dims):
        # block 1 is zero in every row and skipped; the NaN, inf and
        # overflowing rows of block 0 read what ref_cstar_norm reads
        shape = cj.AlgebraShape(dims)
        rng = np.random.default_rng(9)
        inf, nan = overflowed(shape)
        huge = cj.vec_scale(random_element(shape, rng), 1e200)
        rows = [random_element(shape, rng), nan, inf, huge, cj.zero(shape)]
        rows = [with_zero_blocks(x, (1,)) for x in rows]
        with np.errstate(over="ignore", invalid="ignore"):
            norms = cj.module_norm(batch_of(rows))
            singles = [cj.module_norm(x) for x in rows]
            want = [ref_cstar_norm(x.blocks) for x in rows]
        assert bits(norms) == bits(singles) == bits(want)
        assert np.isnan(norms[1]) and norms[2] == math.inf and math.isfinite(norms[3])


def unitary(n, rng):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def three_row_blocks(eigenvalues, rng, cols=4):
    """Blocks of shape (3, cols) whose Grams B B^* have the given
    eigenvalues, one block per row of eigenvalues, in random bases."""
    return np.stack([(unitary(3, rng) * np.sqrt(lam)) @ unitary(cols, rng)[:3] for lam in eigenvalues])


def eigenvalues_at(gaps):
    """Eigenvalues m + 2p cos((arccos(r) + 2 pi k)/3), k = 0, 1, 2, with
    m = 3 and p = 1, for each 1 + r in gaps: the top two coincide as the
    gap goes to 0."""
    theta = np.arccos(np.asarray(gaps)[:, None] - 1)
    return 3 + 2 * np.cos((theta + 2 * np.pi * np.arange(3)) / 3)


class TestTopOfThree:
    """The closed form for the top eigenvalue of a 3x3 Gram, against the
    SVD within 8 ulps, and eigvalsh where the top two nearly coincide."""

    @staticmethod
    def assert_near_svd(blocks):
        got = alg.block_norm([blocks])
        want = np.array([np.linalg.svd(b, compute_uv=False)[0] for b in blocks])
        eps = np.finfo(np.float64).eps
        assert np.all(np.abs(got - want) <= 8 * eps * want), (got - want) / want
        assert bits(got) == bits(alg.block_norm([b]) for b in blocks)

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_matches_the_svd(self, rank, scale):
        rng = np.random.default_rng([rank, 3])
        eigenvalues = rng.exponential(size=(100, 3)) * (np.arange(3) < rank)
        self.assert_near_svd(scale * three_row_blocks(eigenvalues, rng, cols=5))

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_matches_the_svd_as_the_top_two_meet(self, scale, monkeypatch):
        gaps = np.repeat(np.logspace(-12, 0, 25), 8)
        blocks = scale * three_row_blocks(eigenvalues_at(gaps), np.random.default_rng(5))
        eigvalsh, sent = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda g: sent.append(len(g)) or eigvalsh(g))
        alg.block_norm([blocks])
        monkeypatch.undo()
        # one eigvalsh call, on the indices on the near side of 1 + r = 1e-2
        (count,) = sent
        assert count in range((gaps < 0.9e-2).sum(), (gaps < 1.1e-2).sum() + 1)
        self.assert_near_svd(blocks)

    def test_stack_is_its_rows_across_both_sides(self):
        rng = np.random.default_rng(11)
        gaps = rng.permutation(np.logspace(-10, 0, 40))
        grams = [b @ b.conj().T for b in three_row_blocks(eigenvalues_at(gaps), rng)]
        tops = alg._top_of_three(np.stack(grams))
        assert bits(tops) == bits(alg._top_of_three(g) for g in grams)
        assert bits(tops) == bits(ref_top_of_three(g) for g in grams)

    @pytest.mark.parametrize("power", [-1070, -500, 0, 1000])
    def test_scalar_gram_is_its_mean(self, power):
        # 1.5 * 2^power: three times it is exact, so p^2 is 0 and m is exact
        value = np.ldexp(1.5, power)
        top = alg._top_of_three(value * np.eye(3, dtype=complex))
        assert top.shape == () and top == value

    def test_subnormal_diagonal_gives_a_finite_top(self):
        rng = np.random.default_rng(2)
        b = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        gram = b @ b.conj().T
        gram = np.ldexp(gram.real, -1060) + 1j * np.ldexp(gram.imag, -1060)
        assert np.abs(gram).max() < np.finfo(np.float64).tiny
        top = alg._top_of_three(gram)
        want = np.linalg.eigvalsh(gram)[-1]
        assert np.isfinite(top) and top >= 0.0
        assert top == pytest.approx(want, rel=1e-3)


TALL_SHAPES = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3)]


def normal_blocks(n, m, count, rng):
    return rng.standard_normal((count, n, m)) + 1j * rng.standard_normal((count, n, m))


class TestTallBlocks:
    """A block with fewer columns than rows is measured by its conjugate
    transpose: its Gram is B^* B, which has B B^*'s top eigenvalue."""

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    @pytest.mark.parametrize("n,m", TALL_SHAPES)
    def test_matches_the_svd(self, n, m, scale):
        blocks = scale * normal_blocks(n, m, 200, np.random.default_rng([n, m]))
        got = alg.block_norm([blocks])
        want = np.array([np.linalg.svd(b, compute_uv=False)[0] for b in blocks])
        eps = np.finfo(np.float64).eps
        assert np.all(np.abs(got - want) <= 8 * eps * want), (got - want) / want

    @pytest.mark.parametrize("n,m", TALL_SHAPES)
    def test_is_its_conjugate_transpose_row_by_row(self, n, m):
        rng = np.random.default_rng([m, n, 1])
        blocks = normal_blocks(n, m, 50, rng) * 10.0 ** rng.uniform(-8, 8, (50, 1, 1))
        got = alg.block_norm([blocks])
        assert bits(got) == bits(alg.block_norm([blocks.conj().swapaxes(-1, -2)]))
        assert bits(got) == bits(alg.block_norm([b]) for b in blocks)
        assert bits(got) == bits(ref_cstar_norm([b]) for b in blocks)

    @pytest.mark.parametrize("n,m", TALL_SHAPES)
    def test_nan_inf_and_an_overflowing_gram(self, n, m):
        rng = np.random.default_rng([n, m, 2])
        blocks = normal_blocks(n, m, 5, rng)
        blocks[1, 0, 0] = complex(np.nan, 0.0)
        blocks[2, -1, -1] = complex(0.0, np.inf)
        blocks[3] *= 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            norms = alg.block_norm([blocks])
            singles = [alg.block_norm([b]) for b in blocks]
            want = [ref_cstar_norm([b]) for b in blocks]
        assert bits(norms) == bits(singles) == bits(want)
        assert np.isnan(norms[1]) and norms[2] == math.inf
        assert norms[3] == pytest.approx(np.linalg.svd(blocks[3], compute_uv=False)[0], rel=1e-14)

    def test_empty_and_all_zero_tall_blocks_are_skipped(self, monkeypatch):
        # every (2, 2) solver member's table holds a (2, 0) block, which
        # must not become a 0x0 Gram
        rng = np.random.default_rng(4)
        square, tall = normal_blocks(2, 2, 5, rng), normal_blocks(2, 1, 5, rng)
        seen = []
        top = alg._largest_eigenvalue
        monkeypatch.setattr(alg, "_largest_eigenvalue", lambda g: seen.append(g.shape) or top(g))
        empty, zero = np.zeros((5, 2, 0), complex), np.zeros((5, 3, 1), complex)
        norms = alg.block_norm([empty, square, zero, tall])
        assert seen == [(5, 2, 2), (5, 1, 1)]
        assert alg.block_norm([empty, zero]).tolist() == [0.0] * 5
        monkeypatch.undo()
        assert bits(norms) == bits(ref_cstar_norm([e, s, z, t]) for e, s, z, t in zip(empty, square, zero, tall))


class TestInverse:
    def test_diagonal_inverse(self):
        inv = alg.invert(two_scalars(1 / 3, 1 / 2))
        assert cj.vec_residual(inv, two_scalars(3.0, 2.0)) < 1e-15

    def test_singular_block_named(self):
        n = cj.AlgebraElement(M2, [[[0, 1], [0, 0]]])
        with pytest.raises(NearSingular) as info:
            alg.invert(n)
        assert str(info.value).startswith("block 0 is numerically singular")

    def test_near_singular_threshold(self):
        tiny = cj.AlgebraElement(M2, [[[1, 0], [0, 1e-14]]])
        with pytest.raises(NearSingular):
            alg.invert(tiny)

    @given(shape_and_seed())
    @settings(max_examples=40)
    def test_inverse_roundtrip(self, case):
        shape, seed = case
        rng = np.random.default_rng(seed)
        # shift keeps the draw comfortably away from singular
        x = cj.vec_add(random_element(shape, rng, 0.3), cj.vec_scale(cj.unit(shape), 2.0))
        prod = cj.act(x, alg.invert(x))
        assert cj.vec_residual(prod, cj.unit(shape)) < 1e-10


class TestSpectrum:
    def test_diagonal_blocks(self):
        lo, hi = alg.spectrum_bounds(two_scalars(1 / 3, 1 / 2))
        assert (lo, hi) == pytest.approx((1 / 3, 1 / 2), abs=1e-14)

    def test_symmetric_2x2_exact(self):
        x = cj.AlgebraElement(M2, [[[0.5, 0.4], [0.4, 0.5]]])
        lo, hi = alg.spectrum_bounds(x)
        assert (lo, hi) == pytest.approx((0.1, 0.9), abs=1e-12)

    def test_rejects_non_self_adjoint(self):
        with pytest.raises(NotSelfAdjoint):
            alg.spectrum_bounds(cj.AlgebraElement(M2, [[[0, 1], [0, 0]]]))

    @given(shape_and_seed())
    def test_matches_char_poly_oracle(self, case):
        shape, seed = case
        x = random_self_adjoint(shape, np.random.default_rng(seed))
        lo, hi = alg.spectrum_bounds(x)
        olo, ohi = oracle_spectrum_bounds(x)
        assert lo == pytest.approx(olo, abs=1e-8)
        assert hi == pytest.approx(ohi, abs=1e-8)


class TestCoefficient:
    def test_unit_is_rejected(self):
        # 1 - a singular
        with pytest.raises(NearSingular):
            cj.validate_coefficient(cj.unit(M2))

    def test_zero_is_rejected(self):
        with pytest.raises(NearSingular):
            cj.validate_coefficient(cj.zero(M2))

    def test_strict_order_accepts_interior_spectrum(self):
        x = cj.AlgebraElement(M2, [[[0.5, 0.4], [0.4, 0.5]]])
        cj.validate_coefficient(x, require_strict_order=True)

    def test_strict_order_rejects_spectrum_above_one(self):
        x = cj.AlgebraElement(M2, [[[1.1, 0], [0, 0.5]]])
        with pytest.raises(OrderViolation):
            cj.validate_coefficient(x, require_strict_order=True)

    def test_strict_order_rejects_non_self_adjoint(self):
        x = cj.AlgebraElement(M2, [[[0.5, 0.2], [0, 0.5]]])
        with pytest.raises(NotSelfAdjoint):
            cj.validate_coefficient(x, require_strict_order=True)

    def test_strict_order_rejects_an_overflowing_skew_part(self):
        # H + iK: ||x - x^*|| and the bound are both inf, and only an exactly
        # zero difference may pass an infinite bound
        x = cj.AlgebraElement(M2, [[[0.3, 1e200j], [1e200j, 0.6]]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NotSelfAdjoint):
                cj.validate_coefficient(x, require_strict_order=True)

    def test_non_self_adjoint_fine_without_order(self):
        x = two_scalars(0.5, 0.5 + 0.5j)
        coeff = cj.validate_coefficient(x)
        assert cj.vec_residual(cj.act(coeff.value, coeff.inv), cj.unit(TWO_BLOCKS)) < 1e-14

    @given(shape_and_seed())
    @settings(max_examples=30)
    def test_inverses_certified(self, case):
        shape, seed = case
        coeff = random_strict_coefficient(shape, np.random.default_rng(seed))
        one = cj.unit(shape)
        assert cj.vec_residual(cj.act(coeff.value, coeff.inv), one) < 1e-10
        assert cj.vec_residual(cj.act(coeff.co, coeff.co_inv), one) < 1e-10
        assert cj.vec_residual(cj.vec_add(coeff.value, coeff.co), one) < 1e-15


class TestSerialization:
    @given(shape_and_seed())
    def test_roundtrip(self, case):
        shape, seed = case
        x = random_element(shape, np.random.default_rng(seed))
        back = alg.element_from_obj(x.to_obj())
        assert back.shape == x.shape
        assert cj.vec_residual(back, x) == 0.0

    def test_shape_mismatch_detected(self):
        obj = two_scalars(0.25, 0.75).to_obj()
        obj["shape"] = [2]
        with pytest.raises((ShapeError, ValidationError)):
            alg.element_from_obj(obj)

    def test_repr_of_one_element_and_of_a_batch(self):
        assert repr(cj.vec_scale(cj.unit(M2), 2.0)) == "AlgebraElement(shape=(2), norm=2)"
        xs = cj.ModuleSpace(M2, 2).basis()
        assert repr(cj.inner_product(xs, xs)) == "AlgebraElement(shape=(2), batch=(2,))"

    @given(seeds())
    def test_canonical_floats_survive(self, seed):
        import json

        from cstar_jensen.jsonutil import canonical_dumps

        x = random_element(M2, np.random.default_rng(seed))
        decoded = json.loads(canonical_dumps(x.to_obj()))
        back = alg.element_from_obj(decoded)
        assert cj.vec_residual(back, x) == 0.0


# ---------------------------------------------------------------------------
# the wire format, against the per-entry construction it replaced


def entry_by_entry_element_obj(x):
    return {
        "shape": list(x.shape.block_dims),
        "blocks": [
            [[[float(v.real), float(v.imag)] for v in row] for row in b] for b in x.blocks
        ],
    }


def entry_by_entry_vector_obj(v):
    shape = v.space.algebra
    return {
        "rank": v.space.rank,
        "coords": [
            entry_by_entry_element_obj(
                cj.AlgebraElement._wrap(
                    alg.element_space(shape),
                    tuple(b[:, i * n : (i + 1) * n] for b, n in zip(v.blocks, shape)),
                )
            )
            for i in range(v.space.rank)
        ],
    }


def leaves(obj):
    if isinstance(obj, dict):
        return [leaf for value in obj.values() for leaf in leaves(value)]
    if isinstance(obj, list):
        return [leaf for value in obj for leaf in leaves(value)]
    return [obj]


class TestWireFormat:
    """to_obj builds each block's lists with one tolist and keeps every bit:
    json.dumps writes -0.0, NaN and inf apart and every float exactly."""

    @staticmethod
    def special_stack(space, rng):
        (xs,) = hb.sample_stacks(space, rng, 3)
        blocks = [np.array(b) for b in xs.blocks]
        special = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(math.nan, 1.0), complex(-math.inf, math.inf)]
        flat = blocks[-1].reshape(-1)  # a view: rows 0, 1, ... in turn
        k = min(len(special), flat.size)
        flat[:k] = special[:k]
        return cj.ModuleVector._wrap(space, tuple(blocks))

    @pytest.mark.parametrize("dims", [(1,), (2,), (2, 1), (3,), (1, 2, 3)])
    @pytest.mark.parametrize("rank", [1, 3])
    def test_matches_the_entry_by_entry_construction(self, dims, rank):
        space = cj.ModuleSpace(cj.AlgebraShape(dims), rank)
        stack = self.special_stack(space, np.random.default_rng(rank))
        for s in range(3):
            v = stack.row(s)
            got, want = v.to_obj(), entry_by_entry_vector_obj(v)
            assert json.dumps(got) == json.dumps(want)
            assert all(type(leaf) in (float, int) for leaf in leaves(got))
        first = stack.row(0)
        for i in range(rank):
            # a coordinate's column slice, and the adjoint (a transposed view) of it
            chunk = cj.AlgebraElement._wrap(
                alg.element_space(space.algebra),
                tuple(b[:, i * n : (i + 1) * n] for b, n in zip(first.blocks, space.algebra)),
            )
            for x in (chunk, cj.adjoint(chunk)):
                assert json.dumps(x.to_obj()) == json.dumps(entry_by_entry_element_obj(x))


# ---------------------------------------------------------------------------
# the vector layout: coordinates, real coordinates and the wire format read
# every view of the wide matrices alike, and keep every bit


LAYOUT_DIMS = [(1,), (2,), (2, 1), (3,), (4, 4)]


def ref_to_real(x):
    """The real coordinates of x, one coordinate and one block at a time:
    the column chunk of coordinate i, real parts row-major, then imaginary
    parts."""
    rank, dims = x.space.rank, x.space.algebra.block_dims
    parts = []
    for i in range(rank):
        for b, n in zip(x.blocks, dims):
            chunk = np.array(b[..., :, i * n : (i + 1) * n])
            parts += [chunk.real.reshape(x.batch + (n * n,)), chunk.imag.reshape(x.batch + (n * n,))]
    return np.concatenate(parts, axis=-1)


def layout_views(space, seed):
    """A stack of four vectors holding -0.0, NaN and inf entries (row 0
    holds only -0.0), and the same values as: a row, blocks that are
    strided column slices of wider arrays, and blocks that are transposed
    views of tall arrays, the form an adjoint takes."""
    (xs,) = hb.sample_stacks(space, seed, 4)
    blocks = [np.array(b) for b in xs.blocks]
    blocks[0][0, 0, 0] = complex(-0.0, 0.5)
    blocks[-1][0, -1, -1] = complex(1.5, -0.0)
    blocks[-1][1, -1, -1] = complex(math.nan, -0.0)
    blocks[0][2, 0, -1] = complex(math.inf, -math.inf)
    blocks[-1][3, 0, 0] = complex(-0.0, math.nan)
    stack = cj.ModuleVector._wrap(space, tuple(blocks))
    sliced = []
    for b in blocks:
        wider = np.full(b.shape[:-1] + (2 * b.shape[-1],), 7.0 + 7.0j)
        wider[..., 1::2] = b
        sliced.append(wider[..., 1::2])
    transposed = [np.ascontiguousarray(b.swapaxes(-1, -2)).swapaxes(-1, -2) for b in blocks]
    views = {
        "stack": stack,
        "row": stack.row(1),
        "column slices": cj.ModuleVector._wrap(space, tuple(sliced)),
        "transposed": cj.ModuleVector._wrap(space, tuple(transposed)),
    }
    if space.rank == 1:
        views["adjoint"] = cj.adjoint(cj.AlgebraElement._wrap(space, tuple(blocks)))
    return views


def contiguous_bytes(x):
    return [(b.shape, np.ascontiguousarray(b).tobytes()) for b in x.blocks]


def hexed(obj):
    """obj with every float as its hex string, so -0.0 and NaN compare."""
    if isinstance(obj, dict):
        return {k: hexed(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [hexed(v) for v in obj]
    return obj.hex() if isinstance(obj, float) else obj


class TestVectorLayout:
    @pytest.mark.parametrize("dims", LAYOUT_DIMS)
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_coordinates_is_a_view_that_writes_through(self, dims, rank):
        space = cj.ModuleSpace(cj.AlgebraShape(dims), rank)
        for x in layout_views(space, [rank, *dims]).values():
            for b, n in zip(x.blocks, dims):
                c = alg.coordinates(b, rank)
                assert c.shape == b.shape[:-2] + (rank, n, n)
                assert np.shares_memory(c, b)
                for i in range(rank):
                    want = b[..., :, i * n : (i + 1) * n]
                    assert c[..., i, :, :].tobytes() == np.ascontiguousarray(want).tobytes()
                c[..., rank - 1, n - 1, 0] = -3.25
                assert np.all(b[..., n - 1, (rank - 1) * n] == -3.25)

    @pytest.mark.parametrize("dims", LAYOUT_DIMS)
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_real_coordinates_round_trip_every_view(self, dims, rank):
        space = cj.ModuleSpace(cj.AlgebraShape(dims), rank)
        for x in layout_views(space, [rank, *dims]).values():
            real = alg.to_real(x)
            assert real.tobytes() == ref_to_real(x).tobytes()
            back = alg.from_real(space, real)
            assert contiguous_bytes(back) == contiguous_bytes(x)
            assert all(b.flags.c_contiguous for b in back.blocks)

    @pytest.mark.parametrize("dims", LAYOUT_DIMS + [(1, 2, 3)])
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_real_index_is_the_layout_of_to_real(self, dims, rank):
        space = cj.ModuleSpace(cj.AlgebraShape(dims), rank)
        index = alg.real_index(space)
        assert index is alg.real_index(space)
        assert [t.shape for t in index] == [(n, rank * n, 2) for n in dims]
        flat = np.concatenate([t.ravel() for t in index])
        assert sorted(flat.tolist()) == list(range(2 * rank * space.algebra.dim))
        for t in index:
            with pytest.raises(ValueError):
                t[0, 0, 0] = 0
        # a vector whose storage floats are 0, 1, 2, ... block after block
        # has the table's positions as its real coordinates' values
        blocks, start = [], 0
        for n in dims:
            size = 2 * rank * n * n
            floats = np.arange(start, start + size, dtype=np.float64)
            blocks.append(floats.view(np.complex128).reshape(n, rank * n))
            start += size
        real = alg.to_real(cj.ModuleVector._wrap(space, tuple(blocks)))
        want = np.empty(len(flat))
        want[flat] = np.arange(len(flat))
        assert real.tolist() == want.tolist()
        back = alg.from_real(space, np.arange(len(flat), dtype=np.float64))
        for b, t in zip(back.blocks, index):
            assert b.view(np.float64).reshape(t.shape).tolist() == t.tolist()

    @pytest.mark.parametrize("dims", LAYOUT_DIMS)
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_wire_format_round_trips_every_view(self, dims, rank):
        space = cj.ModuleSpace(cj.AlgebraShape(dims), rank)
        for x in layout_views(space, [rank, *dims]).values():
            for v in [x.row(s) for s in range(x.batch[0])] if x.batch else [x]:
                obj = v.to_obj()
                if isinstance(v, cj.AlgebraElement):
                    want, read = entry_by_entry_element_obj(v), alg.element_from_obj
                else:
                    want, read = entry_by_entry_vector_obj(v), lambda o: alg.vector_from_obj(o, space)
                assert hexed(obj) == hexed(want)
                if all(np.isfinite(b).all() for b in v.blocks):
                    assert contiguous_bytes(read(obj)) == contiguous_bytes(v)
                else:
                    # the wire format writes NaN and inf; the reader refuses them
                    with pytest.raises(ValidationError):
                        read(obj)
