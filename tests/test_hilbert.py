"""Module vectors, the algebra-valued inner product and orthogonal sampling."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cstar_jensen as cj
from cstar_jensen import algebra as alg
from cstar_jensen import hilbert as hb
from cstar_jensen import identities as idn
from cstar_jensen.errors import DomainError, InvalidMode, ShapeError, SpaceMismatch
from cstar_jensen.jsonutil import canonical_dumps

from support import (
    SHAPES,
    coord_order_inner,
    random_affine,
    random_element,
    random_strict_coefficient,
    ref_act,
    ref_add,
    ref_inner,
    ref_is_orthogonal,
    ref_module_norm,
    ref_orthogonality_residual,
    ref_pairs,
    ref_residual,
    row,
    seeds,
    wide,
    wide_bits,
    within_summation_bound,
)


@st.composite
def space_and_seed(draw):
    shape = cj.AlgebraShape(draw(st.sampled_from(SHAPES)))
    rank = draw(st.integers(min_value=1, max_value=4))
    return cj.ModuleSpace(shape, rank), draw(seeds())


class TestInnerProduct:
    @given(space_and_seed())
    def test_matches_loop_oracle(self, case):
        space, seed = case
        rng = np.random.default_rng(seed)
        x = cj.sample_vector(space, rng)
        y = cj.sample_vector(space, rng)
        loop = cj.AlgebraElement(space.algebra, coord_order_inner(wide(x), wide(y)))
        assert cj.vec_residual(cj.inner_product(x, y), loop) < 1e-14

    @given(space_and_seed())
    def test_hermitian_symmetry(self, case):
        space, seed = case
        rng = np.random.default_rng(seed)
        x = cj.sample_vector(space, rng)
        y = cj.sample_vector(space, rng)
        lhs = cj.inner_product(x, y)
        rhs = cj.adjoint(cj.inner_product(y, x))
        assert cj.vec_residual(lhs, rhs) < 1e-14

    @given(space_and_seed())
    def test_self_pairing_positive(self, case):
        space, seed = case
        x = cj.sample_vector(space, np.random.default_rng(seed))
        gram = cj.inner_product(x, x)
        lo, _ = alg.spectrum_bounds(gram)
        assert lo >= -1e-12

    def test_zero_iff_zero_vector(self):
        space = cj.ModuleSpace(cj.AlgebraShape((2, 1)), 3)
        assert cj.module_norm(space.zero()) == 0.0
        assert cj.module_norm(space.basis_vector(1)) == pytest.approx(1.0, abs=1e-15)

    @given(space_and_seed())
    def test_first_slot_action(self, case):
        # <b.x, y> = b <x, y> and <x, b.y> = <x, y> b*
        space, seed = case
        rng = np.random.default_rng(seed)
        b = random_element(space.algebra, rng)
        x = cj.sample_vector(space, rng)
        y = cj.sample_vector(space, rng)
        lhs = cj.inner_product(cj.act(b, x), y)
        rhs = cj.act(b, cj.inner_product(x, y))
        assert cj.vec_residual(lhs, rhs) < 1e-12
        lhs = cj.inner_product(x, cj.act(b, y))
        rhs = cj.act(cj.inner_product(x, y), cj.adjoint(b))
        assert cj.vec_residual(lhs, rhs) < 1e-12

    @given(space_and_seed())
    def test_cauchy_schwarz(self, case):
        space, seed = case
        rng = np.random.default_rng(seed)
        x = cj.sample_vector(space, rng)
        y = cj.sample_vector(space, rng)
        bound = cj.module_norm(x) * cj.module_norm(y)
        assert cj.module_norm(cj.inner_product(x, y)) <= bound * (1.0 + 1e-12)


class TestCoordinateOrderAccuracy:
    """inner_product against the per-coordinate sums it replaced, within the
    rigorous bound between two summation orders."""

    @pytest.mark.parametrize("dims", SHAPES + [(4,), (4, 4)])
    @pytest.mark.parametrize("rank", [1, 2, 5, 8])
    def test_inner_product_within_the_summation_bound(self, dims, rank):
        space = cj.ModuleSpace(cj.AlgebraShape(dims), rank)
        xs, ys = scaled_vectors(space, [rank, 1], 6), scaled_vectors(space, [rank, 2], 6)
        got = cj.inner_product(alg.stack_vectors(space, xs), alg.stack_vectors(space, ys))
        for s, (x, y) in enumerate(zip(xs, ys)):
            xw, yw = wide(x), wide(y)
            for k, want in enumerate(coord_order_inner(xw, yw)):
                assert within_summation_bound(got.blocks[k][s], want, xw[k], yw[k].conj().T)


class TestAction:
    @given(space_and_seed())
    def test_action_multiplicative(self, case):
        space, seed = case
        rng = np.random.default_rng(seed)
        a = random_element(space.algebra, rng)
        b = random_element(space.algebra, rng)
        x = cj.sample_vector(space, rng)
        lhs = cj.act(cj.act(a, b), x)
        rhs = cj.act(a, cj.act(b, x))
        assert cj.vec_residual(lhs, rhs) < 1e-12

    @given(space_and_seed())
    def test_unit_acts_trivially(self, case):
        space, seed = case
        x = cj.sample_vector(space, np.random.default_rng(seed))
        assert cj.vec_residual(cj.act(cj.unit(space.algebra), x), x) == 0.0

    @given(space_and_seed())
    def test_action_distributes(self, case):
        space, seed = case
        rng = np.random.default_rng(seed)
        b = random_element(space.algebra, rng)
        x = cj.sample_vector(space, rng)
        y = cj.sample_vector(space, rng)
        lhs = cj.act(b, cj.vec_add(x, y))
        rhs = cj.vec_add(cj.act(b, x), cj.act(b, y))
        assert cj.vec_residual(lhs, rhs) < 1e-13

    def test_wrong_algebra_rejected(self):
        space = cj.ModuleSpace(cj.AlgebraShape((2,)), 2)
        b = cj.unit(cj.AlgebraShape((1, 1)))
        with pytest.raises((ShapeError, SpaceMismatch)):
            cj.act(b, space.zero())


class TestSampling:
    def test_deterministic_in_seed(self):
        space = cj.ModuleSpace(cj.AlgebraShape((2, 1)), 3)
        x1 = cj.sample_vector(space, [5, 1])
        x2 = cj.sample_vector(space, [5, 1])
        x3 = cj.sample_vector(space, [5, 2])
        assert cj.vec_residual(x1, x2) == 0.0
        assert cj.vec_residual(x1, x3) > 0.0

    def test_mean_square_norm(self):
        # complex standard normal coordinate: E |x|^2 = 2
        space = cj.ModuleSpace(cj.AlgebraShape((1,)), 1)
        rng = np.random.default_rng(99)
        total = 0.0
        n = 4000
        for _ in range(n):
            x = cj.sample_vector(space, rng)
            total += cj.module_norm(cj.inner_product(x, x))
        assert total / n == pytest.approx(2.0, rel=0.1)


def per_block_draw(space, rng):
    """sample_vector as it drew before: two (n, n) draws per block, real
    part first, coordinate-major."""
    coords = []
    for _ in range(space.rank):
        blocks = [
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for n in space.algebra.block_dims
        ]
        coords.append(cj.AlgebraElement(space.algebra, blocks))
    return cj.ModuleVector(space, coords)


def same_bits(x, y):
    return wide_bits(wide(x)) == wide_bits(wide(y))


class TestSampleStream:
    @pytest.mark.parametrize("dims", SHAPES)
    @pytest.mark.parametrize("rank", [1, 2, 4])
    def test_successive_draws_match_per_block_order(self, dims, rank):
        space = cj.ModuleSpace(cj.AlgebraShape(dims), rank)
        one_call, per_block = np.random.default_rng(17), np.random.default_rng(17)
        for _ in range(3):
            assert same_bits(
                cj.sample_vector(space, one_call), per_block_draw(space, per_block)
            )
        # both generators are left at the same point of the stream
        assert one_call.standard_normal() == per_block.standard_normal()

    def test_mixed_spaces_from_one_generator(self):
        # pair_image draws z and w from F, then the kernel draws on A^1
        spaces = [
            cj.ModuleSpace(cj.AlgebraShape((2, 1)), 2),
            cj.ModuleSpace(cj.AlgebraShape((2, 1)), 1),
            cj.ModuleSpace(cj.AlgebraShape((3,)), 3),
        ]
        one_call, per_block = np.random.default_rng([4, 2]), np.random.default_rng([4, 2])
        for space in spaces * 2:
            assert same_bits(
                cj.sample_vector(space, one_call), per_block_draw(space, per_block)
            )

    def test_seed_list_matches(self):
        space = cj.ModuleSpace(cj.AlgebraShape((1, 1)), 3)
        want = per_block_draw(space, np.random.default_rng([9, 0, 5]))
        assert same_bits(cj.sample_vector(space, [9, 0, 5]), want)


def block_bytes(x):
    return [(b.shape, b.tobytes()) for b in x.blocks]


class TestRealCoordinates:
    @pytest.mark.parametrize("dims", SHAPES + [(2, 2)])
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_from_real_inverts_to_real_bit_for_bit(self, dims, rank):
        space = cj.ModuleSpace(cj.AlgebraShape(dims), rank)
        (xs,) = hb.sample_stacks(space, [rank, *dims], 5)
        # signed zeros and infinities survive too
        special = np.array(xs.blocks[-1])
        special[..., 0, -1] = [-0.0, complex(0.0, -0.0), complex(np.inf, -np.inf), 1.0, -0.0j]
        edited = cj.ModuleVector._wrap(space, xs.blocks[:-1] + (special,))
        for x in (xs, xs.row(3), edited):
            real = alg.to_real(x)
            assert real.shape == x.batch + (2 * rank * space.algebra.dim,)
            assert block_bytes(alg.from_real(space, real)) == block_bytes(x)

    @pytest.mark.parametrize("dims", SHAPES + [(2, 2)])
    @pytest.mark.parametrize("rank", [1, 3])
    def test_draws_are_real_coordinates(self, dims, rank):
        space = cj.ModuleSpace(cj.AlgebraShape(dims), rank)
        xs, ys = hb.sample_stacks(space, [8, rank], 4, 2)
        table = np.random.default_rng([8, rank]).standard_normal(
            (4, 2, 2 * rank * space.algebra.dim)
        )
        assert alg.to_real(xs).tobytes() == table[:, 0].tobytes()
        assert alg.to_real(ys).tobytes() == table[:, 1].tobytes()
        one = cj.sample_vector(space, [8, rank])
        assert alg.to_real(one).tobytes() == table[0, 0].tobytes()
        assert hb.sample_table(space, [8, rank], 4, 2).tobytes() == table.tobytes()

    def test_the_table_is_the_one_draw(self):
        space = cj.ModuleSpace(cj.AlgebraShape((2, 1)), 2)
        one, other = np.random.default_rng(3), np.random.default_rng(3)
        table = hb.sample_table(space, one, 4, 2)
        assert table.tobytes() == other.standard_normal((4, 2, 20)).tobytes()
        # a passed Generator advances past the table
        assert one.standard_normal() == other.standard_normal()
        assert hb.sample_table(space, 0, 0).shape == (0, 1, 20)
        with pytest.raises(DomainError):
            hb.sample_table(space, 0, -1)

    def test_coordinate_order(self):
        # coordinate-major, then block, then real parts before imaginary
        # parts, each row-major
        shape = cj.AlgebraShape((2, 1))
        space = cj.ModuleSpace(shape, 2)
        coords = [
            cj.AlgebraElement(shape, [[[1 + 5j, 2 + 6j], [3 + 7j, 4 + 8j]], [[9 + 10j]]]),
            cj.AlgebraElement(shape, [[[11 + 15j, 12 + 16j], [13 + 17j, 14 + 18j]], [[19 + 20j]]]),
        ]
        assert alg.to_real(cj.ModuleVector(space, coords)).tolist() == list(range(1, 21))

    def test_empty_stack(self):
        space = cj.ModuleSpace(cj.AlgebraShape((2, 1)), 2)
        empty = alg.stack_vectors(space, [])
        assert alg.to_real(empty).shape == (0, 20)
        assert [b.shape for b in alg.from_real(space, np.zeros((0, 20))).blocks] == [(0, 2, 4), (0, 1, 2)]

    def test_stack_spans(self):
        # a vector gets its int row, a stack its slice, and each span reads
        # back the rows its part was written to
        space = cj.ModuleSpace(cj.AlgebraShape((2, 1)), 2)
        x, y = hb.sample_stacks(space, 5, 3, 2)
        parts = [x.row(1), x, y.row(0), y.row(slice(0, 0)), y]
        blocks, spans = alg.stack_blocks(space, [v.blocks for v in parts])
        assert spans == [0, slice(1, 4), 4, slice(5, 5), slice(5, 8)]
        stack = cj.ModuleVector._wrap(space, blocks)
        assert stack.batch == (8,)
        for part, span in zip(parts, spans):
            assert block_bytes(stack.row(span)) == block_bytes(part)
        assert block_bytes(alg.stack_vectors(space, parts)) == block_bytes(stack)

    def test_no_parts_stack_to_no_rows(self):
        space = cj.ModuleSpace(cj.AlgebraShape((2, 1)), 2)
        blocks, spans = alg.stack_blocks(space, [])
        assert spans == [] and [b.shape for b in blocks] == [(0, 2, 4), (0, 1, 2)]

    def test_a_lone_stack_is_its_own_stack(self):
        space = cj.ModuleSpace(cj.AlgebraShape((2, 1)), 2)
        (x,) = hb.sample_stacks(space, 5, 3)
        blocks, spans = alg.stack_blocks(space, [x.blocks])
        assert blocks is x.blocks and spans == [slice(0, 3)]
        assert all(b is c for b, c in zip(alg.stack_vectors(space, [x]).blocks, x.blocks))
        # a lone vector still becomes a stack of one row
        blocks, spans = alg.stack_blocks(space, [x.row(0).blocks])
        assert spans == [0] and [b.shape for b in blocks] == [(1, 2, 4), (1, 1, 2)]


def scaled_vectors(space, seed, count):
    """Random vectors whose norms spread over many orders of magnitude."""
    rng = np.random.default_rng(seed)
    return [
        cj.vec_scale(cj.sample_vector(space, rng), 10.0 ** rng.uniform(-6, 6))
        for _ in range(count)
    ]


def poisoned(space, value):
    """A vector with one non-finite entry in the last coordinate's last block."""
    x = cj.sample_vector(space, np.random.default_rng(3))
    blocks = [np.array(b) for b in x.blocks]
    blocks[-1][0, -1] = value
    return cj.ModuleVector._wrap(space, tuple(blocks))


def bits(values):
    return [float(v).hex() for v in values]


class TestStackedOperations:
    """Each operation on one vector and on a stack, against the reference
    arithmetic of tests/support.py, bit for bit."""

    @pytest.mark.parametrize("dims", SHAPES)
    @pytest.mark.parametrize("rank", [1, 3])
    def test_module_norm_bit_for_bit(self, dims, rank):
        space = cj.ModuleSpace(cj.AlgebraShape(dims), rank)
        xs = scaled_vectors(space, 5, 40)
        want = bits(ref_module_norm(wide(x)) for x in xs)
        assert bits(alg.module_norm(alg.stack_vectors(space, xs))) == want
        assert bits(cj.module_norm(x) for x in xs) == want

    @pytest.mark.parametrize("dims", SHAPES)
    def test_residual_and_orthogonality_bit_for_bit(self, dims):
        space = cj.ModuleSpace(cj.AlgebraShape(dims), 2)
        xs = scaled_vectors(space, 6, 30)
        ys = scaled_vectors(space, 7, 30)
        sx, sy = alg.stack_vectors(space, xs), alg.stack_vectors(space, ys)
        pairs = [(wide(x), wide(y)) for x, y in zip(xs, ys)]
        want = bits(ref_residual(xw, yw) for xw, yw in pairs)
        assert bits(cj.vec_residual(sx, sy)) == want
        assert bits(cj.vec_residual(x, y) for x, y in zip(xs, ys)) == want
        tol = 1.0  # loose enough that some rows pass and some do not
        want = [ref_is_orthogonal(xw, yw, space.algebra, tol) for xw, yw in pairs]
        assert (hb.orthogonality_residual(sx, sy) <= tol).tolist() == want
        assert [hb.orthogonality_residual(x, y) <= tol for x, y in zip(xs, ys)] == want

    @pytest.mark.parametrize("dims", SHAPES + [(4,)])
    def test_act_add_inner_product_row_by_row(self, dims):
        # (4,) is wide, 4 x 32 at rank 8, where BLAS picks its kernels by width
        shape = cj.AlgebraShape(dims)
        space = cj.ModuleSpace(shape, 8 if dims == (4,) else 3)
        b = random_element(shape, np.random.default_rng(8))
        xs, ys = scaled_vectors(space, 9, 10), scaled_vectors(space, 10, 10)
        sx, sy = alg.stack_vectors(space, xs), alg.stack_vectors(space, ys)
        acted = cj.act(b, sx)
        summed = cj.vec_add(sx, sy)
        gram = cj.inner_product(sx, sy)
        for s, (x, y) in enumerate(zip(xs, ys)):
            xw, yw = wide(x), wide(y)
            want = wide_bits(ref_act(b, xw))
            assert wide_bits(wide(row(acted, s))) == want
            assert wide_bits(wide(cj.act(b, x))) == want
            want = wide_bits(ref_add(xw, yw))
            assert wide_bits(wide(row(summed, s))) == want
            assert wide_bits(wide(cj.vec_add(x, y))) == want
            want = ref_inner(xw, yw, shape)
            single = cj.inner_product(x, y)
            for k, block in enumerate(want.blocks):
                assert np.array_equal(gram.blocks[k][s].view(np.int64), block.view(np.int64))
                assert np.array_equal(single.blocks[k].view(np.int64), block.view(np.int64))

    @pytest.mark.parametrize("dims", [(1,), (2,), (2, 1)])
    def test_non_finite_rows_match_module_norm(self, dims):
        space = cj.ModuleSpace(cj.AlgebraShape(dims), 2)
        finite = cj.sample_vector(space, np.random.default_rng(1))
        rows = [finite, poisoned(space, np.nan), poisoned(space, np.inf), finite]
        with np.errstate(invalid="ignore", over="ignore"):
            # no LinAlgError from the rows the SVD cannot take
            stacked = alg.module_norm(alg.stack_vectors(space, rows))
            singles = [cj.module_norm(x) for x in rows]
            want = [ref_module_norm(wide(x)) for x in rows]
        assert bits(stacked) == bits(singles) == bits(want)
        assert math.isfinite(stacked[0]) and np.isnan(stacked[1])

    @pytest.mark.parametrize("norm", ["module_norm", "cstar_norm"])
    @pytest.mark.parametrize("dims", [(3,), (1, 3), (2, 1), (1, 4)])
    def test_no_non_finite_gram_reaches_lapack(self, dims, norm, monkeypatch):
        """np.linalg.eigvalsh([[nan, 0], [0, 1]]) gives -0.0 on numpy 2.4,
        dropping the NaN; both norms must mask such Grams out first, before
        eigvalsh and before the closed form of a 3x3 Gram, and call no SVD
        at all. cstar_norm takes the vectors of A^1 as the elements their
        blocks are."""
        eigvalsh, top_of_three, seen, closed = np.linalg.eigvalsh, alg._top_of_three, [], []

        def guarded(a, *args, **kwargs):
            if not np.isfinite(a).all():
                raise AssertionError("a non-finite Gram reached eigvalsh")
            seen.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        def guarded_closed_form(g):
            if not np.isfinite(g).all():
                raise AssertionError("a non-finite Gram reached the closed form")
            closed.append(np.shape(g))
            return top_of_three(g)

        def no_svd(*args, **kwargs):
            raise AssertionError(f"{norm} called an SVD")

        monkeypatch.setattr(np.linalg, "eigvalsh", guarded)
        monkeypatch.setattr(alg, "_top_of_three", guarded_closed_form)
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        if norm == "module_norm":
            space, measure = cj.ModuleSpace(cj.AlgebraShape(dims), 2), alg.module_norm
        else:
            space = cj.ModuleSpace(cj.AlgebraShape(dims), 1)

            def measure(x):
                return cj.module_norm(cj.AlgebraElement._wrap(space, x.blocks))

        finite = cj.sample_vector(space, np.random.default_rng(1))
        # a NaN, an inf, and a finite entry whose square overflows the Gram
        rows = [finite, poisoned(space, np.nan), poisoned(space, np.inf), poisoned(space, 1e200)]
        with np.errstate(invalid="ignore", over="ignore"):
            stacked = measure(alg.stack_vectors(space, rows + [finite]))
            singles = [measure(x) for x in rows + [finite]]
            rescaled = ref_module_norm(wide(rows[3]))
        assert bits(stacked) == bits(singles)
        assert math.isfinite(stacked[0]) and stacked[0] == stacked[4]
        assert np.isnan(stacked[1]) and stacked[2] == math.inf
        # the overflowing Gram is rescaled by a power of two, not read as inf
        assert bits(stacked[3:4]) == bits([rescaled])
        assert stacked[3] == pytest.approx(1e200, rel=1e-15)
        assert bool(seen) == (max(dims) > 3)
        assert bool(closed) == (3 in dims)

    def test_stacks_from_different_spaces_rejected(self):
        shape = cj.AlgebraShape((2,))
        a, b = cj.ModuleSpace(shape, 2), cj.ModuleSpace(shape, 3)
        with pytest.raises(SpaceMismatch):
            cj.vec_add(
                alg.stack_vectors(a, [a.zero()]), alg.stack_vectors(b, [b.zero()])
            )


def wide_singular_value(x):
    """The largest singular value, over the blocks of one vector, of the
    wide matrix [x_1 ... x_rank], by np.linalg.svd: the module norm."""
    return max(np.linalg.svd(b, compute_uv=False)[0] for b in x.blocks)


def rank_deficient_vectors(space, rng):
    """The zero vector, and vectors whose Gram per block is singular: one
    block zero, every coordinate a multiple of one rank-one matrix, or a
    zero first row in every coordinate."""
    x = cj.sample_vector(space, rng)
    one_block = tuple(np.zeros_like(b) if k == 0 else b for k, b in enumerate(x.blocks))
    rank_one, zero_row = [], []
    for b in x.blocks:
        n = b.shape[0]
        u, v = b[:, :1], b[:1, :n]
        rank_one.append(np.concatenate([c * (u @ v) for c in b[0, ::n]], axis=1))
        zero_row.append(np.where(np.arange(n)[:, None] == 0, 0.0, b) if n > 1 else b)
    return [space.zero()] + [
        cj.ModuleVector._wrap(space, tuple(blocks))
        for blocks in (one_block, rank_one, zero_row)
    ]


class TestOverflowingNorms:
    """A bound that overflows to inf decides nothing: where
    1 + ||lhs|| + ||rhs|| or ||x|| ||y|| is inf the residual is NaN and only
    an exact zero is orthogonal. The norms themselves stay finite."""

    @pytest.mark.parametrize("dims", [(1,), (2,), (2, 1)])
    def test_residual_and_orthogonality(self, dims):
        space = cj.ModuleSpace(cj.AlgebraShape(dims), 2)
        rng = np.random.default_rng(4)

        top = 1.7e308  # near the largest float, whose product with any norm above 1.06 is inf
        big = normed(cj.sample_vector(space, rng), top)
        y = cj.sample_vector(space, rng)
        gap = cj.vec_scale(y, 1e-3 * top)  # a finite gap, a residual of about 1e-3
        with np.errstate(over="ignore", invalid="ignore"):
            assert cj.module_norm(big) == pytest.approx(top, rel=1e-15)
            assert math.isfinite(cj.module_norm(gap))
            assert np.isnan(cj.vec_residual(cj.vec_add(big, gap), big))
            stacked = cj.vec_residual(
                alg.stack_vectors(space, [y, cj.vec_add(big, gap)]), alg.stack_vectors(space, [y, big])
            )
            assert stacked[0] == 0.0 and np.isnan(stacked[1])
            assert cj.module_norm(big) * cj.module_norm(y) == math.inf
            assert not hb.orthogonality_residual(big, y) <= hb.ORTHOGONALITY_TOL
            support = cj.disjoint_support_sampler(space, [0], [1])
            xs, ys = cj.sample_pairs(support, 1, [4])
            far, near = normed(xs.row(0), top), normed(ys.row(0), 2.0)
            assert cj.module_norm(far) * cj.module_norm(near) == math.inf
            assert hb.orthogonality_residual(far, near) <= hb.ORTHOGONALITY_TOL


def test_orthogonal_where_only_the_cross_gram_overflows():
    # <x, y> = 1e155 is 1e-15 of ||x|| ||y|| = 1e170; the Gram of <x, y>
    # overflows, and its norm is rescaled rather than read as inf
    shape = cj.AlgebraShape((1,))
    space = cj.ModuleSpace(shape, 2)

    def vector(*values):
        return cj.ModuleVector(space, [cj.AlgebraElement(shape, [[[v]]]) for v in values])

    x, y = vector(1e85, 0.0), vector(1e70, 1e85)
    with np.errstate(over="ignore", invalid="ignore"):
        assert cj.module_norm(cj.inner_product(x, y)) == pytest.approx(1e155, rel=1e-15)
        assert hb.orthogonality_residual(x, y) <= hb.ORTHOGONALITY_TOL
        assert not hb.orthogonality_residual(x, y) <= 1e-16


def normed(v, norm):
    return cj.vec_scale(cj.vec_scale(v, 1.0 / cj.module_norm(v)), norm)


def three_norm_residual(lhs, rhs):
    """vec_residual from three separate module norms, as it was computed
    before one block_norm call measured all three."""
    gap = cj.module_norm(cj.vec_sub(lhs, rhs))
    return alg.scale_free_ratio(gap, cj.module_norm(lhs), cj.module_norm(rhs))


class TestFusedResidual:
    """vec_residual measures gap, lhs and rhs with one block_norm call over
    the stacked blocks, and reads the bits of the three separate norms."""

    @staticmethod
    def sides(space):
        """Rows over many decades, zero rows, a row whose gap is zero, a
        row zero in its first block, NaN and inf rows, and rows whose norms
        near 1.7e308 make 1 + ||lhs|| + ||rhs|| overflow."""
        rng = np.random.default_rng(len(space.algebra) + space.rank)
        lhs, rhs = scaled_vectors(space, 11, 10), scaled_vectors(space, 12, 10)
        top = 1.7e308
        big = normed(cj.sample_vector(space, rng), top)
        y = cj.sample_vector(space, rng)
        lhs[1] = rhs[1] = space.zero()
        rhs[2] = lhs[2]
        lhs[3], rhs[3] = (
            cj.ModuleVector._wrap(space, (np.zeros_like(v.blocks[0]),) + v.blocks[1:])
            for v in (lhs[3], rhs[3])
        )
        lhs[4], rhs[5] = poisoned(space, np.nan), poisoned(space, np.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            lhs[6], rhs[6] = cj.vec_add(big, cj.vec_scale(y, 1e-3 * top)), big
        lhs[7] = rhs[7] = big  # a zero gap, yet NaN: the scale overflows
        return lhs, rhs

    @pytest.mark.parametrize("dims", SHAPES + [(2, 2)])
    @pytest.mark.parametrize("rank", [1, 2])
    def test_stack_against_stack(self, dims, rank):
        space = cj.ModuleSpace(cj.AlgebraShape(dims), rank)
        lhs, rhs = self.sides(space)
        sl, sr = alg.stack_vectors(space, lhs), alg.stack_vectors(space, rhs)
        with np.errstate(over="ignore", invalid="ignore"):
            got = cj.vec_residual(sl, sr)
            singles = [cj.vec_residual(x, y) for x, y in zip(lhs, rhs)]
            want = [ref_residual(wide(x), wide(y)) for x, y in zip(lhs, rhs)]
            assert bits(got) == bits(three_norm_residual(sl, sr)) == bits(singles) == bits(want)
        assert got[1] == got[2] == 0.0 and np.isnan(got[4:8]).all()

    @pytest.mark.parametrize("dims", SHAPES + [(2, 2)])
    def test_stack_against_one_vector(self, dims):
        space = cj.ModuleSpace(cj.AlgebraShape(dims), 2)
        lhs, rhs = self.sides(space)
        stack = alg.stack_vectors(space, lhs)
        with np.errstate(over="ignore", invalid="ignore"):
            for one in (rhs[0], rhs[6], space.zero()):
                for got, want, pairs in (
                    (cj.vec_residual(stack, one), three_norm_residual(stack, one), [(x, one) for x in lhs]),
                    (cj.vec_residual(one, stack), three_norm_residual(one, stack), [(one, x) for x in lhs]),
                ):
                    assert got.shape == (len(lhs),)
                    assert bits(got) == bits(want) == bits(cj.vec_residual(x, y) for x, y in pairs)

    @pytest.mark.parametrize("dims", SHAPES + [(2, 2)])
    def test_one_vector_against_one_vector(self, dims):
        space = cj.ModuleSpace(cj.AlgebraShape(dims), 2)
        with np.errstate(over="ignore", invalid="ignore"):
            for x, y in zip(*self.sides(space)):
                got = cj.vec_residual(x, y)
                assert type(got) is float
                assert bits([got]) == bits([three_norm_residual(x, y)])


class TestOrthogonalityResidual:
    """hb.orthogonality_residual against the per-row reference of
    tests/support.py, bit for bit, on one pair at a time and on stacks."""

    @staticmethod
    def rows(space):
        """Random pairs over many scales, then: a zero x against a y whose
        norm overflows (exactly zero, so 0), a disjoint pair whose norms'
        product overflows (0 too), a pair with a non-zero <x, y> whose
        norms' product overflows (NaN), and pairs holding NaN or inf."""
        xs, ys = scaled_vectors(space, 6, 20), scaled_vectors(space, 7, 20)
        one = cj.unit(space.algebra)
        big = alg.vec_scale(space.basis_vector(0), 1e200)
        other = alg.vec_scale(space.basis_vector(1), 1e200)
        huge = cj.ModuleVector(space, [alg.vec_scale(one, 1.5e308)] * space.rank)
        xs += [space.zero(), big, big, poisoned(space, np.nan), poisoned(space, np.inf)]
        ys += [huge, other, alg.vec_add(big, other), ys[0], space.zero()]
        return xs, ys

    @pytest.mark.parametrize("dims", SHAPES)
    def test_bit_for_bit(self, dims):
        space = cj.ModuleSpace(cj.AlgebraShape(dims), 2)
        with np.errstate(over="ignore", invalid="ignore"):
            xs, ys = self.rows(space)
            want = bits(ref_orthogonality_residual(wide(x), wide(y), space.algebra) for x, y in zip(xs, ys))
            stacked = hb.orthogonality_residual(alg.stack_vectors(space, xs), alg.stack_vectors(space, ys))
            singles = [hb.orthogonality_residual(x, y) for x, y in zip(xs, ys)]
        assert all(type(r) is float for r in singles)
        assert bits(stacked) == bits(singles) == want
        # the exact zeros read 0, the overflow and the non-finite rows NaN
        assert want[-5:-3] == bits([0.0, 0.0])
        assert all(math.isnan(v) for v in stacked[-3:])

    @pytest.mark.parametrize("dims", SHAPES)
    def test_the_residual_at_tol_decides_as_the_reference(self, dims):
        space = cj.ModuleSpace(cj.AlgebraShape(dims), 2)
        with np.errstate(over="ignore", invalid="ignore"):
            rows = self.rows(space)
            xs, ys = (alg.stack_vectors(space, side) for side in rows)
            residual = hb.orthogonality_residual(xs, ys)
            for tol in (1e-9, 1.0):
                want = [ref_is_orthogonal(wide(x), wide(y), space.algebra, tol) for x, y in zip(*rows)]
                assert (residual <= tol).tolist() == want


class TestFirstNonOrthogonal:
    def test_single_vectors_are_row_zero(self):
        space = cj.ModuleSpace(cj.AlgebraShape((2,)), 2)
        e0, e1 = space.basis_vector(0), space.basis_vector(1)
        assert hb.first_non_orthogonal(e0, e1) is None
        k, why = hb.first_non_orthogonal(e0, cj.vec_add(e0, e1))
        # <e_0, e_0 + e_1> is the unit, of norm 1; ||e_0 + e_1|| = sqrt(2)
        residual = 1 / (1 + math.sqrt(2))
        assert k == 0 and why == f"orthogonality residual {residual:.3e}, tolerance 1e-09"

    def test_an_empty_stack_has_no_row(self):
        space = cj.ModuleSpace(cj.AlgebraShape((1,)), 2)
        xs, ys = hb.sample_stacks(space, 3, 0, 2)
        assert hb.first_non_orthogonal(xs, ys) is None

    def test_names_the_worst_row(self):
        # rows 0 and 2 fail, row 2 the worse; then a NaN row beats both
        space = cj.ModuleSpace(cj.AlgebraShape((1,)), 2)
        e0, e1 = space.basis_vector(0), space.basis_vector(1)
        near, far = cj.vec_add(e1, cj.vec_scale(e0, 1e-3)), cj.vec_add(e1, e0)
        xs = alg.stack_vectors(space, [e0, e0, e0])
        ys = alg.stack_vectors(space, [near, e1, far])
        assert hb.first_non_orthogonal(xs, ys)[0] == 2
        nan = poisoned(space, np.nan)
        with np.errstate(over="ignore", invalid="ignore"):
            xs = alg.stack_vectors(space, [e0, e0, nan, e0])
            ys = alg.stack_vectors(space, [near, far, e1, far])
            k, why = hb.first_non_orthogonal(xs, ys)
        assert k == 2 and why.startswith("orthogonality residual nan")


class TestOrthogonalityGuard:
    """An exactly zero <x, y> is orthogonal whatever the norms, and when
    every entry of <x, y> is zero no norm is taken."""

    @staticmethod
    def zero_and_overflowing():
        # ||y|| = 2.1e308 overflows, so the bound tol * (1 + 0 * inf) is NaN
        space = cj.ModuleSpace(cj.AlgebraShape((1,)), 2)
        y = cj.ModuleVector._wrap(space, (np.array([[1.5e308, 1.5e308]], np.complex128),))
        return space, space.zero(), y

    def test_zero_against_an_overflowing_norm_is_orthogonal(self):
        space, x, y = self.zero_and_overflowing()
        with np.errstate(over="ignore", invalid="ignore"):
            assert cj.module_norm(y) == math.inf
            assert (hb.orthogonality_residual(x, y) <= hb.ORTHOGONALITY_TOL) is True
            assert ref_is_orthogonal(wide(x), wide(y), space.algebra)

    def test_zero_against_an_overflowing_norm_in_a_mixed_stack(self):
        # the other row's <x, y> is not zero, so the stack takes the rule
        space, x, y = self.zero_and_overflowing()
        u, v = cj.sample_vector(space, 5), cj.sample_vector(space, 6)
        xs, ys = alg.stack_vectors(space, [u, x, u]), alg.stack_vectors(space, [v, y, u])
        with np.errstate(over="ignore", invalid="ignore"):
            got = hb.orthogonality_residual(xs, ys) <= hb.ORTHOGONALITY_TOL
            want = [ref_is_orthogonal(wide(a), wide(b), space.algebra) for a, b in ((u, v), (x, y), (u, u))]
        assert got.tolist() == want == [False, True, False]

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rows_take_the_rule(self, value):
        space = cj.ModuleSpace(cj.AlgebraShape((2,)), 2)
        bad, zero = poisoned(space, value), space.zero()
        support = cj.disjoint_support_sampler(space, [0], [1])
        xs, ys = cj.sample_pairs(support, 2, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            tol = hb.ORTHOGONALITY_TOL
            assert not hb.orthogonality_residual(bad, zero) <= tol
            assert not hb.orthogonality_residual(zero, bad) <= tol
            stacks = (alg.stack_vectors(space, [xs, bad]), alg.stack_vectors(space, [ys, zero]))
            got = hb.orthogonality_residual(*stacks) <= tol
        assert got.tolist() == [True, True, False]

    def test_disjoint_pairs_take_no_norm(self, monkeypatch):
        space = cj.ModuleSpace(cj.AlgebraShape((2, 1)), 4)
        support = cj.disjoint_support_sampler(space, [0, 2], [1, 3])
        xs, ys = cj.sample_pairs(support, 50, 3)
        calls = []
        block_norm = alg.block_norm
        monkeypatch.setattr(alg, "block_norm", lambda blocks: calls.append(1) or block_norm(blocks))
        tol = hb.ORTHOGONALITY_TOL
        got = hb.orthogonality_residual(xs, ys) <= tol
        assert got.shape == (50,) and got.all()
        assert (hb.orthogonality_residual(xs.row(0), ys.row(0)) <= tol) is True
        assert calls == []
        # a non-zero <x, y> takes the rule: three norms
        assert not (hb.orthogonality_residual(xs, xs) <= tol).any()
        assert len(calls) == 3

    def test_jensen_check_on_disjoint_pairs_takes_one_norm_call(self, monkeypatch):
        # no norm for the guard, one block_norm call for every residual
        shape = cj.AlgebraShape((2, 1))
        space_e, space_g = cj.ModuleSpace(shape, 4), cj.ModuleSpace(shape, 2)
        rng = np.random.default_rng(8)
        f = random_affine(space_e, space_g, rng)
        a = random_strict_coefficient(shape, rng)
        support = cj.disjoint_support_sampler(space_e, [0, 1], [2, 3])
        calls = []
        block_norm = alg.block_norm
        monkeypatch.setattr(alg, "block_norm", lambda blocks: calls.append(1) or block_norm(blocks))
        result = cj.check_orthogonal_jensen(f, a, support, n=40, seed=2)
        assert result.passed and result.samples == 40
        assert len(calls) == 1


def square_elements(shape, rng):
    """A shear, a nilpotent and a random non-normal element: per block the
    unit plus a strictly upper triangular draw of size about 10, a strictly
    upper triangular draw, and a full complex draw."""
    kinds = (lambda b: np.eye(len(b)) + 10 * np.triu(b, 1), lambda b: np.triu(b, 1), lambda b: b)
    return [
        cj.AlgebraElement(
            shape, [make(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) for n in shape]
        )
        for make in kinds
    ]


class TestModuleNormAccuracy:
    """module_norm against the top singular value of the wide matrix, and
    cstar_norm against that of each block, within 8 ulps relative, over the
    whole range where the Gram stays finite."""

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    @pytest.mark.parametrize("dims", [(1,), (2,), (3,), (2, 1), (2, 2)])
    def test_matches_the_svd(self, dims, rank, scale):
        space = cj.ModuleSpace(cj.AlgebraShape(dims), rank)
        rng = np.random.default_rng([rank, len(dims), max(dims)])
        xs = [cj.sample_vector(space, rng) for _ in range(8)]
        xs += rank_deficient_vectors(space, rng)
        xs = [cj.vec_scale(x, scale) for x in xs]
        got = alg.module_norm(alg.stack_vectors(space, xs))
        assert bits(got) == bits(cj.module_norm(x) for x in xs)
        want = np.array([wide_singular_value(x) for x in xs])
        eps = np.finfo(np.float64).eps
        assert np.all(np.abs(got - want) <= 8 * eps * want), (got - want) / want
        assert not got[want == 0.0].any() and not np.signbit(got).any()
        # an element of A is a vector of A^1, and its blocks are its wide matrices
        elems = [cj.vec_scale(c, scale) for c in square_elements(space.algebra, rng)]
        batch = tuple(np.stack(blocks) for blocks in zip(*(c.blocks for c in elems)))
        got = cj.module_norm(cj.AlgebraElement._wrap(cj.ModuleSpace(space.algebra, 1), batch))
        assert bits(got) == bits(cj.module_norm(c) for c in elems)
        want = np.array([wide_singular_value(c) for c in elems])
        assert np.all(np.abs(got - want) <= 8 * eps * want), (got - want) / want
        assert not got[want == 0.0].any() and not np.signbit(got).any()
        if 2 in dims or 3 in dims:
            # a 200-row stack, whose 2x2 Grams come from row sums and whose
            # 3x3 ones take the closed form
            (stack,) = hb.sample_stacks(space, rng, 200)
            stack = cj.vec_scale(stack, scale)
            got = alg.module_norm(stack)
            assert bits(got) == bits(cj.module_norm(stack.row(i)) for i in range(200))
            want = np.array([wide_singular_value(stack.row(i)) for i in range(200)])
            assert np.all(np.abs(got - want) <= 8 * eps * want), (got - want) / want

    @pytest.mark.parametrize("dims", [(2,), (2, 1), (2, 2), (1,), (3,)])
    def test_mixed_rows_read_their_own_norms(self, dims):
        # ordinary, zero, NaN, inf and overflowing rows (entries 1e200) in
        # one stack: each row reads the norm it reads alone
        space = cj.ModuleSpace(cj.AlgebraShape(dims), 2)
        rng = np.random.default_rng([len(dims), max(dims), 9])
        ordinary = cj.sample_vector(space, rng)
        huge = cj.vec_scale(cj.sample_vector(space, rng), 1e200)
        nan, inf = poisoned(space, np.nan), poisoned(space, np.inf)
        rows = [ordinary, space.zero(), nan, inf, huge, ordinary]
        stack = alg.stack_vectors(space, rows)
        with np.errstate(over="ignore", invalid="ignore"):
            got = alg.module_norm(stack)
            alone = [cj.module_norm(x) for x in rows]
        assert bits(got) == bits(alone)
        assert got[1] == 0.0 and np.isnan(got[2]) and got[3] == math.inf
        want = wide_singular_value(huge)
        assert abs(got[4] - want) <= 8 * np.finfo(np.float64).eps * want


class TestOrthogonalSamplers:
    def make_space(self):
        return cj.ModuleSpace(cj.AlgebraShape((2, 1)), 4)

    def test_disjoint_pairs_exactly_orthogonal(self):
        space = self.make_space()
        sampler = cj.disjoint_support_sampler(space, [0, 1], [2, 3])
        xs, ys = cj.sample_pairs(sampler, 25, [3])
        for i in range(25):
            x, y = xs.row(i), ys.row(i)
            assert cj.module_norm(cj.inner_product(x, y)) == 0.0
            assert cj.module_norm(x) > 0.0 and cj.module_norm(y) > 0.0

    def test_disjoint_rejects_overlap(self):
        space = self.make_space()
        with pytest.raises(InvalidMode):
            cj.disjoint_support_sampler(space, [0, 1], [1, 2])

    def test_disjoint_rejects_out_of_range(self):
        space = self.make_space()
        with pytest.raises(InvalidMode):
            cj.disjoint_support_sampler(space, [0], [4])

    def test_disjoint_rejects_empty_side(self):
        space = self.make_space()
        with pytest.raises(InvalidMode):
            cj.disjoint_support_sampler(space, [], [1])

    def test_pair_image_orthogonal_within_tol(self):
        pair = cj.interleave_pair(0.25, 8)
        sampler = hb.pair_image_sampler(pair)
        xs, ys = cj.sample_pairs(sampler, 25, [11])
        for i in range(25):
            assert hb.orthogonality_residual(xs.row(i), ys.row(i)) <= hb.ORTHOGONALITY_TOL

    def test_explicit_cycles_in_order(self):
        space = self.make_space()
        pairs = [
            (space.basis_vector(0), space.basis_vector(1)),
            (space.basis_vector(2), space.basis_vector(3)),
        ]
        sampler = hb.explicit_sampler(space, pairs)
        xs, _ = cj.sample_pairs(sampler, 5, [0])
        assert cj.vec_residual(xs.row(0), pairs[0][0]) == 0.0
        assert cj.vec_residual(xs.row(1), pairs[1][0]) == 0.0
        assert cj.vec_residual(xs.row(4), pairs[0][0]) == 0.0

    def test_explicit_rejects_foreign_vectors(self):
        space = self.make_space()
        other = cj.ModuleSpace(space.algebra, 2)
        with pytest.raises(InvalidMode):
            hb.explicit_sampler(space, [(other.zero(), other.zero())])

    def test_sampler_streams_are_reproducible(self):
        space = self.make_space()
        sampler = cj.disjoint_support_sampler(space, [0, 2], [1, 3])
        first = cj.sample_pairs(sampler, 10, [7, 7])
        second = cj.sample_pairs(sampler, 10, [7, 7])
        for i in range(10):
            assert cj.vec_residual(first[0].row(i), second[0].row(i)) == 0.0
            assert cj.vec_residual(first[1].row(i), second[1].row(i)) == 0.0


def stack_bits(v):
    """The bits of every block of a stack, with its shape."""
    return [(b.shape, np.ascontiguousarray(b).view(np.int64).tolist()) for b in v.blocks]


def oracle_stacks(sampler, n, seed):
    """The pairs the one-pair-at-a-time oracle builds, joined into two stacks."""
    pairs = ref_pairs(sampler, n, seed)
    return tuple(alg.stack_vectors(sampler.space, [p[j] for p in pairs]) for j in (0, 1))


def sampler_for(mode, shape, rank):
    space = cj.ModuleSpace(shape, rank)
    if mode == "disjoint_support":
        # interleaved coordinates, so both sides drop coordinates in the middle
        return cj.disjoint_support_sampler(space, range(0, rank, 2), range(1, rank, 2))
    if mode == "pair_image":
        a = random_strict_coefficient(shape, np.random.default_rng([rank, 3]))
        return hb.pair_image_sampler(cj.inclusion_pair(shape, rank // 2, rank, a))
    # three pairs, so n = 7 stops part way through the cycle
    return hb.explicit_sampler(
        space,
        [(cj.sample_vector(space, [k, 0]), cj.sample_vector(space, [k, 1])) for k in range(3)],
    )


# disjoint_support and pair_image need two coordinates to split
PAIR_CASES = [
    (mode, rank)
    for mode in ("disjoint_support", "pair_image", "explicit")
    for rank in range(1, 5)
    if mode == "explicit" or rank >= 2
]


class TestSamplePairs:
    @pytest.mark.parametrize("dims", SHAPES)
    @pytest.mark.parametrize("mode, rank", PAIR_CASES)
    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_stacks_match_the_per_pair_draw_bit_for_bit(self, dims, mode, rank, n):
        sampler = sampler_for(mode, cj.AlgebraShape(dims), rank)
        xs, ys = cj.sample_pairs(sampler, n, [6, rank])
        want_x, want_y = oracle_stacks(sampler, n, [6, rank])
        assert xs.batch == ys.batch == (n,)
        assert stack_bits(xs) == stack_bits(want_x)
        assert stack_bits(ys) == stack_bits(want_y)

    def test_explicit_rows_are_copies(self):
        sampler = sampler_for("explicit", cj.AlgebraShape((2, 1)), 2)
        before = [stack_bits(v) for pair in sampler.pairs for v in pair]
        first = cj.sample_pairs(sampler, 5, [0])
        for v in first:
            for b in v.blocks:
                b[...] = np.nan
        second = cj.sample_pairs(sampler, 5, [0])
        assert [stack_bits(v) for pair in sampler.pairs for v in pair] == before
        assert [stack_bits(v) for v in second] == [
            stack_bits(v) for v in oracle_stacks(sampler, 5, [0])
        ]

    def test_unknown_mode_rejected(self):
        space = cj.ModuleSpace(cj.AlgebraShape((1,)), 2)
        with pytest.raises(InvalidMode):
            cj.sample_pairs(hb.OrthoSampler(space, "generic"), 3, [0])


# (shape, rank, left, right): halves, an odd split and interleaved sides
SPLITS = [
    ((1,), 2, [0], [1]),
    ((2,), 3, [0], [1, 2]),
    ((2,), 4, [0, 2], [1, 3]),
    ((2, 1), 4, [0, 1], [2, 3]),
    ((3,), 3, [2], [0, 1]),
]


class TestDisjointSplit:
    """A disjoint_support pair is one drawn vector split in two: x keeps
    its left_coords, y its right_coords."""

    @staticmethod
    def sampler(dims, rank, left, right):
        return cj.disjoint_support_sampler(cj.ModuleSpace(cj.AlgebraShape(dims), rank), left, right)

    @pytest.mark.parametrize("dims, rank, left, right", SPLITS)
    def test_the_two_sides_add_up_to_the_one_draw(self, dims, rank, left, right):
        sampler = self.sampler(dims, rank, left, right)
        (drawn,) = hb.sample_stacks(sampler.space, [4, rank], 9)
        xs, ys = cj.sample_pairs(sampler, 9, [4, rank])
        assert stack_bits(cj.vec_add(xs, ys)) == stack_bits(drawn)
        for v, keep in ((xs, left), (ys, right)):
            off = [i for i in range(rank) if i not in keep]
            for b in v.blocks:
                # +0.0 has all bits clear; -0.0 would not
                dropped = alg.coordinates(b, rank)[..., off, :, :]
                assert not np.ascontiguousarray(dropped).view(np.int64).any()

    @pytest.mark.parametrize("dims, rank, left, right", SPLITS)
    def test_the_generator_advances_by_one_table(self, dims, rank, left, right):
        sampler = self.sampler(dims, rank, left, right)
        used, fresh = np.random.default_rng(3), np.random.default_rng(3)
        cj.sample_pairs(sampler, 6, used)
        fresh.standard_normal((6, 1, 2 * rank * sampler.space.algebra.dim))
        assert np.array_equal(used.standard_normal(5), fresh.standard_normal(5))

    @pytest.mark.parametrize("dims, rank, left, right", SPLITS)
    def test_eq_1_1_entries_do_not_depend_on_the_chunk(self, dims, rank, left, right, monkeypatch):
        sampler = self.sampler(dims, rank, left, right)
        shape = sampler.space.algebra
        rng = np.random.default_rng([rank, 8])
        f = random_affine(sampler.space, cj.ModuleSpace(shape, 2), rng)
        a = random_strict_coefficient(shape, rng)
        samples = 30
        # a row of eq-1.1's program counts its nodes times the width of E
        nodes = len(idn._program(("eq-1.1",)).nodes)
        reals_per_row = nodes * (2 * rank * shape.dim)
        chunk, chunks = idn._chunk, []

        def counted(ids, state, start, stop, setting):
            chunks.append(start)
            return chunk(ids, state, start, stop, setting)

        monkeypatch.setattr(idn, "_chunk", counted)
        entries = []
        for rows in (1, 7, samples):
            monkeypatch.setattr(idn, "CHUNK_REALS", rows * reals_per_row)
            chunks.clear()
            entry = cj.check_orthogonal_jensen(f, a, sampler, n=samples, seed=[5])
            assert len(chunks) == -(-samples // rows)
            entries.append(canonical_dumps(entry.to_obj()))
        assert entries[0] == entries[1] == entries[2]


class TestVectorSerialization:
    @given(space_and_seed())
    def test_roundtrip(self, case):
        space, seed = case
        x = cj.sample_vector(space, np.random.default_rng(seed))
        back = cj.vector_from_obj(x.to_obj(), space)
        assert cj.vec_residual(back, x) == 0.0

    def test_rank_mismatch(self):
        space = cj.ModuleSpace(cj.AlgebraShape((1,)), 2)
        other = cj.ModuleSpace(cj.AlgebraShape((1,)), 3)
        with pytest.raises(SpaceMismatch):
            cj.vector_from_obj(space.zero().to_obj(), other)
