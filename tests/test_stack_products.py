"""Every row of a stack gets, bit for bit, what the same operation gives
that row alone: Linear.evaluate on a stack (one 2-D product per block,
alg._stack_matmul), act of one element on a vector and on a stack (one
product of the stack's transposed rows), act of a batch of elements on one
vector (matrix by matrix), the module norm (2x2 Grams from row sums), and
inner_product of a stack with one vector (one 2-D product per block) and
with a stack (matrix by matrix). Each row must also equal the reference
arithmetic of tests/support.py, a NaN or inf row included, and numpy must
warn on the stack exactly as it warns on the rows alone."""
import warnings

import numpy as np
import pytest

import cstar_jensen as cj
from cstar_jensen import algebra as alg
from cstar_jensen import hilbert as hb

from support import (
    random_element,
    ref_act,
    ref_inner,
    ref_module_norm,
    transfer_matrices,
    wide,
    wide_bits,
)

# (1,) and (1, 1) keep one product per row; (2, 1) mixes both rules
SHAPES = [(1,), (1, 1), (2,), (3,), (4,), (16,), (2, 1), (5,)]
BATCHES = [(0,), (1,), (7,), (200,), (3, 5)]


def drawn(space, batch, seed, poison):
    """A stack of shape batch whose rows are strided as those of the stacks
    hb.sample_pairs returns: draw 0 of two, every other row of one table.
    With poison, row 1 holds a NaN and row 2 an inf, when there are such
    rows."""
    rows = int(np.prod(batch))
    xs, _ = hb.sample_stacks(space, seed, rows, 2)
    assert rows < 2 or not any(b.flags.c_contiguous for b in xs.blocks)
    if poison and rows > 2:
        for b in xs.blocks:
            b[1, 0, 0], b[2, -1, -1] = np.nan, np.inf
    return type(xs)._wrap(space, tuple(b.reshape(batch + b.shape[1:]) for b in xs.blocks))


def row_bits(x, idx):
    """The bits of row idx of a stack, as one contiguous vector's."""
    return wide_bits(wide(cj.ModuleVector._wrap(x.space, tuple(b[idx] for b in x.blocks))))


def recorded(op, *args):
    """op(*args) and the messages of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = op(*args)
    return out, [str(w.message) for w in caught]


def rows_alone(op, args, batch):
    """op on the stack args, the rows of op on each row of the stacked
    arguments alone (a vector of batch () passes whole), and the messages
    of the warnings the stack and the rows raised, as two sets. The stacked
    result must hold each row's bits."""
    out, caught = recorded(op, *args)
    messages = set()
    for idx in np.ndindex(batch):
        single, warned = recorded(op, *(a.row(idx) if a.batch else a for a in args))
        messages |= set(warned)
        if isinstance(single, cj.ModuleVector):
            assert row_bits(out, idx) == wide_bits(wide(single))
        else:
            assert float(out[idx]).hex() == float(single).hex()
    return out, set(caught), messages


@pytest.mark.parametrize("poison", [False, True])
@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("dims", SHAPES)
def test_linear_rows_are_their_own_products(dims, batch, poison):
    shape = cj.AlgebraShape(dims)
    rng = np.random.default_rng(40)
    grid = [[random_element(shape, rng) for _ in range(2)] for _ in range(3)]
    f = cj.Linear(grid)
    xs = drawn(f.domain, batch, 7, poison)
    out, caught, alone = rows_alone(f, (xs,), batch)
    assert caught == alone
    assert out.batch == batch
    transfer = transfer_matrices(grid)
    for idx in np.ndindex(batch):
        with np.errstate(invalid="ignore"):
            want = [np.ascontiguousarray(b[idx]) @ t for b, t in zip(xs.blocks, transfer)]
        assert row_bits(out, idx) == wide_bits(want)


@pytest.mark.parametrize("dims", SHAPES)
def test_linear_on_a_transposed_stack_keeps_its_rows_products(dims):
    # a stack whose matrices are column-major is copied into one matrix of
    # rows before the product; act returns C-order stacks
    shape = cj.AlgebraShape(dims)
    rng = np.random.default_rng(44)
    f = cj.Linear([[random_element(shape, rng) for _ in range(2)] for _ in range(3)])
    xs = drawn(f.domain, (200,), 20, False)
    assert all(b.flags.c_contiguous for b in alg.act(random_element(shape, rng), xs).blocks)
    turned = (np.ascontiguousarray(b.swapaxes(-1, -2)).swapaxes(-1, -2) for b in xs.blocks)
    xs = type(xs)._wrap(xs.space, tuple(turned))
    assert all(b.strides[-1] != b.itemsize for b in xs.blocks if b.shape[-2] > 1)
    out, caught, alone = rows_alone(f, (xs,), (200,))
    assert caught == alone == set()
    for s in range(200):
        want = [np.ascontiguousarray(b[s]) @ t for b, t in zip(xs.blocks, f.transfer)]
        assert row_bits(out, s) == wide_bits(want)


@pytest.mark.parametrize("poison", [False, True])
@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("dims", SHAPES)
def test_one_element_acts_on_a_stack_row_by_row(dims, batch, poison):
    # one product of the stack's transposed rows; each row keeps X^T b^T
    shape = cj.AlgebraShape(dims)
    b = random_element(shape, np.random.default_rng(42))
    xs = drawn(cj.ModuleSpace(shape, 3), batch, 13, poison)
    out, caught, alone = rows_alone(alg.act, (b, xs), batch)
    assert caught == alone
    assert out.batch == batch and out.space == xs.space
    for idx in np.ndindex(batch):
        with np.errstate(invalid="ignore"):
            want = ref_act(b, wide(xs.row(idx)))
        assert row_bits(out, idx) == wide_bits(want)


@pytest.mark.parametrize("dims", SHAPES)
def test_one_element_acts_on_one_vector_as_its_transposed_product(dims):
    # on a vector of A^3, on an element of A, and on the adjoint of one,
    # whose blocks are column-major views
    shape = cj.AlgebraShape(dims)
    rng = np.random.default_rng(43)
    b = random_element(shape, rng)
    for x in (hb.sample_vector(cj.ModuleSpace(shape, 3), 14), random_element(shape, rng),
              cj.adjoint(random_element(shape, rng))):
        got = alg.act(b, x)
        assert got.batch == () and type(got) is type(x)
        assert wide_bits(wide(got)) == wide_bits(ref_act(b, wide(x)))


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("poison", [False, True])
@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("dims", SHAPES)
def test_a_batch_of_elements_acts_on_one_vector_row_by_row(dims, batch, poison, adjoint):
    # on one vector of A^3, or on the adjoint of one element, whose blocks
    # are column-major views
    shape = cj.AlgebraShape(dims)
    bs = drawn(alg.element_space(shape), batch, 8, poison)
    if adjoint:
        x = cj.adjoint(random_element(shape, np.random.default_rng(41)))
        assert all(b.flags.f_contiguous for b in x.blocks)
    else:
        x = hb.sample_vector(cj.ModuleSpace(shape, 3), 9)
    out, caught, alone = rows_alone(alg.act, (bs, x), batch)
    assert caught == alone
    assert out.batch == batch and out.space == x.space
    for idx in np.ndindex(batch):
        with np.errstate(invalid="ignore"):
            want = ref_act(bs.row(idx), wide(x))
        assert row_bits(out, idx) == wide_bits(want)


@pytest.mark.parametrize("poison", [False, True])
@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("dims", SHAPES)
def test_stack_norms_are_their_rows_norms(dims, batch, poison):
    # a 2x2 Gram from row sums, a 1x1 one as its entry, eigvalsh above
    shape = cj.AlgebraShape(dims)
    xs = drawn(cj.ModuleSpace(shape, 3), batch, 15, poison)
    out, caught, alone = rows_alone(alg.module_norm, (xs,), batch)
    assert caught == alone
    assert out.shape == batch
    for idx in np.ndindex(batch):
        assert float(out[idx]).hex() == float(ref_module_norm(wide(xs.row(idx)))).hex()


@pytest.mark.parametrize("batch", [(7,), (200,), (3, 5)])
@pytest.mark.parametrize("dims", [(2,), (2, 1)])
def test_gram_runs_keep_each_rows_norm(dims, batch, monkeypatch):
    # a batch too large for MAX_GRAM_TERMS is formed in runs of indices,
    # here runs of one and of two, with the bits of the whole batch at once
    xs = drawn(cj.ModuleSpace(cj.AlgebraShape(dims), 3), batch, 21, True)
    with np.errstate(invalid="ignore", over="ignore"):
        whole = alg.module_norm(xs)
        for terms in (1, 2 * 8 * 6):
            monkeypatch.setattr(alg, "MAX_GRAM_TERMS", terms)
            assert alg.module_norm(xs).tobytes() == whole.tobytes()


@pytest.mark.parametrize("poison", [False, True])
@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("dims", SHAPES)
def test_a_stack_against_one_vector_is_its_rows_inner_products(dims, batch, poison):
    shape = cj.AlgebraShape(dims)
    space = cj.ModuleSpace(shape, 3)
    xs, y = drawn(space, batch, 10, poison), hb.sample_vector(space, 11)
    out, caught, alone = rows_alone(hb.inner_product, (xs, y), batch)
    assert caught == alone
    assert out.batch == batch
    for idx in np.ndindex(batch):
        with np.errstate(invalid="ignore"):
            want = ref_inner(wide(xs.row(idx)), wide(y), shape).blocks
        assert row_bits(out, idx) == wide_bits(want)


@pytest.mark.parametrize("poison", [False, True])
@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("dims", SHAPES)
def test_a_stack_against_a_stack_is_its_rows_inner_products(dims, batch, poison):
    shape = cj.AlgebraShape(dims)
    space = cj.ModuleSpace(shape, 3)
    xs, ys = drawn(space, batch, 16, poison), drawn(space, batch, 17, False)
    out, caught, alone = rows_alone(hb.inner_product, (xs, ys), batch)
    assert caught == alone
    assert out.batch == batch
    for idx in np.ndindex(batch):
        with np.errstate(invalid="ignore"):
            want = ref_inner(wide(xs.row(idx)), wide(ys.row(idx)), shape).blocks
        assert row_bits(out, idx) == wide_bits(want)


@pytest.mark.parametrize("dims", [(2,), (2, 1)])
def test_a_broadcast_grid_keeps_each_pairs_bits(dims):
    # the basis pair grid's (rank, 1) against (1, rank) batches
    shape = cj.AlgebraShape(dims)
    space = cj.ModuleSpace(shape, 3)
    xs, ys = drawn(space, (5,), 18, False), drawn(space, (4,), 19, False)
    grid = hb.inner_product(xs.row((slice(None), None)), ys.row(None))
    assert grid.batch == (5, 4)
    for i, j in np.ndindex(5, 4):
        want = wide_bits(ref_inner(wide(xs.row(i)), wide(ys.row(j)), shape).blocks)
        assert row_bits(grid, (i, j)) == want


@pytest.mark.parametrize("dims", SHAPES)
def test_one_row_blocks_keep_numpys_stacked_product(dims):
    # a one-row product goes to another BLAS routine, so the flattened
    # product would change its last bit; the rule leaves such blocks alone
    rng = np.random.default_rng(12)
    for n in dims:
        left = rng.standard_normal((200, n, 3 * n)) + 1j * rng.standard_normal((200, n, 3 * n))
        right = rng.standard_normal((3 * n, 2 * n)) + 1j * rng.standard_normal((3 * n, 2 * n))
        got = alg._stack_matmul(left, right)
        assert got.tobytes() == (left @ right).tobytes()
        for s in range(200):
            assert got[s].tobytes() == (left[s] @ right).tobytes()
