"""A stack times one matrix is one 2-D product per block (alg._stack_matmul):
Linear.evaluate on a stack, act of a batch of elements on one vector, and
inner_product of a stack with one vector. Each row must keep, bit for bit,
the 2-D product of that row alone, as tests/support.py computes it, a NaN
or inf row included, and numpy must warn as the stacked product warns."""
import warnings

import numpy as np
import pytest

import cstar_jensen as cj
from cstar_jensen import algebra as alg
from cstar_jensen import hilbert as hb

from support import random_element, ref_inner, transfer_matrices, wide, wide_bits

# (1,) and (1, 1) keep one product per row; (2, 1) mixes both rules
SHAPES = [(1,), (1, 1), (2,), (3,), (4,), (16,), (2, 1)]
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


def stacked(left, right):
    """numpy's stacked product of every block pair, one product per row."""
    return [a @ b for a, b in zip(left, right)]


@pytest.mark.parametrize("poison", [False, True])
@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("dims", SHAPES)
def test_linear_rows_are_their_own_products(dims, batch, poison):
    shape = cj.AlgebraShape(dims)
    rng = np.random.default_rng(40)
    grid = [[random_element(shape, rng) for _ in range(2)] for _ in range(3)]
    f = cj.Linear(grid)
    xs = drawn(f.domain, batch, 7, poison)
    out, caught = recorded(f, xs)
    assert caught == recorded(stacked, xs.blocks, f.transfer)[1]
    assert out.batch == batch
    transfer = transfer_matrices(grid)
    for idx in np.ndindex(batch):
        with np.errstate(invalid="ignore"):
            want = [np.ascontiguousarray(b[idx]) @ t for b, t in zip(xs.blocks, transfer)]
        assert row_bits(out, idx) == wide_bits(want)
        if not poison:
            assert row_bits(out, idx) == wide_bits(wide(f(xs.row(idx))))


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
    out, caught = recorded(alg.act, bs, x)
    assert caught == recorded(stacked, bs.blocks, x.blocks)[1]
    assert out.batch == batch and out.space == x.space
    for idx in np.ndindex(batch):
        with np.errstate(invalid="ignore"):
            want = [np.ascontiguousarray(b[idx]) @ v for b, v in zip(bs.blocks, x.blocks)]
        assert row_bits(out, idx) == wide_bits(want)


@pytest.mark.parametrize("poison", [False, True])
@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("dims", SHAPES)
def test_a_stack_against_one_vector_is_its_rows_inner_products(dims, batch, poison):
    shape = cj.AlgebraShape(dims)
    space = cj.ModuleSpace(shape, 3)
    xs, y = drawn(space, batch, 10, poison), hb.sample_vector(space, 11)
    out, caught = recorded(hb.inner_product, xs, y)
    adjoints = [b.conj().swapaxes(-1, -2) for b in y.blocks]
    assert caught == recorded(stacked, xs.blocks, adjoints)[1]
    assert out.batch == batch
    for idx in np.ndindex(batch):
        with np.errstate(invalid="ignore"):
            want = ref_inner(wide(xs.row(idx)), wide(y), shape).blocks
        assert row_bits(out, idx) == wide_bits(want)


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
