"""Finite-dimensional C*-algebras presented block-diagonally, and the one
array type of their elements and module vectors.

An algebra A = M_{n1}(C) + ... + M_{nk}(C) is described by an AlgebraShape.
A is itself a Hilbert A-module, A^1 = element_space(shape), with
<a, b> = a b^* and the product as left action, so an element of A is a
vector of A^1: an AlgebraElement is the ModuleVector of A^1 that keeps
the validating constructor AlgebraElement(shape, blocks), the shape and
the element wire format.

This is the one module that knows how a vector is stored. A ModuleVector
of the free module A^rank (a ModuleSpace) holds per block the wide matrix
X = [x_1 ... x_rank], of shape batch + (n, rank * n); batch is () for one
vector and (S,) for a stack of S vectors, and row(i) is row i of a stack
as one vector. coordinates(X, rank) is the view of the same memory as
batch + (rank, n, n), index i being coordinate i, and every split of a
vector into its coordinates goes through it. The layout's readers and
writers sit beside the type: ModuleVector(space, coords) builds a vector
from its coordinates, stack_vectors builds a stack, to_obj and
vector_from_obj write and read the wire format (one element object per
coordinate), and to_real and from_real the real coordinates. obj_text
writes one vector's canonical_dumps(to_obj()) straight from its array,
through a template compiled once per type and space (obj_template) from
to_obj itself, filled with each float's %.17g, and ".0" after an
integral one, when every float is finite, else with format_float of
each.

The real coordinates of a vector are the one real coordinate system of
the package, and real_index(space) the one statement of their layout:
coordinate-major, then block, then the real parts of the block's entries
before their imaginary parts, each row-major. to_real, from_real (its
inverse, bit for bit) and the kernel solver read it. A vector of A^rank
has 2 * rank * dim of them, an algebra element 2 * dim. The kernel
solver's real-linear maps (mappings.KernelMap) are real matrices on these
coordinates, as are a coefficient's conjugation b -> x b x^* and left
action (Coefficient.real_actions), and hilbert.sample_table draws them.

The arithmetic is written once, for elements and vectors alike: vec_add,
vec_sub, vec_neg, vec_scale, act (b X per block; on A^1 the product of A),
adjoint (the involution, of a vector of A^1), module_norm and vec_residual.
Each returns the type of its vector operand, so elements stay elements.
act_blocks, scale_blocks (by a real factor) and stack_blocks are act,
vec_scale and stack_vectors on bare block tuples, which the identities
evaluator runs with no vector around them; stack_blocks is the one
stacking of vectors and stacks, and gives the row or slice of rows where
each part sits, so that results computed on the stack split back by them;
require_same_space and require_action are the space checks of vec_add
and act. module_norm is block_norm, the square root of the top eigenvalue
of the Gram B B^* per block, or of B^* B, which has the same top
eigenvalue, for a block with fewer columns than rows: the module norm of
a vector and, by the C*-identity ||c|| = ||c c^*||^(1/2), the C*-norm of
an element. scale_free_ratio is the one residual and table_residual the
one measure of a [gap, lhs, rhs] table of vectors, which vec_residual
builds; the kernel re-verification measures its table, which holds only
the columns a map can write, by the same block_norm and scale_free_ratio. Only invert runs an SVD, for the
smallest singular value.

Everything here is pure and both types are immutable, so verification
campaigns can share elements and vectors freely across checks.
Construction through ModuleVector._wrap skips validation; it is reserved
for arrays this package produced itself. Each operation takes stacks as
they come, and a stack meets a single vector by broadcasting: the inner
products of vector stacks are batches of elements. Every row of a stack
gets the bits it gets alone, by two rules for the products:
  - A stack times one matrix is one 2-D product of the stack's rows
    (_stack_matmul): mappings.Linear's X T_k, and act, which is
    (X^T b^T)^T, so that one element acting on a stack is one product of
    the stack's transposed rows with b^T.
  - The Gram of a block of 2 rows, in block_norm, comes from row sums
    (_two_row_gram, _row_sum), one elementwise reduction per entry and no
    BLAS call per matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    NearSingular,
    NotSelfAdjoint,
    OrderViolation,
    ShapeError,
    SpaceMismatch,
    ValidationError,
)
from .jsonutil import canonical_dumps, format_float, integers, items, number, require_field

# invert() refuses a block whose smallest singular value is at or below this
# fraction of its largest one.
SINGULARITY_RTOL = 1e-10
# the most real coordinates, 2 * rank * dim, of a scenario's module space or
# of interleave_pair's E; the largest in use is 16384, A = M_32 at rank 8.
# A pair's maps and basis pair grid are bounded by mappings.MAX_PLACED_ENTRIES
MAX_REAL_DIM = 2**15
# self-adjointness gate: ||x - x*|| / (1 + ||x||) <= SELF_ADJOINT_RTOL
SELF_ADJOINT_RTOL = 1e-10


@dataclass(frozen=True)
class AlgebraShape:
    """Block dimensions (n1, ..., nk) of a direct sum of matrix algebras."""

    block_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(n) for n in self.block_dims)
        if not dims:
            raise ShapeError("an algebra needs at least one block")
        if any(n < 1 for n in dims):
            raise ShapeError(f"block dimensions must be positive, got {dims}")
        object.__setattr__(self, "block_dims", dims)

    @property
    def dim(self) -> int:
        """Complex dimension, sum of n_i^2."""
        return sum(n * n for n in self.block_dims)

    def __iter__(self):
        return iter(self.block_dims)

    def __len__(self):
        return len(self.block_dims)


@dataclass(frozen=True)
class ModuleSpace:
    """The free module A^rank over the algebra described by shape."""

    algebra: AlgebraShape
    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ShapeError(f"module rank must be positive, got {self.rank}")

    def zero(self) -> "ModuleVector":
        return ModuleVector._wrap(
            self,
            tuple(
                np.zeros((n, self.rank * n), dtype=np.complex128)
                for n in self.algebra.block_dims
            ),
        )

    def basis(self) -> "ModuleVector":
        """The stack of basis vectors: row i is the unit of the algebra in
        coordinate i, zero elsewhere."""
        return ModuleVector._wrap(
            self,
            tuple(
                np.eye(self.rank * n, dtype=np.complex128).reshape(self.rank, n, self.rank * n)
                for n in self.algebra.block_dims
            ),
        )

    def basis_vector(self, i: int) -> "ModuleVector":
        """Unit of the algebra in coordinate i, zero elsewhere."""
        if not 0 <= i < self.rank:
            raise ShapeError(f"coordinate {i} out of range for rank {self.rank}")
        return self.basis().row(i)


@lru_cache(maxsize=None)
def element_space(shape: AlgebraShape) -> ModuleSpace:
    """A^1, whose vectors are the elements of the algebra; one object per
    shape, so the arithmetic never builds it."""
    return ModuleSpace(shape, 1)


class ModuleVector:
    """One vector of a space, or a stack of them; immutable.

    blocks[k] is the wide matrix of block k, of shape
    batch + (n_k, rank * n_k), batch () for one vector and (S,) for a stack
    whose row s is the s-th vector; coordinate i is columns
    i * n_k to (i + 1) * n_k - 1.
    """

    __slots__ = ("space", "blocks")

    def __init__(self, space: ModuleSpace, coords):
        """The vector with the given elements (vectors of A^1) as coordinates."""
        coords = tuple(coords)
        if len(coords) != space.rank:
            raise ShapeError(f"expected {space.rank} coordinates, got {len(coords)}")
        for c in coords:
            if c.space != element_space(space.algebra):
                raise ShapeError("coordinate algebra does not match the space")
        blocks = []
        for k in range(len(space.algebra.block_dims)):
            b = np.concatenate([c.blocks[k] for c in coords], axis=-1)
            b.flags.writeable = False
            blocks.append(b)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "blocks", tuple(blocks))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _wrap(cls, space, blocks):
        vec = object.__new__(cls)
        object.__setattr__(vec, "space", space)
        object.__setattr__(vec, "blocks", blocks)
        return vec

    @property
    def batch(self) -> tuple[int, ...]:
        """() for one vector, (S,) for a stack of S; a table has two axes."""
        return self.blocks[0].shape[:-2]

    def row(self, i):
        """Row i of a stack as one vector of the same type, a view into the
        blocks; indices, a slice or None give the batch they select."""
        return type(self)._wrap(self.space, tuple(b[i] for b in self.blocks))

    def __repr__(self):
        return f"ModuleVector(rank={self.space.rank}, batch={self.batch})"

    def to_obj(self) -> dict:
        """{"rank": m, "coords": [...]}, one algebra element per coordinate
        in the element wire format: its column chunk of every block."""
        dims, rank = self.space.algebra.block_dims, self.space.rank
        # per block, the [re, im] pairs of coordinate i at index i
        chunks = [_pairs(coordinates(b, rank)).tolist() for b in self.blocks]
        return {
            "rank": rank,
            "coords": [
                {"shape": list(dims), "blocks": [c[i] for c in chunks]} for i in range(rank)
            ],
        }


class AlgebraElement(ModuleVector):
    """An element of the algebra: a vector of element_space(shape), A^1,
    with one complex matrix per block; immutable after construction."""

    __slots__ = ()

    def __init__(self, shape: AlgebraShape, blocks):
        mats = []
        if len(blocks) != len(shape.block_dims):
            raise ShapeError(
                f"expected {len(shape.block_dims)} blocks, got {len(blocks)}"
            )
        for n, raw in zip(shape.block_dims, blocks):
            try:
                mat = np.array(raw, dtype=np.complex128)
            except ValueError:  # a ragged block
                raise ShapeError(f"ragged block, expected ({n}, {n})") from None
            if mat.shape != (n, n):
                raise ShapeError(f"block of size {mat.shape}, expected ({n}, {n})")
            if not np.all(np.isfinite(mat.view(np.float64))):
                raise ValidationError("block entries must be finite")
            mat.flags.writeable = False
            mats.append(mat)
        object.__setattr__(self, "space", element_space(shape))
        object.__setattr__(self, "blocks", tuple(mats))

    @property
    def shape(self) -> AlgebraShape:
        return self.space.algebra

    def __repr__(self):
        dims = ",".join(str(n) for n in self.shape.block_dims)
        if self.batch:
            return f"AlgebraElement(shape=({dims}), batch={self.batch})"
        return f"AlgebraElement(shape=({dims}), norm={module_norm(self):.6g})"

    def to_obj(self) -> dict:
        """JSON-ready form: {"shape": [...], "blocks": [[[ [re, im], ...]]]}."""
        return {
            "shape": list(self.shape.block_dims),
            "blocks": [_pairs(b).tolist() for b in self.blocks],
        }


class _Slot:
    """Where a float goes in an obj_template: written as the field %s. The
    wire format of a vector holds no string, so its fields are the only %
    in a template."""

    __slots__ = ()

    def canonical_json(self) -> str:
        return "%s"


_SLOT = _Slot()


@lru_cache(maxsize=None)
def obj_template(kind: type, space: ModuleSpace) -> tuple[str, str, np.ndarray]:
    """(text, textg, order) for the vectors of space of type kind: text
    is canonical_dumps of a probe's to_obj() with the field %s in place of
    each float, textg the same with the fields %.17g%s, a float and its
    suffix, and order[j] the position of field j's float among the stored
    floats of a vector, its blocks' real and imaginary parts as stored,
    block after block. The probe's stored floats are their own positions,
    so each float of its to_obj() says where it came from. Built on the
    first call per (kind, space) and kept."""
    dims, rank = space.algebra.block_dims, space.rank
    floats = np.arange(2 * rank * space.algebra.dim, dtype=np.float64).view(np.complex128)
    cuts = np.cumsum([rank * n * n for n in dims])[:-1]
    blocks = tuple(b.reshape(n, rank * n) for b, n in zip(np.split(floats, cuts), dims))
    order = []

    def slots(obj):
        # dict keys in the writer's order, so fields and order agree
        if type(obj) is float:
            order.append(int(obj))
            return _SLOT
        if type(obj) is dict:
            return {key: slots(obj[key]) for key in sorted(obj)}
        if type(obj) is list:
            return [slots(item) for item in obj]
        return obj

    text = canonical_dumps(slots(kind._wrap(space, blocks).to_obj()))
    order = np.array(order, dtype=np.intp)
    order.flags.writeable = False
    return text, text.replace("%s", "%.17g%s"), order


def obj_text(x: ModuleVector) -> str:
    """canonical_dumps(x.to_obj()) of one vector, byte for byte, written
    from its array: one gather of the floats in obj_template's order and
    one fill of a template. When every float is finite, format_float
    writes each as %.17g, and one integral below 1e17 as %.1f, which is
    its %.17g and ".0": textg is filled with each float and its suffix.
    Else text is filled with format_float of each."""
    text, textg, order = obj_template(type(x), x.space)
    stored = np.concatenate([b.reshape(-1) for b in x.blocks]).view(np.float64)
    floats = stored[order]
    if not np.isfinite(floats).all():
        return text % tuple(map(format_float, floats.tolist()))
    fields = [""] * (2 * floats.size)
    fields[::2] = floats.tolist()
    fields[1::2] = np.where((abs(floats) < 1e17) & (floats == np.trunc(floats)), ".0", "").tolist()
    return textg % tuple(fields)


def _pairs(b: np.ndarray) -> np.ndarray:
    """The entries of b as [re, im] pairs along a new last axis, every bit
    kept (signed zeros, NaN and inf); a copy, so b may be any view."""
    return np.stack([b.real, b.imag], axis=-1)


def element_from_obj(obj) -> AlgebraElement:
    """Decode the wire form produced by AlgebraElement.to_obj."""
    section, what = "algebra element", "a list of square matrices of [re, im] pairs"

    def entry(value) -> complex:
        re, im = (number(float, v, "block entry") for v in items(value, "blocks", what, 2))
        return complex(re, im)

    shape = AlgebraShape(integers(require_field(obj, "shape", section), "shape"))
    blocks = [
        [[entry(v) for v in items(row, "blocks", what)] for row in items(block, "blocks", what)]
        for block in items(require_field(obj, "blocks", section), "blocks", what)
    ]
    return AlgebraElement(shape, blocks)


def coordinates(b: np.ndarray, rank: int) -> np.ndarray:
    """Wide matrices b of shape batch + (n, rank * n) as an array of shape
    batch + (rank, n, n), whose index i along axis -3 is coordinate i,
    columns i * n to (i + 1) * n - 1. It is a view, since splitting the
    last axis never copies: a write to it writes into b."""
    n = b.shape[-2]
    return b.reshape(b.shape[:-1] + (rank, n)).swapaxes(-3, -2)


def vector_from_obj(obj, space: ModuleSpace) -> ModuleVector:
    """Decode {"rank": m, "coords": [...]} into a vector of space."""
    rank = number(int, require_field(obj, "rank", "module vector"), "rank")
    if rank != space.rank:
        raise SpaceMismatch(f"vector rank {rank} != space rank {space.rank}")
    coords = require_field(obj, "coords", "module vector")
    return ModuleVector(space, [element_from_obj(c) for c in items(coords, "coords")])


def stack_vectors(space: ModuleSpace, vectors) -> ModuleVector:
    """The vectors and stacks of space, in order, as one stack (of 0 rows
    when there are none)."""
    return ModuleVector._wrap(space, stack_blocks(space, [v.blocks for v in vectors])[0])


def stack_blocks(space: ModuleSpace, parts) -> tuple[tuple[np.ndarray, ...], list]:
    """stack_vectors on the block tuples parts of vectors and stacks: the
    stack's block tuple, and the span of each part in it, the int row of a
    vector or the slice of rows of a stack. A lone stack is its own stack,
    the same arrays, not a copy."""
    spans, start = [], 0
    for part in parts:
        rows = part[0].shape[:-2]
        spans.append(slice(start, start + rows[0]) if rows else start)
        start += rows[0] if rows else 1
    if len(parts) == 1 and type(spans[0]) is slice:
        return parts[0], spans
    stack = tuple(
        np.concatenate(
            [np.empty((0, n, space.rank * n), np.complex128)]
            + [b[None] if b.ndim == 2 else b for b in (v[k] for v in parts)]
        )
        for k, n in enumerate(space.algebra.block_dims)
    )
    return stack, spans


@lru_cache(maxsize=None)
def real_index(space: ModuleSpace) -> tuple[np.ndarray, ...]:
    """The layout of the real coordinates, its one statement: per block, a
    read-only int array of shape (n, rank * n, 2) whose entry [p, q, 0] is
    the real coordinate of the real part of entry (p, q) of the wide
    matrix, and [p, q, 1] that of its imaginary part. The coordinates run
    coordinate-major, then block, then the real parts of the block's
    entries before their imaginary parts, each row-major; together the
    arrays are a permutation of range(2 * rank * dim). Built on the first
    call per space and kept."""
    rank, out, pos = space.rank, [], 0
    table = np.arange(2 * rank * space.algebra.dim).reshape(rank, -1)
    for n in space.algebra.block_dims:
        # [coordinate i, re or im, row p, column c] to [p, (i, c), re or im]
        index = table[:, pos : pos + 2 * n * n].reshape(rank, 2, n, n).transpose(2, 0, 3, 1)
        index = index.reshape(n, rank * n, 2)
        index.flags.writeable = False
        out.append(index)
        pos += 2 * n * n
    return tuple(out)


def to_real(x: ModuleVector) -> np.ndarray:
    """The real coordinates of x, of shape batch + (2 * rank * dim,), at the
    positions real_index gives; from_real inverts it bit for bit."""
    out = np.empty(x.batch + (2 * x.space.rank * x.space.algebra.dim,))
    for b, index in zip(x.blocks, real_index(x.space)):
        out[..., index] = _pairs(b)
    return out


def from_real(space: ModuleSpace, r: np.ndarray) -> ModuleVector:
    """The vectors whose real coordinates are r, of shape
    lead + (2 * rank * dim,); a stack of shape lead. See to_real."""
    r = np.asarray(r, dtype=np.float64)
    blocks = (np.take(r, index, axis=-1).view(np.complex128)[..., 0] for index in real_index(space))
    return ModuleVector._wrap(space, tuple(blocks))


def require_same_space(space: ModuleSpace, other: ModuleSpace) -> None:
    """SpaceMismatch unless vectors of space and of other may be added."""
    if space != other:
        raise SpaceMismatch(f"vectors from different spaces: {space} vs {other}")


def vec_add(x: ModuleVector, y: ModuleVector) -> ModuleVector:
    require_same_space(x.space, y.space)
    return type(x)._wrap(x.space, tuple(a + b for a, b in zip(x.blocks, y.blocks)))


def vec_sub(x: ModuleVector, y: ModuleVector) -> ModuleVector:
    require_same_space(x.space, y.space)
    return type(x)._wrap(x.space, tuple(a - b for a, b in zip(x.blocks, y.blocks)))


def vec_neg(x: ModuleVector) -> ModuleVector:
    return type(x)._wrap(x.space, tuple(-b for b in x.blocks))


def vec_scale(x: ModuleVector, s: complex) -> ModuleVector:
    """s x. A real s scales the real and imaginary parts as reals, so an
    infinite entry keeps a zero part: the complex product (inf + 0j) * 0.5
    is inf + nanj."""
    if np.iscomplexobj(s):
        return type(x)._wrap(x.space, tuple(s * b for b in x.blocks))
    return type(x)._wrap(x.space, scale_blocks(x.blocks, s))


def scale_blocks(blocks, s: float) -> tuple[np.ndarray, ...]:
    """vec_scale by a real s on a vector's block tuple."""
    # the float64 view needs a contiguous last axis, which adjoint's lack
    return tuple(
        [(s * np.ascontiguousarray(b).view(np.float64)).view(np.complex128) for b in blocks]
    )


def _stack_matmul(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ right, for a stack left of shape batch + (n, m). When right is
    one (m, p) matrix and n >= 2, it is one product of the stack's rows as
    one (batch * n, m) matrix with right, reshaped back: BLAS computes each
    output row of a product from that row of left alone, so every matrix of
    the stack keeps the bits of its own product (the tests pin it), a NaN
    or inf included. A stack whose rows are not contiguous, such as act's
    transposed one, is copied into that matrix first. With n = 1 it stays
    one product per matrix: numpy sends a one-row product to another BLAS
    routine, whose last bit the flattened product changed in most tested
    shapes."""
    if right.ndim != 2 or left.ndim < 3 or left.shape[-2] < 2:
        return left @ right
    rows = left.reshape(-1, left.shape[-1]) @ right
    return rows.reshape(left.shape[:-1] + right.shape[-1:])


def act(b: ModuleVector, x: ModuleVector) -> ModuleVector:
    """Left action b.x of an element b (a vector of A^1), (X^T b^T)^T per
    block; on A^1 it is the product of A. Every vector of the result has
    the bits of its own 2-D product X^T b^T: one element acts on a stack as
    one product of the stack's transposed rows with b^T (_stack_matmul),
    and a batch of elements acts matrix by matrix. The product comes out
    transposed in memory and is copied back to C order, which changes no
    bit; computed into a C-order output directly, BLAS would give b X's
    bits, which differ from X^T b^T's for blocks 2, 3, 5, 6 and 7 wide."""
    require_action(b.space, x.space)
    return type(x)._wrap(x.space, act_blocks(b.blocks, x.blocks))


def require_action(element: ModuleSpace, space: ModuleSpace) -> None:
    """SpaceMismatch unless the vectors of element are elements of the
    algebra of space, which act on its vectors."""
    if element.rank != 1 or element.algebra.block_dims != space.algebra.block_dims:
        raise SpaceMismatch("the acting vector is not an element of the vector's algebra")


def act_blocks(b, x) -> tuple[np.ndarray, ...]:
    """act on block tuples: b of the element, x of the vector or stack."""
    return tuple(
        [
            np.ascontiguousarray(
                _stack_matmul(v.swapaxes(-1, -2), m.swapaxes(-1, -2)).swapaxes(-1, -2)
            )
            for m, v in zip(b, x)
        ]
    )


def adjoint(x: ModuleVector) -> ModuleVector:
    """The involution of an element (a vector of A^1): blockwise conjugate
    transpose."""
    if x.space.rank != 1:
        raise SpaceMismatch("the adjoint is taken of an element, a vector of A^1")
    return type(x)._wrap(x.space, tuple(b.conj().swapaxes(-1, -2) for b in x.blocks))


@lru_cache(maxsize=None)
def unit(shape: AlgebraShape) -> AlgebraElement:
    return AlgebraElement(shape, [np.eye(n, dtype=np.complex128) for n in shape])


@lru_cache(maxsize=None)
def zero(shape: AlgebraShape) -> AlgebraElement:
    return AlgebraElement(
        shape, [np.zeros((n, n), dtype=np.complex128) for n in shape]
    )


def _row_sum(terms: np.ndarray) -> np.ndarray:
    """terms summed over axis 0, in place: the back half of the rows is
    added onto the front half, the middle row of an odd count staying,
    until one row is left. Each addition is elementwise, so every other
    index gets the same sum, bit for bit, as it gets alone."""
    rows = len(terms)
    while rows > 1:
        half = rows // 2
        np.add(terms[:half], terms[rows - half : rows], out=terms[:half])
        rows -= half
    return terms[0]


# the most reals of terms _two_row_gram holds at once (8 MB); a larger
# batch is formed in runs of batch indices
MAX_GRAM_TERMS = 2**20


def _two_row_gram(b: np.ndarray) -> np.ndarray:
    """The Gram [[a, c], [c^*, d]] = B B^* of blocks b of shape
    batch + (2, m), packed as the real array [[a, re c], [im c, d]] of
    shape batch + (2, 2), from one row sum (_row_sum) of 2m terms per
    entry, over the rows' real and imaginary parts: a and d sum the
    squared parts of row 0 and of row 1, re c the products of row 0's
    parts with row 1's, and im c the terms -(re b_0k im b_1k) and
    im b_0k re b_1k. The terms of a run of batch indices take 8m reals
    each; runs hold at most MAX_GRAM_TERMS of them, and each index gets
    the same bits in any run."""
    flat = b.reshape((-1,) + b.shape[-2:])
    gram = np.empty((len(flat), 2, 2))
    step = max(1, MAX_GRAM_TERMS // (8 * b.shape[-1]))
    for start in range(0, len(flat), step):
        run = flat[start : start + step]
        if run.strides[-1] != run.itemsize:
            run = np.ascontiguousarray(run)
        # v[2k + c, p, i] is part c (0 real, 1 imaginary) of entry (p, k) of
        # index i: the terms of a row sum run along axis 0, the batch last
        v = np.ascontiguousarray(run.view(np.float64).transpose(2, 1, 0))
        terms = np.empty((len(v), 4, v.shape[2]))
        np.multiply(v, v, out=terms[:, ::3])
        np.multiply(v[:, 0], v[:, 1], out=terms[:, 1])
        im = terms[:, 2]
        np.multiply(v[0::2, 0], v[1::2, 1], out=im[0::2])
        # not np.negative, which misreads inputs 64 bytes apart in numpy 2.4
        np.multiply(im[0::2], -1.0, out=im[0::2])
        np.multiply(v[1::2, 0], v[0::2, 1], out=im[1::2])
        gram[start : start + step] = _row_sum(terms).reshape(2, 2, -1).transpose(2, 0, 1)
    return gram.reshape(b.shape[:-2] + (2, 2))


def _largest_eigenvalue(b: np.ndarray) -> np.ndarray:
    """Top eigenvalue of hermitian positive semidefinite blocks."""
    n = b.shape[-1]
    if n == 1:
        return b[..., 0, 0].real
    if n == 2:
        # packed as [[a, re c], [im c, d]] (_two_row_gram); both terms are
        # non-negative, so the sum loses no digits, and the hypots square
        # nothing, so they overflow only where the value does
        a, d = b[..., 0, 0], b[..., 1, 1]
        return (a + d) / 2 + np.hypot((a - d) / 2, np.hypot(b[..., 0, 1], b[..., 1, 0]))
    if n == 3:
        return _top_of_three(b)
    return np.linalg.eigvalsh(b)[..., -1]


def _top_of_three(g: np.ndarray) -> np.ndarray:
    """Top eigenvalue of hermitian positive semidefinite 3x3 Grams, Smith's
    closed form m + 2p cos(arccos(r)/3): m = tr G/3, B = G - m, p^2 =
    tr(B^2)/6, r = det B/(2p^3). Each Gram is first divided, exactly, by
    the power of two 2^e at or below its largest diagonal entry (ldexp, as
    2.0**-e overflows for a subnormal one). Where 1 + r < 1e-2 the top two
    eigenvalues nearly coincide and the form loses digits, so eigvalsh
    takes those indices alone. Elementwise throughout: each index gets the
    same bits in any batch."""
    flat = g.reshape(-1, 3, 3)
    e = np.frexp(flat.real.diagonal(0, 1, 2).max(axis=1))[1] - 1
    re, im = (np.ldexp(part, -e[:, None, None]) for part in (flat.real, flat.imag))
    a0, a1, a2 = re[:, 0, 0], re[:, 1, 1], re[:, 2, 2]
    (xr, xi), (yr, yi), (zr, zi) = ((re[:, i, j], im[:, i, j]) for i, j in ((0, 1), (0, 2), (1, 2)))
    m = (a0 + a1 + a2) / 3
    b0, b1, b2 = a0 - m, a1 - m, a2 - m
    xx, yy, zz = xr * xr + xi * xi, yr * yr + yi * yi, zr * zr + zi * zi
    p2 = (b0 * b0 + b1 * b1 + b2 * b2 + 2 * (xx + yy + zz)) / 6
    # det B, with 2 re(g01 g12 conj g02) for the cyclic product
    cyc = (xr * zr - xi * zi) * yr + (xr * zi + xi * zr) * yi
    det = b0 * b1 * b2 + 2 * cyc - b0 * zz - b1 * yy - b2 * xx
    p = np.sqrt(p2)
    # q is 0 where p^3 underflows: p is below 1e-108 and m is 0 or >= 1/3,
    # so r = 0 gives m
    q = 2 * p2 * p
    r = np.clip(np.divide(det, q, out=np.zeros_like(q), where=q > 0), -1.0, 1.0)
    top = np.ldexp(m + 2 * p * np.cos(np.arccos(r) / 3), e)
    near = 1 + r < 1e-2
    if near.any():
        top[near] = np.linalg.eigvalsh(flat[near])[:, -1]
    return top.reshape(g.shape[:-2])


def block_norm(blocks):
    """The norm of blocks of shape batch + (n, m): the square root of the
    largest top eigenvalue of their Grams; a float for batch (), an array
    of shape batch otherwise.

    ||B||^2 is the top eigenvalue of B B^* and of B^* B alike, so a block
    with fewer columns than rows (m < n) is replaced by its conjugate
    transpose, and its Gram is the smaller m x m product B^* B: a
    one-column block's is 1x1, its sum of squares. Module vectors (n,
    rank * n) and elements (n, n) are never replaced; the kernel
    re-verification's columns are. The Gram of blocks of 2 rows, after
    that, comes from row sums (_two_row_gram), any other from one matrix
    product per batch index.

    The top eigenvalue of a 1x1 Gram is its real part, of a 2x2 one
    [[a, b], [b^*, d]] the closed form (a+d)/2 + hypot((a-d)/2, |b|), of a
    3x3 one Smith's trigonometric form (_top_of_three; eigvalsh where its
    top two nearly coincide), and of a larger one np.linalg.eigvalsh's.
    Each value depends on its own batch index alone, bit for bit. Input
    holding NaN gives NaN; input holding inf and no NaN gives inf. Such Grams are zeroed before any eigenvalue,
    since one NaN would make LAPACK fail, or silently drop it, for the
    batch; Grams are formed without numpy's invalid and overflow
    warnings, as such inputs are handled here. A finite index whose Gram
    overflows (entries above about 1e154) is divided, exactly, by the
    largest power of two 2^e at or below its largest real or imaginary
    part, and its norm is 2^e times that of the quotient: inf only where
    the norm itself overflows. Finiteness is
    first checked once per Gram, over the whole array and by no sum that
    could overflow; the per-index mask of finite Grams is built only when
    some entry is not finite.

    A block that is zero at every batch index is skipped, before any is
    transposed, so an empty block (n, 0) never becomes a 0x0 Gram: its
    Gram's top eigenvalue is +0.0, and no other top is below +0.0, so it
    cannot raise the maximum. When every block is skipped the norm is
    +0.0, without a sign bit, and no Gram is formed.
    """
    batch = blocks[0].shape[:-2]
    blocks = [b for b in blocks if b.any()]
    if not blocks:
        return np.zeros(batch) if batch else 0.0
    blocks = [b.conj().swapaxes(-1, -2) if b.shape[-1] < b.shape[-2] else b for b in blocks]
    with np.errstate(invalid="ignore", over="ignore"):
        grams = [
            _two_row_gram(b) if b.shape[-2] == 2 else b @ b.conj().swapaxes(-1, -2) for b in blocks
        ]
    all_finite = all(np.isfinite(g).all() for g in grams)
    if not all_finite:
        finite = np.logical_and.reduce([np.isfinite(g).all(axis=(-2, -1)) for g in grams])
        grams = [np.where(finite[..., None, None], g, 0.0) for g in grams]
    top = _largest_eigenvalue(grams[0])
    for g in grams[1:]:
        top = np.maximum(top, _largest_eigenvalue(g))
    norm = np.sqrt(top)
    if not all_finite:
        has_nan = np.logical_or.reduce([np.isnan(b).any(axis=(-2, -1)) for b in blocks])
        norm = np.where(has_nan, math.nan, np.where(finite, norm, math.inf))
        entries = np.logical_and.reduce([np.isfinite(b).all(axis=(-2, -1)) for b in blocks])
        redo = entries & ~finite
        if redo.any():
            rows = [b[redo] for b in blocks]
            parts = [abs(p).max(axis=(-2, -1)) for x in rows for p in (x.real, x.imag)]
            power = np.ldexp(1.0, np.frexp(np.max(parts, axis=0))[1] - 1)
            with np.errstate(over="ignore"):
                norm[redo] = power * block_norm([x / power[:, None, None] for x in rows])
    return norm if np.ndim(norm) else float(norm)


def module_norm(x: ModuleVector):
    """||x|| = ||<x, x>||^(1/2), block_norm of the blocks; a float, or an
    array of shape batch. For an element, <c, c> = c c^*, so it is the
    C*-norm, the largest singular value across blocks. Its blocks have at
    least as many columns as rows, so each Gram is B B^*. It is within 8
    ulps of the SVD from 1e-150 to 1e150, 3-row blocks included; block_norm
    says how its top eigenvalues are taken, and how NaN, inf and a Gram
    that overflows are measured."""
    return block_norm(x.blocks)


def scale_free_ratio(gap, left, right):
    """||lhs - rhs|| / (1 + ||lhs|| + ||rhs||) from the three norms gap,
    left and right; a float, or an array.

    NaN where the denominator is inf: the ratio would be 0 or NaN whatever
    the gap, so it decides nothing and must not pass. A NaN norm gives NaN.
    """
    scale = 1.0 + left + right
    ratio = np.where(np.isinf(scale), math.nan, gap / scale)
    return ratio if ratio.ndim else float(ratio)


def table_residual(table: ModuleVector):
    """scale_free_ratio at each index of a [gap, lhs, rhs] table, a stack of
    batch (3,) + batch, from one block_norm call, which measures each index
    on its own: each norm is module_norm's of that vector alone, bit for bit."""
    return scale_free_ratio(*block_norm(table.blocks))


def vec_residual(lhs: ModuleVector, rhs: ModuleVector):
    """Scale-free discrepancy ||lhs - rhs|| / (1 + ||lhs|| + ||rhs||) of two
    vectors or stacks: table_residual of lhs - rhs, lhs and rhs, written per
    block, broadcast to one batch, into one table. NaN where a side's norm
    is inf or NaN."""
    require_same_space(lhs.space, rhs.space)
    tables = []
    for a, b in zip(lhs.blocks, rhs.blocks):
        table = np.empty((3,) + np.broadcast_shapes(a.shape, b.shape), np.complex128)
        np.subtract(a, b, out=table[0])
        table[1], table[2] = a, b
        tables.append(table)
    return table_residual(ModuleVector._wrap(lhs.space, tuple(tables)))


def invert(x: AlgebraElement) -> AlgebraElement:
    """Blockwise inverse; refuses numerically singular blocks."""
    inv_blocks = []
    for i, b in enumerate(x.blocks):
        if b.shape[0] == 1:
            smax = smin = abs(b[0, 0])
        else:
            svals = np.linalg.svd(b, compute_uv=False)
            smax, smin = float(svals[0]), float(svals[-1])
        if smin <= SINGULARITY_RTOL * smax:
            raise NearSingular(
                f"block {i} is numerically singular "
                f"(smallest singular value {smin:.3e})"
            )
        inv_blocks.append(np.linalg.inv(b))
    return type(x)._wrap(x.space, tuple(inv_blocks))


def is_self_adjoint(x: AlgebraElement) -> bool:
    """||x - x^*|| / (1 + ||x||) <= SELF_ADJOINT_RTOL, by scale_free_ratio.

    Where ||x|| is inf the ratio decides nothing, so only an exactly zero
    difference counts as self-adjoint there; a NaN never does.
    """
    gap = module_norm(vec_sub(x, adjoint(x)))
    return gap == 0.0 or scale_free_ratio(gap, module_norm(x), 0.0) <= SELF_ADJOINT_RTOL


def spectrum_bounds(x: AlgebraElement) -> tuple[float, float]:
    """(min, max) eigenvalue over all blocks of a self-adjoint element."""
    if not is_self_adjoint(x):
        raise NotSelfAdjoint("spectrum bounds need a self-adjoint element")
    lo = np.inf
    hi = -np.inf
    for b in x.blocks:
        eigs = np.linalg.eigvalsh(0.5 * (b + b.conj().T))
        lo = min(lo, float(eigs[0]))
        hi = max(hi, float(eigs[-1]))
    return lo, hi


@dataclass(frozen=True)
class Coefficient:
    """A coefficient a with both a and 1 - a invertible.

    co is 1 - value; inv and co_inv are the respective inverses.
    """

    value: AlgebraElement
    inv: AlgebraElement
    co: AlgebraElement
    co_inv: AlgebraElement

    @cached_property
    def real_actions(self) -> tuple[np.ndarray, np.ndarray]:
        """(conj, left): the real matrices of b -> x b x^* and of b -> x b
        for x = value and x = co, on the real coordinates (to_real) of A^1,
        built on the first read and kept.

        They act on rows, so to_real(x b x^*) = to_real(b) @ C_x, and each
        of conj = [C_value | C_co] and left = [L_value | L_co] has shape
        (2 dim, 4 dim). Row t of C_x is to_real(x e_t x^*), e_t being the
        element whose real coordinates are unit vector t, formed by act and
        adjoint like every other product. Both are read-only.
        """
        units = from_real(element_space(self.value.shape), np.eye(2 * self.value.shape.dim))
        xs = (self.value, self.co)
        left = [act(x, units) for x in xs]
        conj = [act(xu, adjoint(x)) for xu, x in zip(left, xs)]
        out = []
        for images in (conj, left):
            mat = np.concatenate([to_real(v) for v in images], axis=1)
            mat.flags.writeable = False
            out.append(mat)
        return tuple(out)


def validate_coefficient(
    x: AlgebraElement, require_strict_order: bool = False
) -> Coefficient:
    """Certify x as a usable coefficient, computing both inverses once; an
    overflow in 1 - x or x - x^* reads inf or NaN and is refused silently."""
    with np.errstate(over="ignore", invalid="ignore"):
        inv = invert(x)
        co = vec_sub(unit(x.shape), x)
        co_inv = invert(co)
        if require_strict_order:
            lo, hi = spectrum_bounds(x)  # raises NotSelfAdjoint when not hermitian
            if not (lo > 0.0 and hi < 1.0):
                raise OrderViolation(
                    f"strict order needs spectrum inside (0, 1), got [{lo:.6g}, {hi:.6g}]"
                )
    return Coefficient(x, inv, co, co_inv)
