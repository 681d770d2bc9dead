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
coordinate), and to_real and from_real the real coordinates.

The real coordinates of a vector are the one real coordinate system of
the package: to_real lists them coordinate-major, then block, then the
real parts of the block's entries before their imaginary parts, each
row-major, and from_real builds the vectors back, bit for bit. A vector
of A^rank has 2 * rank * dim of them; an algebra element has 2 * dim. The
kernel solver's real-linear maps (mappings.KernelMap) are real matrices
on these coordinates, as are a coefficient's conjugation b -> x b x^* and
left action (Coefficient.real_actions), and hilbert.sample_table draws
them.

The arithmetic is written once, for elements and vectors alike: vec_add,
vec_sub, vec_neg, vec_scale, act (b X per block; on A^1 the product of A),
adjoint (the involution, of a vector of A^1), module_norm and vec_residual.
Each returns the type of its vector operand, so elements stay elements.
module_norm is block_norm, the square root of the top eigenvalue of the
Gram B B^* per block: the module norm of a vector and, by the C*-identity
||c|| = ||c c^*||^(1/2), the C*-norm of an element. scale_free_ratio is the
one residual. Only invert runs an SVD, for the smallest singular value.

Everything here is pure and both types are immutable, so verification
campaigns can share elements and vectors freely across checks.
Construction through ModuleVector._wrap skips validation; it is reserved
for arrays this package produced itself. Each operation takes stacks as
they come, and a stack meets a single vector by broadcasting: the inner
products of vector stacks are batches of elements.
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
from .jsonutil import integers, items, number, require_field

# invert() refuses a block whose smallest singular value is at or below this
# fraction of its largest one.
SINGULARITY_RTOL = 1e-10
# self-adjointness gate: ||x - x*|| <= SELF_ADJOINT_RTOL * (1 + ||x||)
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
        """() for one vector, (S,) for a stack of S."""
        return self.blocks[0].shape[:-2]

    def row(self, i):
        """Row i of a stack as one vector of the same type, a view into the
        blocks; an array of indices or a slice gives the stack of those rows."""
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
    return ModuleVector._wrap(
        space,
        tuple(
            np.concatenate(
                [np.empty((0, n, space.rank * n), np.complex128)]
                + [b[None] if b.ndim == 2 else b for b in (v.blocks[k] for v in vectors)]
            )
            for k, n in enumerate(space.algebra.block_dims)
        ),
    )


def to_real(x: ModuleVector) -> np.ndarray:
    """The real coordinates of x, of shape batch + (2 * rank * dim,):
    coordinate-major, then block, then the real parts before the
    imaginary parts, each row-major. from_real inverts it bit for bit."""
    lead, rank = x.batch, x.space.rank
    parts = []
    for b, n in zip(x.blocks, x.space.algebra):
        coords = coordinates(b, rank).reshape(lead + (rank, n * n))
        parts += [coords.real, coords.imag]
    return np.concatenate(parts, axis=-1).reshape(lead + (2 * rank * x.space.algebra.dim,))


def from_real(space: ModuleSpace, r: np.ndarray) -> ModuleVector:
    """The vectors whose real coordinates are r, of shape
    lead + (2 * rank * dim,); a stack of shape lead. See to_real."""
    lead, rank = r.shape[:-1], space.rank
    table = r.reshape(lead + (rank, 2 * space.algebra.dim))
    blocks = []
    pos = 0
    for n in space.algebra.block_dims:
        nn, shape = n * n, lead + (rank, n, n)
        wide = np.empty(lead + (n, rank * n), np.complex128)
        coords = coordinates(wide, rank)
        coords.real = table[..., pos : pos + nn].reshape(shape)
        coords.imag = table[..., pos + nn : pos + 2 * nn].reshape(shape)
        blocks.append(wide)
        pos += 2 * nn
    return ModuleVector._wrap(space, tuple(blocks))


def _same_space(x: ModuleVector, y: ModuleVector) -> None:
    if x.space != y.space:
        raise SpaceMismatch(f"vectors from different spaces: {x.space} vs {y.space}")


def vec_add(x: ModuleVector, y: ModuleVector) -> ModuleVector:
    _same_space(x, y)
    return type(x)._wrap(x.space, tuple(a + b for a, b in zip(x.blocks, y.blocks)))


def vec_sub(x: ModuleVector, y: ModuleVector) -> ModuleVector:
    _same_space(x, y)
    return type(x)._wrap(x.space, tuple(a - b for a, b in zip(x.blocks, y.blocks)))


def vec_neg(x: ModuleVector) -> ModuleVector:
    return type(x)._wrap(x.space, tuple(-b for b in x.blocks))


def vec_scale(x: ModuleVector, s: complex) -> ModuleVector:
    return type(x)._wrap(x.space, tuple(s * b for b in x.blocks))


def act(b: ModuleVector, x: ModuleVector) -> ModuleVector:
    """Left action b.x, b X per block, of an element b (a vector of A^1);
    on A^1 it is the product of A. A batch of elements acts row by row."""
    if b.space.rank != 1 or b.space.algebra.block_dims != x.space.algebra.block_dims:
        raise SpaceMismatch("the acting vector is not an element of the vector's algebra")
    return type(x)._wrap(x.space, tuple(m @ v for m, v in zip(b.blocks, x.blocks)))


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


def _largest_eigenvalue(b: np.ndarray) -> np.ndarray:
    """Top eigenvalue of hermitian positive semidefinite blocks."""
    n = b.shape[-1]
    if n == 1:
        return b[..., 0, 0].real
    if n == 2:
        # both terms are non-negative, so the sum loses no digits, and the
        # hypots square nothing, so they overflow only where the value does
        a, d, off = b[..., 0, 0].real, b[..., 1, 1].real, b[..., 0, 1]
        return (a + d) / 2 + np.hypot((a - d) / 2, np.hypot(off.real, off.imag))
    return np.linalg.eigvalsh(b)[..., -1]


def block_norm(blocks):
    """The norm of blocks of shape batch + (n, m): the square root of the
    largest top eigenvalue of their Grams B B^*; a float for batch (), an
    array of shape batch otherwise.

    The top eigenvalue of a 1x1 Gram is its real part, of a 2x2 one
    [[a, b], [b^*, d]] the closed form (a+d)/2 + hypot((a-d)/2, |b|), and
    of a larger one np.linalg.eigvalsh's. Each value depends on its own
    batch index alone, bit for bit. Input holding NaN gives NaN; input
    holding inf and no NaN gives inf. Such Grams are zeroed before any
    eigenvalue, since one NaN would make LAPACK fail, or silently drop it,
    for the batch; Grams are formed without numpy's invalid and overflow
    warnings, as such inputs are handled here. A finite index whose Gram
    overflows (entries above about 1e154) is divided, exactly, by the
    largest power of two 2^e at or below its largest real or imaginary
    part, and its norm is 2^e times that of the quotient: inf only where
    the norm itself overflows. Finiteness is
    first checked once per Gram, over the whole array and by no sum that
    could overflow; the per-index mask of finite Grams is built only when
    some entry is not finite.

    A block that is zero at every batch index is skipped: its Gram's top
    eigenvalue is +0.0, and no other top is below +0.0, so it cannot raise
    the maximum. When every block is skipped the norm is +0.0, without a
    sign bit, and no Gram is formed.
    """
    batch = blocks[0].shape[:-2]
    blocks = [b for b in blocks if b.any()]
    if not blocks:
        return np.zeros(batch) if batch else 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        grams = [b @ b.conj().swapaxes(-1, -2) for b in blocks]
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
    C*-norm, the largest singular value across blocks. It is within 8 ulps
    of the SVD from 1e-150 to 1e150; block_norm says how NaN, inf and a
    Gram that overflows are measured."""
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


def vec_residual(lhs: ModuleVector, rhs: ModuleVector):
    """Scale-free discrepancy ||lhs - rhs|| / (1 + ||lhs|| + ||rhs||) of two
    vectors or stacks, by scale_free_ratio: NaN where a side's norm is inf
    or NaN.

    The three norms come from one block_norm call: per block, lhs - rhs,
    lhs and rhs are broadcast to one batch and stacked along a new leading
    axis. block_norm measures each index on its own, so every value is the
    one module_norm gives that side alone, bit for bit.
    """
    _same_space(lhs, rhs)
    gap, left, right = block_norm(
        [np.stack(np.broadcast_arrays(a - b, a, b)) for a, b in zip(lhs.blocks, rhs.blocks)]
    )
    return scale_free_ratio(gap, left, right)


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
                f"(smallest singular value {smin:.3e})",
                block_index=i,
                smallest_singular_value=smin,
            )
        inv_blocks.append(np.linalg.inv(b))
    return type(x)._wrap(x.space, tuple(inv_blocks))


def is_self_adjoint(x: AlgebraElement) -> bool:
    """||x - x^*|| <= SELF_ADJOINT_RTOL * (1 + ||x||).

    Where ||x|| is inf the bound decides nothing, so only an exactly zero
    difference counts as self-adjoint there; a NaN never does.
    """
    gap = module_norm(vec_sub(x, adjoint(x)))
    bound = SELF_ADJOINT_RTOL * (1.0 + module_norm(x))
    return gap <= bound and (gap == 0.0 or math.isfinite(bound))


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
    """Certify x as a usable coefficient, computing both inverses once."""
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
