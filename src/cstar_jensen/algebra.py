"""Arithmetic in finite-dimensional C*-algebras presented block-diagonally.

An algebra A = M_{n1}(C) + ... + M_{nk}(C) is described by an AlgebraShape;
an element carries one complex matrix per block. The involution is the
blockwise conjugate transpose and the C*-norm is the largest singular value
over all blocks. By the C*-identity ||c|| = ||c c^*||^(1/2), so it is the
square root of the top eigenvalue of the Gram per block: block_norm, which
also gives the module norm of the hilbert layer's wide matrices, so elements
and vectors share one norm. scale_free_ratio is the one residual of both
layers. Only invert runs an SVD, for the smallest singular value.

Everything here is pure and the element type is immutable, so verification
campaigns can share elements freely across checks. Construction through
``_wrap`` skips validation; it is reserved for arrays this package produced
itself. Blocks built that way may carry a leading batch shape, batch +
(n, n), one element per batch index: the module layer's inner products of
vector stacks are such batches. add, sub, mul, neg, scale, adjoint,
cstar_norm and residual take them as they come.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    NearSingular,
    NotSelfAdjoint,
    OrderViolation,
    ShapeError,
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


class AlgebraElement:
    """One complex matrix per block, immutable after construction."""

    __slots__ = ("shape", "blocks")

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
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "blocks", tuple(mats))

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    @classmethod
    def _wrap(cls, shape: AlgebraShape, blocks: tuple[np.ndarray, ...]):
        elem = object.__new__(cls)
        object.__setattr__(elem, "shape", shape)
        object.__setattr__(elem, "blocks", blocks)
        return elem

    def __repr__(self):
        dims = ",".join(str(n) for n in self.shape.block_dims)
        return f"AlgebraElement(shape=({dims}), norm={cstar_norm(self):.6g})"

    def to_obj(self) -> dict:
        """JSON-ready form: {"shape": [...], "blocks": [[[ [re, im], ...]]]}."""
        return {
            "shape": list(self.shape.block_dims),
            "blocks": [
                [[[float(v.real), float(v.imag)] for v in row] for row in b]
                for b in self.blocks
            ],
        }


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


def _same_shape(x: AlgebraElement, y: AlgebraElement) -> None:
    if x.shape.block_dims != y.shape.block_dims:
        raise ShapeError(
            f"shape mismatch: {x.shape.block_dims} vs {y.shape.block_dims}"
        )


def add(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    _same_shape(x, y)
    return AlgebraElement._wrap(
        x.shape, tuple(a + b for a, b in zip(x.blocks, y.blocks))
    )


def sub(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    _same_shape(x, y)
    return AlgebraElement._wrap(
        x.shape, tuple(a - b for a, b in zip(x.blocks, y.blocks))
    )


def mul(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    _same_shape(x, y)
    return AlgebraElement._wrap(
        x.shape, tuple(a @ b for a, b in zip(x.blocks, y.blocks))
    )


def neg(x: AlgebraElement) -> AlgebraElement:
    return AlgebraElement._wrap(x.shape, tuple(-b for b in x.blocks))


def scale(x: AlgebraElement, s: complex) -> AlgebraElement:
    return AlgebraElement._wrap(x.shape, tuple(s * b for b in x.blocks))


def adjoint(x: AlgebraElement) -> AlgebraElement:
    """Blockwise conjugate transpose."""
    return AlgebraElement._wrap(
        x.shape, tuple(b.conj().swapaxes(-1, -2) for b in x.blocks)
    )


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
    for the batch. A finite index whose Gram overflows (entries above about
    1e154) is divided, exactly, by the largest power of two 2^e at or below
    its largest real or imaginary part, and its norm is 2^e times that of
    the quotient: inf only where the norm itself overflows.
    """
    grams = [b @ b.conj().swapaxes(-1, -2) for b in blocks]
    finite = np.logical_and.reduce([np.isfinite(g).all(axis=(-2, -1)) for g in grams])
    all_finite = np.count_nonzero(finite) == finite.size
    if not all_finite:
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


def cstar_norm(x: AlgebraElement):
    """||x|| = ||x x^*||^(1/2), the largest singular value across blocks;
    a float for one element, an array of shape batch for a batch of them.

    It is block_norm of the square blocks, the module norm of x as a
    vector of A^1, within 8 ulps of the SVD from 1e-150 to 1e150. Above
    about 1e154 the Gram overflows and the element is rescaled by a power
    of two first; the norm reads inf only where it overflows itself.
    """
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


def residual(lhs: AlgebraElement, rhs: AlgebraElement):
    """Scale-free discrepancy of two elements (or batches), scale_free_ratio
    of their C*-norms."""
    return scale_free_ratio(cstar_norm(sub(lhs, rhs)), cstar_norm(lhs), cstar_norm(rhs))


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
    return AlgebraElement._wrap(x.shape, tuple(inv_blocks))


def is_self_adjoint(x: AlgebraElement) -> bool:
    """||x - x^*|| <= SELF_ADJOINT_RTOL * (1 + ||x||).

    Where ||x|| is inf the bound decides nothing, so only an exactly zero
    difference counts as self-adjoint there; a NaN never does.
    """
    gap = cstar_norm(sub(x, adjoint(x)))
    bound = SELF_ADJOINT_RTOL * (1.0 + cstar_norm(x))
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

    co is 1 - value; inv and co_inv are the respective inverses. With
    strict_order_flag set, value is additionally self-adjoint with spectrum
    inside the open interval (0, 1).
    """

    value: AlgebraElement
    inv: AlgebraElement
    co: AlgebraElement
    co_inv: AlgebraElement
    strict_order_flag: bool


def validate_coefficient(
    x: AlgebraElement, require_strict_order: bool = False
) -> Coefficient:
    """Certify x as a usable coefficient, computing both inverses once."""
    inv = invert(x)
    co = sub(unit(x.shape), x)
    co_inv = invert(co)
    if require_strict_order:
        lo, hi = spectrum_bounds(x)  # raises NotSelfAdjoint when not hermitian
        if not (lo > 0.0 and hi < 1.0):
            raise OrderViolation(
                f"strict order needs spectrum inside (0, 1), got [{lo:.6g}, {hi:.6g}]"
            )
    return Coefficient(x, inv, co, co_inv, require_strict_order)
