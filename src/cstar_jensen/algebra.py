"""Arithmetic in finite-dimensional C*-algebras presented block-diagonally.

An algebra A = M_{n1}(C) + ... + M_{nk}(C) is described by an AlgebraShape;
an element carries one complex matrix per block. The involution is the
blockwise conjugate transpose and the C*-norm is the largest singular value
over all blocks.

Everything here is pure and the element type is immutable, so verification
campaigns can share elements freely across checks. Construction through
``_wrap`` skips validation; it is reserved for arrays this package produced
itself. Blocks built that way may carry a leading batch shape, batch +
(n, n), one element per batch index: the module layer's inner products of
vector stacks are such batches. add, sub, mul, neg, scale, adjoint and
cstar_norm take them as they come.
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
            mat = np.array(raw, dtype=np.complex128)
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

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

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
    if not isinstance(obj, dict) or "shape" not in obj or "blocks" not in obj:
        raise ValidationError("algebra element needs 'shape' and 'blocks' fields")
    shape = AlgebraShape(tuple(obj["shape"]))
    blocks = []
    raw_blocks = obj["blocks"]
    if len(raw_blocks) != len(shape.block_dims):
        raise ShapeError("wrong number of blocks")
    for n, raw in zip(shape.block_dims, raw_blocks):
        try:
            arr = np.array(
                [[complex(v[0], v[1]) for v in row] for row in raw],
                dtype=np.complex128,
            )
        except (TypeError, IndexError, ValueError) as exc:
            raise ValidationError(f"malformed block entries: {exc}") from None
        if arr.shape != (n, n):
            raise ShapeError(f"block of size {arr.shape}, expected ({n}, {n})")
        blocks.append(arr)
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


def cstar_norm(x: AlgebraElement):
    """Largest singular value across blocks; a float for one element, an
    array of shape batch for a batch of them.

    Each block has shape batch + (n, n). A 1x1 block gives its modulus
    (np.hypot, which matches the scalar abs where np.abs does not), a larger
    one its largest singular value, and the norm is the largest over blocks.
    An element holding NaN gives NaN; one holding inf and no NaN gives inf.
    The SVD runs on finite elements only, since one NaN would make it fail
    for the whole batch.
    """
    blocks = x.blocks
    batch = blocks[0].shape[:-2]
    finite = np.isfinite(blocks[0]).all(axis=(-2, -1))
    for b in blocks[1:]:
        finite &= np.isfinite(b).all(axis=(-2, -1))
    all_finite = np.count_nonzero(finite) == finite.size
    top = None
    for b in blocks:
        if b.shape[-1] == 1:
            block_top = np.hypot(b[..., 0, 0].real, b[..., 0, 0].imag)
        elif all_finite:
            block_top = np.linalg.svd(b, compute_uv=False)[..., 0]
        else:
            block_top = np.zeros(batch)
            block_top[finite] = np.linalg.svd(b[finite], compute_uv=False)[:, 0]
        top = block_top if top is None else np.maximum(top, block_top)
    if not all_finite:
        has_nan = np.zeros(batch, dtype=bool)
        for b in blocks:
            has_nan |= np.isnan(b).any(axis=(-2, -1))
        top = np.where(has_nan, math.nan, np.where(finite, top, math.inf))
    return top if batch else float(top)


def residual(lhs: AlgebraElement, rhs: AlgebraElement) -> float:
    """Scale-free discrepancy ||lhs - rhs|| / (1 + ||lhs|| + ||rhs||)."""
    return cstar_norm(sub(lhs, rhs)) / (1.0 + cstar_norm(lhs) + cstar_norm(rhs))


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
    return cstar_norm(sub(x, adjoint(x))) <= SELF_ADJOINT_RTOL * (1.0 + cstar_norm(x))


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
