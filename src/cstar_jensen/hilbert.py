"""Finite-rank Hilbert C*-modules A^m over a block-diagonal algebra A.

The inner product is <x, y> = sum_i x_i * (y_i)^* and the algebra acts on
the left, (b.x)_i = b * x_i. That makes the inner product module-linear in
the first slot and conjugate-linear in the second:

    <b.x, y> = b <x, y>        <x, b.y> = <x, y> b^*

All identity checks in this package assume exactly this convention.

A stack of S vectors of A^rank (VectorStack) holds one complex array of
shape (S, rank, n, n) per block of A: row s, coordinate i, block n x n.
The stack_* functions are the per-vector operations applied to every row
at once, and each gives every row the same value, bit for bit, as the
per-vector function gives that row's vector: products run per matrix, sums
over coordinates run in coordinate order, norms take the same singular
value and the same square root (np.float_power, which matches the scalar
** 0.5). The eq-1.1 check runs on stacks, and its residuals equal those
of a loop over its pairs.

Two stacked module norms exist. stack_module_norm is that bitwise rule,
an SVD per matrix block. stacked_module_norms takes the largest eigenvalue
of the Gram matrix with eigvalsh, which is faster but agrees only to
rounding; the kernel re-verification, which reports a residual against a
bound and not the value of a per-vector path, uses it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import algebra as alg
from .algebra import AlgebraElement, AlgebraShape
from .errors import InvalidMode, ShapeError, SpaceMismatch, ValidationError

# default tolerance for the orthogonality predicate
ORTHOGONALITY_TOL = 1e-9


@dataclass(frozen=True)
class ModuleSpace:
    """The free module A^rank over the algebra described by shape."""

    algebra: AlgebraShape
    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ShapeError(f"module rank must be positive, got {self.rank}")

    def zero(self) -> "ModuleVector":
        z = alg.zero(self.algebra)
        return ModuleVector._wrap(self, (z,) * self.rank)

    def basis_vector(self, i: int) -> "ModuleVector":
        """Unit of the algebra in coordinate i, zero elsewhere."""
        if not 0 <= i < self.rank:
            raise ShapeError(f"coordinate {i} out of range for rank {self.rank}")
        z = alg.zero(self.algebra)
        coords = [z] * self.rank
        coords[i] = alg.unit(self.algebra)
        return ModuleVector._wrap(self, tuple(coords))


class ModuleVector:
    """Tuple of algebra elements; immutable."""

    __slots__ = ("space", "coords")

    def __init__(self, space: ModuleSpace, coords):
        coords = tuple(coords)
        if len(coords) != space.rank:
            raise ShapeError(f"expected {space.rank} coordinates, got {len(coords)}")
        for c in coords:
            if c.shape.block_dims != space.algebra.block_dims:
                raise ShapeError("coordinate algebra does not match the space")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("ModuleVector is immutable")

    @classmethod
    def _wrap(cls, space, coords):
        vec = object.__new__(cls)
        object.__setattr__(vec, "space", space)
        object.__setattr__(vec, "coords", coords)
        return vec

    def __add__(self, other):
        return vec_add(self, other)

    def __sub__(self, other):
        return vec_sub(self, other)

    def __neg__(self):
        return vec_neg(self)

    def __repr__(self):
        return f"ModuleVector(rank={self.space.rank}, norm={module_norm(self):.6g})"

    def to_obj(self) -> dict:
        return {
            "rank": self.space.rank,
            "coords": [c.to_obj() for c in self.coords],
        }


class VectorStack:
    """S vectors of one space, as one complex array per algebra block.

    blocks[k] has shape (S, rank, n_k, n_k); row s is the s-th vector.
    Built by stack_vectors and the stack_* operations, never mutated.
    """

    __slots__ = ("space", "blocks")

    def __init__(self, space: ModuleSpace, blocks: tuple[np.ndarray, ...]):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "blocks", blocks)

    def __setattr__(self, name, value):
        raise AttributeError("VectorStack is immutable")

    def __len__(self):
        return self.blocks[0].shape[0]

    def row(self, s: int) -> ModuleVector:
        """The s-th vector; its blocks are views into the stack."""
        return _vector_from_blocks(self.space, [b[s] for b in self.blocks])


def _vector_from_blocks(space: ModuleSpace, blocks) -> ModuleVector:
    """The vector whose coordinate i has block k blocks[k][i]."""
    return ModuleVector._wrap(
        space, tuple(AlgebraElement._wrap(space.algebra, c) for c in zip(*blocks))
    )


def vector_from_obj(obj, space: ModuleSpace) -> ModuleVector:
    """Decode {"rank": m, "coords": [...]} into a vector of space."""
    if not isinstance(obj, dict) or "rank" not in obj or "coords" not in obj:
        raise ValidationError("module vector needs 'rank' and 'coords' fields")
    if int(obj["rank"]) != space.rank:
        raise SpaceMismatch(f"vector rank {obj['rank']} != space rank {space.rank}")
    coords = [alg.element_from_obj(c) for c in obj["coords"]]
    return ModuleVector(space, coords)


def _same_space(x: ModuleVector, y: ModuleVector) -> None:
    if x.space != y.space:
        raise SpaceMismatch(f"vectors from different spaces: {x.space} vs {y.space}")


def vec_add(x: ModuleVector, y: ModuleVector) -> ModuleVector:
    _same_space(x, y)
    return ModuleVector._wrap(
        x.space, tuple(alg.add(a, b) for a, b in zip(x.coords, y.coords))
    )


def vec_sub(x: ModuleVector, y: ModuleVector) -> ModuleVector:
    _same_space(x, y)
    return ModuleVector._wrap(
        x.space, tuple(alg.sub(a, b) for a, b in zip(x.coords, y.coords))
    )


def vec_neg(x: ModuleVector) -> ModuleVector:
    return ModuleVector._wrap(x.space, tuple(alg.neg(c) for c in x.coords))


def vec_scale(x: ModuleVector, s: complex) -> ModuleVector:
    return ModuleVector._wrap(x.space, tuple(alg.scale(c, s) for c in x.coords))


def act(b: AlgebraElement, x: ModuleVector) -> ModuleVector:
    """Left action, (b.x)_i = b x_i."""
    if b.shape.block_dims != x.space.algebra.block_dims:
        raise SpaceMismatch("acting element comes from a different algebra")
    bb = b.blocks
    return ModuleVector._wrap(
        x.space,
        tuple(
            AlgebraElement._wrap(
                c.shape, tuple(m @ n for m, n in zip(bb, c.blocks))
            )
            for c in x.coords
        ),
    )


def inner_product(x: ModuleVector, y: ModuleVector) -> AlgebraElement:
    """<x, y> = sum_i x_i (y_i)^*, an element of the algebra."""
    _same_space(x, y)
    shape = x.space.algebra
    out = []
    for k in range(len(shape.block_dims)):
        acc = x.coords[0].blocks[k] @ y.coords[0].blocks[k].conj().T
        for i in range(1, x.space.rank):
            acc = acc + x.coords[i].blocks[k] @ y.coords[i].blocks[k].conj().T
        out.append(acc)
    return AlgebraElement._wrap(shape, tuple(out))


def module_norm(x: ModuleVector) -> float:
    """||x|| = ||<x, x>||^(1/2)."""
    return alg.cstar_norm(inner_product(x, x)) ** 0.5


def stacked_module_norms(blocks) -> np.ndarray:
    """Module norms of a stack of S vectors of A^rank, in array form.

    blocks holds one complex array of shape (S, rank, n, n) per block of A,
    and the result has shape (S,). As in module_norm, the norm is the
    square root of the largest eigenvalue of the blockwise Gram matrices
    <x, x>. A non-finite entry makes its norm NaN or infinite.
    """
    top = None
    for x in blocks:
        # <x, x> = sum_i x_i x_i^* = X X^* with the coordinates side by side
        s, rank, n, _ = x.shape
        wide = x.transpose(0, 2, 1, 3).reshape(s, n, rank * n)
        gram = wide @ wide.conj().transpose(0, 2, 1)
        if n == 1:
            block_top = np.abs(gram[:, 0, 0])
        else:
            block_top = np.linalg.eigvalsh(gram)[:, -1]
        top = block_top if top is None else np.maximum(top, block_top)
    return np.sqrt(top)


def stack_vectors(space: ModuleSpace, vectors) -> VectorStack:
    """The vectors of space, in order, as one stack (at least one vector)."""
    rank = space.rank
    return VectorStack(
        space,
        tuple(
            np.stack([c.blocks[k] for v in vectors for c in v.coords]).reshape(
                -1, rank, n, n
            )
            for k, n in enumerate(space.algebra.block_dims)
        ),
    )


def _same_stack_space(xs: VectorStack, ys: VectorStack) -> None:
    if xs.space != ys.space:
        raise SpaceMismatch(f"stacks from different spaces: {xs.space} vs {ys.space}")


def stack_add(xs: VectorStack, ys: VectorStack) -> VectorStack:
    _same_stack_space(xs, ys)
    return VectorStack(xs.space, tuple(a + b for a, b in zip(xs.blocks, ys.blocks)))


def stack_sub(xs: VectorStack, ys: VectorStack) -> VectorStack:
    _same_stack_space(xs, ys)
    return VectorStack(xs.space, tuple(a - b for a, b in zip(xs.blocks, ys.blocks)))


def stack_act(b: AlgebraElement, xs: VectorStack) -> VectorStack:
    """Left action on every row, (b.x)_i = b x_i."""
    if b.shape.block_dims != xs.space.algebra.block_dims:
        raise SpaceMismatch("acting element comes from a different algebra")
    return VectorStack(xs.space, tuple(m @ x for m, x in zip(b.blocks, xs.blocks)))


def stack_inner_product(xs: VectorStack, ys: VectorStack) -> tuple[np.ndarray, ...]:
    """<x, y> row by row, one (S, n, n) array per block, summed in
    coordinate order as inner_product does."""
    _same_stack_space(xs, ys)
    out = []
    for x, y in zip(xs.blocks, ys.blocks):
        terms = x @ y.conj().swapaxes(-1, -2)
        acc = terms[:, 0]
        for i in range(1, xs.space.rank):
            acc = acc + terms[:, i]
        out.append(acc)
    return tuple(out)


def stack_module_norm(xs: VectorStack) -> np.ndarray:
    """module_norm of every row, bit for bit; shape (S,)."""
    return np.float_power(alg.stack_cstar_norm(stack_inner_product(xs, xs)), 0.5)


def stack_residual(lhs: VectorStack, rhs: VectorStack) -> np.ndarray:
    """vec_residual of every row pair, bit for bit; shape (S,)."""
    return stack_module_norm(stack_sub(lhs, rhs)) / (
        1.0 + stack_module_norm(lhs) + stack_module_norm(rhs)
    )


def stack_is_orthogonal(
    xs: VectorStack, ys: VectorStack, tol: float = ORTHOGONALITY_TOL
) -> np.ndarray:
    """is_orthogonal of every row pair, as a boolean array of shape (S,)."""
    return alg.stack_cstar_norm(stack_inner_product(xs, ys)) <= tol * (
        1.0 + stack_module_norm(xs) * stack_module_norm(ys)
    )


def vec_residual(lhs: ModuleVector, rhs: ModuleVector) -> float:
    """Scale-free discrepancy ||lhs - rhs|| / (1 + ||lhs|| + ||rhs||)."""
    return module_norm(vec_sub(lhs, rhs)) / (
        1.0 + module_norm(lhs) + module_norm(rhs)
    )


def is_orthogonal(
    x: ModuleVector, y: ModuleVector, tol: float = ORTHOGONALITY_TOL
) -> bool:
    """True when ||<x, y>|| <= tol * (1 + ||x|| ||y||)."""
    return alg.cstar_norm(inner_product(x, y)) <= tol * (
        1.0 + module_norm(x) * module_norm(y)
    )


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_vector(space: ModuleSpace, seed) -> ModuleVector:
    """Vector with independent standard complex normal entries.

    Each matrix entry gets independent N(0, 1) real and imaginary parts, so
    E ||x_i entry||^2 = 2. Deterministic in the seed; the draw order is
    coordinate-major, then block, then the real part before the imaginary
    part, each row-major. All of it comes from one standard_normal call,
    which yields the same numbers as drawing the pieces in that order.
    """
    rng = _rng(seed)
    rank = space.rank
    draws = rng.standard_normal(2 * rank * space.algebra.dim).reshape(rank, -1)
    # re + 1j * im, the expression of the per-block draws, for the same bits
    turned = 1j * draws
    blocks = []
    pos = 0
    for n in space.algebra.block_dims:
        nn = n * n
        re = draws[:, pos : pos + nn].reshape(rank, n, n)
        blocks.append(re + turned[:, pos + nn : pos + 2 * nn].reshape(rank, n, n))
        pos += 2 * nn
    return _vector_from_blocks(space, blocks)


@dataclass(frozen=True)
class OrthoSampler:
    """Recipe for drawing exactly orthogonal pairs (x, y) from a space.

    Modes:
      disjoint_support - x is supported on left_coords, y on right_coords;
        the two index sets partition the coordinates, so <x, y> is zero
        bit for bit.
      pair_image - x = a^{-1}.phi(z), y = (1-a)^{-1}.psi(w) for random z, w,
        orthogonal by the validated pair conditions.
      explicit - a fixed list of pairs, cycled through in order.
    """

    space: ModuleSpace
    mode: str
    left_coords: tuple[int, ...] = ()
    right_coords: tuple[int, ...] = ()
    pair: object = None
    pairs: tuple = field(default=())

    def to_obj(self) -> dict:
        if self.mode == "disjoint_support":
            return {
                "mode": "disjoint_support",
                "left_coords": list(self.left_coords),
                "right_coords": list(self.right_coords),
            }
        if self.mode == "pair_image":
            return {"mode": "pair_image", "pair_id": "pair"}
        return {
            "mode": "explicit",
            "pairs": [[x.to_obj(), y.to_obj()] for x, y in self.pairs],
        }


def disjoint_support_sampler(
    space: ModuleSpace, left_coords, right_coords
) -> OrthoSampler:
    left = tuple(int(i) for i in left_coords)
    right = tuple(int(i) for i in right_coords)
    if not left or not right:
        raise InvalidMode("both support sets must be nonempty")
    if sorted(left + right) != list(range(space.rank)):
        raise InvalidMode(
            f"support sets must partition 0..{space.rank - 1}, "
            f"got {left} and {right}"
        )
    return OrthoSampler(space, "disjoint_support", left, right)


def pair_image_sampler(pair) -> OrthoSampler:
    if not getattr(pair, "validated", False):
        raise InvalidMode("pair_image mode needs a validated pair")
    return OrthoSampler(pair.phi.codomain, "pair_image", pair=pair)


def explicit_sampler(space: ModuleSpace, pairs) -> OrthoSampler:
    pairs = tuple((x, y) for x, y in pairs)
    if not pairs:
        raise InvalidMode("explicit mode needs at least one pair")
    for x, y in pairs:
        if x.space != space or y.space != space:
            raise InvalidMode("explicit pair vectors must live in the space")
    return OrthoSampler(space, "explicit", pairs=pairs)


def _mask(x: ModuleVector, keep: tuple[int, ...]) -> ModuleVector:
    z = alg.zero(x.space.algebra)
    coords = tuple(
        c if i in keep else z for i, c in enumerate(x.coords)
    )
    return ModuleVector._wrap(x.space, coords)


def sample_orthogonal_pair(
    sampler: OrthoSampler, seed, index: int = 0
) -> tuple[ModuleVector, ModuleVector]:
    """Draw one orthogonal pair; deterministic in (seed, index)."""
    if sampler.mode == "disjoint_support":
        rng = _rng(seed)
        x = _mask(sample_vector(sampler.space, rng), sampler.left_coords)
        y = _mask(sample_vector(sampler.space, rng), sampler.right_coords)
        return x, y
    if sampler.mode == "pair_image":
        rng = _rng(seed)
        pair = sampler.pair
        f_space = pair.phi.domain
        z = sample_vector(f_space, rng)
        w = sample_vector(f_space, rng)
        x = act(pair.coefficient.inv, pair.phi(z))
        y = act(pair.coefficient.co_inv, pair.psi(w))
        return x, y
    if sampler.mode == "explicit":
        return sampler.pairs[index % len(sampler.pairs)]
    raise InvalidMode(f"unknown sampler mode {sampler.mode!r}")


def orthogonal_pairs(sampler: OrthoSampler, n: int, seed):
    """Yield n orthogonal pairs with per-sample sub-seeds (seed, index)."""
    base = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    for i in range(n):
        yield sample_orthogonal_pair(sampler, base + [i], index=i)
