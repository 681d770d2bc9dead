"""Finite-rank Hilbert C*-modules A^m over a block-diagonal algebra A.

The inner product is <x, y> = sum_i x_i * (y_i)^* and the algebra acts on
the left, (b.x)_i = b * x_i. That makes the inner product module-linear in
the first slot and conjugate-linear in the second:

    <b.x, y> = b <x, y>        <x, b.y> = <x, y> b^*

All identity checks in this package assume exactly this convention.
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
    coordinate-major, block-minor.
    """
    rng = _rng(seed)
    dims = space.algebra.block_dims
    coords = []
    for _ in range(space.rank):
        blocks = tuple(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for n in dims
        )
        coords.append(AlgebraElement._wrap(space.algebra, blocks))
    return ModuleVector._wrap(space, tuple(coords))


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
