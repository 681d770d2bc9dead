"""Finite-rank Hilbert C*-modules A^m over a block-diagonal algebra A.

The inner product is <x, y> = sum_i x_i * (y_i)^* and the algebra acts on
the left, (b.x)_i = b * x_i. That makes the inner product module-linear in
the first slot and conjugate-linear in the second:

    <b.x, y> = b <x, y>        <x, b.y> = <x, y> b^*

All identity checks in this package assume exactly this convention.

Over A = M_{n_1} + ... + M_{n_k}, the module A^rank is the sum of the
matrix spaces M_{n_k x rank*n_k}: a ModuleVector holds per block the wide
matrix X = [x_1 ... x_rank], of shape batch + (n, rank * n), whose columns
i*n to (i+1)*n - 1 are coordinate i. Then <x, y> is X Y^* per block, b.x
is b X, and the Gram <x, x> = X X^* is positive, so the module norm is the
square root of its largest eigenvalue: alg.block_norm, the routine that
alg.cstar_norm runs on square blocks, and vec_residual is
alg.scale_free_ratio of three such norms, as alg.residual is. batch is () for
one vector and (S,) for a stack of S vectors, built by stack_vectors or
drawn by sample_stacks; row(i) is row i of a stack as one vector. Every
operation here takes either form, and a stack meets a single vector by
broadcasting. Each operation is written once, and it gives every row of a
stack the same value, bit for bit, as it gives that row on its own: a
matrix product runs matrix by matrix over the stack axis. The inner
product of a stack is an AlgebraElement whose blocks carry the same batch.

The real coordinates of a vector are the one real coordinate system of
the package: to_real lists them coordinate-major, then block, then the
real parts of the block's entries before their imaginary parts, each
row-major, and from_real builds the vectors back, bit for bit. A vector
of A^rank has 2 * rank * dim of them; an algebra element is a vector of
A^1. The kernel solver's real-linear maps (mappings.KernelMap) are real
matrices on these coordinates, and sample_stacks draws them.

Random vectors come from sample_stacks: one generator per call, seeded
once, and one standard_normal call for all of its stacks, drawn
sample-major so the first k rows are the same for every n >= k. A check
seeds one generator from its seed base and draws every input it needs as
the draws of that call; sample_pairs draws a check's orthogonal pairs the
same way, as two stacks. The kernel re-verification draws its inputs
through sample_stacks too, and measures them with module_norm like every
check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra as alg
from .algebra import AlgebraElement, AlgebraShape
from .errors import InvalidMode, ShapeError, SpaceMismatch
from .jsonutil import items, number, require_field

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


class ModuleVector:
    """One vector of a space, or a stack of them; immutable.

    blocks[k] is the wide matrix of block k, of shape
    batch + (n_k, rank * n_k), batch () for one vector and (S,) for a stack
    whose row s is the s-th vector; coordinate i is columns
    i * n_k to (i + 1) * n_k - 1.
    """

    __slots__ = ("space", "blocks")

    def __init__(self, space: ModuleSpace, coords):
        """The vector with the given algebra elements as coordinates."""
        coords = tuple(coords)
        if len(coords) != space.rank:
            raise ShapeError(f"expected {space.rank} coordinates, got {len(coords)}")
        for c in coords:
            if c.shape.block_dims != space.algebra.block_dims:
                raise ShapeError("coordinate algebra does not match the space")
        blocks = []
        for k in range(len(space.algebra.block_dims)):
            b = np.concatenate([c.blocks[k] for c in coords], axis=-1)
            b.flags.writeable = False
            blocks.append(b)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "blocks", tuple(blocks))

    def __setattr__(self, name, value):
        raise AttributeError("ModuleVector is immutable")

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

    def row(self, i) -> "ModuleVector":
        """Row i of a stack as one vector, a view into the blocks; an array
        of indices or a slice gives the stack of those rows."""
        return ModuleVector._wrap(self.space, tuple(b[i] for b in self.blocks))

    def __repr__(self):
        return f"ModuleVector(rank={self.space.rank}, batch={self.batch})"

    def to_obj(self) -> dict:
        """{"rank": m, "coords": [...]}, one algebra element per coordinate:
        its column chunk of every block."""
        shape = self.space.algebra
        return {
            "rank": self.space.rank,
            "coords": [
                AlgebraElement._wrap(
                    shape, tuple(b[:, i * n : (i + 1) * n] for b, n in zip(self.blocks, shape))
                ).to_obj()
                for i in range(self.space.rank)
            ],
        }


def vector_from_obj(obj, space: ModuleSpace) -> ModuleVector:
    """Decode {"rank": m, "coords": [...]} into a vector of space."""
    rank = number(int, require_field(obj, "rank", "module vector"), "rank")
    if rank != space.rank:
        raise SpaceMismatch(f"vector rank {rank} != space rank {space.rank}")
    coords = require_field(obj, "coords", "module vector")
    return ModuleVector(space, [alg.element_from_obj(c) for c in items(coords, "coords")])


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


def _same_space(x: ModuleVector, y: ModuleVector) -> None:
    if x.space != y.space:
        raise SpaceMismatch(f"vectors from different spaces: {x.space} vs {y.space}")


def vec_add(x: ModuleVector, y: ModuleVector) -> ModuleVector:
    _same_space(x, y)
    return ModuleVector._wrap(x.space, tuple(a + b for a, b in zip(x.blocks, y.blocks)))


def vec_sub(x: ModuleVector, y: ModuleVector) -> ModuleVector:
    _same_space(x, y)
    return ModuleVector._wrap(x.space, tuple(a - b for a, b in zip(x.blocks, y.blocks)))


def vec_neg(x: ModuleVector) -> ModuleVector:
    return ModuleVector._wrap(x.space, tuple(-b for b in x.blocks))


def vec_scale(x: ModuleVector, s: complex) -> ModuleVector:
    return ModuleVector._wrap(x.space, tuple(s * b for b in x.blocks))


def act(b: AlgebraElement, x: ModuleVector) -> ModuleVector:
    """Left action, b X per block; a batch of elements acts row by row."""
    if b.shape.block_dims != x.space.algebra.block_dims:
        raise SpaceMismatch("acting element comes from a different algebra")
    return ModuleVector._wrap(x.space, tuple(m @ v for m, v in zip(b.blocks, x.blocks)))


def inner_product(x: ModuleVector, y: ModuleVector) -> AlgebraElement:
    """<x, y> = X Y^* per block, an element of the algebra (a batch of them
    for stacks)."""
    _same_space(x, y)
    return AlgebraElement._wrap(
        x.space.algebra, tuple(a @ b.conj().swapaxes(-1, -2) for a, b in zip(x.blocks, y.blocks))
    )


def module_norm(x: ModuleVector):
    """||x|| = ||<x, x>||^(1/2); a float, or an array of shape batch.

    It is alg.block_norm of the wide matrices, the same routine as
    alg.cstar_norm: the square root of the top eigenvalue of the Gram
    X X^* per block. A vector holding NaN gives NaN; one holding inf and
    no NaN gives inf. A finite vector whose Gram overflows is rescaled by
    a power of two, so its norm reads inf only where it overflows itself.
    No LAPACK call sees a non-finite Gram.
    """
    return alg.block_norm(x.blocks)


def vec_residual(lhs: ModuleVector, rhs: ModuleVector):
    """Scale-free discrepancy ||lhs - rhs|| / (1 + ||lhs|| + ||rhs||), by
    alg.scale_free_ratio: NaN where a side's norm is inf or NaN."""
    return alg.scale_free_ratio(module_norm(vec_sub(lhs, rhs)), module_norm(lhs), module_norm(rhs))


def is_orthogonal(x: ModuleVector, y: ModuleVector, tol: float = ORTHOGONALITY_TOL):
    """||<x, y>|| <= tol * (1 + ||x|| ||y||); a bool, or a boolean array.

    Where a norm is inf the bound decides nothing, so only an exactly zero
    <x, y> counts as orthogonal there.
    """
    cross = alg.cstar_norm(inner_product(x, y))
    bound = tol * (1.0 + module_norm(x) * module_norm(y))
    orthogonal = (cross <= bound) & ((cross == 0.0) | np.isfinite(bound))
    return orthogonal if np.ndim(orthogonal) else bool(orthogonal)


def from_real(space: ModuleSpace, r: np.ndarray) -> ModuleVector:
    """The vectors whose real coordinates are r, of shape
    lead + (2 * rank * dim,); a stack of shape lead. See to_real."""
    lead, rank = r.shape[:-1], space.rank
    table = r.reshape(lead + (rank, 2 * space.algebra.dim))
    blocks = []
    pos = 0
    for n in space.algebra.block_dims:
        nn = n * n
        coords = np.empty(lead + (rank, nn), np.complex128)
        coords.real, coords.imag = table[..., pos : pos + nn], table[..., pos + nn : pos + 2 * nn]
        # coordinate i's row-major n x n entries become columns i*n..(i+1)*n-1
        wide = coords.reshape(lead + (rank, n, n)).swapaxes(-3, -2)
        blocks.append(wide.reshape(lead + (n, rank * n)))
        pos += 2 * nn
    return ModuleVector._wrap(space, tuple(blocks))


def to_real(x: ModuleVector) -> np.ndarray:
    """The real coordinates of x, of shape batch + (2 * rank * dim,):
    coordinate-major, then block, then the real parts before the
    imaginary parts, each row-major. from_real inverts it bit for bit."""
    lead, rank = x.batch, x.space.rank
    parts = []
    for b, n in zip(x.blocks, x.space.algebra):
        coords = b.reshape(lead + (n, rank, n)).swapaxes(-3, -2).reshape(lead + (rank, n * n))
        parts += [coords.real, coords.imag]
    return np.concatenate(parts, axis=-1).reshape(lead + (2 * rank * x.space.algebra.dim,))


def sample_vector(space: ModuleSpace, seed) -> ModuleVector:
    """The one vector sample_stacks draws from seed; a Generator passed as
    the seed advances by one draw."""
    rng = np.random.default_rng(seed)
    return from_real(space, rng.standard_normal(2 * space.rank * space.algebra.dim))


def sample_stacks(space: ModuleSpace, seed, n: int, draws: int = 1) -> tuple[ModuleVector, ...]:
    """draws stacks of n vectors with independent standard complex normal
    entries, all from one generator seeded with seed (a seed, or a
    Generator, which advances) in one standard_normal call.

    The call's table has shape (n, draws, 2 * rank * dim), and row i of
    stack d is the vector whose real coordinates (to_real) are
    table[i, d]. The draw is sample-major: the first k rows of every stack
    are the same for every n >= k. Each matrix entry gets independent
    N(0, 1) real and imaginary parts, so E ||x_i entry||^2 = 2.
    """
    rng = np.random.default_rng(seed)
    stacked = from_real(space, rng.standard_normal((n, draws, 2 * space.rank * space.algebra.dim)))
    return tuple(
        ModuleVector._wrap(space, tuple(b[:, d] for b in stacked.blocks))
        for d in range(draws)
    )


@dataclass(frozen=True)
class OrthoSampler:
    """Recipe for drawing orthogonal pairs (x, y) from a space; sample_pairs
    draws them.

    Each mode covers only part of the orthogonal pairs, so a check that
    passes on its pairs shows the identity on that part alone:
      disjoint_support - x is supported on left_coords, y on right_coords;
        the two index sets partition the coordinates, so <x, y> is zero
        bit for bit. It never draws two orthogonal vectors that share a
        coordinate, so a PASS does not show eq. 1.1 on all orthogonal pairs.
      pair_image - x = a^{-1}.phi(z), y = (1-a)^{-1}.psi(w) for random z, w,
        orthogonal by the validated pair conditions. It covers only the
        images of the pair.
      explicit - a fixed list of pairs, cycled through in order; it covers
        those pairs alone.
    """

    space: ModuleSpace
    mode: str
    left_coords: tuple[int, ...] = ()
    right_coords: tuple[int, ...] = ()
    pair: object = None
    pairs: tuple = ()


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


def sample_pairs(sampler: OrthoSampler, n: int, seed) -> tuple[ModuleVector, ModuleVector]:
    """n orthogonal pairs as two stacks (xs, ys), from one generator seeded
    with seed.

    disjoint_support and pair_image draw x and y (z and w on F) as the two
    draws of one sample_stacks call; explicit takes pair i % len(pairs),
    copied, and draws nothing.
    """
    if sampler.mode == "disjoint_support":
        xs, ys = sample_stacks(sampler.space, seed, n, 2)
        for v, keep in ((xs, sampler.left_coords), (ys, sampler.right_coords)):
            drop = [i for i in range(sampler.space.rank) if i not in keep]
            for b, m in zip(v.blocks, sampler.space.algebra):
                # an assigned zero, not a product with 0, so no -0.0 appears
                b[..., [i * m + c for i in drop for c in range(m)]] = 0.0
        return xs, ys
    if sampler.mode == "pair_image":
        pair = sampler.pair
        zs, ws = sample_stacks(pair.phi.domain, seed, n, 2)
        xs = act(pair.coefficient.inv, pair.phi(zs))
        return xs, act(pair.coefficient.co_inv, pair.psi(ws))
    if sampler.mode == "explicit":
        rows = np.arange(n) % len(sampler.pairs)
        return tuple(
            stack_vectors(sampler.space, side).row(rows) for side in zip(*sampler.pairs)
        )
    raise InvalidMode(f"unknown sampler mode {sampler.mode!r}")
