"""Finite-rank Hilbert C*-modules A^m over a block-diagonal algebra A.

The inner product is <x, y> = sum_i x_i * (y_i)^* and the algebra acts on
the left, (b.x)_i = b * x_i. That makes the inner product module-linear in
the first slot and conjugate-linear in the second:

    <b.x, y> = b <x, y>        <x, b.y> = <x, y> b^*

All identity checks in this package assume exactly this convention.

This module holds the Hilbert-module structure and nothing else: the
inner product, X Y^* per block (an element, or a batch of them for
stacks), orthogonality, and the drawing of vectors and orthogonal pairs.
orthogonality_residual is the one orthogonality rule: first_non_orthogonal
(whose refusals name the worst row and its residual), the pair validation
of mappings and the lemma2.2-orth check of identities all read it.
How a vector is stored, written and read, its real coordinates and its
arithmetic all live in algebra, since an element of A is a vector of A^1;
this module calls them as alg.*. Every operation takes one vector or a
stack, and a stack meets a single vector by broadcasting. Each gives
every row of a stack the same value, bit for bit, as it gives that row
on its own: a stack times one matrix is one 2-D product of the stack's
rows (alg._stack_matmul), each of whose output rows comes from that input
row alone, and any other matrix product runs matrix by matrix over the
stack axis.

Random vectors are drawn in one place, sample_table: one generator per
call, seeded once, and one standard_normal call for all of its stacks,
whose table holds real coordinates (alg.to_real), drawn sample-major, so
the first k rows are the same for every n >= k. sample_stacks reads the
table as vectors and sample_vector is its first row. A check seeds one
generator from its seed base and draws every input it needs as the draws
of that call; sample_pairs draws a check's orthogonal pairs the same way:
a disjoint-support pair is one drawn vector split in two, and a pair of
images is drawn as two stacks of F. The kernel re-verification takes the
table itself, since it works in real coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra as alg
from .algebra import AlgebraElement, ModuleSpace, ModuleVector
from .errors import DomainError, InvalidMode

# first_non_orthogonal's bound on the orthogonality residual
ORTHOGONALITY_TOL = 1e-9


def inner_product(x: ModuleVector, y: ModuleVector) -> AlgebraElement:
    """<x, y> = X Y^* per block, an element of the algebra (a batch of them
    for stacks); a stack x against one vector y is one product per block
    (alg._stack_matmul)."""
    alg.require_same_space(x.space, y.space)
    return AlgebraElement._wrap(
        alg.element_space(x.space.algebra),
        tuple(
            alg._stack_matmul(a, b.conj().swapaxes(-1, -2)) for a, b in zip(x.blocks, y.blocks)
        ),
    )


def orthogonality_residual(x: ModuleVector, y: ModuleVector):
    """||<x, y>|| / (1 + ||x|| ||y||), alg.scale_free_ratio with ||x|| ||y||
    as one side and 0 as the other; a float, or an array.

    A row whose ||<x, y>|| is exactly zero reads 0 whatever the norms.
    Elsewhere it is NaN where the scale is not finite (a norm is inf or NaN,
    or their product overflows), since it decides nothing there.

    When every entry of <x, y> is exactly zero, every row reads 0 and no
    norm is taken; disjoint-support pairs are such. A NaN or inf in x or y
    makes some entry of <x, y> non-zero, so those rows take the rule.
    Overflows are handled by the rule, so numpy warns of none.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        cross = inner_product(x, y)
        if not any(b.any() for b in cross.blocks):
            return np.zeros(cross.batch) if cross.batch else 0.0
        gap = alg.module_norm(cross)
        # a zero row's scale is 1, so it reads 0 however large its norms
        scale = np.where(gap == 0.0, 0.0, alg.module_norm(x) * alg.module_norm(y))
        return alg.scale_free_ratio(gap, scale, 0.0)


def first_non_orthogonal(xs: ModuleVector, ys: ModuleVector):
    """The worst row of xs, ys (the first NaN, else the first largest
    orthogonality_residual, by np.argmax; two single vectors are row 0) and
    a text naming its residual and the tolerance, when it is not orthogonal
    at ORTHOGONALITY_TOL; None when every row is, or there is none."""
    residual = np.ravel(orthogonality_residual(xs, ys))
    k = int(np.argmax(residual)) if residual.size else None
    if k is None or residual[k] <= ORTHOGONALITY_TOL:
        return None
    return k, not_orthogonal(residual[k])


def not_orthogonal(residual: float) -> str:
    """The text that names an orthogonality residual and the tolerance."""
    return f"orthogonality residual {residual:.3e}, tolerance {ORTHOGONALITY_TOL:.0e}"


def sample_vector(space: ModuleSpace, seed) -> ModuleVector:
    """The one vector sample_stacks draws from seed; a Generator passed as
    the seed advances by one draw."""
    return sample_stacks(space, seed, 1)[0].row(0)


def sample_table(space: ModuleSpace, seed, n: int, draws: int = 1) -> np.ndarray:
    """The real coordinates (alg.to_real) of draws stacks of n vectors of
    space, as one table of shape (n, draws, 2 * rank * dim): one
    standard_normal call of one generator seeded with seed (a seed, or a
    Generator, which advances). Every entry is N(0, 1). The draw is
    sample-major: the first k rows are the same for every n >= k. n = 0
    gives an empty table; n < 0 raises DomainError.
    """
    if n < 0:
        raise DomainError(f"cannot draw a negative number of samples, got n={n}")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, draws, 2 * space.rank * space.algebra.dim))


def sample_stacks(space: ModuleSpace, seed, n: int, draws: int = 1) -> tuple[ModuleVector, ...]:
    """draws stacks of n vectors with independent standard complex normal
    entries: row i of stack d is the vector whose real coordinates are
    sample_table(space, seed, n, draws)[i, d]. Each matrix entry gets
    independent N(0, 1) real and imaginary parts, so E ||x_i entry||^2 = 2.
    """
    stacked = alg.from_real(space, sample_table(space, seed, n, draws))
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
      disjoint_support - one drawn vector split in two: x keeps its
        coordinates in left_coords, y those in right_coords, and each is
        zero elsewhere. The two index sets partition the coordinates, so
        <x, y> is zero bit for bit, and the entries on each support are
        independent N(0, 1) in their real and imaginary parts. It never
        draws two orthogonal vectors that share a coordinate, so a PASS
        does not show eq. 1.1 on all orthogonal pairs.
      pair_image - x = a^{-1}.phi(z), y = (1-a)^{-1}.psi(w) for random z, w,
        orthogonal by the pair conditions. It covers only the images of the
        pair.
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
    """The sampler of an AdditivePair's images, which validate_pair made orthogonal."""
    return OrthoSampler(pair.phi.codomain, "pair_image", pair=pair)


def explicit_sampler(space: ModuleSpace, pairs) -> OrthoSampler:
    pairs = tuple((x, y) for x, y in pairs)
    if not pairs:
        raise InvalidMode("explicit mode needs at least one pair")
    for x, y in pairs:
        if x.space != space or y.space != space:
            raise InvalidMode("explicit pair vectors must live in the space")
    return OrthoSampler(space, "explicit", pairs=pairs)


def sample_pairs(
    sampler: OrthoSampler, n: int, seed, start: int = 0
) -> tuple[ModuleVector, ModuleVector]:
    """n orthogonal pairs as two stacks (xs, ys), from one generator seeded
    with seed (a seed, or a Generator, which advances).

    disjoint_support draws one stack of n vectors (one sample_stacks draw,
    a table of shape (n, 1, 2 * rank * dim)): xs is that stack with the
    coordinates outside left_coords zeroed, and ys a copy of it with those
    outside right_coords zeroed, so xs + ys is the drawn stack. pair_image
    draws z and w on F as the two draws of one sample_stacks call. explicit
    takes pair (start + i) % len(pairs) for row i, copied, and draws
    nothing. So a Generator that has drawn start rows gives rows start.. of
    one draw of all of them.
    """
    if sampler.mode == "disjoint_support":
        rank = sampler.space.rank
        (xs,) = sample_stacks(sampler.space, seed, n)
        ys = ModuleVector._wrap(sampler.space, tuple(b.copy() for b in xs.blocks))
        for v, keep in ((xs, sampler.left_coords), (ys, sampler.right_coords)):
            drop = [i for i in range(rank) if i not in keep]
            for b in v.blocks:
                # an assigned zero, not a product with 0, so no -0.0 appears
                alg.coordinates(b, rank)[..., drop, :, :] = 0.0
        return xs, ys
    if sampler.mode == "pair_image":
        pair = sampler.pair
        zs, ws = sample_stacks(pair.phi.domain, seed, n, 2)
        xs = alg.act(pair.coefficient.inv, pair.phi(zs))
        return xs, alg.act(pair.coefficient.co_inv, pair.psi(ws))
    if sampler.mode == "explicit":
        rows = np.arange(start, start + n) % len(sampler.pairs)
        return tuple(
            alg.stack_vectors(sampler.space, side).row(rows) for side in zip(*sampler.pairs)
        )
    raise InvalidMode(f"unknown sampler mode {sampler.mode!r}")
