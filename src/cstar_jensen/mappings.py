"""Constructors for mappings between module spaces and for orthogonal pairs.

Mappings form a small expression tree: module-linear maps given by a right
coefficient matrix, diagonals of inner-product quadratic forms, constants,
sums and pointwise bump perturbations. Scenarios describe the tree on disk
as a tagged JSON union, which mapping_from_obj reads. The kernel solver's
members, real-linear maps A -> G given by a real matrix (KernelMap), are
mappings from A^1 too.

The pair machinery realizes triples (phi, psi, a) with

    <phi(z), psi(w)> = 0
    a <phi(z), phi(w)> a^* = (1-a) <psi(z), psi(w)> (1-a)^*

checked on all pairs of module basis vectors: phi and psi are evaluated
once, on the stack of basis vectors, and each condition as one table
indexed by the basis pair (basis_pair_grams). validate_pair alone decides
a pair and builds an AdditivePair. Its orthogonality table is
hilbert.orthogonality_residual's; balance_residuals is the one balance
table, also read by Cor. 2.9's check with a and 1 - a swapped; and
require_pair_condition is the one refusal of a table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import algebra as alg
from . import hilbert as hb
from .algebra import AlgebraElement, AlgebraShape, Coefficient, ModuleSpace, ModuleVector
from .errors import (
    DomainError,
    PairConditionViolated,
    ShapeError,
    SpaceMismatch,
    ValidationError,
)
from .jsonutil import items, number, require_field

# pair conditions must hold on basis vectors within this residual
PAIR_VALIDATION_TOL = 1e-10
# kernel solutions must re-verify their intertwining constraints within this
KERNEL_RESIDUAL_TOL = 1e-8
# the most complex entries, len(cols) * e_rank * dim A, of a map that placed
# builds, and rank F * max(rank F, rank E) * dim A, of a basis pair grid's
# arrays; interleave_pair holds n^2 / 2 per map, 524288 at n = 1024
MAX_PLACED_ENTRIES = 2**20
# the most real entries the kernel solver's members may hold in all, one
# block pair's column system (A = M_8's holds 8388608), and one
# re-verification's [gap, lhs, rhs] table
MAX_KERNEL_ENTRIES = 2**24


class Mapping:
    """Base class; subclasses implement evaluate().

    evaluate takes one vector or a stack of them (see algebra) and gives
    every row of a stack, bit for bit, the value it gives that row alone.
    """

    __slots__ = ("domain", "codomain")

    def __init__(self, domain: ModuleSpace, codomain: ModuleSpace):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)

    def __setattr__(self, name, value):
        raise AttributeError("mappings are immutable")

    def __call__(self, x: ModuleVector) -> ModuleVector:
        if x.space != self.domain:
            raise SpaceMismatch("argument does not live in the mapping domain")
        return self.evaluate(x)

    def evaluate(self, x: ModuleVector) -> ModuleVector:
        raise NotImplementedError


class Linear(Mapping):
    """T(x)_j = sum_i x_i C[i][j]; module-linear for the left action.

    Per algebra block, T is the right product X T_k of the wide matrix X
    (see algebra) with T_k of shape (rank in * n, rank out * n), whose
    (i, j) sub-block of n x n is C[i][j]'s block. transfer holds T_k per
    block, built once and read-only; it is the only copy of the
    coefficients: C[i][j]'s block k is
    alg.coordinates(transfer[k].reshape(rank in, n, -1), rank out)[i, j].
    On a stack, each block is one product of the stack's rows with T_k
    (alg._stack_matmul), which gives each row the bits it gets alone.
    """

    __slots__ = ("transfer",)

    def __init__(self, coeffs):
        rows = tuple(tuple(row) for row in coeffs)
        if not rows or not rows[0]:
            raise ShapeError("coefficient matrix must be nonempty")
        m_out = len(rows[0])
        shape = rows[0][0].shape
        for row in rows:
            if len(row) != m_out:
                raise ShapeError("ragged coefficient matrix")
            for entry in row:
                if entry.shape.block_dims != shape.block_dims:
                    raise ShapeError("coefficient entries from different algebras")
        super().__init__(
            ModuleSpace(shape, len(rows)), ModuleSpace(shape, m_out)
        )
        transfer = tuple(
            np.concatenate(
                [np.concatenate([entry.blocks[k] for entry in row], axis=1) for row in rows]
            )
            for k in range(len(shape.block_dims))
        )
        for t in transfer:
            t.flags.writeable = False
        object.__setattr__(self, "transfer", transfer)

    def evaluate(self, x: ModuleVector) -> ModuleVector:
        return ModuleVector._wrap(
            self.codomain, tuple(alg._stack_matmul(v, t) for v, t in zip(x.blocks, self.transfer))
        )


class QuadDiag(Mapping):
    """x -> B(x, x) = scale * (<x, x> + <x, x>) . g, the diagonal of the
    quadratic form B = bimap."""

    __slots__ = ("g", "scale")

    def __init__(self, domain: ModuleSpace, g: ModuleVector, scale: float):
        if domain.algebra != g.space.algebra:
            raise SpaceMismatch("target vector must share the domain algebra")
        scale = complex(scale)
        if scale.imag != 0.0:
            raise DomainError("scale must be real so values stay symmetric")
        if not math.isfinite(scale.real):
            raise DomainError("scale must be finite")
        super().__init__(domain, g.space)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "scale", float(scale.real))

    def evaluate(self, x: ModuleVector) -> ModuleVector:
        # bimap(x, x) with <x, x> formed once: the same sum of the same bits
        k = hb.inner_product(x, x)
        return alg.act(alg.vec_scale(alg.vec_add(k, k), self.scale), self.g)

    def bimap(self, x: ModuleVector, y: ModuleVector) -> ModuleVector:
        """B(x, y) = scale * (<x, y> + <y, x>) . g, symmetric and biadditive."""
        k = alg.vec_add(hb.inner_product(x, y), hb.inner_product(y, x))
        return alg.act(alg.vec_scale(k, self.scale), self.g)


class Constant(Mapping):
    __slots__ = ("value",)

    def __init__(self, domain: ModuleSpace, value: ModuleVector):
        super().__init__(domain, value.space)
        object.__setattr__(self, "value", value)

    def evaluate(self, x: ModuleVector) -> ModuleVector:
        return ModuleVector._wrap(
            self.codomain,
            tuple(np.broadcast_to(b, x.batch + b.shape) for b in self.value.blocks),
        )


class Sum(Mapping):
    __slots__ = ("children",)

    def __init__(self, children):
        children = tuple(children)
        if not children:
            raise ShapeError("a sum needs at least one child")
        dom, cod = children[0].domain, children[0].codomain
        for child in children[1:]:
            if child.domain != dom or child.codomain != cod:
                raise SpaceMismatch("sum children must share domain and codomain")
        super().__init__(dom, cod)
        object.__setattr__(self, "children", children)

    def evaluate(self, x: ModuleVector) -> ModuleVector:
        out = self.children[0].evaluate(x)
        for child in self.children[1:]:
            out = alg.vec_add(out, child.evaluate(x))
        return out


class Bump(Mapping):
    """delta inside the hard ball ||x - site|| < radius, zero outside."""

    __slots__ = ("site", "delta", "radius")

    def __init__(self, site: ModuleVector, delta: ModuleVector, radius: float):
        radius = float(radius)
        # refuses NaN too; an infinite radius is a ball of the whole space
        if not radius > 0.0:
            raise DomainError("bump radius must be positive")
        super().__init__(site.space, delta.space)
        object.__setattr__(self, "site", site)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "radius", radius)

    def evaluate(self, x: ModuleVector) -> ModuleVector:
        inside = np.asarray(alg.module_norm(alg.vec_sub(x, self.site)) < self.radius)
        mask = inside[..., None, None]
        return ModuleVector._wrap(
            self.codomain, tuple(np.where(mask, d, 0.0) for d in self.delta.blocks)
        )


def _require_within(bound: int, what: str, size: int, kind: str) -> None:
    if size > bound:
        raise DomainError(f"{what} has {size} {kind} entries, above the bound of {bound}")


def placed(shape: AlgebraShape, e_rank: int, cols, weight=None) -> Linear:
    """The map A^len(cols) -> A^e_rank sending coordinate i to coordinate
    cols[i], times the element weight on the right (the unit by default).
    A map above MAX_PLACED_ENTRIES complex entries raises DomainError
    before anything of its size is built."""
    what = f"the placed map A^{len(cols)} -> A^{e_rank}"
    _require_within(MAX_PLACED_ENTRIES, what, len(cols) * e_rank * shape.dim, "complex")
    z = alg.zero(shape)
    weight = alg.unit(shape) if weight is None else weight
    coeffs = [[z] * e_rank for _ in cols]
    for row, col in zip(coeffs, cols):
        row[col] = weight
    return Linear(coeffs)


def compose_jensen(
    additive: Mapping, quad_diag: Mapping | None, constant: ModuleVector
) -> Mapping:
    """f = additive + quad_diag + constant; quad_diag may be omitted."""
    children = [additive]
    if quad_diag is not None:
        children.append(quad_diag)
    children.append(Constant(additive.domain, constant))
    return Sum(children)


# ---------------------------------------------------------------------------
# mapping deserialization


def mapping_from_obj(
    obj, domain: ModuleSpace, codomain: ModuleSpace
) -> Mapping:
    kind = require_field(obj, "kind", "mapping")

    def get(name):
        return require_field(obj, name, f"{kind} mapping")

    if kind == "linear":
        rows = items(get("coeffs"), "coeffs")
        f = Linear([[alg.element_from_obj(c) for c in items(row, "coeffs")] for row in rows])
    elif kind == "sum":
        f = Sum(mapping_from_obj(c, domain, codomain) for c in items(get("children"), "children"))
    elif kind == "constant":
        f = Constant(domain, alg.vector_from_obj(get("value"), codomain))
    elif kind == "quad_diag":
        g = alg.vector_from_obj(get("g"), codomain)
        f = QuadDiag(domain, g, number(float, get("scale"), "scale"))
    elif kind == "perturb":
        f = Bump(
            alg.vector_from_obj(get("site"), domain),
            alg.vector_from_obj(get("delta"), codomain),
            number(float, get("radius"), "radius"),
        )
    else:
        raise ValidationError(f"unknown mapping kind {kind!r}")
    if f.domain != domain or f.codomain != codomain:
        raise SpaceMismatch("decoded mapping does not match the declared spaces")
    return f


# ---------------------------------------------------------------------------
# orthogonal additive pairs


@dataclass(frozen=True)
class AdditivePair:
    """A triple (phi, psi, a) between F and E that satisfies both pair
    conditions; validate_pair builds it, and only after deciding so.

    orth_residual and balance_residual are the worst residuals of the
    two conditions over all basis pairs, both at or below
    PAIR_VALIDATION_TOL. grams are the Gram tables of basis_pair_grams
    that validate_pair formed.
    """

    phi: Mapping
    psi: Mapping
    coefficient: Coefficient
    orth_residual: float
    balance_residual: float
    grams: tuple = field(repr=False, compare=False)


def basis_pair_grams(phi: Mapping, psi: Mapping):
    """phi(e_i) as a batch (rank, 1) and psi(e_j) as a batch (1, rank), and
    the Gram tables (<phi(e_i), phi(e_j)>, <psi(e_i), psi(e_j)>) of batch
    (rank, rank), index (i, j) being the basis pair. phi and psi are
    evaluated once, on the stack of F's basis vectors; the images meet by
    broadcasting, as views, so no image is copied per pair. A grid whose
    largest array, the basis stack, an image or a Gram, would hold more than
    MAX_PLACED_ENTRIES complex entries raises DomainError before any is built."""
    f, e = phi.domain.rank, phi.codomain.rank
    size = f * max(f, e) * phi.domain.algebra.dim
    _require_within(MAX_PLACED_ENTRIES, f"the basis pair grid of A^{f} -> A^{e}", size, "complex")
    basis = phi.domain.basis()
    images = [(x.row((slice(None), None)), x.row(None)) for x in (phi(basis), psi(basis))]
    return images[0][0], images[1][1], tuple(hb.inner_product(*x) for x in images)


def balance_residuals(a: Coefficient, gram_phi, gram_psi):
    """The residual of a G_phi a^* = (1-a) G_psi (1-a)^* at each basis pair
    of basis_pair_grams' Grams: alg.vec_residual of the two sides, so NaN
    where a Gram or a side is not finite or the sides' norms overflow."""
    lhs = alg.act(alg.act(a.value, gram_phi), alg.adjoint(a.value))
    return alg.vec_residual(lhs, alg.act(alg.act(a.co, gram_psi), alg.adjoint(a.co)))


def require_pair_condition(condition: str, table) -> float:
    """The worst residual of a table indexed by the basis pair (i, j), by
    the checks' rule: the first NaN, else the first largest value (np.argmax
    gives both), so a NaN never passes. Above PAIR_VALIDATION_TOL it raises
    PairConditionViolated naming the condition, (i, j) and the residual."""
    i, j = np.unravel_index(np.argmax(table), table.shape)
    worst = float(table[i, j])
    if not worst <= PAIR_VALIDATION_TOL:
        why = f"fails at basis pair ({i}, {j}) with residual {worst:.3e}"
        raise PairConditionViolated(
            f"{condition.replace('-', ' ')} condition {why}", condition=condition, residual=worst
        )
    return worst


def validate_pair(phi: Mapping, psi: Mapping, a: Coefficient) -> AdditivePair:
    """Check both pair conditions on all basis pairs and build the pair when
    both worst residuals stay at or below PAIR_VALIDATION_TOL, else raise
    require_pair_condition's refusal for the first that does not.

    The tables, over the basis pairs of basis_pair_grams, are
    hb.orthogonality_residual and balance_residuals. Each is NaN by its own
    rule where it decides nothing (an overflow, refused without numpy's
    warnings), and a NaN is the worst entry: exactly zero cross terms pass
    whatever the Grams do.

    Basis pairs decide the conditions for module-linear phi, psi whenever the
    coefficient is central (scalar per block); every pair this module builds
    keeps exact zeros in the cross terms, so the orthogonality condition
    extends verbatim.
    """
    if phi.domain != psi.domain:
        raise SpaceMismatch("phi and psi must share a domain")
    if phi.codomain != psi.codomain:
        raise SpaceMismatch("phi and psi must share a codomain")
    if a.value.shape != phi.domain.algebra:
        raise SpaceMismatch("coefficient algebra does not match the pair")
    with np.errstate(over="ignore", invalid="ignore"):
        phis, psis, grams = basis_pair_grams(phi, psi)
        tables = (hb.orthogonality_residual(phis, psis), balance_residuals(a, *grams))
    worst = [require_pair_condition(*c) for c in zip(("orthogonality", "balance"), tables)]
    return AdditivePair(phi, psi, a, *worst, grams)


def interleave_pair(p: float, n: int) -> AdditivePair:
    """Truncated interleaving pair over the scalars, F = C^(n/2), E = C^n.

    phi spreads F over the even coordinates scaled by 1/(1-p), psi over the
    odd coordinates scaled by 1/p, and the coefficient is (1-p) * 1. Both
    conditions then reduce to sum_k z_k conj(w_k) on either side.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie in (0, 1), got {p}")
    if math.isinf(1.0 / p):
        raise DomainError(f"1/p overflows for p = {p}")
    if n < 2 or n % 2:
        raise DomainError(f"the ambient rank must be even and >= 2, got {n}")
    if 2 * n > alg.MAX_REAL_DIM:
        raise DomainError(f"the ambient rank {n} has more than {alg.MAX_REAL_DIM} real coordinates")
    shape = AlgebraShape((1,))
    one = alg.unit(shape)
    phi = placed(shape, n, range(0, n, 2), alg.vec_scale(one, 1.0 / (1.0 - p)))
    psi = placed(shape, n, range(1, n, 2), alg.vec_scale(one, 1.0 / p))
    a = alg.validate_coefficient(alg.vec_scale(one, 1.0 - p), require_strict_order=True)
    return validate_pair(phi, psi, a)


def morphism_shift_pair(shape: AlgebraShape, m: int) -> AdditivePair:
    """psi includes F = A^m as the first m coordinates of E = A^2m, phi
    shifts it into the last m, and the coefficient is (1/2) * 1.

    phi preserves inner products: <phi(x), phi(y)> = <x, y> exactly.
    """
    if m < 1:
        raise DomainError(f"rank must be positive, got {m}")
    phi = placed(shape, 2 * m, range(m, 2 * m))
    psi = placed(shape, 2 * m, range(m))
    a = alg.validate_coefficient(alg.vec_scale(alg.unit(shape), 0.5), require_strict_order=True)
    return validate_pair(phi, psi, a)


def inclusion_pair(
    shape: AlgebraShape, f_rank: int, e_rank: int, a: Coefficient
) -> AdditivePair:
    """A pair for an arbitrary coefficient on disjoint coordinate ranges.

    phi includes F into coordinates 0..f_rank-1 of E; psi lands on the next
    f_rank coordinates with right coefficient d chosen so that
    d d^* = (1-a)^{-1} a a^* ((1-a)^{-1})^*, which balances the second pair
    condition exactly. Needs e_rank >= 2 * f_rank.
    """
    if f_rank < 1 or e_rank < 2 * f_rank:
        raise DomainError(
            f"need e_rank >= 2 * f_rank >= 2, got f_rank={f_rank}, e_rank={e_rank}"
        )
    prod = alg.act(
        alg.act(a.co_inv, alg.act(a.value, alg.adjoint(a.value))),
        alg.adjoint(a.co_inv),
    )
    d_blocks = []
    for b in prod.blocks:
        eigvals, eigvecs = np.linalg.eigh(0.5 * (b + b.conj().T))
        if eigvals[0] <= 0.0:
            raise DomainError("balance operator must stay positive definite")
        d_blocks.append((eigvecs * np.sqrt(eigvals)) @ eigvecs.conj().T)
    d = AlgebraElement(shape, d_blocks)
    phi = placed(shape, e_rank, range(f_rank))
    psi = placed(shape, e_rank, range(f_rank, 2 * f_rank), d)
    return validate_pair(phi, psi, a)


# ---------------------------------------------------------------------------
# a-biadditive kernel solver


def _real_matrix(mc: np.ndarray) -> np.ndarray:
    """Real 2d x 2d matrix of a complex-linear map acting on [re; im]."""
    d = len(mc)
    out = np.empty((2 * d, 2 * d))
    out[:d, :d] = out[d:, d:] = mc.real
    out[:d, d:] = -mc.imag
    out[d:, :d] = mc.imag
    return out


def _kron4(x: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
    """np.kron(x, y) of two matrices, unflattened: entry (p, s, q, t) is
    x[p, q] * y[s, t], one broadcast product, the products np.kron takes;
    it reshapes to the Kronecker product. Written into out when given."""
    return np.multiply(x[:, None, :, None], y[None, :, None, :], out=out)


def _block_actions(x: AlgebraElement):
    """Per block of x, the real matrices of b -> x b x^* and of v -> x v.

    The first acts on [re; im] of the row-major vec of one block b, where
    vec(x b x^*) = kron(x, conj(x)) vec(b); the second on [re; im] of one
    column v, since x X acts on each column of X on its own. An overflow
    (entries of x above about 1.3e154) raises DomainError before any SVD.
    """
    conj, left = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for m in x.blocks:
            n = len(m)
            conj.append(_real_matrix(_kron4(m, m.conj()).reshape(n * n, n * n)))
            left.append(_real_matrix(m))
    if not all(np.isfinite(mat).all() for mat in conj + left):
        raise DomainError("the coefficient's conjugation overflows; the kernel cannot be solved")
    return conj, left


def _column_system(actions, j: int, k: int) -> np.ndarray:
    """The real system of block pair (j, k) for the map Psi from block k to
    one column of block j, on the row-major vec of Psi's real matrix.

    actions holds _block_actions of a and of 1 - a. For each, Psi M - R Psi
    = 0 row-vectorizes to (I (x) M^T - R (x) I) vec(Psi) = 0, with M the
    conjugation on block k and R the left action on a column of block j;
    the two stack as row halves. The first product is written into its
    half and the second subtracted from it: np.kron's products and
    difference, without its set-up or a stacking copy.
    """
    (conj_a, left_a), _ = actions
    rows, cols = len(left_a[j]), len(conj_a[k])
    eye_out, eye_in = np.eye(rows), np.eye(cols)
    system = np.empty((2, rows, cols, rows, cols))
    for half, (conj, left) in zip(system, actions):
        _kron4(eye_out, conj[k].T, out=half)
        half -= _kron4(left[j], eye_in)
    return system.reshape(2 * rows * cols, rows * cols)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class KernelSupport:
    """Where a KernelMap's matrix can be nonzero, and the read-only index
    arrays through which kernel_constraint_residual reads it; built once,
    by KernelSupport.of.

    columns holds the output columns (i, j, c), column c of block j of
    coordinate i of G, whose real coordinates the matrix can write, and
    blocks the blocks k of A whose real coordinates it reads; every other
    entry is zero. The re-verification covers every column (i, j, c) whose
    coordinate i and block column (j, c) appear in columns: its rows are
    these columns' real coordinates, and its units u those of the block
    columns in A^1.
      - inputs: the real coordinates of A in the blocks, ascending; conj
        indexes their rows of the coefficient's [C_value | C_co] and their
        columns in both halves.
      - entries indexes the matrix's rows in table order and its columns
        inputs. Table order runs block j, row p, wide column (i, c), real
        part before imaginary: real rows in that order are, per block j,
        the wide matrices (n_j, m_j) as complex numbers, and layout holds
        each block's complex columns (start, stop) and (n_j, m_j).
      - plain holds, for the rows in ascending order, coordinate i by unit
        u, each row's place in table order; left indexes [L_value | L_co]
        at rows u and at columns u of both halves.
      - rhs holds, for each of a sample's table entries, x then table
        order, its place among the columns (i, x, u) of the left action's
        product.
    A dense matrix's support is everything: then inputs, plain's rows and
    left index every coordinate in ascending order, as the whole matrices
    would.
    """

    columns: tuple
    blocks: tuple
    inputs: np.ndarray
    conj: tuple
    entries: tuple
    plain: np.ndarray
    left: tuple
    rhs: np.ndarray
    layout: tuple

    @classmethod
    def of(cls, target: ModuleSpace, columns, blocks) -> KernelSupport:
        """The support of the given columns (i, j, c) of target and blocks k."""
        width = 2 * target.algebra.dim
        index_g, index_a = alg.real_index(target), alg.real_index(alg.element_space(target.algebra))
        coords = sorted({i for i, _, _ in columns})
        layout, rows, units, start = [], [np.zeros(0, np.intp)], [np.zeros(0, np.intp)], 0
        for j, n in enumerate(target.algebra.block_dims):
            picked = sorted({c for _, jj, c in columns if jj == j})
            wide = [i * n + c for i in coords for c in picked]
            layout.append((start, start + n * len(wide), n, len(wide)))
            start += n * len(wide)
            if wide:
                rows.append(index_g[j][:, wide].ravel())
                units.append(index_a[j][:, picked].ravel())
        rows, units = _read_only(np.concatenate(rows)), _read_only(np.sort(np.concatenate(units)))
        inputs = np.sort(np.concatenate([np.zeros(0, np.intp)] + [index_a[k].ravel() for k in blocks]))
        inputs = _read_only(inputs)
        plain = np.argsort(rows)
        # the q-th row in ascending order is coordinate q // len(units),
        # unit q % len(units); (i, x, u) is column 2 i len(units) + x len(units) + u
        q = np.empty_like(plain)
        q[plain] = np.arange(len(q))
        at = 2 * q - q % max(len(units), 1)
        return cls(
            tuple(columns),
            tuple(blocks),
            inputs,
            (inputs[:, None], _read_only(np.concatenate([inputs, inputs + width]))),
            (rows[:, None], inputs),
            _read_only(plain.reshape(len(coords), len(units))),
            (units[:, None], _read_only(np.concatenate([units, units + width]))),
            _read_only(np.concatenate([at, at + len(units)])),
            tuple(layout),
        )

    @classmethod
    def of_matrix(cls, target: ModuleSpace, matrix: np.ndarray) -> KernelSupport:
        """The support of a matrix's nonzero pattern, a NaN counting as
        nonzero: every column with a nonzero entry in its rows and every
        block with one in its columns. A dense matrix's is everything, an
        all-zero one's is empty."""
        nonzero = matrix != 0
        rows, cols = nonzero.any(axis=1), nonzero.any(axis=0)
        columns = sorted(
            (int(w) // n, j, int(w) % n)
            for j, (n, index) in enumerate(zip(target.algebra.block_dims, alg.real_index(target)))
            for w in np.flatnonzero(rows[index].any(axis=(0, 2)))
        )
        index_a = alg.real_index(alg.element_space(target.algebra))
        return cls.of(target, columns, [k for k, index in enumerate(index_a) if cols[index].any()])


# the most solver supports kept; a target of rank r over blocks n_j has at
# most r * sum(n_j) * (number of blocks) of them
@lru_cache(maxsize=1024)
def _column_support(target: ModuleSpace, i: int, j: int, c: int, k: int) -> KernelSupport:
    """The support of the solver's members on column c of block j of
    coordinate i that read block k. It depends on the target alone, never
    on the coefficient, so solves on one target share it."""
    return KernelSupport.of(target, [(i, j, c)], [k])


class KernelMap(Mapping):
    """A real-linear map Psi: A -> G, a mapping from A^1 to target, stored
    as a real matrix on the real coordinates of alg.to_real, of A^1 in and
    of G out, with its KernelSupport.

    KernelMap(target, matrix) checks the matrix shape, keeps a read-only
    float64 copy of it and derives the support from its nonzero pattern.
    The solver's members come from KernelMap._wrap, which skips all three:
    each is a read-only view into the one array that holds every member of
    its piece, with the support of the column and block the solver wrote
    (see solve_abiadditive_kernel). evaluate takes each element on its own
    row product, so every row of a batch gets the bits it gets alone.
    """

    __slots__ = ("matrix", "support")

    def __init__(self, target: ModuleSpace, matrix: np.ndarray):
        dim = target.algebra.dim
        mat = np.array(matrix, dtype=np.float64)
        want = (2 * dim * target.rank, 2 * dim)
        if mat.shape != want:
            raise ShapeError(f"kernel map matrix has shape {mat.shape}, expected {want}")
        mat.flags.writeable = False
        super().__init__(alg.element_space(target.algebra), target)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "support", KernelSupport.of_matrix(target, mat))

    @classmethod
    def _wrap(cls, target, matrix, support):
        """A map on a read-only float64 matrix of the right shape and its
        support, taken as they are; reserved for arrays this package
        produced itself."""
        psi = object.__new__(cls)
        Mapping.__init__(psi, alg.element_space(target.algebra), target)
        object.__setattr__(psi, "matrix", matrix)
        object.__setattr__(psi, "support", support)
        return psi

    def evaluate(self, b: ModuleVector) -> ModuleVector:
        rows = alg.to_real(b)[..., None, :] @ self.matrix.T
        return alg.from_real(self.codomain, rows[..., 0, :])


@dataclass(frozen=True)
class KernelSolution:
    """A basis of the kernel and the rank decision behind its dimension.

    Singular values of the constraint system above threshold are nonzero;
    smallest_kept and largest_dropped are the nearest ones on either side
    of it, or None when that side is empty. Their distance from threshold
    is the margin of the dimension.
    """

    basis: tuple[KernelMap, ...]
    dimension: int
    threshold: float
    smallest_kept: float | None
    largest_dropped: float | None


def solve_abiadditive_kernel(
    a: Coefficient, target: ModuleSpace
) -> KernelSolution:
    """All real-linear Psi: A -> G with Psi(a b a^*) = a.Psi(b) and
    Psi((1-a) b (1-a)^*) = (1-a).Psi(b).

    The constraints decouple. The left action on G = A^r is coordinatewise,
    so every output coordinate carries a copy of the rank-1 kernel; a is
    block-diagonal, so each piece Psi_jk: M_{n_k} -> M_{n_j} of one
    coordinate is constrained on its own; and a_j X acts on each column of
    X on its own, so each of the n_j columns of Psi_jk is constrained by
    the same system. Each block pair gives one small real-linear system
    for one column (_column_system), solved in two passes. Pass 1 takes
    the singular values alone of every piece's system; from them come the
    threshold and each piece's null count. Pass 2 builds again, and solves
    by a full SVD, only the systems of pieces with at least one null
    vector: their rows of vh after that count are the null vectors, so the
    rank rule reads the values of pass 1, never those of pass 2, and a
    piece of full rank never pays for singular vectors. Each null vector
    is scattered, at the positions alg.real_index gives, into every column
    of block j of every coordinate of a KernelMap's matrix, so every member
    is supported on one column of one block of one coordinate, and the
    basis is orthonormal in the Frobenius inner product. All null vectors
    of one (coordinate, block pair, column) go into one read-only array,
    in order, whose rows are the members' matrices, and share one
    KernelSupport, that column and block k: the positions they are
    scattered into (_column_support, kept across solves on one target).

    The whole system is, up to a permutation, block-diagonal over these
    column systems, with r * n_j identical copies of the one for (j, k), so
    its singular values are theirs, each repeated. Repeats move neither
    the largest value nor the nearest ones on either side of the
    threshold, so the rank rule is the standard one for the whole M x N
    system: a singular value counts as zero at or below
    max(M, N) * eps * (largest singular value). A threshold relative to
    each piece alone would call a piece that vanishes to rounding level
    full rank.

    Dimension 0 means only Psi = 0, hence no quadratic kernel of the
    inner-product form is a-biadditive for this coefficient. A target over
    another algebra than the coefficient's raises SpaceMismatch. The
    members' count, r * sum of null count * n_j, follows from pass 1; when
    they would hold more than MAX_KERNEL_ENTRIES real entries in all, the
    solver raises DomainError before pass 2; when the largest column
    system, 2 (2 n_j 2 n_k^2)^2 real entries, would, it does so before
    pass 1.
    """
    shape = a.value.shape
    if target.algebra != shape:
        raise SpaceMismatch("the kernel target is over another algebra than the coefficient")
    dims = shape.block_dims
    da = shape.dim
    r = target.rank
    pairs = [(j, k) for j in range(len(dims)) for k in range(len(dims))]
    j, k = max(pairs, key=lambda pair: dims[pair[0]] * dims[pair[1]] ** 2)
    size = 32 * (dims[j] * dims[k] ** 2) ** 2
    if size > MAX_KERNEL_ENTRIES:
        raise DomainError(
            f"the column system of block pair ({j}, {k}) has {size} real entries, "
            f"above the bound of {MAX_KERNEL_ENTRIES}"
        )
    actions = (_block_actions(a.value), _block_actions(a.co))
    values = [np.linalg.svd(_column_system(actions, j, k), compute_uv=False) for j, k in pairs]

    unknowns = (2 * da * r) * (2 * da)
    threshold = 2 * unknowns * np.finfo(np.float64).eps * max(s[0] for s in values)
    ranks = [int(np.count_nonzero(s > threshold)) for s in values]
    nullities = [len(s) - rank for s, rank in zip(values, ranks)]
    members = r * sum(null * dims[j] for (j, _), null in zip(pairs, nullities))
    if members * unknowns > MAX_KERNEL_ENTRIES:
        raise DomainError(
            f"the kernel has {members} members of {unknowns} real entries each, "
            f"{members * unknowns} in all, above the bound of {MAX_KERNEL_ENTRIES}"
        )
    nulls = []
    for (j, k), s, rank in zip(pairs, values, ranks):
        if rank < len(s):
            vh = np.linalg.svd(_column_system(actions, j, k), full_matrices=False)[2]
            nulls.append((j, k, vh[rank:]))
    values = np.concatenate(values)
    kept = values[values > threshold]
    dropped = values[values <= threshold]

    index_g, index_a = alg.real_index(target), alg.real_index(alg.element_space(shape))
    basis = []
    for i in range(r):
        for j, k, null in nulls:
            nj = dims[j]
            # a null vector is [re; im] of one column of block j by [re; im]
            # of the row-major entries of block k
            cols = np.moveaxis(index_a[k], -1, 0).ravel()
            for c in range(nj):
                rows = index_g[j][:, i * nj + c].T.ravel()
                mats = np.zeros((len(null), 2 * da * r, 2 * da))
                mats[:, rows[:, None], cols] = null.reshape(len(null), len(rows), len(cols))
                mats.flags.writeable = False
                support = _column_support(target, i, j, c, k)
                basis += [KernelMap._wrap(target, mat, support) for mat in mats]
    return KernelSolution(
        tuple(basis),
        len(basis),
        float(threshold),
        float(kept.min()) if kept.size else None,
        float(dropped.max()) if dropped.size else None,
    )


def kernel_constraint_residual(
    psi: KernelMap, a: Coefficient, n: int = 20, seed=0
) -> float:
    """Largest residual of the two intertwining constraints on random inputs.

    The n inputs b are the rows r of one hb.sample_table on A^1, real
    coordinates like those psi.matrix M and the coefficient's real_actions
    (C_x for b -> x b x^*, L_x for b -> x b, x = a and 1 - a) act on.
    Three real products write both sides of both constraints into one real
    [gap, lhs, rhs] table, each on psi.support alone (see KernelSupport),
    since M is zero elsewhere: r C_x for both x at once, on the inputs of
    the blocks Psi reads, which x b x^* keeps; Psi of b and of both
    x b x^* in one product with M's rows of the support's columns; and the
    rhs x.Psi(b), L_x applied to each coordinate of Psi(b), on the units
    of those columns, since x acts on each column on its own. The products
    write the table in the support's table order, so its complex view is,
    per block, the wide matrices of the support's columns, measured by one
    alg.block_norm. A solver member writes one column, so its blocks are
    (n_j, 1), or (n_j, 0) for a block it does not write: block_norm skips
    the empty ones and measures each column by its 1x1 Gram B^* B, the
    sum of its squares. alg.scale_free_ratio, the one residual, gives one per
    row, NaN where a side's norm is inf, so the result never passes a bound
    when any residual is NaN or infinite. The gap is the real difference,
    the complex one bit for bit. For a dense M the support is everything
    and the products are those of the whole matrices; an all-zero M's is
    empty and reads 0.0. n < 1, which tests nothing, and an n whose table
    of 6 n (2 rank dim) reals would exceed MAX_KERNEL_ENTRIES raise
    DomainError before any draw; a coefficient over another algebra raises
    SpaceMismatch.
    """
    if n < 1:
        raise DomainError(f"kernel re-verification needs at least one sample, got n={n}")
    if a.value.space != psi.domain:
        raise SpaceMismatch("the coefficient is over another algebra than the kernel map")
    conj, left = a.real_actions
    width, rank = conj.shape[0], psi.codomain.rank
    size = 6 * n * rank * width
    _require_within(MAX_KERNEL_ENTRIES, f"the re-verification table of {n} samples", size, "real")
    r = hb.sample_table(psi.domain, seed, n)[:, 0]
    sup = psi.support
    stack = np.empty((3 * n, len(sup.inputs)))
    r.take(sup.inputs, axis=1, out=stack[:n])
    np.matmul(stack[:n], conj[sup.conj], out=stack[n:].reshape(n, -1))
    # Psi(r) lands in the gap's rows n.., and lhs, rows (i, x), in table[1]
    table = np.empty((3, 2 * n, sup.plain.size))
    np.matmul(stack, psi.matrix[sup.entries].T, out=table.reshape(6 * n, -1)[n : 4 * n])
    coords, units = sup.plain.shape
    plain = table[0, n:].take(sup.plain, axis=1).reshape(n * coords, units)
    (plain @ left[sup.left]).reshape(n, -1).take(sup.rhs, axis=1, out=table[2].reshape(n, -1))
    np.subtract(table[1], table[2], out=table[0])
    wide = table.view(np.complex128)
    blocks = [wide[..., start:stop].reshape(3, 2 * n, rows, cols) for start, stop, rows, cols in sup.layout]
    return float(alg.scale_free_ratio(*alg.block_norm(blocks)).max())
