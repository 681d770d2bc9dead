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
once, on the stack of basis vectors, and each condition as one table over
the row-major grid of basis pairs (basis_pair_grams). validate_pair alone
decides a pair and builds an AdditivePair. Its orthogonality table is
hilbert.orthogonality_residual's; balance_residuals is the one balance
table, also read by Cor. 2.9's check with a and 1 - a swapped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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
# the most real entries the kernel solver's members may hold in all
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
            self.codomain, tuple(v @ t for v, t in zip(x.blocks, self.transfer))
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
        return self.bimap(x, x)

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


def placed(shape: AlgebraShape, e_rank: int, cols, weight=None) -> Linear:
    """The map A^len(cols) -> A^e_rank sending coordinate i to coordinate
    cols[i], times the element weight on the right (the unit by default)."""
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

    orth_residual and balance_residual are the largest residuals of the
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
    """phi(e_i) and psi(e_j), and the Gram tables (<phi(e_i), phi(e_j)>,
    <psi(e_i), psi(e_j)>), over the row-major grid of basis pairs: row k of
    each is the pair (i, j) = divmod(k, rank). phi and psi are evaluated
    once, on the stack of F's basis vectors."""
    rank = phi.domain.rank
    basis = phi.domain.basis()
    phis, psis = phi(basis), psi(basis)
    i, j = np.divmod(np.arange(rank * rank), rank)
    grams = tuple(hb.inner_product(x.row(i), x.row(j)) for x in (phis, psis))
    return phis.row(i), psis.row(j), grams


def balance_residuals(a: Coefficient, gram_phi, gram_psi):
    """The residual of a G_phi a^* = (1-a) G_psi (1-a)^* on each row of the
    Gram tables of basis_pair_grams: alg.vec_residual of the two sides, so
    NaN where a Gram or a side is not finite or the sides' norms overflow."""
    lhs = alg.act(alg.act(a.value, gram_phi), alg.adjoint(a.value))
    return alg.vec_residual(lhs, alg.act(alg.act(a.co, gram_psi), alg.adjoint(a.co)))


def validate_pair(phi: Mapping, psi: Mapping, a: Coefficient) -> AdditivePair:
    """Check both pair conditions on all basis pairs and build the pair when
    both largest residuals stay at or below PAIR_VALIDATION_TOL, else raise
    PairConditionViolated for the first that does not.

    The tables, over the grid of basis_pair_grams, are hb.orthogonality_residual
    and balance_residuals. Each is NaN by its own rule where it decides
    nothing (an overflow, refused without numpy's warnings), and the maxima
    keep a NaN: exactly zero cross terms pass whatever the Grams do.

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
    worst = [float(np.max(t)) for t in tables]
    for condition, residual in zip(("orthogonality", "balance"), worst):
        if not residual <= PAIR_VALIDATION_TOL:
            raise PairConditionViolated(
                f"{condition} condition fails with residual {residual:.3e}",
                condition=condition,
                residual=residual,
            )
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


class KernelMap(Mapping):
    """A real-linear map Psi: A -> G, a mapping from A^1 to target, stored
    as a real matrix on the real coordinates of alg.to_real, of A^1 in and
    of G out.

    KernelMap(target, matrix) checks the matrix shape and keeps a
    read-only float64 copy of it. The solver's members come from
    KernelMap._wrap, which skips both: each is a read-only view into the
    one array that holds every member of its piece (see
    solve_abiadditive_kernel). evaluate takes each element on its own row
    product, so every row of a batch gets the bits it gets alone.
    """

    __slots__ = ("matrix",)

    def __init__(self, target: ModuleSpace, matrix: np.ndarray):
        dim = target.algebra.dim
        mat = np.array(matrix, dtype=np.float64)
        want = (2 * dim * target.rank, 2 * dim)
        if mat.shape != want:
            raise ShapeError(f"kernel map matrix has shape {mat.shape}, expected {want}")
        mat.flags.writeable = False
        super().__init__(alg.element_space(target.algebra), target)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def _wrap(cls, target, matrix):
        """A map on a read-only float64 matrix of the right shape, taken
        as it is; reserved for arrays this package produced itself."""
        psi = object.__new__(cls)
        Mapping.__init__(psi, alg.element_space(target.algebra), target)
        object.__setattr__(psi, "matrix", matrix)
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
    is scattered into every column of block j of every coordinate of a
    KernelMap's matrix, which makes every member supported on one column
    of one block of one coordinate, and the basis orthonormal in the
    Frobenius inner product. All null vectors of one (coordinate, block
    pair, column) go into one read-only array, in order, whose rows are
    the members' matrices.

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
    solver raises DomainError before pass 2.
    """
    shape = a.value.shape
    if target.algebra != shape:
        raise SpaceMismatch("the kernel target is over another algebra than the coefficient")
    dims = shape.block_dims
    da = shape.dim
    r = target.rank
    actions = (_block_actions(a.value), _block_actions(a.co))
    pairs = [(j, k) for j in range(len(dims)) for k in range(len(dims))]
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

    # input block k is the [re, im] segment offsets[k]..offsets[k + 1] of
    # the real coordinates of A, and of each coordinate of G
    offsets = 2 * np.cumsum((0,) + tuple(n * n for n in dims))
    basis = []
    for i in range(r):
        for j, k, null in nulls:
            nj, nk = dims[j], dims[k]
            null_mats = null.reshape(len(null), 2 * nj, 2 * nk * nk)
            for c in range(nj):
                # [re; im] of column c of block j of coordinate i: its
                # entries (p, c) sit at p * n_j + c of the block's segment
                column = i * 2 * da + offsets[j] + nj * np.arange(nj) + c
                rows = np.concatenate([column, column + nj * nj])
                mats = np.zeros((len(null), 2 * da * r, 2 * da))
                mats[:, rows, offsets[k] : offsets[k + 1]] = null_mats
                mats.flags.writeable = False
                basis += [KernelMap._wrap(target, mat) for mat in mats]
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
    Three real products give both sides of both constraints: r C_x for
    both x at once; Psi of b and of both x b x^* in one product with M^T;
    and the rhs x.Psi(b), L_x applied to each coordinate of Psi(b), since
    G's real coordinates are rank copies of A^1's. The gap lhs - rhs is
    taken in real coordinates too, which is the complex difference bit for
    bit. One alg.from_real reads gap, lhs and rhs back as one stack of
    vectors, one alg.block_norm measures all three, each batch index on
    its own, and alg.scale_free_ratio gives the residuals, NaN where a
    side's norm is inf: the values alg.vec_residual would give, without
    its stacking of the sides. The result is NaN or infinite whenever any
    residual is, so it never passes a bound. Fewer than one input would
    test nothing, so n < 1 raises DomainError; a coefficient over another
    algebra raises SpaceMismatch.
    """
    if n < 1:
        raise DomainError(f"kernel re-verification needs at least one sample, got n={n}")
    if a.value.space != psi.domain:
        raise SpaceMismatch("the coefficient is over another algebra than the kernel map")
    conj, left = a.real_actions
    r = hb.sample_table(psi.domain, seed, n)[:, 0]
    width, rank = r.shape[1], psi.codomain.rank
    # rows n.. are r_i C_value, r_i C_co for each i in turn
    images = np.concatenate([r, (r @ conj).reshape(2 * n, width)]) @ psi.matrix.T
    plain, lhs = images[:n], images[n:]
    rhs = (plain.reshape(n * rank, width) @ left).reshape(n, rank, 2, width)
    # into the row order of lhs, (i, x), each row coordinate-major again
    rhs = rhs.swapaxes(1, 2).reshape(2 * n, rank * width)
    sides = alg.from_real(psi.codomain, np.stack([lhs - rhs, lhs, rhs]))
    residuals = alg.scale_free_ratio(*alg.block_norm(sides.blocks))
    return float(np.max(residuals, initial=0.0))
