"""Constructors for mappings between module spaces and for orthogonal pairs.

Mappings form a small expression tree: module-linear maps given by a right
coefficient matrix, diagonals of inner-product quadratic forms, constants,
sums and pointwise bump perturbations. The tree serializes to a tagged JSON
union so scenarios can describe mappings on disk.

The pair machinery realizes triples (phi, psi, a) with

    <phi(z), psi(w)> = 0
    a <phi(z), phi(w)> a^* = (1-a) <psi(z), psi(w)> (1-a)^*

checked on all pairs of module basis vectors: phi and psi are evaluated
once, on the stack of basis vectors, and both conditions as one table over
the row-major grid of basis pairs (basis_pair_grams). For module-linear
phi, psi and central a this extends to arbitrary arguments; see
validate_pair.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra as alg
from . import hilbert as hb
from .algebra import AlgebraElement, AlgebraShape, Coefficient
from .errors import (
    DomainError,
    PairConditionViolated,
    ShapeError,
    SpaceMismatch,
    ValidationError,
    require_field,
)
from .hilbert import ModuleSpace, ModuleVector

# pair conditions must hold on basis vectors within this residual
PAIR_VALIDATION_TOL = 1e-10
# unitary equivalence predicate tolerance
UNITARY_TOL = 1e-9
# kernel solutions must re-verify their intertwining constraints within this
KERNEL_RESIDUAL_TOL = 1e-8


class Mapping:
    """Base class; subclasses implement evaluate().

    evaluate takes one vector or a stack of them (see hilbert) and gives
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
    """T(x)_j = sum_i x_i C[i][j]; module-linear for the left action."""

    __slots__ = ("coeffs", "_blocks")

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
        object.__setattr__(self, "coeffs", rows)
        # per algebra block, C[i][j] at [i, j]: shape (rank in, rank out, n, n)
        object.__setattr__(
            self,
            "_blocks",
            tuple(
                np.array([[entry.blocks[k] for entry in row] for row in rows])
                for k in range(len(shape.block_dims))
            ),
        )

    def evaluate(self, x: ModuleVector) -> ModuleVector:
        out = []
        for v, c in zip(x.blocks, self._blocks):
            # terms[..., i, j] = x_i C[i][j], summed over i in order
            terms = v[..., :, None, :, :] @ c
            acc = terms[..., 0, :, :, :]
            for i in range(1, self.domain.rank):
                acc = acc + terms[..., i, :, :, :]
            out.append(acc)
        return ModuleVector._wrap(self.codomain, tuple(out))


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
        super().__init__(domain, g.space)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "scale", float(scale.real))

    def evaluate(self, x: ModuleVector) -> ModuleVector:
        return self.bimap(x, x)

    def bimap(self, x: ModuleVector, y: ModuleVector) -> ModuleVector:
        """B(x, y) = scale * (<x, y> + <y, x>) . g, symmetric and biadditive."""
        k = alg.add(hb.inner_product(x, y), hb.inner_product(y, x))
        return hb.act(alg.scale(k, self.scale), self.g)


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
            out = hb.vec_add(out, child.evaluate(x))
        return out


class Bump(Mapping):
    """delta inside the hard ball ||x - site|| < radius, zero outside."""

    __slots__ = ("site", "delta", "radius")

    def __init__(self, site: ModuleVector, delta: ModuleVector, radius: float):
        radius = float(radius)
        if radius <= 0.0:
            raise DomainError("bump radius must be positive")
        super().__init__(site.space, delta.space)
        object.__setattr__(self, "site", site)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "radius", radius)

    def evaluate(self, x: ModuleVector) -> ModuleVector:
        inside = np.asarray(hb.module_norm(hb.vec_sub(x, self.site)) < self.radius)
        mask = inside[..., None, None, None]
        return ModuleVector._wrap(
            self.codomain, tuple(np.where(mask, d, 0.0) for d in self.delta.blocks)
        )


def zero_linear(domain: ModuleSpace, codomain: ModuleSpace) -> Linear:
    z = alg.zero(domain.algebra)
    return Linear([[z] * codomain.rank for _ in range(domain.rank)])


def compose_jensen(
    additive: Mapping, quad_diag: Mapping | None, constant: ModuleVector
) -> Mapping:
    """f = additive + quad_diag + constant; quad_diag may be omitted."""
    children = [additive]
    if quad_diag is not None:
        children.append(quad_diag)
    children.append(Constant(additive.domain, constant))
    return Sum(children)


def perturb(
    f: Mapping, site: ModuleVector, delta: ModuleVector, radius: float
) -> Mapping:
    """f plus a hard bump of height delta around site."""
    return Sum([f, Bump(site, delta, radius)])


# ---------------------------------------------------------------------------
# mapping (de)serialization


def mapping_to_obj(f: Mapping) -> dict:
    if isinstance(f, Linear):
        return {
            "kind": "linear",
            "coeffs": [[c.to_obj() for c in row] for row in f.coeffs],
        }
    if isinstance(f, Sum):
        return {"kind": "sum", "children": [mapping_to_obj(c) for c in f.children]}
    if isinstance(f, Constant):
        return {"kind": "constant", "value": f.value.to_obj()}
    if isinstance(f, QuadDiag):
        return {"kind": "quad_diag", "g": f.g.to_obj(), "scale": f.scale}
    if isinstance(f, Bump):
        return {
            "kind": "perturb",
            "site": f.site.to_obj(),
            "delta": f.delta.to_obj(),
            "radius": f.radius,
        }
    raise ValidationError(f"cannot serialize mapping of type {type(f).__name__}")


def mapping_from_obj(
    obj, domain: ModuleSpace, codomain: ModuleSpace
) -> Mapping:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError("mapping object needs a 'kind' tag")
    kind = obj["kind"]

    def get(name):
        return require_field(obj, name, f"{kind} mapping")

    if kind == "linear":
        f = Linear([[alg.element_from_obj(c) for c in row] for row in get("coeffs")])
    elif kind == "sum":
        f = Sum(mapping_from_obj(c, domain, codomain) for c in get("children"))
    elif kind == "constant":
        f = Constant(domain, hb.vector_from_obj(get("value"), codomain))
    elif kind == "quad_diag":
        f = QuadDiag(domain, hb.vector_from_obj(get("g"), codomain), get("scale"))
    elif kind == "perturb":
        f = Bump(
            hb.vector_from_obj(get("site"), domain),
            hb.vector_from_obj(get("delta"), codomain),
            get("radius"),
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
    """A validated triple (phi, psi, a) between F and E.

    orth_residual and balance_residual are the largest residuals seen while
    checking the two pair conditions over all basis pairs. validated is only
    set by validate_pair, and only when both stay at or below
    PAIR_VALIDATION_TOL.
    """

    phi: Mapping
    psi: Mapping
    coefficient: Coefficient
    validated: bool
    orth_residual: float
    balance_residual: float


def basis_pair_grams(phi: Mapping, psi: Mapping):
    """phi and psi on the stack of F's basis vectors, and the tables
    (<phi(e_i), psi(e_j)>, <phi(e_i), phi(e_j)>, <psi(e_i), psi(e_j)>) over
    the row-major grid of basis pairs: row k of each is the pair
    (i, j) = divmod(k, rank)."""
    rank = phi.domain.rank
    basis = phi.domain.basis()
    phis, psis = phi(basis), psi(basis)
    i, j = np.divmod(np.arange(rank * rank), rank)
    grams = tuple(
        hb.inner_product(x.row(i), y.row(j)) for x, y in ((phis, psis), (phis, phis), (psis, psis))
    )
    return phis, psis, grams


def pair_condition_residuals(
    phi: Mapping, psi: Mapping, a: Coefficient
) -> tuple[float, float]:
    """Largest residual of each pair condition over module basis pairs,
    evaluated as one table over the grid of basis_pair_grams.

    A pair whose inner products or products are not finite (an overflow)
    gets NaN in both tables, since the norms would hide it, and the maxima
    keep a NaN.
    """
    phis, psis, (cross, gram_phi, gram_psi) = basis_pair_grams(phi, psi)
    lhs = alg.mul(alg.mul(a.value, gram_phi), alg.adjoint(a.value))
    rhs = alg.mul(alg.mul(a.co, gram_psi), alg.adjoint(a.co))
    finite = np.logical_and.reduce([
        np.isfinite(b).all(axis=(-2, -1))
        for x in (cross, gram_phi, gram_psi, lhs, rhs)
        for b in x.blocks
    ])
    # ||phi(e_i)|| ||psi(e_j)||; the outer product ravels to the same grid
    norm_phi, norm_psi = hb.module_norm(hb.stack_vectors(phi.codomain, [phis, psis])).reshape(2, -1)
    orth = alg.cstar_norm(cross) / (1.0 + np.multiply.outer(norm_phi, norm_psi).ravel())
    balance = alg.residual(lhs, rhs)
    return tuple(float(np.max(np.where(finite, t, math.nan))) for t in (orth, balance))


def validate_pair(phi: Mapping, psi: Mapping, a: Coefficient) -> AdditivePair:
    """Check both pair conditions on all basis pairs and certify the triple
    when both residuals stay at or below PAIR_VALIDATION_TOL.

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
    worst = pair_condition_residuals(phi, psi, a)
    for condition, residual in zip(("orthogonality", "balance"), worst):
        if not residual <= PAIR_VALIDATION_TOL:
            raise PairConditionViolated(
                f"{condition} condition fails with residual {residual:.3e}",
                condition=condition,
                residual=residual,
            )
    return AdditivePair(phi, psi, a, True, *worst)


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
    shape = AlgebraShape((1,))
    one = alg.unit(shape)
    z = alg.zero(shape)
    half = n // 2
    phi_c = [[z] * n for _ in range(half)]
    psi_c = [[z] * n for _ in range(half)]
    for i in range(half):
        phi_c[i][2 * i] = alg.scale(one, 1.0 / (1.0 - p))
        psi_c[i][2 * i + 1] = alg.scale(one, 1.0 / p)
    a = alg.validate_coefficient(alg.scale(one, 1.0 - p), require_strict_order=True)
    return validate_pair(Linear(phi_c), Linear(psi_c), a)


def morphism_shift_pair(shape: AlgebraShape, m: int) -> AdditivePair:
    """psi includes F = A^m as the first m coordinates of E = A^2m, phi
    shifts it into the last m, and the coefficient is (1/2) * 1.

    phi preserves inner products: <phi(x), phi(y)> = <x, y> exactly.
    """
    if m < 1:
        raise DomainError(f"rank must be positive, got {m}")
    one = alg.unit(shape)
    z = alg.zero(shape)
    phi_c = [[z] * (2 * m) for _ in range(m)]
    psi_c = [[z] * (2 * m) for _ in range(m)]
    for i in range(m):
        phi_c[i][m + i] = one
        psi_c[i][i] = one
    a = alg.validate_coefficient(alg.scale(one, 0.5), require_strict_order=True)
    return validate_pair(Linear(phi_c), Linear(psi_c), a)


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
    prod = alg.mul(
        alg.mul(a.co_inv, alg.mul(a.value, alg.adjoint(a.value))),
        alg.adjoint(a.co_inv),
    )
    d_blocks = []
    for b in prod.blocks:
        eigvals, eigvecs = np.linalg.eigh(0.5 * (b + b.conj().T))
        if eigvals[0] <= 0.0:
            raise DomainError("balance operator must stay positive definite")
        d_blocks.append(
            (eigvecs * np.sqrt(eigvals)) @ eigvecs.conj().T
        )
    d = AlgebraElement._wrap(shape, tuple(np.ascontiguousarray(b) for b in d_blocks))
    one = alg.unit(shape)
    z = alg.zero(shape)
    phi_c = [[z] * e_rank for _ in range(f_rank)]
    psi_c = [[z] * e_rank for _ in range(f_rank)]
    for i in range(f_rank):
        phi_c[i][i] = one
        psi_c[i][f_rank + i] = d
    return validate_pair(Linear(phi_c), Linear(psi_c), a)


# ---------------------------------------------------------------------------
# adjointable maps and unitary equivalence


def adjoint_map(u: Linear) -> Linear:
    """The adjoint of a module-linear map: <u x, y> = <x, u* y>.

    With right coefficient matrices this is the blockwise conjugate
    transpose of the matrix, transposed as a matrix of blocks.
    """
    rows = u.codomain.rank
    cols = u.domain.rank
    coeffs = [
        [alg.adjoint(u.coeffs[i][j]) for i in range(cols)] for j in range(rows)
    ]
    return Linear(coeffs)


def check_unitary_equivalence(u: Linear) -> bool:
    """True when u* u and u u* are both identities within UNITARY_TOL: each
    round trip, applied to the stack of basis vectors of its space, gives
    back every coordinate of every basis vector within that residual."""
    u_star = adjoint_map(u)
    for space, there, back in ((u.domain, u, u_star), (u.codomain, u_star, u)):
        basis = space.basis()
        image = back(there(basis))
        for got, want in zip(image.coords, basis.coords):
            if not (alg.residual(got, want) <= UNITARY_TOL).all():
                return False
    return True


# ---------------------------------------------------------------------------
# a-biadditive kernel solver


def _real_matrix(mc: np.ndarray) -> np.ndarray:
    """Real 2d x 2d matrix of a complex-linear map acting on [re; im]."""
    return np.block([[mc.real, -mc.imag], [mc.imag, mc.real]])


def _block_actions(x: AlgebraElement):
    """Per block of x, the real matrices of b -> x b x^* and of b -> x b.

    Both act on [re; im] of the row-major vec of one block b, where
    vec(x b x^*) = kron(x, conj(x)) vec(b) and vec(x b) = kron(x, I) vec(b).
    """
    conj, left = [], []
    for m in x.blocks:
        conj.append(_real_matrix(np.kron(m, m.conj())))
        left.append(_real_matrix(np.kron(m, np.eye(m.shape[0]))))
    return conj, left


def _real_positions(offset: int, size: int, half: int) -> np.ndarray:
    """Where size complex entries starting at offset sit in an [re; im]
    stack whose real half has length half."""
    idx = np.arange(offset, offset + size)
    return np.concatenate([idx, half + idx])


class KernelMap:
    """A real-linear map Psi: A -> G stored as a matrix on [re; im] stacks."""

    __slots__ = ("shape", "target", "matrix")

    def __init__(self, shape: AlgebraShape, target: ModuleSpace, matrix: np.ndarray):
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "target", target)
        mat = np.array(matrix, dtype=np.float64)
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    def __setattr__(self, name, value):
        raise AttributeError("KernelMap is immutable")

    def __call__(self, b: AlgebraElement) -> ModuleVector:
        """Psi(b), the one place that knows the [re; im] layout; a batch of
        elements gives a stack.

        A batch goes through one matrix product. Its rows equal Psi of each
        element alone bit for bit for the solver's block-sparse members on
        every tested size, but for a dense matrix they can differ in the
        last bit, because BLAS sums a matrix product in another order than
        a matrix-vector product.
        """
        if b.shape != self.shape:
            raise ShapeError("argument algebra does not match the kernel map")
        batch = b.blocks[0].shape[:-2]
        rank, dims = self.target.rank, self.shape.block_dims
        cv = np.concatenate([m.reshape(batch + (n * n,)) for m, n in zip(b.blocks, dims)], -1)
        out = np.concatenate([cv.real, cv.imag], -1) @ self.matrix.T
        half = out.shape[-1] // 2
        values = (out[..., :half] + 1j * out[..., half:]).reshape(batch + (rank, self.shape.dim))
        offsets = np.cumsum((0,) + tuple(n * n for n in dims))
        return ModuleVector._wrap(
            self.target,
            tuple(
                values[..., offsets[k] : offsets[k + 1]].reshape(batch + (rank, n, n))
                for k, n in enumerate(dims)
            ),
        )

    def bimap(self, x: ModuleVector, y: ModuleVector) -> ModuleVector:
        """Lift to B(x, y) = Psi(<x, y> + <y, x>), symmetric and biadditive."""
        k = alg.add(hb.inner_product(x, y), hb.inner_product(y, x))
        return self(k)


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
    so every output coordinate carries a copy of the rank-1 kernel; and a
    is block-diagonal, so each piece Psi_jk: M_{n_k} -> M_{n_j} of one
    coordinate is constrained on its own. Each block pair gives one small
    real-linear system, solved once by SVD; the null vectors are scattered
    into the full [re; im] layout of a KernelMap, which makes the basis
    block-sparse and orthonormal in the Frobenius inner product.

    The whole system is, up to a permutation, block-diagonal over these
    pieces, so its singular values are theirs. The rank rule is the
    standard one for the whole M x N system: a singular value counts as
    zero at or below max(M, N) * eps * (largest singular value). A
    threshold relative to each piece alone would call a piece that
    vanishes to rounding level full rank.

    Dimension 0 means only Psi = 0, hence no quadratic kernel of the
    inner-product form is a-biadditive for this coefficient.
    """
    shape = a.value.shape
    dims = shape.block_dims
    da = shape.dim
    r = target.rank
    conj_a, left_a = _block_actions(a.value)
    conj_co, left_co = _block_actions(a.co)

    pieces = []
    for j, nj in enumerate(dims):
        eye_out = np.eye(2 * nj * nj)
        for k, nk in enumerate(dims):
            eye_in = np.eye(2 * nk * nk)
            # Psi M - R Psi = 0 row-vectorizes to (I (x) M^T - R (x) I) vec(Psi) = 0.
            system = np.vstack([
                np.kron(eye_out, conj_a[k].T) - np.kron(left_a[j], eye_in),
                np.kron(eye_out, conj_co[k].T) - np.kron(left_co[j], eye_in),
            ])
            _, s, vh = np.linalg.svd(system, full_matrices=False)
            pieces.append((j, k, s, vh))

    unknowns = (2 * da * r) * (2 * da)
    sigma_max = max(s[0] for _, _, s, _ in pieces)
    threshold = 2 * unknowns * np.finfo(np.float64).eps * sigma_max
    values = np.concatenate([s for _, _, s, _ in pieces])
    kept = values[values > threshold]
    dropped = values[values <= threshold]

    offsets = np.cumsum((0,) + tuple(n * n for n in dims))
    basis = []
    for i in range(r):
        for j, k, s, vh in pieces:
            rows = _real_positions(i * da + offsets[j], dims[j] ** 2, da * r)
            cols = _real_positions(offsets[k], dims[k] ** 2, da)
            for v in vh[np.count_nonzero(s > threshold) :]:
                mat = np.zeros((2 * da * r, 2 * da))
                mat[np.ix_(rows, cols)] = v.reshape(rows.size, cols.size)
                basis.append(KernelMap(shape, target, mat))
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

    The n inputs b are the successive draws of one generator on A^1, one
    stack; psi is applied once, to b, a b a^* and (1-a) b (1-a)^* together.
    The result is NaN or infinite whenever any residual is, so it never
    passes a bound.
    """
    space_one = ModuleSpace(psi.shape, 1)
    (b,) = hb.stack_vectors(space_one, hb.sample_stacks(space_one, [seed], n)).coords
    inputs = [b] + [alg.mul(alg.mul(x, b), alg.adjoint(x)) for x in (a.value, a.co)]
    per_block = zip(*(x.blocks for x in inputs))
    images = psi(AlgebraElement._wrap(psi.shape, tuple(np.concatenate(c) for c in per_block)))
    # rows n..3n are lhs of the two constraints, in order
    plain, lhs = images.row(slice(n)), images.row(slice(n, None))
    rhs = hb.stack_vectors(psi.target, [hb.act(a.value, plain), hb.act(a.co, plain)])
    stack = hb.stack_vectors(psi.target, [hb.vec_sub(lhs, rhs), lhs, rhs])
    gap, lhs_norm, rhs_norm = hb.stacked_module_norms(stack).reshape(3, 2 * n)
    return float(np.max(gap / (1.0 + lhs_norm + rhs_norm), initial=0.0))
