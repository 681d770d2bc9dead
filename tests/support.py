"""Shared generators for the test suite.

Structure (shapes, ranks) is drawn by hypothesis; numeric content comes
from seeded numpy generators so shrinking stays meaningful.
"""
import math

import numpy as np
from hypothesis import strategies as st

import cstar_jensen as cj
from cstar_jensen import mappings as mp
from cstar_jensen.identities import IdentityResidual

SHAPES = [(1,), (2,), (1, 1), (2, 1), (3,)]


def random_element(shape, rng, spread=1.0):
    blocks = [
        spread * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        for d in shape.block_dims
    ]
    return cj.AlgebraElement(shape, blocks)


def random_self_adjoint(shape, rng, spread=1.0):
    x = random_element(shape, rng, spread)
    return cj.scale(cj.add(x, cj.adjoint(x)), 0.5)


def random_strict_coefficient(shape, rng):
    """Self-adjoint with spectrum inside [0.15, 0.85] on every block."""
    blocks = []
    for d in shape.block_dims:
        lam = rng.uniform(0.15, 0.85, d)
        q, _ = np.linalg.qr(
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        )
        blocks.append((q * lam) @ q.conj().T)
    return cj.validate_coefficient(
        cj.AlgebraElement(shape, blocks), require_strict_order=True
    )


def random_affine(domain, codomain, rng, spread=0.7):
    coeffs = [
        [random_element(domain.algebra, rng, spread) for _ in range(codomain.rank)]
        for _ in range(domain.rank)
    ]
    const = cj.sample_vector(codomain, rng)
    return cj.compose_jensen(cj.Linear(coeffs), None, const)


class Worst:
    """The per-row fold the checks once ran, kept as the oracle of _fold:
    residuals fed one at a time, keeping the first NaN, else the first
    largest value, with the input that produced it."""

    def __init__(self):
        self.value = 0.0
        self.where = None
        self.count = 0

    def update(self, residual, describe):
        # a NaN compares false against everything; once seen it stays the
        # worst value, so the check fails
        self.count += 1
        if residual > self.value or self.where is None or (
            residual != residual and self.value == self.value
        ):
            self.value = residual
            self.where = describe()

    def result(self, identity_id, tol):
        return IdentityResidual(
            identity_id, self.count, self.value, self.where, self.value <= tol
        )


def folded(residuals):
    """The table _fold reads, row by row with tuple columns in tuple order."""
    columns = residuals if isinstance(residuals, tuple) else (residuals,)
    return np.column_stack(columns).ravel().tolist()


def seeds():
    return st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def shape_and_seed(draw):
    dims = draw(st.sampled_from(SHAPES))
    return cj.AlgebraShape(dims), draw(seeds())


# ---------------------------------------------------------------------------
# Reference arithmetic, one (n, n) block at a time.
#
# A vector here is a list of coordinates, each an AlgebraElement of (n, n)
# blocks, and every operation loops over coordinates and blocks: products
# one matrix at a time, sums over coordinates in coordinate order, the
# C*-norm as abs of a 1x1 block or svd[0] of a larger one, and the module
# norm as the float ** 0.5. The library's array operations must give these
# values bit for bit, on one vector and on every row of a stack.


def row(xs, s):
    """Row s of a stack, as a vector of its own."""
    return cj.ModuleVector._wrap(xs.space, tuple(b[s] for b in xs.blocks))


def coords(x):
    """The coordinates of one vector, as AlgebraElements of (n, n) blocks."""
    assert x.batch == ()
    return [
        cj.AlgebraElement._wrap(x.space.algebra, tuple(b[i] for b in x.blocks))
        for i in range(x.space.rank)
    ]


def coord_bits(cs):
    """The bits of every block of a coordinate list, for exact comparison."""
    return [b.view(np.int64).tolist() for c in cs for b in c.blocks]


def ref_cstar_norm(blocks):
    best = 0.0
    for b in blocks:
        if b.shape[0] == 1:
            v = abs(b[0, 0])
        else:
            try:
                v = np.linalg.svd(b, compute_uv=False)[0]
            except np.linalg.LinAlgError:
                v = math.nan
        if v > best:
            best = float(v)
        elif v != v:
            best = math.nan
            break
    if best < math.inf:
        return best
    return math.nan if any(np.isnan(b).any() for b in blocks) else math.inf


def ref_inner(xc, yc):
    shape = xc[0].shape
    out = []
    for k in range(len(shape.block_dims)):
        acc = xc[0].blocks[k] @ yc[0].blocks[k].conj().T
        for i in range(1, len(xc)):
            acc = acc + xc[i].blocks[k] @ yc[i].blocks[k].conj().T
        out.append(acc)
    return cj.AlgebraElement._wrap(shape, tuple(out))


def ref_module_norm(xc):
    return ref_cstar_norm(ref_inner(xc, xc).blocks) ** 0.5


def ref_add(xc, yc):
    return [cj.add(a, b) for a, b in zip(xc, yc)]


def ref_sub(xc, yc):
    return [cj.sub(a, b) for a, b in zip(xc, yc)]


def ref_act(b, xc):
    return [
        cj.AlgebraElement._wrap(b.shape, tuple(m @ n for m, n in zip(b.blocks, c.blocks)))
        for c in xc
    ]


def ref_residual(lhs, rhs):
    return ref_module_norm(ref_sub(lhs, rhs)) / (
        1.0 + ref_module_norm(lhs) + ref_module_norm(rhs)
    )


def ref_is_orthogonal(xc, yc, tol=1e-9):
    return ref_cstar_norm(ref_inner(xc, yc).blocks) <= tol * (
        1.0 + ref_module_norm(xc) * ref_module_norm(yc)
    )


def ref_evaluate(f, xc, space):
    """f at the vector of space with coordinates xc, one coordinate at a time
    for the library's mapping kinds; a plain callable gets the vector."""
    if isinstance(f, cj.Linear):
        out = []
        for j in range(f.codomain.rank):
            acc = cj.mul(xc[0], f.coeffs[0][j])
            for i in range(1, f.domain.rank):
                acc = cj.add(acc, cj.mul(xc[i], f.coeffs[i][j]))
            out.append(acc)
        return out
    if isinstance(f, mp.Sum):
        out = ref_evaluate(f.children[0], xc, space)
        for child in f.children[1:]:
            out = ref_add(out, ref_evaluate(child, xc, space))
        return out
    if isinstance(f, mp.Constant):
        return coords(f.value)
    if isinstance(f, mp.QuadDiag):
        k = ref_inner(xc, xc)
        return ref_act(cj.scale(cj.add(k, k), f.scale), coords(f.g))
    if isinstance(f, mp.Bump):
        if ref_module_norm(ref_sub(xc, coords(f.site))) < f.radius:
            return coords(f.delta)
        return coords(f.codomain.zero())
    assert not isinstance(f, cj.Mapping), type(f)
    return coords(f(cj.ModuleVector(space, xc)))


# ---------------------------------------------------------------------------
# Oracles for pair validation and kernel re-verification: the per-element
# code the library ran before it worked on stacks, kept verbatim.


def ref_pair_condition_tables(phi, psi, a):
    """Both pair-condition residuals of every basis pair (i, j), row-major:
    phi and psi on one basis vector at a time, one inner product and one
    product per pair, and NaN in both tables where an intermediate is not
    finite."""
    f_space = phi.domain
    phis = [phi(f_space.basis_vector(i)) for i in range(f_space.rank)]
    psis = [psi(f_space.basis_vector(i)) for i in range(f_space.rank)]
    a_star = cj.adjoint(a.value)
    co_star = cj.adjoint(a.co)
    orth, balance = [], []
    for i in range(f_space.rank):
        for j in range(f_space.rank):
            cross = cj.inner_product(phis[i], psis[j])
            gram_phi = cj.inner_product(phis[i], phis[j])
            gram_psi = cj.inner_product(psis[i], psis[j])
            lhs = cj.mul(cj.mul(a.value, gram_phi), a_star)
            rhs = cj.mul(cj.mul(a.co, gram_psi), co_star)
            if not all(
                np.isfinite(b).all()
                for x in (cross, gram_phi, gram_psi, lhs, rhs)
                for b in x.blocks
            ):
                orth.append(math.nan)
                balance.append(math.nan)
                continue
            orth.append(
                cj.cstar_norm(cross)
                / (1.0 + cj.module_norm(phis[i]) * cj.module_norm(psis[j]))
            )
            balance.append(cj.residual(lhs, rhs))
    return orth, balance


def ref_pair_condition_residuals(phi, psi, a):
    orth, balance = ref_pair_condition_tables(phi, psi, a)
    return float(np.max(orth)), float(np.max(balance))


def ref_stacked_module_norms(blocks):
    """Module norms by eigvalsh of one (S, rank, n, n) array per block."""
    top = None
    for x in blocks:
        s, rank, n, _ = x.shape
        wide = x.transpose(0, 2, 1, 3).reshape(s, n, rank * n)
        gram = wide @ wide.conj().transpose(0, 2, 1)
        if n == 1:
            block_top = np.abs(gram[:, 0, 0])
        else:
            block_top = np.linalg.eigvalsh(gram)[:, -1]
        top = block_top if top is None else np.maximum(top, block_top)
    return np.sqrt(top)


def ref_kernel_constraint_residual(psi, a, n=20, seed=0):
    """The raw-array re-verification: n sample_vector draws from one
    generator, psi applied through its [re; im] matrix in one product."""
    rng = np.random.default_rng(seed)
    space_one = cj.ModuleSpace(psi.shape, 1)
    draws = [cj.sample_vector(space_one, rng) for _ in range(n)]
    dims = psi.shape.block_dims
    r = psi.target.rank
    inputs = []
    for k, m in enumerate(dims):
        b = np.array([d.blocks[k][0] for d in draws], dtype=np.complex128).reshape(n, m, m)
        xa, xc = a.value.blocks[k], a.co.blocks[k]
        inputs.append(np.concatenate([b, xa @ b @ xa.conj().T, xc @ b @ xc.conj().T]))
    cv = np.concatenate([x.reshape(3 * n, m * m) for x, m in zip(inputs, dims)], axis=1)
    out = np.concatenate([cv.real, cv.imag], axis=1) @ psi.matrix.T
    half = out.shape[1] // 2
    values = (out[:, :half] + 1j * out[:, half:]).reshape(3, n, r, psi.shape.dim)
    offsets = np.cumsum((0,) + tuple(m * m for m in dims))
    images = [
        values[..., offsets[k] : offsets[k + 1]].reshape(3, n, r, m, m)
        for k, m in enumerate(dims)
    ]
    stacks = []
    for img, xa, xc, m in zip(images, a.value.blocks, a.co.blocks, dims):
        lhs = img[1:]
        rhs = np.stack([xa @ img[0], xc @ img[0]])
        stacks.append(np.stack([lhs - rhs, lhs, rhs], axis=1).reshape(-1, r, m, m))
    norms = ref_stacked_module_norms(stacks).reshape(2, 3, n)
    residuals = norms[:, 0] / (1.0 + norms[:, 1] + norms[:, 2])
    return float(np.max(residuals, initial=0.0))
