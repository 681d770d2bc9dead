"""Shared generators for the test suite.

Structure (shapes, ranks) is drawn by hypothesis; numeric content comes
from seeded numpy generators so shrinking stays meaningful.
"""
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import cstar_jensen as cj
from cstar_jensen import algebra as alg
from cstar_jensen import identities as idn
from cstar_jensen import mappings as mp
from cstar_jensen.errors import InvalidMode
from cstar_jensen.identities import CHECK_IDS, IdentityResidual
from cstar_jensen.jsonutil import format_float

SHAPES = [(1,), (2,), (1, 1), (2, 1), (3,)]

# the scenario authoring tool, which the package never imports
MAKE_SCENARIOS = Path(__file__).resolve().parent.parent / "tools" / "make_scenarios.py"

_spec = importlib.util.spec_from_file_location("make_scenarios", MAKE_SCENARIOS)
_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tool)
mapping_to_obj = _tool.mapping_to_obj


def wide_scenario_obj():
    """A scenario over M_4 with E = A^8, built like the bundled
    morphism_shift: the shift pair from F = A^4, coefficient 1/2, every
    check, and a seeded random affine map to G = A^2. Its wide matrices are
    4 x 32."""
    shape = cj.AlgebraShape((4,))
    rng = np.random.default_rng(1004)
    f = _tool._random_affine(cj.ModuleSpace(shape, 8), cj.ModuleSpace(shape, 2), rng)
    return {
        "algebra": [4],
        "coefficient": {**cj.vec_scale(cj.unit(shape), 0.5).to_obj(), "strict_order": True},
        "spaces": {"F": 4, "E": 8, "G": 2},
        "pair": {"builder": "morphism_shift"},
        "mappings": [{"label": "affine", "map": mapping_to_obj(f)}],
        "checks": list(CHECK_IDS),
        "samples": 40,
        "seed": 7,
        "tol": 1e-9,
    }


def random_element(shape, rng, spread=1.0):
    blocks = [
        spread * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        for d in shape.block_dims
    ]
    return cj.AlgebraElement(shape, blocks)


def random_self_adjoint(shape, rng, spread=1.0):
    x = random_element(shape, rng, spread)
    return cj.vec_scale(cj.vec_add(x, cj.adjoint(x)), 0.5)


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


class GridLinear(cj.Linear):
    """A Linear map that keeps the coefficient grid the test built it from,
    so that the oracles below never read the coefficients back out of the
    map they check."""

    __slots__ = ("grid",)

    def __init__(self, grid):
        super().__init__(grid)
        object.__setattr__(self, "grid", grid)


def zero_map(domain, codomain):
    """The zero Linear map from domain to codomain."""
    z = cj.zero(domain.algebra)
    return GridLinear([[z] * codomain.rank for _ in range(domain.rank)])


def random_affine(domain, codomain, rng, spread=0.7):
    coeffs = [
        [random_element(domain.algebra, rng, spread) for _ in range(codomain.rank)]
        for _ in range(domain.rank)
    ]
    const = cj.sample_vector(codomain, rng)
    return cj.compose_jensen(GridLinear(coeffs), None, const)


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
# Reference arithmetic, one vector at a time.
#
# A vector here is the list of its wide matrices, one contiguous 2-D
# (n, rank * n) array per block (wide(x) of a library vector), and every
# operation is one 2-D matrix product per block: <x, y> is X @ Y^*, b.x is
# b @ X, a Linear map is X @ T_k with T_k assembled sub-block by sub-block
# from its coefficient grid, and the module norm is the square root of the
# top eigenvalue of each block's Gram X X^*. The C*-norm is the same rule
# on square blocks, ||c|| = ||c c^*||^(1/2). The library's array
# operations must give these values bit for bit, on one vector and on
# every row of a stack; the SVD is an accuracy oracle only.
#
# coord_order_inner and coord_order_linear keep the per-coordinate sums the
# library ran before it stored wide matrices. They sum in another order, so
# they are accuracy oracles only, within within_summation_bound.


def row(xs, s):
    """Row s of a stack, as a vector of its own."""
    return cj.ModuleVector._wrap(xs.space, tuple(b[s] for b in xs.blocks))


def wide(x):
    """The wide matrices of one vector, one contiguous (n, rank * n) array
    per block."""
    assert x.batch == ()
    return [np.ascontiguousarray(b) for b in x.blocks]


def wide_bits(xw):
    """The bits of every wide matrix of a vector, for exact comparison."""
    return [b.view(np.int64).tolist() for b in xw]


def ref_inner(xw, yw, shape):
    return cj.AlgebraElement._wrap(
        cj.ModuleSpace(shape, 1), tuple(a @ b.conj().T for a, b in zip(xw, yw))
    )


def transfer_matrices(grid):
    """T_k of the Linear map with coefficient grid C per block: C[i][j]'s
    block k placed at rows i*n..(i+1)*n-1 and columns j*n..(j+1)*n-1."""
    out = []
    for k, n in enumerate(grid[0][0].shape.block_dims):
        t = np.zeros((len(grid) * n, len(grid[0]) * n), dtype=np.complex128)
        for i, row_ in enumerate(grid):
            for j, entry in enumerate(row_):
                t[i * n : (i + 1) * n, j * n : (j + 1) * n] = entry.blocks[k]
        out.append(t)
    return out


def coord_order_inner(xw, yw):
    """sum_i x_i y_i^* per block, one n x n product per coordinate, summed
    in coordinate order."""
    out = []
    for a, b in zip(xw, yw):
        n = a.shape[0]
        acc = a[:, :n] @ b[:, :n].conj().T
        for i in range(1, a.shape[1] // n):
            cols = slice(i * n, (i + 1) * n)
            acc = acc + a[:, cols] @ b[:, cols].conj().T
        out.append(acc)
    return out


def coord_order_linear(grid, xw):
    """T(x)_j = sum_i x_i C[i][j] per block for the coefficient grid C, one
    n x n product per term, summed in coordinate order."""
    out = []
    for k, a in enumerate(xw):
        n = a.shape[0]
        columns = []
        for j in range(len(grid[0])):
            acc = a[:, :n] @ grid[0][j].blocks[k]
            for i in range(1, len(grid)):
                acc = acc + a[:, i * n : (i + 1) * n] @ grid[i][j].blocks[k]
            columns.append(acc)
        out.append(np.concatenate(columns, axis=1))
    return out


def within_summation_bound(got, want, left, right):
    """|got - want| <= 2 gamma_{m+2} (|left| |right|) elementwise, with m the
    summed length, u = eps / 2 and gamma_k = k u / (1 - k u).

    Each of two computed complex products left @ right, summed in any order,
    lies within gamma_{m+2} |left| |right| of the exact one (Higham,
    Accuracy and Stability of Numerical Algorithms, sec. 3.6), so two
    summation orders differ by at most twice that.
    """
    m = left.shape[-1]
    u = np.finfo(np.float64).eps / 2
    gamma = (m + 2) * u / (1 - (m + 2) * u)
    bound = 2 * gamma * (np.abs(left) @ np.abs(right))
    return bool(np.all(np.abs(got - want) <= bound))


def ref_module_norm(xw):
    """The module norm of one vector from its wide matrices. Per block, the
    Gram X X^* by one matrix product, and its top eigenvalue: the real part
    of a 1x1 Gram, (a+d)/2 + |((a-d)/2, |b|)| of a 2x2 one [[a, b], [b^*, d]]
    (abs of a complex is libm hypot), eigvalsh of a larger one. The norm is
    the square root of the largest. A vector holding NaN gives NaN; else
    one holding inf gives inf; a finite one whose Gram is not finite is
    divided by the largest power of two at or below its largest real or
    imaginary part, and its norm is that power times the quotient's. The
    Grams are formed without numpy's invalid and overflow warnings, as the
    library forms them, since such inputs are handled here."""
    if any(np.isnan(b).any() for b in xw):
        return math.nan
    with np.errstate(invalid="ignore", over="ignore"):
        grams = [b @ b.conj().T for b in xw]
    if not all(np.isfinite(g).all() for g in grams):
        if not all(np.isfinite(b).all() for b in xw):
            return math.inf
        top = max(max(np.abs(b.real).max(), np.abs(b.imag).max()) for b in xw)
        power = 2.0 ** (math.frexp(top)[1] - 1)
        return power * ref_module_norm([b / power for b in xw])
    best = 0.0
    for g in grams:
        if g.shape[0] == 1:
            top = g[0, 0].real
        elif g.shape[0] == 2:
            a, d = float(g[0, 0].real), float(g[1, 1].real)
            top = (a + d) / 2 + abs(complex((a - d) / 2, abs(complex(g[0, 1]))))
        else:
            top = np.linalg.eigvalsh(g)[-1]
        best = max(best, float(top))
    return math.sqrt(best)


def ref_cstar_norm(blocks):
    """The C*-norm of one element from its 2-D blocks: its module norm as a
    vector of A^1."""
    return ref_module_norm(blocks)


def ref_add(xw, yw):
    return [a + b for a, b in zip(xw, yw)]


def ref_sub(xw, yw):
    return [a - b for a, b in zip(xw, yw)]


def ref_act(b, xw):
    return [m @ w for m, w in zip(b.blocks, xw)]


def ref_residual(lhs, rhs):
    scale = 1.0 + ref_module_norm(lhs) + ref_module_norm(rhs)
    if scale == math.inf:
        return math.nan
    return ref_module_norm(ref_sub(lhs, rhs)) / scale


def ref_is_orthogonal(xw, yw, shape, tol=1e-9):
    cross = ref_cstar_norm(ref_inner(xw, yw, shape).blocks)
    bound = tol * (1.0 + ref_module_norm(xw) * ref_module_norm(yw))
    return cross == 0.0 or (cross <= bound and math.isfinite(bound))


def ref_evaluate(f, xw, space):
    """f at the vector of space with wide matrices xw, one 2-D product per
    block for the library's mapping kinds; a plain callable gets the
    vector."""
    if isinstance(f, GridLinear):
        return [a @ t for a, t in zip(xw, transfer_matrices(f.grid))]
    if isinstance(f, mp.Sum):
        out = ref_evaluate(f.children[0], xw, space)
        for child in f.children[1:]:
            out = ref_add(out, ref_evaluate(child, xw, space))
        return out
    if isinstance(f, mp.Constant):
        return wide(f.value)
    if isinstance(f, mp.QuadDiag):
        k = ref_inner(xw, xw, space.algebra)
        return ref_act(cj.vec_scale(cj.vec_add(k, k), f.scale), wide(f.g))
    if isinstance(f, mp.Bump):
        if ref_module_norm(ref_sub(xw, wide(f.site))) < f.radius:
            return wide(f.delta)
        return wide(f.codomain.zero())
    assert not isinstance(f, cj.Mapping), type(f)
    return wide(f(cj.ModuleVector._wrap(space, tuple(xw))))


# ---------------------------------------------------------------------------
# Oracles for the draw: one generator per check, read one vector at a time.
#
# hilbert.sample_table fills one (n, draws, 2 * rank * dim) table of real
# coordinates from one generator. In C order that table is the generator's
# successive standard normals, so draw d of sample i is its
# (i * draws + d)-th run of 2 * rank * dim of them. drawn_rows replays the
# stream that way, with a generator of its own and ref_wide_from_real for
# the layout, and ref_pairs builds each pair from its own row.


def ref_wide_from_real(table, dims, rank):
    """The wide matrices per block of the vectors whose real coordinates are
    table, of shape lead + (2 * rank * dim,): per coordinate of A^rank, per
    block, the real parts of the row-major entries, then the imaginary
    ones."""
    lead = table.shape[:-1]
    per_coord = table.reshape(lead + (rank, -1))
    offsets = 2 * np.cumsum((0,) + tuple(m * m for m in dims))
    blocks = []
    for k, m in enumerate(dims):
        part = per_coord[..., offsets[k] : offsets[k + 1]]
        coords = np.empty(lead + (rank, m, m), dtype=np.complex128)
        coords.real = part[..., : m * m].reshape(lead + (rank, m, m))
        coords.imag = part[..., m * m :].reshape(lead + (rank, m, m))
        # coordinate i becomes columns i*m..(i+1)*m-1
        blocks.append(np.moveaxis(coords, -3, -2).reshape(lead + (m, rank * m)))
    return blocks


def drawn_rows(space, seed, n, draws=1):
    """The draws vectors of each sample i < n, each read from the next
    2 * rank * dim standard normals of one generator seeded with seed."""
    rng = np.random.default_rng(seed)
    dims, rank = space.algebra.block_dims, space.rank
    width = 2 * rank * space.algebra.dim

    def one():
        return cj.ModuleVector._wrap(
            space, tuple(ref_wide_from_real(rng.standard_normal(width), dims, rank))
        )

    return [[one() for _ in range(draws)] for _ in range(n)]


def family(name):
    """The row of identities.FAMILIES named name."""
    (row,) = [row for row in idn.FAMILIES if row.name == name]
    return row


def run_rows(name, f, space=None, a=None, pair=None, sampler=None, n=40, tol=1e-9, seed=(0,)):
    """The entries of the family named name for f, by the one evaluator; E
    is f's domain unless space is given."""
    space = f.domain if space is None else space
    return idn.run_family(family(name), f, space, a, pair, sampler, n, tol, list(seed))


def values(exprs, f, draws, space=None, a=None, pair=None):
    """The value of each of the nodes exprs (identities._Expr) for f, the
    draw nodes reading draws, as the evaluator computes them."""
    index, nodes, calls = idn._compile(exprs)
    maps = {"f": f} if pair is None else {"f": f, "phi": pair.phi, "psi": pair.psi}
    space = f.domain if space is None else space
    got = idn._evaluate(nodes, calls, draws, space, a, maps)
    return [got[index[e]] for e in exprs]


def unvalidated_pair(phi, psi, a, validated=True):
    """An AdditivePair that no validation built, with the Grams
    validate_pair would keep on it."""
    grams = mp.basis_pair_grams(phi, psi)[2][1:]
    return mp.AdditivePair(phi, psi, a, validated, 0.0, 0.0, grams)


class GramTimes(mp.Mapping):
    """x -> <x, x>.g(x) for a mapping g, the inner product acting on the
    left: of degree two more than g."""

    __slots__ = ("inner",)

    def __init__(self, inner):
        super().__init__(inner.domain, inner.codomain)
        object.__setattr__(self, "inner", inner)

    def evaluate(self, x):
        return cj.act(cj.inner_product(x, x), self.inner.evaluate(x))


def cubic_map(domain, codomain, rng):
    """x -> <x, x>.L(x) for a random linear L: odd, and not additive."""
    return GramTimes(random_affine(domain, codomain, rng).children[0])


def quartic_map(domain, g):
    """x -> <x, x>^2.g: even, and not quadratic."""
    return GramTimes(GramTimes(mp.Constant(domain, g)))


# the maps the identities derive from f, by their definitions: f called at
# each point on its own


def odd_part(f):
    """x -> (f(x) - f(-x)) / 2."""
    return lambda x: cj.vec_scale(cj.vec_sub(f(x), f(cj.vec_neg(x))), 0.5)


def even_part(f):
    """x -> (f(x) + f(-x)) / 2 - f(0)."""
    return lambda x: cj.vec_sub(
        cj.vec_scale(cj.vec_add(f(x), f(cj.vec_neg(x))), 0.5), f(x.space.zero())
    )


def polar_form(f):
    """(x, y) -> (f(x+y) + f(-x-y) - f(x-y) - f(-x+y)) / 8, summed as the
    identities sum it."""

    def B(x, y):
        s, d = cj.vec_add(x, y), cj.vec_sub(x, y)
        plus = cj.vec_add(f(s), f(cj.vec_neg(s)))
        minus = cj.vec_add(f(d), f(cj.vec_neg(d)))
        return cj.vec_scale(cj.vec_sub(plus, minus), 0.125)

    return B


def range_vector(pair, z, w):
    """phi(z) + psi(w), an element of K = phi(F) + psi(F), or a stack of
    them for stacks z, w of F."""
    return cj.vec_add(pair.phi(z), pair.psi(w))


def supported_on(x, keep):
    """A copy of x with every coordinate outside keep set to zero."""
    blocks = tuple(b.copy() for b in x.blocks)
    for i in range(x.space.rank):
        if i not in keep:
            for b in blocks:
                n = b.shape[0]
                b[:, i * n : (i + 1) * n] = 0.0
    return cj.ModuleVector._wrap(x.space, blocks)


def ref_pairs(sampler, n, seed):
    """The n pairs of hilbert.sample_pairs, one pair at a time."""
    if sampler.mode == "disjoint_support":
        return [
            (supported_on(x, sampler.left_coords), supported_on(y, sampler.right_coords))
            for x, y in drawn_rows(sampler.space, seed, n, 2)
        ]
    if sampler.mode == "pair_image":
        pair = sampler.pair
        return [
            (
                alg.act(pair.coefficient.inv, pair.phi(z)),
                alg.act(pair.coefficient.co_inv, pair.psi(w)),
            )
            for z, w in drawn_rows(pair.phi.domain, seed, n, 2)
        ]
    if sampler.mode == "explicit":
        return [sampler.pairs[i % len(sampler.pairs)] for i in range(n)]
    raise InvalidMode(f"unknown sampler mode {sampler.mode!r}")


# ---------------------------------------------------------------------------
# Oracles for pair validation and kernel re-verification. The pair tables
# are the per-element code the library ran before it worked on stacks,
# kept verbatim. The kernel re-verification is restated in raw arrays, in
# the library's product order, so it pins the layout, the draw and the
# residual rule bit for bit; tests/test_mappings.py keeps the per-sample
# object-API loop it replaced as an accuracy oracle.


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
            lhs = cj.act(cj.act(a.value, gram_phi), a_star)
            rhs = cj.act(cj.act(a.co, gram_psi), co_star)
            if not all(
                np.isfinite(b).all()
                for x in (cross, gram_phi, gram_psi, lhs, rhs)
                for b in x.blocks
            ):
                orth.append(math.nan)
                balance.append(math.nan)
                continue
            orth.append(
                cj.module_norm(cross)
                / (1.0 + cj.module_norm(phis[i]) * cj.module_norm(psis[j]))
            )
            balance.append(cj.vec_residual(lhs, rhs))
    return orth, balance


def ref_pair_condition_residuals(phi, psi, a):
    orth, balance = ref_pair_condition_tables(phi, psi, a)
    return float(np.max(orth)), float(np.max(balance))


def ref_real_actions(a):
    """[C_a | C_co] and [L_a | L_co] of a coefficient, by the products act
    and adjoint run, on the raw real coordinates of A = A^1 (see
    ref_wide_from_real): row t of C_x holds those of x e_t x^*, and of L_x
    those of x e_t, where e_t is the element with unit vector t as real
    coordinates."""
    width = 2 * a.value.shape.dim
    units = ref_wide_from_real(np.eye(width), a.value.shape.block_dims, 1)
    conj, left = [], []
    for x in (a.value, a.co):
        xu = [m @ u for m, u in zip(x.blocks, units)]
        xux = [v @ m.conj().T for v, m in zip(xu, x.blocks)]
        for images, out in ((xux, conj), (xu, left)):
            flat = [b.reshape(width, -1) for b in images]
            out.append(np.concatenate([p for b in flat for p in (b.real, b.imag)], axis=1))
    return np.concatenate(conj, axis=1), np.concatenate(left, axis=1)


def ref_kernel_constraint_residual(psi, a, n=20, seed=0):
    """The raw-array re-verification: the n rows r of one standard_normal
    table, the real coordinates of the inputs b; r C_x, then psi's real
    matrix on r and r C_x in one product, then L_x on each coordinate of
    Psi(b), in the library's product order; each side read back as complex
    wide matrices and measured one row at a time."""
    width = 2 * psi.domain.algebra.dim
    r = np.random.default_rng(seed).standard_normal((n, width))
    dims = psi.domain.algebra.block_dims
    rank = psi.codomain.rank
    conj, left = ref_real_actions(a)
    # rows (i, value) and (i, co) for each i in turn
    values = np.concatenate([r, (r @ conj).reshape(2 * n, width)]) @ psi.matrix.T
    plain, lhs = values[:n], values[n:]
    rhs = (plain.reshape(n * rank, width) @ left).reshape(n, rank, 2, width)
    rhs = rhs.swapaxes(1, 2).reshape(2 * n, rank * width)
    sides = [ref_wide_from_real(side, dims, rank) for side in (lhs, rhs)]
    residuals = []
    for s in range(2 * n):
        left_s = [b[s] for b in sides[0]]
        right_s = [b[s] for b in sides[1]]
        gap = ref_module_norm([x - y for x, y in zip(left_s, right_s)])
        scale = 1.0 + ref_module_norm(left_s) + ref_module_norm(right_s)
        residuals.append(math.nan if math.isinf(scale) else gap / scale)
    return float(np.max(residuals, initial=0.0))


def ref_kernel_basis(a, target):
    """The matrices of solve_abiadditive_kernel's basis, one member at a
    time as the solver once built them: the same column system per block
    pair (j, k) and its SVD, the same rank rule, then per coordinate, block
    pair, column of block j and null vector, in that order, a fresh zero
    matrix with the null vector scattered into that column's rows and
    block k's columns."""

    def real(m):
        return np.block([[m.real, -m.imag], [m.imag, m.real]])

    dims = a.value.shape.block_dims
    da, r = a.value.shape.dim, target.rank
    xs = (a.value, a.co)
    conj = [[real(np.kron(m, m.conj())) for m in x.blocks] for x in xs]
    left = [[real(m) for m in x.blocks] for x in xs]
    pieces = []
    for j, nj in enumerate(dims):
        for k, nk in enumerate(dims):
            eye_out, eye_in = np.eye(2 * nj), np.eye(2 * nk * nk)
            system = np.vstack([
                np.kron(eye_out, c[k].T) - np.kron(lx[j], eye_in) for c, lx in zip(conj, left)
            ])
            _, s, vh = np.linalg.svd(system, full_matrices=False)
            pieces.append((j, k, s, vh))
    sigma_max = max(s[0] for _, _, s, _ in pieces)
    threshold = 2 * (2 * da * r) * (2 * da) * np.finfo(np.float64).eps * sigma_max
    offsets = 2 * np.cumsum((0,) + tuple(n * n for n in dims))
    mats = []
    for i in range(r):
        for j, k, s, vh in pieces:
            nj, nk = dims[j], dims[k]
            for c in range(nj):
                column = i * 2 * da + offsets[j] + nj * np.arange(nj) + c
                rows = np.concatenate([column, column + nj * nj])
                for v in vh[np.count_nonzero(s > threshold) :]:
                    mat = np.zeros((2 * da * r, 2 * da))
                    mat[rows, offsets[k] : offsets[k + 1]] = v.reshape(2 * nj, 2 * nk * nk)
                    mats.append(mat)
    return mats


def ref_canonical_dumps(obj) -> str:
    """The recursive writer jsonutil.canonical_dumps replaced, kept as its
    oracle: one json.dumps per key, string and constant, and the live
    format_float for every float."""
    parts = []
    _ref_write(obj, parts)
    return "".join(parts)


def _ref_write(obj, parts):
    if obj is None or obj is True or obj is False:
        parts.append(json.dumps(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(format_float(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for pos, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"non-string key {key!r}")
            if pos:
                parts.append(",")
            parts.append(json.dumps(key))
            parts.append(":")
            _ref_write(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for pos, item in enumerate(obj):
            if pos:
                parts.append(",")
            _ref_write(item, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
