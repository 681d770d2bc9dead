"""Shared generators for the test suite.

Structure (shapes, ranks) is drawn by hypothesis; numeric content comes
from seeded numpy generators so shrinking stays meaningful.
"""
import importlib.util
import json
import math
from collections.abc import Mapping
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import cstar_jensen as cj
from cstar_jensen import algebra as alg
from cstar_jensen import hilbert as hb
from cstar_jensen import identities as idn
from cstar_jensen import mappings as mp
from cstar_jensen.errors import CstarJensenError, InvalidMode, InvalidSampler
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
# (n, rank * n) array per block (wide(x) of a library vector), and each
# product is one 2-D matrix product per block: b.x is (X^T b^T)^T, a Linear
# map is X @ T_k with T_k assembled sub-block by sub-block from its
# coefficient grid, <x, y> is X @ Y^*, and the module norm is the square
# root of the top eigenvalue of each block's Gram X X^*. The C*-norm is the
# same rule on square blocks, ||c|| = ||c c^*||^(1/2). On blocks of 2 rows
# the Gram is instead built entry by entry from row sums in plain Python
# floats, in the library's order (ref_row_sum, ref_two_row_sums), and the
# top eigenvalue of a 3x3 Gram is the closed form in numpy float64 scalars
# (ref_top_of_three). The library's array
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


def ref_row_sum(terms):
    """The sum of a list of floats in the library's order: the back half
    is added onto the front half, term by term, the middle term of an odd
    count staying in place, until one term is left."""
    terms = list(terms)
    while len(terms) > 1:
        count, half = len(terms), len(terms) // 2
        front = [terms[i] + terms[count - half + i] for i in range(half)]
        terms = front + terms[half : count - half]
    return terms[0]


def ref_two_row_sums(xp, yq):
    """The real and imaginary parts of sum_k x_k conj(y_k) for two rows x
    and y of a block, as Python floats: one row sum each of the 2m terms
    over the real parts r = (re x_0, im x_0, re x_1, ...) and s of y,
    r_j s_j for the real part, and -(re x_k im y_k) at j = 2k and
    im x_k re y_k at j = 2k + 1 for the imaginary part."""
    r = [float(v) for v in np.ascontiguousarray(xp).view(np.float64)]
    s = [float(v) for v in np.ascontiguousarray(yq).view(np.float64)]
    im = [-(r[j] * s[j + 1]) if j % 2 == 0 else r[j] * s[j - 1] for j in range(len(r))]
    return ref_row_sum(r[j] * s[j] for j in range(len(r))), ref_row_sum(im)


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


def ref_gram(b):
    """The Gram of one 2-D block, for the top eigenvalue. A block with
    fewer columns than rows is first replaced by its conjugate transpose
    B^*, so that its Gram is the smaller B^* B, with the same top
    eigenvalue ||B||^2. Then for 2 rows the array [a, re c, im c, d] of
    [[a, c], [c^*, d]] from row sums (ref_two_row_sums; a and d are the
    real parts of the diagonal's sums), otherwise the matrix b @ b^*. It is
    formed without numpy's invalid and overflow warnings, as the library
    forms it."""
    if b.shape[1] < b.shape[0]:
        b = b.conj().T
    with np.errstate(invalid="ignore", over="ignore"):
        if b.shape[0] != 2:
            return b @ b.conj().T
        a, _ = ref_two_row_sums(b[0], b[0])
        d, _ = ref_two_row_sums(b[1], b[1])
        return np.array([a, *ref_two_row_sums(b[0], b[1]), d])


def ref_top_of_three(g):
    """The top eigenvalue of one hermitian positive semidefinite 3x3 Gram,
    in numpy float64 scalars: g is divided by 2^e, the power of two at or
    below its largest diagonal entry (np.ldexp, exact), then m = tr/3,
    b_i = g_ii - m, p^2 = (sum b_i^2 + 2 sum_{i<j} |g_ij|^2)/6 and
    r = det(g - m)/(2p^3) clipped to [-1, 1] (r = 0 where p^3 is 0), and
    the value is 2^e (m + 2p cos(arccos(r)/3)), with numpy's arccos and cos
    rather than math's. Where 1 + r < 1e-2 it is eigvalsh's instead."""
    e = int(np.frexp(max(g[i, i].real for i in range(3)))[1]) - 1
    re = [[np.ldexp(g[i, j].real, -e) for j in range(3)] for i in range(3)]
    im = [[np.ldexp(g[i, j].imag, -e) for j in range(3)] for i in range(3)]
    m = (re[0][0] + re[1][1] + re[2][2]) / 3
    b0, b1, b2 = re[0][0] - m, re[1][1] - m, re[2][2] - m
    (xr, xi), (yr, yi), (zr, zi) = ((re[i][j], im[i][j]) for i, j in ((0, 1), (0, 2), (1, 2)))
    xx, yy, zz = xr * xr + xi * xi, yr * yr + yi * yi, zr * zr + zi * zi
    p2 = (b0 * b0 + b1 * b1 + b2 * b2 + 2 * (xx + yy + zz)) / 6
    cyc = (xr * zr - xi * zi) * yr + (xr * zi + xi * zr) * yi
    det = b0 * b1 * b2 + 2 * cyc - b0 * zz - b1 * yy - b2 * xx
    p = np.sqrt(p2)
    q = 2 * p2 * p
    r = np.clip(det / q if q > 0 else np.float64(0.0), -1.0, 1.0)
    if 1 + r < 1e-2:
        return np.linalg.eigvalsh(g)[-1]
    return np.ldexp(m + 2 * p * np.cos(np.arccos(r) / 3), e)


def ref_module_norm(xw):
    """The module norm of one vector from its wide matrices. A block that is
    all zero is skipped, so an empty one (n, 0) forms no Gram. Per other
    block, the Gram (ref_gram: of B B^*, or B^* B for a block with fewer
    columns than rows), and its top eigenvalue: the real part of a 1x1
    Gram, (a+d)/2 + |((a-d)/2, |c|)| of a 2x2 one [[a, c], [c^*, d]] (abs
    of a complex is libm hypot), ref_top_of_three of a 3x3 one, eigvalsh
    of a larger one. The norm is the square root of the largest, +0.0 when
    every block is skipped. A vector holding NaN gives NaN; else one
    holding inf gives inf; a finite one whose Gram is not finite is divided
    by the largest power of two at or below its largest real or imaginary
    part, and its norm is that power times the quotient's."""
    if any(np.isnan(b).any() for b in xw):
        return math.nan
    xw = [b for b in xw if b.any()]
    grams = [ref_gram(b) for b in xw]
    if not all(np.isfinite(g).all() for g in grams):
        if not all(np.isfinite(b).all() for b in xw):
            return math.inf
        top = max(max(np.abs(b.real).max(), np.abs(b.imag).max()) for b in xw)
        power = 2.0 ** (math.frexp(top)[1] - 1)
        return power * ref_module_norm([b / power for b in xw])
    best = 0.0
    for g in grams:
        if g.ndim == 1:
            a, re, im, d = (float(v) for v in g)
            top = (a + d) / 2 + abs(complex((a - d) / 2, abs(complex(re, im))))
        elif len(g) == 1:
            top = g[0, 0].real
        elif len(g) == 3:
            top = ref_top_of_three(g)
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
    """b.x of one element b as (X^T b^T)^T per block, contiguous."""
    return [np.ascontiguousarray((w.T @ m.T).T) for m, w in zip(b.blocks, xw)]


def ref_residual(lhs, rhs):
    scale = 1.0 + ref_module_norm(lhs) + ref_module_norm(rhs)
    if scale == math.inf:
        return math.nan
    return ref_module_norm(ref_sub(lhs, rhs)) / scale


def ref_is_orthogonal(xw, yw, shape, tol=1e-9):
    cross = ref_cstar_norm(ref_inner(xw, yw, shape).blocks)
    bound = tol * (1.0 + ref_module_norm(xw) * ref_module_norm(yw))
    return cross == 0.0 or (cross <= bound and math.isfinite(bound))


def ref_orthogonality_residual(xw, yw, shape):
    """||<x, y>|| / (1 + ||x|| ||y||) of one pair from its wide matrices: 0
    where the cross norm is 0, else NaN where the scale is not finite."""
    cross = ref_cstar_norm(ref_inner(xw, yw, shape).blocks)
    if cross == 0.0:
        return 0.0
    scale = 1.0 + ref_module_norm(xw) * ref_module_norm(yw)
    return cross / scale if math.isfinite(scale) else math.nan


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


# the ids of Lemma 2.1, the scaling family's
LEMMA_2_1 = tuple(i for i in idn.CHECK_IDS if i.startswith("lemma2.1-"))


def run_rows(ids, f, space=None, a=None, pair=None, sampler=None, n=40, tol=1e-9, seed=(0,)):
    """The entries of the check ids ids (one id, or ids of any families),
    in table order, for f: run alone by identities.run_checks, each family
    on the seed base seed, which raises the first error. E is f's domain
    unless space is given, and the campaign's coefficient a is the pair's
    unless a is given."""
    ids = (ids,) if isinstance(ids, str) else ids
    space = f.domain if space is None else space
    a = pair.coefficient if a is None and pair is not None else a
    outcomes = idn.run_checks(ids, f, space, a, pair, sampler, n, tol, lambda index: list(seed))
    for outcome in outcomes.values():
        if isinstance(outcome, Exception):
            raise outcome
    return list(outcomes.values())


def values(exprs, f, draws, space=None, a=None, pair=None):
    """The value of each of the nodes exprs (identities._Expr) for f, the
    draw nodes reading draws, as the evaluator computes them: coef nodes
    read the campaign's coefficient a and the pair's."""
    index, _, _, schedule = idn._compile(exprs)
    maps = {"f": f} if pair is None else {"f": f, "phi": pair.phi, "psi": pair.psi}
    space = f.domain if space is None else space
    coefficients = {"a": a, "pair": None if pair is None else pair.coefficient}
    got = idn._evaluate(schedule, draws, space, coefficients, maps)
    return [got[index[e]] for e in exprs]


_FAMILY_SCHEDULES = {}


def family_schedule(family):
    """identities._compile of family's own nodes, as the table compiled
    each family before families ran as one program: (index, nodes, calls,
    schedule), built once per family."""
    if family not in _FAMILY_SCHEDULES:
        roots = [e for identity in family.identities for e in identity.nodes()]
        _FAMILY_SCHEDULES[family] = idn._compile(roots)
    return _FAMILY_SCHEDULES[family]


def run_family(family, f, space, a, pair, sampler, n, tol, seed):
    """The entries of family's ids for f: E -> G with the campaign's
    coefficient a, pair and sampler, on n samples drawn from the seed base
    seed: the per-family evaluator that identities.run_checks replaced,
    kept as its oracle. It draws all n rows at once from one generator,
    refuses non-orthogonal pairs as it draws them, runs the family's own
    schedule and measures its sides with one vec_residual call."""
    if family.require is not None:
        family.require(a, pair)
    drawn = family.draw(space, pair, sampler, 0, n, np.random.default_rng(seed))
    if family.orthogonal:
        failure = hb.first_non_orthogonal(*drawn[:2])
        if failure is not None:
            k, why = failure
            raise InvalidSampler(f"sampler emitted a non-orthogonal pair at row {k}: {why}")
    draws = dict(enumerate(drawn, family.first))
    coefficients = {"a": a, "pair": None if pair is None else pair.coefficient}
    at, _, _, schedule = family_schedule(family)
    compiled = [
        (
            tuple(at[s] if isinstance(s, idn._Expr) else (at[s[0]], at[s[1]]) for s in i.sides),
            tuple((name, at[e]) for name, e in i.rows.items()),
        )
        for i in family.identities
    ]
    maps = {"f": f} if pair is None else {"f": f, "phi": pair.phi, "psi": pair.psi}
    measured = [s for sides, _ in compiled for s in sides if isinstance(s, tuple)]
    columns = iter(())
    with np.errstate(over="ignore", invalid="ignore"):
        values = idn._evaluate(schedule, draws, space, coefficients, maps)
        if measured:
            lhs, rhs = ([values[k] for k in side] for side in zip(*measured))
            (left, spans), (right, _) = (
                alg.stack_blocks(v[0].space, [x.blocks for x in v]) for v in (lhs, rhs)
            )
            table = alg.vec_residual(
                cj.ModuleVector._wrap(lhs[0].space, left), cj.ModuleVector._wrap(rhs[0].space, right)
            )
            columns = iter([table[s] for s in spans])
    entries = []
    for identity, (sides, rows) in zip(family.identities, compiled):
        residuals = identity.join(
            [next(columns) if isinstance(s, tuple) else values[s] for s in sides]
        )
        stacks = {name: values[k] for name, k in rows}
        describe = lambda i, stacks=stacks: {name: idn._HeldRow(v.row(i)) for name, v in stacks.items()}
        entries.append(idn._fold(identity.id, residuals, describe, tol))
    return entries


def oracle_results(scenario, mi, checks):
    """The (label, entry) results of harness._mapping_entries for mapping
    mi on the ids in checks, by the oracle run_family: each family that
    holds one runs on its own, in table order, on the seed base
    [seed, mi, family index], and a package error fails its ids alone."""
    label, f = scenario.mappings[mi]
    results = []
    for index, row in enumerate(idn.FAMILIES):
        if checks.isdisjoint(row.ids):
            continue
        try:
            entries = run_family(
                row, f, scenario.space_e, scenario.coefficient, scenario.pair,
                scenario.sampler, scenario.samples, scenario.tol, [scenario.seed, mi, index],
            )
        except CstarJensenError as exc:
            error = {"error": str(exc)}
            entries = [IdentityResidual(i, 0, math.inf, error, False) for i in row.ids]
        results += [(label, entry) for entry in entries if entry.identity_id in checks]
    return results


def oracle_evaluate(nodes, calls, draws, space, coefficients, maps) -> list:
    """The value of every node (identities._compile), by position: draw i
    is draws[i], zero the zero vector of space, coef (name, which) the part
    name of coefficients[which], and a map
    call maps[name] at its argument. The first call of a map that is needed
    computes all of that map's calls, as one call of the map on the stack
    of their arguments in node order, and splits the images back by rows.
    The recursive evaluator that the schedule of identities._evaluate
    replaced, kept as its oracle: it keeps every value, and wraps each as a
    vector."""
    values = [None] * len(nodes)

    def value(k):
        if values[k] is None:
            op, *args = nodes[k]
            if op == "map":
                stacked = [value(nodes[j][2]) for j in calls[args[0]]]
                kind, at = type(stacked[0]), stacked[0].space
                blocks, spans = alg.stack_blocks(at, [v.blocks for v in stacked])
                images = maps[args[0]](kind._wrap(at, blocks))
                for j, span in zip(calls[args[0]], spans):
                    values[j] = images.row(span)
            elif op == "draw":
                values[k] = draws[args[0]]
            elif op == "zero":
                values[k] = space.zero()
            elif op == "coef":
                values[k] = getattr(coefficients[args[1]], args[0])
            elif op == "scale":
                values[k] = alg.vec_scale(value(args[0]), args[1])
            elif op == "neg":
                values[k] = alg.vec_neg(value(args[0]))
            elif op == "act":
                values[k] = alg.act(value(args[0]), value(args[1]))
            elif op == "add":
                values[k] = alg.vec_add(value(args[0]), value(args[1]))
            elif op == "sub":
                values[k] = alg.vec_sub(value(args[0]), value(args[1]))
            else:  # orth
                values[k] = hb.orthogonality_residual(value(args[0]), value(args[1]))
        return values[k]

    try:
        return [value(k) for k in range(len(nodes))]
    finally:
        # value refers to itself; without the cycle the arrays go with the call
        del value


def unvalidated_pair(phi, psi, a):
    """An AdditivePair that no validation built, with the Grams
    validate_pair would keep on it."""
    grams = mp.basis_pair_grams(phi, psi)[2]
    return mp.AdditivePair(phi, psi, a, 0.0, 0.0, grams)


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
            (supported_on(v, sampler.left_coords), supported_on(v, sampler.right_coords))
            for (v,) in drawn_rows(sampler.space, seed, n)
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
# Kernel quadratic maps and orthogonal pairs that share coordinates, for
# the ledger of known wrong verdicts (tests/test_known_gaps.py) and the
# kernel tests.


class KernelQuad:
    """f(x) = Psi(sum_i w_i x_i x_i^*) for an intertwining Psi, each
    coordinate x_i scaled by sqrt(w_i) before the inner product. With no
    weights it is Psi(<x, x>), genuinely a-Jensen; with unequal ones it
    is a-Jensen on pairs of disjoint coordinate support, but not on all
    orthogonal pairs."""

    def __init__(self, domain, psi, weights=None):
        self.domain = domain
        self.codomain = psi.codomain
        self.psi = psi
        self.weights = weights

    def __call__(self, x):
        if self.weights is not None:
            # coordinate i is columns i*n..(i+1)*n-1 of each wide matrix
            roots = np.sqrt(np.asarray(self.weights, dtype=float))
            x = cj.ModuleVector._wrap(
                x.space, tuple(b * np.repeat(roots, b.shape[-2]) for b in x.blocks)
            )
        return self.psi(cj.inner_product(x, x))


def cross_block_setup(rank=1, weights=None):
    """Coefficient (1/2, (1+i)/2) with a nonzero intertwining kernel, the
    pair of the two coordinates of E = A^2 over A = C + C, and the
    KernelQuad of the kernel's first member into A^rank, with weights."""
    shape = cj.AlgebraShape((1, 1))
    a = cj.validate_coefficient(cj.AlgebraElement(shape, [[[0.5]], [[0.5 + 0.5j]]]))
    space_e = cj.ModuleSpace(shape, 2)
    z = cj.zero(shape)
    one = cj.unit(shape)
    pair = cj.validate_pair(cj.Linear([[one, z]]), cj.Linear([[z, one]]), a)
    solution = cj.solve_abiadditive_kernel(a, cj.ModuleSpace(shape, rank))
    f = KernelQuad(space_e, solution.basis[0], weights)
    return a, pair, f


def haar_pairs(space, n, seed):
    """n orthogonal pairs of space (rank >= 2) that share coordinates: per
    pair, one drawn vector split into x on coordinate 0 and y on the
    others, then each block's wide matrix right-multiplied by one Haar
    unitary U of its width (the QR of a complex Gaussian, with the phases
    of R divided out). X U (Y U)^* = X Y^* = 0 up to rounding."""
    rng = np.random.default_rng(seed)
    rest = range(1, space.rank)
    pairs = []
    for (v,) in drawn_rows(space, rng, n):
        x, y = supported_on(v, [0]), supported_on(v, rest)
        units = []
        for b in v.blocks:
            m = b.shape[-1]
            q, r = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
            d = np.diag(r)
            units.append(q * (d / np.abs(d)))
        pairs.append(
            tuple(
                cj.ModuleVector._wrap(space, tuple(b @ u for b, u in zip(w.blocks, units)))
                for w in (x, y)
            )
        )
    return pairs


# ---------------------------------------------------------------------------
# Oracles for pair validation and kernel re-verification. The pair tables
# are the per-element code the library ran before it worked on stacks,
# with each table's own NaN rule. The kernel re-verification is restated
# in raw arrays, in the library's product order, so it pins the layout,
# the draw and the residual rule bit for bit; tests/test_mappings.py keeps
# the per-sample object-API loop it replaced as an accuracy oracle.


def ref_pair_condition_tables(phi, psi, a):
    """Both pair-condition residuals of every basis pair (i, j), row-major:
    phi and psi on one basis vector at a time, one inner product and one
    product per pair. Each table is NaN by its own rule: the orthogonality
    residual where its scale is not finite and the cross norm is not 0,
    the balance residual where a side's norm is not finite."""
    f_space = phi.domain
    shape = f_space.algebra
    phis = [phi(f_space.basis_vector(i)) for i in range(f_space.rank)]
    psis = [psi(f_space.basis_vector(i)) for i in range(f_space.rank)]
    a_star = cj.adjoint(a.value)
    co_star = cj.adjoint(a.co)
    orth, balance = [], []
    for i in range(f_space.rank):
        for j in range(f_space.rank):
            orth.append(ref_orthogonality_residual(wide(phis[i]), wide(psis[j]), shape))
            gram_phi = cj.inner_product(phis[i], phis[j])
            gram_psi = cj.inner_product(psis[i], psis[j])
            lhs = cj.act(cj.act(a.value, gram_phi), a_star)
            rhs = cj.act(cj.act(a.co, gram_psi), co_star)
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
        # (X^T b^T)^T, one 2-D product per unit
        xu = [np.stack([(w.T @ m.T).T for w in u]) for m, u in zip(x.blocks, units)]
        xux = [np.stack([(m.conj() @ w.T).T for w in v]) for v, m in zip(xu, x.blocks)]
        for images, out in ((xux, conj), (xu, left)):
            flat = [b.reshape(width, -1) for b in images]
            out.append(np.concatenate([p for b in flat for p in (b.real, b.imag)], axis=1))
    return np.concatenate(conj, axis=1), np.concatenate(left, axis=1)


def ref_kernel_constraint_residual(psi, a, n=20, seed=0):
    """The raw-array re-verification: the n rows r of one standard_normal
    table, the real coordinates of the inputs b; r C_x, then psi's real
    matrix on r and r C_x in one product, then L_x on each coordinate of
    Psi(b), in the library's product order; each side read back as complex
    wide matrices, cut to the columns that psi.matrix writes (those with a
    nonzero row, a NaN counting as nonzero), and measured one row at a
    time."""
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
    written = ref_wide_from_real((psi.matrix != 0).any(axis=1).astype(float), dims, rank)
    columns = [w.any(axis=0) for w in written]
    sides = [
        [b[..., cols] for b, cols in zip(ref_wide_from_real(side, dims, rank), columns)]
        for side in (lhs, rhs)
    ]
    residuals = []
    for s in range(2 * n):
        left_s = [b[s] for b in sides[0]]
        right_s = [b[s] for b in sides[1]]
        gap = ref_module_norm([x - y for x, y in zip(left_s, right_s)])
        scale = 1.0 + ref_module_norm(left_s) + ref_module_norm(right_s)
        residuals.append(math.nan if math.isinf(scale) else gap / scale)
    return float(np.max(residuals, initial=0.0))


def _ref_column_svds(a, target):
    """The full SVD of every block pair's column system, built with
    np.kron, and the solver's threshold over all of them."""

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
    return pieces, threshold, sigma_max


def ref_kernel_basis(a, target):
    """The matrices of solve_abiadditive_kernel's basis, one member at a
    time as the solver once built them: the same column system per block
    pair (j, k) and its SVD, the same rank rule, then per coordinate, block
    pair, column of block j and null vector, in that order, a fresh zero
    matrix with the null vector scattered into that column's rows and
    block k's columns."""
    dims = a.value.shape.block_dims
    da, r = a.value.shape.dim, target.rank
    pieces, threshold, _ = _ref_column_svds(a, target)
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


def ref_kernel_margins(a, target):
    """(dimension, threshold, smallest kept, largest dropped, largest
    singular value) of the solver's rank decision, all read from the full
    SVDs of _ref_column_svds; kept or dropped is None when that side is
    empty."""
    pieces, threshold, sigma_max = _ref_column_svds(a, target)
    r, dims = target.rank, a.value.shape.block_dims
    s = np.concatenate([s for _, _, s, _ in pieces])
    kept, dropped = s[s > threshold], s[s <= threshold]
    dimension = r * sum(
        dims[j] * (len(s) - np.count_nonzero(s > threshold)) for j, _, s, _ in pieces
    )
    return (
        int(dimension),
        threshold,
        kept.min() if kept.size else None,
        dropped.max() if dropped.size else None,
        sigma_max,
    )


def ref_canonical_dumps(obj) -> str:
    """The recursive writer jsonutil.canonical_dumps replaced, kept as its
    oracle: one json.dumps per key, string and constant, and the live
    format_float for every float. It walks any Mapping as a dict, so a
    worst input held as a vector row is written from its items."""
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
    elif isinstance(obj, Mapping):
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
