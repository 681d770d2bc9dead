"""Every family of the identity table against its per-sample loop, bit for bit.

Each reference below is the per-sample loop a family ran before it was
evaluated on stacks, now on the rows of its one drawn table: the same
generator, replayed one vector at a time by drawn_rows, and one update of
the per-row oracle Worst per residual. The maps derived from f are their
definitions, f called at each point on its own (support.odd_part,
even_part and polar_form). The evaluator must hand _fold the same
residuals, read row by row in tuple order, and give the same entry.
"""
import gc
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import cstar_jensen as cj
from cstar_jensen import algebra as alg
from cstar_jensen import catalog, harness
from cstar_jensen import hilbert as hb
from cstar_jensen import identities as idn
from cstar_jensen import mappings as mp
from cstar_jensen.jsonutil import canonical_dumps

from support import (
    KernelQuad,
    Worst,
    cross_block_setup,
    drawn_rows,
    even_part,
    folded,
    odd_part,
    polar_form,
    random_strict_coefficient,
    range_vector,
    ref_orthogonality_residual,
    run_rows,
    values,
    wide,
    wide_scenario_obj,
)
from test_identities import mapping_of_kind

N = 9
TOL = 1e-9


def worst_of(identity_id, rows):
    """The entry Worst makes of (residual, describe) rows, in order."""
    worst = Worst()
    for r, describe in rows:
        worst.update(r, describe)
    return worst.result(identity_id, TOL)


def dx(x):
    return lambda: {"x": x.to_obj()}


def dxy(x, y, names=("x", "y")):
    return lambda: {names[0]: x.to_obj(), names[1]: y.to_obj()}


# ---------------------------------------------------------------------------
# the per-sample loops


def loop_scaling(f, a, xs):
    f0 = f(xs[0].space.zero())
    inv_co = cj.act(a.inv, a.co)
    co_inv_a = cj.act(a.co_inv, a.value)
    rows = [[] for _ in range(6)]
    for x in xs:
        fx = f(x)
        f_ainv = f(cj.act(a.inv, x))
        f_coinv = f(cj.act(a.co_inv, x))
        sides = [
            (cj.vec_add(cj.act(a.value, f_ainv), cj.act(a.co, f0)), fx),
            (cj.vec_add(cj.act(a.value, f0), cj.act(a.co, f_coinv)), fx),
            (cj.vec_add(f_ainv, cj.act(inv_co, f0)), cj.act(a.inv, fx)),
            (cj.vec_add(cj.act(co_inv_a, f0), f_coinv), cj.act(a.co_inv, fx)),
            (cj.vec_add(cj.act(co_inv_a, fx), f0), cj.act(a.co_inv, f(cj.act(a.value, x)))),
            (cj.vec_add(f0, cj.act(inv_co, fx)), cj.act(a.inv, f(cj.act(a.co, x)))),
        ]
        for out, (lhs, rhs) in zip(rows, sides):
            out.append((cj.vec_residual(lhs, rhs), dx(x)))
    return [worst_of(i, r) for i, r in zip(idn.FAMILY_OF["lemma2.1-i"].ids, rows)]


def loop_expansion_residual(f, phi, psi, a, x, y):
    f0 = f(phi.codomain.zero())
    inv_co, co_inv_a, co_a_inv = cj.act(a.inv, a.co), cj.act(a.co_inv, a.value), cj.act(a.co, a.inv)
    phi_x, phi_y, psi_x, psi_y = phi(x), phi(y), psi(x), psi(y)
    lhs = cj.vec_add(
        cj.act(a.value, f(cj.vec_add(phi_x, phi_y))),
        cj.act(a.co, f(cj.vec_sub(psi_x, psi_y))),
    )
    bracket_x = cj.vec_sub(cj.vec_add(f(phi_x), cj.act(inv_co, f(psi_x))), cj.act(co_a_inv, f0))
    bracket_y = cj.vec_add(
        cj.vec_sub(cj.act(co_inv_a, f(phi_y)), cj.act(co_inv_a, f0)), f(psi(cj.vec_neg(y)))
    )
    rhs = cj.vec_add(cj.act(a.value, bracket_x), cj.act(a.co, bracket_y))
    return cj.vec_residual(lhs, rhs)


def loop_expansion(f, pair, samples):
    rows = [
        (loop_expansion_residual(f, pair.phi, pair.psi, pair.coefficient, z, w), dxy(z, w, "zw"))
        for z, w in samples
    ]
    return worst_of("lemma2.2", rows)


def loop_orth_display(pair, samples):
    a = pair.coefficient
    inv_co, co_inv_a = cj.act(a.inv, a.co), cj.act(a.co_inv, a.value)
    rows = []
    for z, w in samples:
        left = cj.vec_add(pair.phi(z), cj.act(inv_co, pair.psi(z)))
        right = cj.vec_sub(cj.act(co_inv_a, pair.phi(w)), pair.psi(w))
        r = ref_orthogonality_residual(wide(left), wide(right), left.space.algebra)
        rows.append((r, dxy(z, w, "zw")))
    return worst_of("lemma2.2-orth", rows)


def loop_additive(g, pair, n, seed):
    rows = []
    for z1, w1, z2, w2 in drawn_rows(pair.phi.domain, seed, n, 4):
        x, y = range_vector(pair, z1, w1), range_vector(pair, z2, w2)
        r = cj.vec_residual(g(cj.vec_add(x, y)), cj.vec_add(g(x), g(y)))
        rows.append((r, dxy(x, y)))
    return worst_of("prop2.3-additive", rows)


def loop_quadratic(g, pair, n, seed):
    rows = []
    for z1, w1, z2, w2 in drawn_rows(pair.phi.domain, seed, n, 4):
        x, y = range_vector(pair, z1, w1), range_vector(pair, z2, w2)
        lhs = cj.vec_add(g(cj.vec_add(x, y)), g(cj.vec_sub(x, y)))
        rhs = cj.vec_scale(cj.vec_add(g(x), g(y)), 2.0)
        rows.append((cj.vec_residual(lhs, rhs), dxy(x, y)))
    return worst_of("prop2.5-quadratic", rows)


def loop_balance(g, pair, n, seed):
    a = pair.coefficient
    doubled, plain = [], []
    for (x,) in drawn_rows(pair.phi.domain, seed, n):
        phi_x, psi_x = pair.phi(x), pair.psi(x)
        lhs = cj.act(a.value, g(cj.vec_scale(phi_x, 2.0)))
        rhs = cj.act(a.co, g(cj.vec_scale(psi_x, 2.0)))
        doubled.append((cj.vec_residual(lhs, rhs), dx(x)))
        plain.append((cj.vec_residual(cj.act(a.value, g(phi_x)), cj.act(a.co, g(psi_x))), dx(x)))
    return worst_of("prop2.5-id211", doubled), worst_of("prop2.5-id212", plain)


def loop_decompose(f, a, pair, n, seed):
    A, B = odd_part(f), polar_form(f)
    f0 = f(pair.phi.codomain.zero())
    recon, a_add, b_sym, b_bi, b_a_bi, b_orth = ([] for _ in range(6))
    rows = drawn_rows(pair.phi.domain, seed, n, 8)
    for r in rows:
        x, y, z = (range_vector(pair, r[j], r[j + 1]) for j in (0, 2, 4))
        recon.append((cj.vec_residual(f(x), cj.vec_add(cj.vec_add(A(x), B(x, x)), f0)), dx(x)))
        a_add.append((cj.vec_residual(A(cj.act(a.value, x)), cj.act(a.value, A(x))), dx(x)))
        b_sym.append((cj.vec_residual(B(x, y), B(y, x)), dxy(x, y)))
        z2 = cj.vec_scale(z, 2.0)
        r1 = cj.vec_residual(
            B(cj.vec_add(x, y), z2), cj.vec_scale(cj.vec_add(B(x, z), B(y, z)), 2.0)
        )
        r2 = cj.vec_residual(B(x, z2), cj.vec_scale(B(x, z), 2.0))
        b_bi.append((max(r1, r2), dxy(x, y)))
        ax, cx = cj.act(a.value, x), cj.act(a.co, x)
        r1 = cj.vec_residual(B(ax, ax), cj.act(a.value, B(x, x)))
        r2 = cj.vec_residual(B(cx, cx), cj.act(a.co, B(x, x)))
        b_a_bi.append((max(r1, r2), dx(x)))
    for r in rows:
        u, v = pair.phi(r[6]), pair.psi(r[7])
        b_orth.append((cj.vec_residual(B(u, v), f0.space.zero()), dxy(u, v)))
    return (
        worst_of("thm2.7-reconstruct", recon),
        worst_of("thm2.7-A-a-additive", a_add),
        worst_of("thm2.7-B-symmetric", b_sym),
        worst_of("thm2.7-B-biadditive", b_bi),
        worst_of("thm2.7-B-a-biadditive", b_a_bi),
        worst_of("thm2.7-B-orth-preserving", b_orth),
    )


def loop_unique(f, first, second, n, seed):
    rows = []
    for (x,) in [[f.domain.zero()]] + drawn_rows(f.domain, seed, n):
        rows.append((cj.vec_residual(first.A(x), second.A(x)), dx(x)))
        rows.append((cj.vec_residual(first.B(x, x), second.B(x, x)), dx(x)))
    return worst_of("thm2.7-unique", rows)


def loop_scalar(f, pair, n, seed):
    A, B = odd_part(f), polar_form(f)
    f0 = f(pair.phi.codomain.zero())
    rows = []
    for z, w in drawn_rows(pair.phi.domain, seed, n, 2):
        x = range_vector(pair, z, w)
        rows.append((cj.vec_residual(B(x, x), f0.space.zero()), dx(x)))
        rows.append((cj.vec_residual(f(x), cj.vec_add(A(x), f0)), dx(x)))
    return worst_of("cor2.9-B-vanishes", rows)


# ---------------------------------------------------------------------------
# loop against stacks


def recorded(run, monkeypatch):
    """run() and the residuals it folds, in order: the tables a check hands
    to _fold, read row by row, or the rows a loop feeds to Worst."""
    seen = []
    fold, update = idn._fold, Worst.update

    def record_fold(identity_id, residuals, describe, tol, prior=None):
        seen.extend(folded(residuals))
        return fold(identity_id, residuals, describe, tol, prior)

    def record_update(self, residual, describe):
        seen.append(residual)
        update(self, residual, describe)

    with monkeypatch.context() as m:
        m.setattr(idn, "_fold", record_fold)
        m.setattr(Worst, "update", record_update)
        out = run()
    return out, [r.hex() for r in seen]


def entries(out):
    if isinstance(out, idn.IdentityResidual):
        return [out.to_obj()]
    return [e.to_obj() for e in out]


def assert_same(stacked, loop, monkeypatch):
    """The stacked check folds the loop's residuals, bit for bit, into the
    same entries; returns the residuals as hex strings."""
    got, got_seen = recorded(stacked, monkeypatch)
    want, want_seen = recorded(loop, monkeypatch)
    assert got_seen == want_seen and len(got_seen) > 0
    assert entries(got) == entries(want)
    for g, w in zip(entries(got), entries(want)):
        assert g["max_residual"].hex() == w["max_residual"].hex()
        assert g["worst_input"] == w["worst_input"]
    return got_seen


def setup(dims, kind, scalar=False, f_rank=2):
    """f of the given kind on E = A^(2 f_rank) -> G = A^2, and a pair
    F = A^f_rank -> E."""
    shape = cj.AlgebraShape(dims)
    rng = np.random.default_rng([len(dims), dims[0], KINDS.index(kind), int(scalar)])
    if scalar:
        pair = mp.morphism_shift_pair(shape, f_rank)
    else:
        pair = cj.inclusion_pair(shape, f_rank, 2 * f_rank, random_strict_coefficient(shape, rng))
    f = mapping_of_kind(kind, pair.phi.codomain, cj.ModuleSpace(shape, 2), rng)
    return f, pair, pair.coefficient


# the last is wide: F rank 4 and E = M_4^8, where BLAS picks its kernels by
# width; the others have F rank 2
SHAPES = [(1,), (2,), (2, 1), (4,)]
F_RANKS = {(4,): 4}
KINDS = ["linear", "quad_diag", "sum", "bump"]
FAMILIES = [
    "scaling", "expansion", "orth-display", "additive", "quadratic",
    "balance", "decompose", "unique", "scalar",
]


def runs(family, f, pair, a, n, seed):
    """The family's row of the table and its per-sample loop, on n samples
    drawn from seed; f may be any callable, as E is given."""
    space_e, space_f = pair.phi.codomain, pair.phi.domain

    def stacked(sampler=None):
        return lambda: run_rows(family, f, space_e, a, pair, sampler, n, TOL, seed)

    if family == "scaling":
        # an explicit sampler's two vectors, then a stack drawn for the rest
        x0, y0 = (x for (x,) in drawn_rows(space_e, [9], 2))
        first = [x0, y0][:n]
        xs = first + [x for (x,) in drawn_rows(space_e, seed, n - len(first))]
        return stacked(hb.explicit_sampler(space_e, [(x0, y0)])), lambda: loop_scaling(f, a, xs)
    if family in ("expansion", "orth-display"):
        samples = drawn_rows(space_f, seed, n, 2)
        if family == "expansion":
            return stacked(), lambda: loop_expansion(f, pair, samples)
        return stacked(), lambda: loop_orth_display(pair, samples)
    if family == "additive":
        return stacked(), lambda: loop_additive(odd_part(f), pair, n, seed)
    if family == "quadratic":
        return stacked(), lambda: loop_quadratic(even_part(f), pair, n, seed)
    if family == "balance":
        return stacked(), lambda: loop_balance(even_part(f), pair, n, seed)
    if family == "decompose":
        return stacked(), lambda: loop_decompose(f, a, pair, n, seed)
    if family == "unique":
        # A and B of f against themselves, drawn on the seed base
        parts = SimpleNamespace(A=odd_part(f), B=polar_form(f))
        return stacked(), lambda: loop_unique(f, parts, parts, n, seed)
    return stacked(), lambda: loop_scalar(f, pair, n, seed)


@pytest.mark.parametrize("dims", SHAPES)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("family", FAMILIES)
def test_family_matches_its_loop_bit_for_bit(dims, kind, family, monkeypatch):
    f_rank = F_RANKS.get(dims, 2)
    f, pair, a = setup(dims, kind, scalar=family == "scalar", f_rank=f_rank)
    seed = [4, FAMILIES.index(family)]
    assert_same(*runs(family, f, pair, a, N, seed), monkeypatch)


# the families that call f once on a stack of stacks of unequal length
RESTACKED = ["scaling", "expansion", "additive", "quadratic", "balance", "decompose", "scalar"]
# with f constant, B is identically zero: these give exactly zero residuals
ZERO_FOR_CONSTANT = {"additive", "quadratic", "balance", "decompose", "scalar"}


@pytest.mark.parametrize("n", [1, 30])
@pytest.mark.parametrize("kind", ["mapping", "plain", "constant"])
@pytest.mark.parametrize("family", RESTACKED)
def test_restacked_family_matches_one_call_per_point(family, kind, n, monkeypatch):
    """Each restacked family against its loop, which calls f once per
    point: a Mapping, a bare lambda with no .domain, and the bundled
    constant_map's constant f, at n = 1 and n = 30."""
    if kind == "constant" and family != "scalar":
        scenario = harness.load_scenario(catalog.bundled_scenario_path("constant_map"))
        ((_, f),) = scenario.mappings
        pair, a = scenario.pair, scenario.coefficient
    else:
        f, pair, a = setup((2, 1), "sum", scalar=family == "scalar")
        if kind == "constant":
            f = mp.Constant(f.domain, f(f.domain.zero()))
        elif kind == "plain":
            mapping = f
            f = lambda x: mapping(x)
    seed = [5, n, RESTACKED.index(family)]
    seen = assert_same(*runs(family, f, pair, a, n, seed), monkeypatch)
    if kind == "constant" and family in ZERO_FOR_CONSTANT:
        # +0.0, never -0.0, though every zero row now shares its norms'
        # batch with the other residuals of its family
        assert set(seen) == {(0.0).hex()}


def test_constant_map_report_prints_positive_zeros():
    scenario = harness.load_scenario(catalog.bundled_scenario_path("constant_map"))
    report = harness.run_suite(scenario).to_obj()
    text = canonical_dumps(report)
    assert '"max_residual":-0.0' not in text
    for entry in report["results"]:
        if entry["id"].startswith(("thm2.7-B", "thm2.7-A", "prop2.5")):
            assert canonical_dumps(entry["max_residual"]) == "0.0", entry["id"]


def test_zero_right_sides_match_explicit_zero_stacks(monkeypatch):
    """B(u, v) = 0 and B(x, x) = 0 are written as B against 0.0 * B: the
    residual of each row is, bit for bit, the one against a stack of
    explicit zeros, on rows where B is finite, NaN, or holds inf. f is
    quad, inf where the sum t of x's real coordinates lies in (4, 8] and
    NaN where t > 8; an inf of f gives B entries inf + NaN i."""
    shape = cj.AlgebraShape((2, 1))
    pair = mp.morphism_shift_pair(shape, 2)
    space_e = pair.phi.codomain
    quad = mp.QuadDiag(space_e, cj.ModuleSpace(shape, 1).basis_vector(0), 0.5)

    def f(x):
        t = alg.to_real(x).sum(axis=-1)[..., None, None]
        bad = np.where(t > 8.0, np.nan, np.where(t > 4.0, np.inf, 0.0))
        return cj.ModuleVector._wrap(quad.codomain, tuple(b + bad for b in quad(x).blocks))

    n, seed = 60, [8]
    columns = {}
    fold = idn._fold

    def record_fold(identity_id, residuals, describe, tol, prior=None):
        columns[identity_id] = residuals
        return fold(identity_id, residuals, describe, tol, prior)

    monkeypatch.setattr(idn, "_fold", record_fold)
    with np.errstate(over="ignore", invalid="ignore"):
        run_rows("decompose", f, space_e, pair.coefficient, pair, None, n, TOL, seed)
        run_rows("scalar", f, space_e, pair.coefficient, pair, None, n, TOL, seed)
        draws = hb.sample_stacks(pair.phi.domain, seed, n, 8)
        u, v = pair.phi(draws[6]), pair.psi(draws[7])
        x = range_vector(pair, *hb.sample_stacks(pair.phi.domain, seed, n, 2))
        for check_id, b, got in [
            ("thm2.7-B-orth-preserving", polar_form(f)(u, v), columns["thm2.7-B-orth-preserving"]),
            ("cor2.9-B-vanishes", polar_form(f)(x, x), columns["cor2.9-B-vanishes"][0]),
        ]:
            zeros = cj.ModuleVector._wrap(b.space, tuple(np.zeros_like(m) for m in b.blocks))
            want = cj.vec_residual(b, zeros)
            assert [r.hex() for r in got.tolist()] == [r.hex() for r in want.tolist()], check_id
            entries = np.concatenate([m.reshape(n, -1) for m in b.blocks], axis=1)
            finite, inf = np.isfinite(entries).all(axis=1), np.isinf(entries).any(axis=1)
            assert finite.any() and inf.any() and (~finite & ~inf).any(), check_id


def test_kernel_quadratic_decompose_bit_for_bit(monkeypatch):
    # a plain callable built on KernelMap, which takes batches of elements
    a, pair, f = cross_block_setup(rank=2)
    assert isinstance(f, KernelQuad)
    assert_same(
        lambda: run_rows("decompose", f, a=a, pair=pair, n=12, tol=TOL, seed=[6]),
        lambda: loop_decompose(f, a, pair, 12, [6]),
        monkeypatch,
    )


def test_stacks_rows_are_the_single_draws():
    # sample-major: row i of stack d is the generator's (2 i + d)-th single draw
    space = cj.ModuleSpace(cj.AlgebraShape((2, 1)), 3)
    first, second = hb.sample_stacks(space, [5], 4, 2)
    assert first.batch == second.batch == (4,)
    rng = np.random.default_rng([5])
    for i in range(4):
        for stack in (first, second):
            want = cj.sample_vector(space, rng)
            got = stack.row(i)
            assert [b.tobytes() for b in got.blocks] == [b.tobytes() for b in want.blocks]
    (empty,) = hb.sample_stacks(space, [5], 0)
    assert empty.batch == (0,)


PREFIX_SCENARIOS = {
    name: json.loads(Path(catalog.bundled_scenario_path(name)).read_bytes())
    for name in ("affine_roundtrip", "perturb_negative")
}
PREFIX_SCENARIOS["wide_shift"] = wide_scenario_obj()
PREFIX_CASES = [
    (name, row)
    for name, obj in PREFIX_SCENARIOS.items()
    for row in idn.FAMILIES
    if set(row.ids) & set(obj["checks"])
]


def drawn_and_folded(name, row, n, monkeypatch):
    """Every stack a family draws for the first mapping of a scenario of
    PREFIX_SCENARIOS at n samples, and every residual column it folds."""
    scenario = harness.scenario_from_obj(PREFIX_SCENARIOS[name], samples=n)
    drawn, columns = [], []
    sample_stacks, fold = hb.sample_stacks, idn._fold

    def record_draw(*args, **kwargs):
        stacks = sample_stacks(*args, **kwargs)
        drawn.extend(stacks)
        return stacks

    def record_fold(identity_id, residuals, describe, tol, prior=None):
        columns.extend(residuals if isinstance(residuals, tuple) else (residuals,))
        return fold(identity_id, residuals, describe, tol, prior)

    with monkeypatch.context() as m:
        m.setattr(hb, "sample_stacks", record_draw)
        m.setattr(idn, "_fold", record_fold)
        harness._mapping_entries(scenario, 0, set(row.ids))
    return drawn, columns


@pytest.mark.parametrize(
    "name, row", PREFIX_CASES, ids=[f"{name}-{row.name}" for name, row in PREFIX_CASES]
)
def test_first_rows_do_not_depend_on_n(name, row, monkeypatch):
    # draws are sample-major, so the first k rows are the same for all n >= k
    k = 7
    few, few_columns = drawn_and_folded(name, row, k, monkeypatch)
    many, many_columns = drawn_and_folded(name, row, 200, monkeypatch)
    assert len(few) == len(many) and len(few_columns) == len(many_columns) > 0
    for small, large in zip(few, many):
        assert len(small.batch) == 1 and large.batch[0] - small.batch[0] == 193
        head = large.row(slice(small.batch[0]))
        assert [b.tobytes() for b in small.blocks] == [b.tobytes() for b in head.blocks]
    for small, large in zip(few_columns, many_columns):
        assert small.tobytes() == large[: small.size].tobytes()


def test_each_family_calls_f_a_pinned_number_of_times(monkeypatch):
    """Every call of f in a full campaign is on a stack, f(0) being a row of
    one: each family calls f once, on one stack, but orth-display, which
    does not call it, and each calls phi and psi at most once."""
    scenario = harness.load_scenario(catalog.bundled_scenario_path("affine_roundtrip"))
    ((_, f),) = scenario.mappings
    pair = scenario.pair
    calls = []
    call = mp.Mapping.__call__

    def counted(g, x):
        calls.append((g, x.batch))
        return call(g, x)

    monkeypatch.setattr(mp.Mapping, "__call__", counted)
    for row in idn.FAMILIES:
        calls.clear()
        assert all(entry.passed for _, entry in harness._mapping_entries(scenario, 0, set(row.ids)))
        f_calls = [batch for g, batch in calls if g is f]
        assert len(f_calls) == (row.name != "orth-display"), row.name
        assert all(batch for batch in f_calls), row.name
        for m in (pair.phi, pair.psi):
            assert sum(g is m for g, _ in calls) <= 1, row.name
        assert all(g in (f, pair.phi, pair.psi) for g, _ in calls)


def test_each_family_frees_its_values_on_return():
    """A family's node values go when run_family returns, by reference
    counts alone: a reference cycle would keep every stack of the family
    until the collector runs, raising peak memory over many calls."""
    scenario = harness.load_scenario(catalog.bundled_scenario_path("affine_roundtrip"))
    for row in idn.FAMILIES:
        harness._mapping_entries(scenario, 0, set(row.ids))
    gc.collect()
    gc.disable()
    try:
        for row in idn.FAMILIES:
            harness._mapping_entries(scenario, 0, set(row.ids))
            assert gc.collect() == 0, row.name
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "side",
    [
        (idn._f(idn._f(idn._DRAW[0])), idn._ZERO),
        (idn._f(idn._phi(idn._DRAW[0])), idn._phi(idn._f(idn._DRAW[1]))),
    ],
    ids=["f-of-f", "through-phi"],
)
def test_table_refuses_a_call_that_needs_its_own_map(side):
    """All calls of a map are one call, so none may need another: a row
    holding f(f(x)), or f and phi each feeding the other, is refused when
    its program is built, alone or beside the table's rows."""
    row = idn.Family("nested", lambda *inputs: (), 0, 2, [idn.Identity("nested", [side], {})])
    for families in ((row,), (*idn.FAMILIES, row)):
        with pytest.raises(ValueError, match="cannot be made as one"):
            idn._program(families)


def nodes_under(exprs) -> set:
    """The nodes at or under exprs (identities._Expr), each once."""
    seen, todo = set(), list(exprs)
    while todo:
        e = todo.pop()
        if e not in seen:
            seen.add(e)
            todo += [x for x in e[1:] if isinstance(x, idn._Expr)]
    return seen


def test_each_family_reads_its_own_run_of_draw_nodes():
    """The table numbers the draw nodes with one running count: a family's
    are exactly first .. first + draws - 1, right after the family's before
    it, so no two families read one stack."""
    first = 0
    for row in idn.FAMILIES:
        under = nodes_under(e for identity in row.identities for e in identity.nodes())
        assert row.first == first, row.name
        assert {e[1] for e in under if e[0] == "draw"} == set(range(first, first + row.draws))
        first += row.draws


def test_each_family_draws_a_stack_per_draw_node():
    scenario = harness.load_scenario(catalog.bundled_scenario_path("affine_roundtrip"))
    for row in idn.FAMILIES:
        rng = np.random.default_rng(0)
        drawn = row.draw(scenario.space_e, scenario.pair, scenario.sampler, 0, 3, rng)
        assert len(drawn) == row.draws, row.name


PAIR_COEFFICIENT_IDS = {"lemma2.2", "lemma2.2-orth", "prop2.5-id211", "prop2.5-id212"}


def test_only_lemma_2_2_and_the_balance_identities_read_the_pair_coefficient():
    for row in idn.FAMILIES:
        for identity in row.identities:
            read = {e[2] for e in nodes_under(identity.nodes()) if e[0] == "coef"}
            if identity.id in PAIR_COEFFICIENT_IDS:
                assert read == {"pair"}, identity.id
            else:
                assert "pair" not in read, identity.id


def test_the_table_program_draws_each_stack_once():
    """The whole table as one program: one zero vector, one step per map,
    and one step per draw node, 27 of them, which a family whose draw
    nodes alias another's would lower."""
    steps = [step[0] for step in idn._program(idn.FAMILIES).schedule.steps]
    assert (steps.count("zero"), steps.count("map"), steps.count("draw")) == (1, 3, 27)
    assert sum(row.draws for row in idn.FAMILIES) == 27


@pytest.mark.parametrize("kind", ["sum", "bump"])
@pytest.mark.parametrize("batch", [None, 5])
def test_derived_maps_call_f_once(kind, batch):
    """The derived maps are macros over f: evaluated together, they call f
    once, and give the bits of their definitions, which call f at each
    point on its own."""
    shape = cj.AlgebraShape((2, 1))
    space_e, space_g = cj.ModuleSpace(shape, 2), cj.ModuleSpace(shape, 1)
    f = mapping_of_kind(kind, space_e, space_g, np.random.default_rng(6))
    x, y = hb.sample_stacks(space_e, [6], batch or 1, 2)
    if batch is None:
        x, y = x.row(0), y.row(0)
    want = (odd_part(f)(x), even_part(f)(x), polar_form(f)(x, y))
    d0, d1 = idn._DRAW[:2]
    calls = []
    counted = mp.Mapping.__call__

    def counting(g, v):
        calls.append(v.batch)
        return counted(g, v)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mp.Mapping, "__call__", counting)
        got = values([idn._odd(d0), idn._even(d0), idn._polar(d0, d1)], f, (x, y))
    rows = batch or 1
    # a Sum calls each child through evaluate, not __call__; f runs on x,
    # -x, 0, x + y, -(x + y), x - y and -(x - y), 0 a row of one
    assert calls == [(6 * rows + 1,)]
    for g, w in zip(got, want):
        assert g.batch == w.batch
        assert [b.tobytes() for b in g.blocks] == [b.tobytes() for b in w.blocks]


def test_kernel_map_rows_match_single_elements():
    a, _, _ = cross_block_setup()
    shape = a.value.shape
    psi = cj.solve_abiadditive_kernel(a, cj.ModuleSpace(shape, 3)).basis[0]
    (xs,) = hb.sample_stacks(cj.ModuleSpace(shape, 2), [8], 5)
    elements = cj.inner_product(xs, xs)  # a batch of five elements
    out = psi(elements)
    assert out.batch == (5,)
    for i in range(5):
        one = elements.row(i)
        want = psi(one)
        assert want.batch == ()
        assert [b.tobytes() for b in out.row(i).blocks] == [b.tobytes() for b in want.blocks]
