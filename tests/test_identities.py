"""The identity table's rows, the maps derived from f, and the decomposition."""
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cstar_jensen as cj
from cstar_jensen import catalog, harness
from cstar_jensen import hilbert as hb
from cstar_jensen import identities as idn
from cstar_jensen import mappings as mp
from cstar_jensen.errors import (
    DomainError,
    InvalidSampler,
    PairConditionViolated,
)
from cstar_jensen.jsonutil import canonical_dumps

from support import (
    SHAPES,
    Worst,
    drawn_rows,
    folded,
    random_affine,
    random_element,
    random_strict_coefficient,
    cross_block_setup,
    cubic_map,
    quartic_map,
    range_vector,
    ref_act,
    ref_add,
    ref_evaluate,
    ref_is_orthogonal,
    ref_pairs,
    ref_residual,
    run_rows,
    seeds,
    unvalidated_pair,
    values,
    wide,
    zero_map,
)

SCALAR = cj.AlgebraShape((1,))
TWO_BLOCKS = cj.AlgebraShape((1, 1))


def scalar_space(rank):
    return cj.ModuleSpace(SCALAR, rank)


def scalar_coefficient(shape, p):
    return cj.validate_coefficient(
        cj.vec_scale(cj.unit(shape), p), require_strict_order=True
    )


def simple_affine():
    """f(x) = 3x + 5 over E = G = C."""
    space = scalar_space(1)
    three = cj.vec_scale(cj.unit(SCALAR), 3.0)
    five = cj.vec_scale(space.basis_vector(0), 5.0)
    return cj.compose_jensen(cj.Linear([[three]]), None, five)


def scaling_on(f, a, xs, tol=1e-9):
    """The scaling family on the vectors xs, handed over as an explicit
    sampler's pairs, the last one padded with a zero vector."""
    space = xs[0].space
    padded = list(xs) + [space.zero()] * (len(xs) % 2)
    sampler = hb.explicit_sampler(space, zip(padded[0::2], padded[1::2]))
    return run_rows("scaling", f, a=a, sampler=sampler, n=len(xs), tol=tol)


class TestScalingSuite:
    def test_exact_for_simple_affine(self):
        f = simple_affine()
        a = scalar_coefficient(SCALAR, 0.5)
        xs = [
            cj.vec_scale(scalar_space(1).basis_vector(0), t)
            for t in (0.0, 1.0, -2.0, 0.7)
        ]
        for entry in scaling_on(f, a, xs):
            assert entry.passed
            assert entry.max_residual < 1e-14

    def test_quarter_residual_for_unit_quadratic(self):
        # f(x) = <x, x> g, a = 1/2, |x| = 1:
        # identity i gives |2 - 1| / (1 + 2 + 1) = 1/4 exactly
        space = scalar_space(1)
        g_space = scalar_space(1)
        f = mp.QuadDiag(space, g_space.basis_vector(0), 0.5)
        a = scalar_coefficient(SCALAR, 0.5)
        entries = scaling_on(f, a, [space.basis_vector(0)])
        first = entries[0]
        assert first.identity_id == "lemma2.1-i"
        assert not first.passed
        assert first.max_residual == pytest.approx(0.25, abs=1e-14)

    @given(st.sampled_from(SHAPES), seeds())
    @settings(max_examples=25, deadline=None)
    def test_affine_passes_for_any_strict_coefficient(self, dims, seed):
        shape = cj.AlgebraShape(dims)
        rng = np.random.default_rng(seed)
        space_e = cj.ModuleSpace(shape, 3)
        space_g = cj.ModuleSpace(shape, 2)
        f = random_affine(space_e, space_g, rng)
        a = random_strict_coefficient(shape, rng)
        xs = [cj.sample_vector(space_e, rng) for _ in range(8)]
        for entry in scaling_on(f, a, xs):
            assert entry.max_residual < 1e-11, entry.identity_id

    def test_report_ids_in_order(self):
        f = simple_affine()
        a = scalar_coefficient(SCALAR, 0.25)
        ids = [
            e.identity_id
            for e in scaling_on(f, a, [scalar_space(1).zero()])
        ]
        assert ids == list(idn.FAMILY_OF["lemma2.1-i"].ids)


class TestOrthogonalJensen:
    def test_affine_passes_on_disjoint_sampler(self):
        shape = cj.AlgebraShape((2, 1))
        space_e = cj.ModuleSpace(shape, 4)
        space_g = cj.ModuleSpace(shape, 1)
        rng = np.random.default_rng(14)
        f = random_affine(space_e, space_g, rng)
        a = random_strict_coefficient(shape, rng)
        sampler = cj.disjoint_support_sampler(space_e, [0, 1], [2, 3])
        entry = cj.check_orthogonal_jensen(f, a, sampler, n=50, seed=[1])
        assert entry.passed
        assert entry.samples == 50

    def test_quadratic_fails_for_scalar_coefficient(self):
        space_e = scalar_space(2)
        f = mp.QuadDiag(space_e, scalar_space(1).basis_vector(0), 1.0)
        a = scalar_coefficient(SCALAR, 0.5)
        sampler = cj.disjoint_support_sampler(space_e, [0], [1])
        entry = cj.check_orthogonal_jensen(f, a, sampler, n=40, seed=[2])
        assert not entry.passed
        assert entry.max_residual > 1e-3
        assert entry.worst_input is not None

    def test_kernel_quadratic_is_jensen(self):
        a, pair, f = cross_block_setup()
        sampler = hb.pair_image_sampler(pair)
        entry = cj.check_orthogonal_jensen(f, a, sampler, n=40, seed=[3])
        assert entry.passed

    def test_rejects_lying_sampler(self):
        space = scalar_space(2)
        x = space.basis_vector(0)
        y = cj.vec_add(space.basis_vector(0), space.basis_vector(1))
        sampler = hb.explicit_sampler(space, [(x, y)])
        f = zero_map(space, scalar_space(1))
        a = scalar_coefficient(SCALAR, 0.5)
        with pytest.raises(InvalidSampler):
            cj.check_orthogonal_jensen(f, a, sampler, n=1)


def loop_check(f, a, sampler, n, seed):
    """check_orthogonal_jensen as a per-pair loop in the reference
    arithmetic: every residual in order, and the entry Worst makes of them."""
    residuals = []
    worst = Worst()
    space = sampler.space
    for x, y in ref_pairs(sampler, n, seed):
        xw, yw = wide(x), wide(y)
        if not ref_is_orthogonal(xw, yw, space.algebra):
            raise InvalidSampler("sampler emitted a non-orthogonal pair")
        lhs = ref_evaluate(f, ref_add(ref_act(a.value, xw), ref_act(a.co, yw)), space)
        rhs = ref_add(
            ref_act(a.value, ref_evaluate(f, xw, space)),
            ref_act(a.co, ref_evaluate(f, yw, space)),
        )
        r = ref_residual(lhs, rhs)
        residuals.append(r)
        worst.update(r, lambda x=x, y=y: {"x": x.to_obj(), "y": y.to_obj()})
    return residuals, worst.result("eq-1.1", 1e-9)


def single_vector_residuals(f, a, sampler, n, seed):
    """The eq-1.1 residuals of the library's operations on one pair at a
    time, the batch () form of what check_orthogonal_jensen does on stacks."""
    residuals = []
    for x, y in ref_pairs(sampler, n, seed):
        assert hb.orthogonality_residual(x, y) <= hb.ORTHOGONALITY_TOL
        lhs = f(cj.vec_add(cj.act(a.value, x), cj.act(a.co, y)))
        rhs = cj.vec_add(cj.act(a.value, f(x)), cj.act(a.co, f(y)))
        residuals.append(cj.vec_residual(lhs, rhs))
    return residuals


def stacked_check(f, a, sampler, n, seed, monkeypatch):
    """check_orthogonal_jensen with every residual it hands to _fold."""
    seen = []
    fold = idn._fold

    def record(identity_id, residuals, describe, tol, prior=None):
        seen.extend(folded(residuals))
        return fold(identity_id, residuals, describe, tol, prior)

    with monkeypatch.context() as m:
        m.setattr(idn, "_fold", record)
        entry = cj.check_orthogonal_jensen(f, a, sampler, n=n, tol=1e-9, seed=seed)
    return seen, entry


def mapping_of_kind(kind, space_e, space_g, rng):
    affine = random_affine(space_e, space_g, rng)
    linear = affine.children[0]
    g = cj.sample_vector(space_g, rng)
    quad = mp.QuadDiag(space_e, g, 0.3)
    if kind == "linear":
        return linear
    if kind == "constant":
        return mp.Constant(space_e, g)
    if kind == "sum":
        return cj.compose_jensen(linear, quad, g)
    if kind == "quad_diag":
        return quad
    if kind == "bump":
        # a site among the sampled points' scale, so some rows fall inside
        site = cj.vec_scale(cj.sample_vector(space_e, rng), 0.3)
        return mp.Sum([affine, mp.Bump(site, g, 2.5)])
    if kind == "callable":
        return lambda x: cj.vec_add(linear(x), quad(x))
    raise AssertionError(kind)


def sampler_of_mode(mode, shape, e_rank, rng):
    space_e = cj.ModuleSpace(shape, e_rank)
    if mode == "disjoint_support":
        half = e_rank // 2
        return cj.disjoint_support_sampler(space_e, range(half), range(half, e_rank))
    if mode == "pair_image":
        a = random_strict_coefficient(shape, rng)
        return hb.pair_image_sampler(cj.inclusion_pair(shape, 1, e_rank, a))
    if mode == "explicit":
        left = cj.disjoint_support_sampler(space_e, [0], range(1, e_rank))
        return hb.explicit_sampler(space_e, ref_pairs(left, 5, [31]))
    raise AssertionError(mode)


KINDS = ["linear", "constant", "sum", "quad_diag", "bump", "callable"]
MODES = ["disjoint_support", "pair_image", "explicit"]


class TestStackedJensen:
    @pytest.mark.parametrize("dims", [(1,), (2,), (1, 1), (2, 1), (3,)])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_residuals_match_the_loop_bit_for_bit(self, dims, mode, kind, monkeypatch):
        shape = cj.AlgebraShape(dims)
        rng = np.random.default_rng([dims, MODES.index(mode), KINDS.index(kind)])
        e_rank, g_rank = 3, 2
        sampler = sampler_of_mode(mode, shape, e_rank, rng)
        f = mapping_of_kind(kind, sampler.space, cj.ModuleSpace(shape, g_rank), rng)
        a = random_strict_coefficient(shape, rng)
        want, want_entry = loop_check(f, a, sampler, 12, [5, 1])
        seen, entry = stacked_check(f, a, sampler, 12, [5, 1], monkeypatch)
        assert [r.hex() for r in seen] == [r.hex() for r in want]
        assert all(type(r) is float for r in seen)
        assert entry.to_obj() == want_entry.to_obj()
        single = single_vector_residuals(f, a, sampler, 12, [5, 1])
        assert [r.hex() for r in single] == [r.hex() for r in want]

    def test_kernel_quadratic_callable_bit_for_bit(self, monkeypatch):
        a, pair, f = cross_block_setup(rank=2)
        sampler = hb.pair_image_sampler(pair)
        want, want_entry = loop_check(f, a, sampler, 15, [3])
        seen, entry = stacked_check(f, a, sampler, 15, [3], monkeypatch)
        assert [r.hex() for r in seen] == [r.hex() for r in want]
        assert entry.to_obj() == want_entry.to_obj()

    def test_f_called_once_on_one_stack(self, monkeypatch):
        shape = cj.AlgebraShape((2,))
        space_e, space_g = cj.ModuleSpace(shape, 4), cj.ModuleSpace(shape, 2)
        rng = np.random.default_rng(40)
        f = random_affine(space_e, space_g, rng)
        sampler = cj.disjoint_support_sampler(space_e, [0, 1], [2, 3])
        calls = []
        call = mp.Mapping.__call__

        def counted(g, x):
            calls.append(x.batch)
            return call(g, x)

        monkeypatch.setattr(mp.Mapping, "__call__", counted)
        a = random_strict_coefficient(shape, rng)
        entry = cj.check_orthogonal_jensen(f, a, sampler, n=30)
        # one call on the three stacks of 30 rows, none per vector
        assert entry.passed and calls == [(90,)]

    def test_second_pair_not_orthogonal_raises(self):
        space = scalar_space(2)
        e0, e1 = space.basis_vector(0), space.basis_vector(1)
        sampler = hb.explicit_sampler(space, [(e0, e1), (e0, cj.vec_add(e0, e1))])
        f = zero_map(space, scalar_space(1))
        a = scalar_coefficient(SCALAR, 0.5)
        assert cj.check_orthogonal_jensen(f, a, sampler, n=1).passed
        with pytest.raises(InvalidSampler):
            cj.check_orthogonal_jensen(f, a, sampler, n=2)

    def test_a_refused_pair_names_its_row_and_residual(self):
        # row 1 is (e_0, e_0 + e_1): <x, y> = 1, ||x|| ||y|| = sqrt(2)
        space = scalar_space(2)
        e0, e1 = space.basis_vector(0), space.basis_vector(1)
        sampler = hb.explicit_sampler(space, [(e0, e1), (e0, cj.vec_add(e0, e1))])
        f = zero_map(space, scalar_space(1))
        with pytest.raises(InvalidSampler) as info:
            cj.check_orthogonal_jensen(f, scalar_coefficient(SCALAR, 0.5), sampler, n=3)
        residual = 1 / (1 + math.sqrt(2))
        assert str(info.value) == (
            f"sampler emitted a non-orthogonal pair at row 1: "
            f"orthogonality residual {residual:.3e}, tolerance 1e-09"
        )

    def test_nan_residual_fails_and_names_its_pair(self):
        # an overflowing constant gives NaN on every row; the first pair is the worst
        space_e, space_g = scalar_space(2), scalar_space(1)
        big = cj.vec_scale(space_g.basis_vector(0), 1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            f = mp.Constant(space_e, cj.vec_scale(big, 1e200))
            sampler = cj.disjoint_support_sampler(space_e, [0], [1])
            a = scalar_coefficient(SCALAR, 0.5)
            want_residuals, want = loop_check(f, a, sampler, 4, [8])
            entry = cj.check_orthogonal_jensen(f, a, sampler, n=4, seed=[8])
        assert all(math.isnan(r) for r in want_residuals)
        assert math.isnan(entry.max_residual) and not entry.passed
        assert entry.worst_input == want.worst_input

    def test_zero_samples(self):
        space = scalar_space(2)
        sampler = cj.disjoint_support_sampler(space, [0], [1])
        f = zero_map(space, scalar_space(1))
        a = scalar_coefficient(SCALAR, 0.5)
        for n in (0, -3):
            with pytest.raises(DomainError):
                cj.check_orthogonal_jensen(f, a, sampler, n=n)

    def test_explicit_sampler_reused_unchanged(self):
        # seven samples cycle through three pairs; a second check on the same
        # sampler sees the same pairs
        shape = cj.AlgebraShape((2,))
        rng = np.random.default_rng(12)
        space_e = cj.ModuleSpace(shape, 3)
        left = cj.disjoint_support_sampler(space_e, [0], [1, 2])
        sampler = hb.explicit_sampler(space_e, ref_pairs(left, 3, [31]))
        f = random_affine(space_e, cj.ModuleSpace(shape, 2), rng)
        a = random_strict_coefficient(shape, rng)
        before = [b.copy() for pair in sampler.pairs for v in pair for b in v.blocks]
        first = cj.check_orthogonal_jensen(f, a, sampler, n=7, seed=[1])
        second = cj.check_orthogonal_jensen(f, a, sampler, n=7, seed=[1])
        after = [b for pair in sampler.pairs for v in pair for b in v.blocks]
        assert first.samples == 7 and first.to_obj() == second.to_obj()
        assert all(np.array_equal(x, y) for x, y in zip(before, after))


class TestNoSamples:
    """A check on no samples would pass on nothing, so every family refuses."""

    def setup_method(self):
        self.scenario = harness.load_scenario(catalog.bundled_scenario_path("quad_negative"))
        ((_, self.f),) = self.scenario.mappings

    def test_quad_fails_on_samples_and_refuses_none(self):
        s = self.scenario
        entry = idn.check_orthogonal_jensen(self.f, s.coefficient, s.sampler, n=200)
        assert entry.samples == 200 and entry.max_residual > 0.1 and not entry.passed
        for n in (0, -3):
            with pytest.raises(DomainError):
                idn.check_orthogonal_jensen(self.f, s.coefficient, s.sampler, n=n)

    def test_every_sampled_family_refuses_zero_samples(self):
        s = self.scenario
        names = ("scaling", "expansion", "orth-display", "additive", "quadratic", "balance", "decompose")
        for name in names:
            with pytest.raises(DomainError):
                run_rows(name, self.f, a=s.coefficient, pair=s.pair, sampler=s.sampler, n=0)

    def test_sample_stacks_draws_none_and_refuses_fewer(self):
        space = self.scenario.space_e
        (empty,) = hb.sample_stacks(space, 7, 0)
        assert empty.batch == (0,)
        with pytest.raises(DomainError):
            hb.sample_stacks(space, 7, -3)


class TestPairExpansion:
    def test_affine_exact_over_interleave(self):
        pair = cj.interleave_pair(0.25, 8)
        rng = np.random.default_rng(15)
        f = random_affine(pair.phi.codomain, scalar_space(2), rng)
        (entry,) = run_rows("expansion", f, pair=pair, n=20, seed=[15])
        assert entry.passed
        assert entry.max_residual < 1e-12

    def test_orthogonality_display_vanishes(self):
        pair = cj.interleave_pair(0.75, 8)
        (entry,) = run_rows("orth-display", None, pair.phi.codomain, pair=pair, n=20, seed=[16])
        assert entry.passed

    @pytest.mark.parametrize("seed", [7, 12345])
    def test_orthogonality_display_is_scale_free(self, seed):
        # at p = 1e-4, psi is scaled by 1e4: the bare norm of the display's
        # inner product read 2.2e-8 and 3.0e-8 at these seeds and failed;
        # the orthogonality residual divides it by the factors' norms
        pair = cj.interleave_pair(1e-4, 8)
        (entry,) = run_rows("orth-display", None, pair.phi.codomain, pair=pair, n=200, seed=[seed])
        assert entry.passed and entry.samples == 200
        assert entry.max_residual < 1e-12

    def test_display_detects_broken_balance(self):
        # psi scaled the wrong way: the display's residual is far from zero
        space_f = scalar_space(1)
        z, one = cj.zero(SCALAR), cj.unit(SCALAR)
        phi = cj.Linear([[one, z]])
        psi = cj.Linear([[z, cj.vec_scale(one, 3.0)]])
        a = scalar_coefficient(SCALAR, 0.5)
        pair = unvalidated_pair(phi, psi, a)
        (entry,) = run_rows("orth-display", None, phi.codomain, pair=pair, n=5, seed=[16])
        assert entry.max_residual > 1e-3

    def test_zero_and_coefficient_products_once_per_check(self):
        from test_stacked_checks import loop_expansion, loop_orth_display

        scenario = harness.load_scenario(catalog.bundled_scenario_path("affine_roundtrip"))
        _, f = scenario.mappings[0]
        pair, a = scenario.pair, scenario.pair.coefficient
        space_f = pair.phi.domain
        samples = drawn_rows(space_f, [7, 0, 2], scenario.samples, 2)

        class Counted:
            def __init__(self):
                self.domain, self.codomain, self.calls = f.domain, f.codomain, []

            def __call__(self, x):
                # the rows, and whether each is the zero vector
                self.calls.append([not b.any() for b in x.blocks[0]])
                return f(x)

        counted = Counted()
        products = []
        act = cj.algebra.act_blocks
        # the evaluator acts on block tuples: a part's are its blocks
        parts = tuple(c.blocks for c in (a.value, a.inv, a.co, a.co_inv))

        def counted_act(b, x):
            # a product of two coefficient parts, not an action on a vector
            if any(b is c for c in parts) and any(x is c for c in parts):
                products.append((b, x))
            return act(b, x)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(cj.algebra, "act_blocks", counted_act)
            (entry,) = run_rows("expansion", counted, pair=pair, n=scenario.samples, seed=[7, 0, 2])
            (orth,) = run_rows("orth-display", f, pair=pair, n=scenario.samples, seed=[7, 0, 2])
        assert scenario.samples == 40
        # one call of f: six stacks of the 40 samples and the zero vector
        (rows,) = counted.calls
        assert len(rows) == 6 * 40 + 1 and sum(rows) == 1
        # each product once per check: three for the expansion, two for the display
        assert len(products) == 3 + 2

        # the same values as computing f(0) and the products for every sample
        assert entry.to_obj() == loop_expansion(f, pair, samples).to_obj()
        assert orth.to_obj() == loop_orth_display(pair, samples).to_obj()


D0, D1 = idn._DRAW[:2]


class TestOddEvenSplit:
    def test_parts_recombine(self):
        space_e = scalar_space(2)
        rng = np.random.default_rng(17)
        f = random_affine(space_e, scalar_space(1), rng)
        x = cj.sample_vector(space_e, rng)
        odd, even, f0 = values([idn._odd(D0), idn._even(D0), idn._f(idn._ZERO)], f, (x,))
        back = cj.vec_add(cj.vec_add(odd, even), f0)
        assert cj.vec_residual(back, f(x)) < 1e-14

    def test_additive_part_vanishes_at_zero(self):
        f = simple_affine()
        (at_zero,) = values([idn._odd(idn._ZERO)], f, ())
        assert cj.module_norm(at_zero) == 0.0

    def test_polar_form_bitwise_symmetric(self):
        space_e = cj.ModuleSpace(TWO_BLOCKS, 3)
        rng = np.random.default_rng(18)
        f = random_affine(space_e, cj.ModuleSpace(TWO_BLOCKS, 1), rng)
        x = cj.sample_vector(space_e, rng)
        y = cj.sample_vector(space_e, rng)
        bxy, byx = values([idn._polar(D0, D1), idn._polar(D1, D0)], f, (x, y))
        assert cj.vec_residual(bxy, byx) == 0.0

    def test_polar_form_kills_zero_argument(self):
        space_e = scalar_space(2)
        rng = np.random.default_rng(19)
        f = random_affine(space_e, scalar_space(1), rng)
        x = cj.sample_vector(space_e, rng)
        (bx0,) = values([idn._polar(D0, idn._ZERO)], f, (x,))
        assert cj.module_norm(bx0) == 0.0

    def test_polarization_recovers_quad_form(self):
        space_e = cj.ModuleSpace(TWO_BLOCKS, 2)
        g_space = cj.ModuleSpace(TWO_BLOCKS, 1)
        diag = mp.QuadDiag(space_e, g_space.basis_vector(0), 0.8)
        bimap = diag.bimap
        rng = np.random.default_rng(20)
        for _ in range(10):
            x = cj.sample_vector(space_e, rng)
            y = cj.sample_vector(space_e, rng)
            (bxy,) = values([idn._polar(D0, D1)], diag, (x, y))
            assert cj.vec_residual(bxy, bimap(x, y)) < 1e-12


class TestPairRangeChecks:
    def test_linear_is_additive_on_range(self):
        pair = cj.interleave_pair(0.5, 8)
        rng = np.random.default_rng(21)
        f = random_affine(pair.phi.codomain, scalar_space(1), rng)
        (entry,) = run_rows("additive", f, pair=pair, n=30, seed=[4])
        assert entry.passed

    def test_cubic_is_not_additive(self):
        # the odd part of a quadratic map is zero; a cubic map is its own
        pair = cj.interleave_pair(0.5, 8)
        f = cubic_map(pair.phi.codomain, scalar_space(1), np.random.default_rng(5))
        (entry,) = run_rows("additive", f, pair=pair, n=30, seed=[5])
        assert not entry.passed
        assert entry.max_residual > 1e-3

    def test_quad_diag_satisfies_quadratic_equation(self):
        pair = cj.interleave_pair(0.5, 8)
        f = mp.QuadDiag(pair.phi.codomain, scalar_space(1).basis_vector(0), 1.0)
        (entry,) = run_rows("quadratic", f, pair=pair, n=30, seed=[6])
        assert entry.passed
        assert entry.max_residual < 1e-12

    def test_quartic_fails_quadratic_equation(self):
        # the centered even part of an affine map is zero; a quartic map is its own
        pair = cj.interleave_pair(0.5, 8)
        f = quartic_map(pair.phi.codomain, scalar_space(1).basis_vector(0))
        (entry,) = run_rows("quadratic", f, pair=pair, n=30, seed=[7])
        assert not entry.passed
        assert entry.max_residual > 1e-3

    def test_balance_identities_hold_at_half(self):
        pair = cj.interleave_pair(0.5, 8)
        f = mp.QuadDiag(pair.phi.codomain, scalar_space(1).basis_vector(0), 1.0)
        doubled, plain = run_rows("balance", f, pair=pair, n=20, seed=[8])
        assert doubled.identity_id == "prop2.5-id211"
        assert plain.identity_id == "prop2.5-id212"
        assert doubled.passed and plain.passed

    def test_balance_identities_fail_off_half(self):
        pair = cj.interleave_pair(0.25, 8)
        f = mp.QuadDiag(pair.phi.codomain, scalar_space(1).basis_vector(0), 1.0)
        doubled, plain = run_rows("balance", f, pair=pair, n=20, seed=[9])
        assert not doubled.passed and not plain.passed
        assert doubled.max_residual > 1e-3


class TestDecompose:
    def test_affine_decomposition_certifies(self):
        shape = cj.AlgebraShape((2,))
        rng = np.random.default_rng(23)
        a = random_strict_coefficient(shape, rng)
        pair = cj.inclusion_pair(shape, 1, 3, a)
        f = random_affine(pair.phi.codomain, cj.ModuleSpace(shape, 2), rng)
        entries = run_rows("decompose", f, a=a, pair=pair, n=40, seed=[10])
        assert all(e.passed for e in entries)
        report = {e.identity_id: e for e in entries}
        assert list(report) == list(idn.FAMILY_OF["thm2.7-reconstruct"].ids)
        assert set(report) == {
            "thm2.7-reconstruct",
            "thm2.7-A-a-additive",
            "thm2.7-B-symmetric",
            "thm2.7-B-biadditive",
            "thm2.7-B-a-biadditive",
            "thm2.7-B-orth-preserving",
        }
        x = cj.sample_vector(pair.phi.codomain, rng)
        (bxx,) = values([idn._polar(D0, D0)], f, (x,))
        assert cj.module_norm(bxx) < 1e-9

    def test_kernel_quadratic_decomposition_certifies(self):
        a, pair, f = cross_block_setup()
        assert all(e.passed for e in run_rows("decompose", f, a=a, pair=pair, n=40, seed=[11]))
        # B is genuinely nonzero here
        x = range_vector(pair, *hb.sample_stacks(pair.phi.domain, [12], 1, 2)).row(0)
        (bxx,) = values([idn._polar(D0, D0)], f, (x,))
        assert cj.module_norm(bxx) > 1e-3

    def test_quad_diag_breaks_only_a_biadditivity(self):
        pair = cj.interleave_pair(0.5, 4)
        a = scalar_coefficient(SCALAR, 0.5)
        f = mp.QuadDiag(pair.phi.codomain, scalar_space(1).basis_vector(0), 1.0)
        entries = run_rows("decompose", f, a=a, pair=pair, n=30, seed=[13])
        report = {e.identity_id: e for e in entries}
        assert not all(e.passed for e in entries)
        assert not report["thm2.7-B-a-biadditive"].passed
        assert report["thm2.7-B-a-biadditive"].max_residual > 1e-3
        assert report["thm2.7-reconstruct"].passed
        assert report["thm2.7-B-symmetric"].passed
        assert report["thm2.7-B-biadditive"].passed
        assert report["thm2.7-B-orth-preserving"].passed

    def test_two_seeds_agree(self):
        shape = cj.AlgebraShape((1,))
        rng = np.random.default_rng(24)
        a = scalar_coefficient(shape, 0.35)
        pair = cj.inclusion_pair(shape, 2, 4, a)
        f = random_affine(pair.phi.codomain, scalar_space(1), rng)
        for seed in ([14], [15]):
            assert all(e.passed for e in run_rows("decompose", f, a=a, pair=pair, n=20, seed=seed))
        (entry,) = run_rows("unique", f, pair=pair, n=30, tol=1e-10, seed=[16])
        assert entry.passed and entry.samples == 2 * 31

    def test_shifted_additive_part_differs(self):
        shape = cj.AlgebraShape((1,))
        rng = np.random.default_rng(25)
        a = scalar_coefficient(shape, 0.5)
        pair = cj.inclusion_pair(shape, 2, 4, a)
        space_e = pair.phi.codomain
        f = random_affine(space_e, scalar_space(1), rng)
        g = cj.compose_jensen(
            mp.Sum([f, random_affine(space_e, scalar_space(1), rng)]),
            None,
            scalar_space(1).zero(),
        )
        (x,) = hb.sample_stacks(space_e, [19], 30)
        (a_f,), (a_g,) = (values([idn._odd(D0)], h, (x,)) for h in (f, g))
        assert np.max(cj.vec_residual(a_f, a_g)) > 1e-3


class NanOutside(mp.Mapping):
    """Zero inside the ball ||x|| < radius and NaN outside it."""

    def __init__(self, domain, codomain, radius):
        super().__init__(domain, codomain)
        object.__setattr__(self, "radius", radius)

    def evaluate(self, x):
        inside = np.asarray(cj.module_norm(x) < self.radius)[..., None, None]
        value = np.where(inside, 0j, complex(math.nan, 0.0))
        return cj.ModuleVector._wrap(
            self.codomain,
            tuple(
                np.broadcast_to(value, x.batch + (n, self.codomain.rank * n))
                for n in self.codomain.algebra.block_dims
            ),
        )


class TestDecomposeNaN:
    def test_nan_in_the_second_residual_fails_a_biadditivity(self):
        # with a = -1/2, B(ax, ax) evaluates f at +-x, inside the ball, and
        # B(cx, cx) at +-3x, outside it on the largest samples: the larger of
        # the two residuals is NaN there, never the finite 0.0
        a = cj.validate_coefficient(cj.vec_scale(cj.unit(SCALAR), -0.5))
        pair = cj.inclusion_pair(SCALAR, 1, 2, a)
        # decompose's x: the first two of its eight stacks of F
        z, w = hb.sample_stacks(pair.phi.domain, [30], 20, 8)[:2]
        stack = range_vector(pair, z, w)
        xs = [stack.row(i) for i in range(20)]
        radius = 2.5 * max(cj.module_norm(x) for x in xs)
        f = NanOutside(pair.phi.codomain, scalar_space(1), radius)
        entries = run_rows("decompose", f, a=a, pair=pair, n=20, seed=[30])
        entry = {e.identity_id: e for e in entries}["thm2.7-B-a-biadditive"]
        assert math.isnan(entry.max_residual) and not entry.passed
        outside = [
            cj.module_norm(cj.vec_add(cj.act(a.co, x), cj.act(a.co, x))) >= radius for x in xs
        ]
        assert 0 < sum(outside) < len(xs)
        assert entry.worst_input == {"x": xs[outside.index(True)].to_obj()}


class TestScalarReduction:
    @pytest.mark.parametrize("p", [1 / 3, 0.5, 0.75])
    def test_affine_quadratic_part_vanishes(self, p):
        pair = cj.interleave_pair(p, 8)
        rng = np.random.default_rng(26)
        f = random_affine(pair.phi.codomain, scalar_space(1), rng)
        a = scalar_coefficient(SCALAR, p)
        (entry,) = run_rows("scalar", f, a=a, pair=pair, n=30, seed=[20])
        assert entry.identity_id == "cor2.9-B-vanishes"
        assert entry.passed

    def test_injected_quadratic_detected(self):
        p = 0.5
        pair = cj.interleave_pair(p, 8)
        rng = np.random.default_rng(27)
        space_e = pair.phi.codomain
        quad = mp.QuadDiag(space_e, scalar_space(1).basis_vector(0), 1.0)
        f = mp.Sum([random_affine(space_e, scalar_space(1), rng), quad])
        (entry,) = run_rows("scalar", f, a=scalar_coefficient(SCALAR, p), pair=pair, n=30, seed=[21])
        assert not entry.passed
        assert entry.max_residual > 1e-3

    def test_nonconforming_pair_rejected(self):
        # the inclusion pair balances the unswapped condition, which for
        # p != 1/2 breaks the swapped one this check needs
        shape = cj.AlgebraShape((1,))
        a = scalar_coefficient(shape, 0.3)
        pair = cj.inclusion_pair(shape, 1, 2, a)
        f = random_affine(pair.phi.codomain, scalar_space(1), np.random.default_rng(28))
        with pytest.raises(PairConditionViolated):
            run_rows("scalar", f, a=a, pair=pair, n=5, seed=[22])

    def test_scalar_balance_refusal_names_the_first_basis_pair(self):
        # the pair balances 1 - p = 0.75; with p = 0.5 every diagonal basis
        # pair breaks (1-p)^2 <phi, phi> = p^2 <psi, psi>
        pair = cj.interleave_pair(0.25, 8)
        f = zero_map(pair.phi.codomain, scalar_space(1))
        with pytest.raises(PairConditionViolated) as info:
            run_rows("scalar", f, a=scalar_coefficient(SCALAR, 0.5), pair=pair, n=5, seed=[23])
        assert info.value.condition == "scalar-balance"
        e0 = pair.phi.domain.basis_vector(0)
        gram_phi = cj.inner_product(pair.phi(e0), pair.phi(e0))
        gram_psi = cj.inner_product(pair.psi(e0), pair.psi(e0))
        want = cj.vec_residual(cj.vec_scale(gram_phi, 0.25), cj.vec_scale(gram_psi, 0.25))
        assert info.value.residual.hex() == want.hex()
        assert "basis pair (0, 0)" in str(info.value)

    def test_scalar_balance_beyond_the_gram_range_is_refused(self):
        # the pair balances p = 1e-3; swapped, (1-p)^2 <phi, phi> is about
        # 1e156, whose norm overflows, and a NaN residual must refuse too
        p = 1e-3
        one, z = cj.unit(SCALAR), cj.zero(SCALAR)
        phi = cj.Linear([[cj.vec_scale(one, 1e78), z]])
        psi = cj.Linear([[z, cj.vec_scale(one, 1e78 * p / (1 - p))]])
        pair = cj.validate_pair(phi, psi, scalar_coefficient(SCALAR, p))
        f = zero_map(phi.codomain, scalar_space(1))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(PairConditionViolated) as info:
                run_rows("scalar", f, a=scalar_coefficient(SCALAR, p), pair=pair, n=5, seed=[25])
        assert info.value.condition == "scalar-balance"

    def test_scalar_balance_names_the_worst_basis_pair(self):
        # psi(e_1) = 0.001 e_0 + 2 e_1 against phi(e_1) = e_1: pair (0, 0)
        # balances, (0, 1) and (1, 0) fail by about 2.5e-4, and (1, 1), the
        # worst, by 1/3; the refusal names (1, 1), not the first failure
        one, z = cj.unit(SCALAR), cj.zero(SCALAR)
        phi = cj.Linear([[one, z], [z, one]])
        psi = cj.Linear([[one, z], [cj.vec_scale(one, 1e-3), cj.vec_scale(one, 2.0)]])
        a = scalar_coefficient(SCALAR, 0.5)
        pair = unvalidated_pair(phi, psi, a)
        table = mp.balance_residuals(a, *pair.grams)
        assert (table > mp.PAIR_VALIDATION_TOL).tolist() == [[False, True], [True, True]]
        f = zero_map(phi.codomain, scalar_space(1))
        with pytest.raises(PairConditionViolated) as info:
            run_rows("scalar", f, a=a, pair=pair, n=5, seed=[24])
        assert "scalar balance condition fails at basis pair (1, 1) with" in str(info.value)
        assert info.value.residual == table[1, 1] == np.max(table)

    @given(
        st.floats(0.05, 0.95),
        seeds(),
        st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1.0]),
        st.integers(0, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_scalar_family_refuses_iff_the_swapped_balance_table_does(self, p, seed, skew, bent):
        # for a random C, phi(z) = z C / (1 - p), and psi(z) = z C' / p on
        # the other half of E, with row bent of C' scaled by 1 + skew:
        # (1-p)^2 <phi, phi> = p^2 <psi, psi> holds up to skew
        rng = np.random.default_rng(seed)
        rank = 3
        c = [[cj.vec_scale(random_element(SCALAR, rng), 1.0 / p) for _ in range(rank)] for _ in range(rank)]
        z = cj.zero(SCALAR)
        phi = cj.Linear([[cj.vec_scale(x, p / (1.0 - p)) for x in row] + [z] * rank for row in c])
        psi = cj.Linear(
            [[z] * rank + [cj.vec_scale(x, 1.0 + skew * (i == bent)) for x in row] for i, row in enumerate(c)]
        )
        a = scalar_coefficient(SCALAR, p)
        pair = unvalidated_pair(phi, psi, a)
        swapped = cj.algebra.Coefficient(a.co, a.co_inv, a.value, a.inv)
        table = mp.balance_residuals(swapped, *pair.grams)
        # the table of the scaled Grams, the arithmetic Cor. 2.9 states
        gram_phi, gram_psi = pair.grams
        scaled = cj.vec_residual(cj.vec_scale(gram_phi, (1 - p) ** 2), cj.vec_scale(gram_psi, p * p))
        assert np.all(abs(table - scaled) <= 1e-15)
        # the table is indexed by the basis pair; the refusal names its
        # worst entry, the first largest in row-major order
        assert table.shape == (rank, rank)
        worst = np.unravel_index(np.argmax(table), table.shape)
        failing = np.argwhere(~(table <= mp.PAIR_VALIDATION_TOL))
        f = zero_map(phi.codomain, scalar_space(1))
        if failing.size:
            with pytest.raises(PairConditionViolated) as info:
                run_rows("scalar", f, a=a, pair=pair, n=3, seed=[29])
            assert f"basis pair ({worst[0]}, {worst[1]}) with" in str(info.value)
            assert info.value.residual == table[worst] == np.max(table)
            assert all(table[worst] >= table[i, j] for i, j in failing)
        else:
            (entry,) = run_rows("scalar", f, a=a, pair=pair, n=3, seed=[29])
            assert entry.identity_id == "cor2.9-B-vanishes"

    def test_scalar_balance_refusal_is_a_failed_entry(self):
        with open(catalog.bundled_scenario_path("interleave_p025")) as fh:
            obj = json.load(fh)
        obj["coefficient"] = {**scalar_coefficient(SCALAR, 0.5).value.to_obj(), "strict_order": True}
        obj["checks"] = ["cor2.9-B-vanishes"]
        report = harness.run_suite(harness.scenario_from_obj(obj))
        ((label, entry),) = report.results
        assert not entry.passed and not report.overall_pass
        assert entry.samples == 0 and entry.max_residual == math.inf
        assert "scalar balance condition fails at basis pair (0, 0)" in entry.worst_input["error"]

    @pytest.mark.parametrize("bad", [0.0, 1.0, -1.0])
    def test_p_range_checked(self, bad):
        pair = cj.interleave_pair(0.5, 4)
        f = zero_map(pair.phi.codomain, scalar_space(1))
        # p * 1 for p = 0 or 1 has no inverse to validate; the check reads p alone
        one = cj.unit(SCALAR)
        value = cj.vec_scale(one, bad)
        a = cj.algebra.Coefficient(value, one, cj.vec_sub(one, value), one)
        with pytest.raises(DomainError):
            run_rows("scalar", f, a=a, pair=pair)


class TestEveryRowOnADegreeFourMap:
    """Every row of the table on x -> <x, x>.L(x) + <x, x>^2.g over
    interleave_p025, a map of degree four that no identity should pass: a
    row that still reads about zero does not test f there."""

    def test_only_four_rows_read_zero(self):
        scenario = harness.load_scenario(catalog.bundled_scenario_path("interleave_p025"))
        assert scenario.checks == cj.CHECK_IDS
        space_e, space_g = scenario.space_e, scenario.space_g
        rng = np.random.default_rng(0)
        f = mp.Sum([cubic_map(space_e, space_g, rng), quartic_map(space_e, cj.sample_vector(space_g, rng))])
        report = harness.run_suite(dataclasses.replace(scenario, mappings=(("degree4", f),)))
        read = {entry.identity_id: entry.max_residual for _, entry in report.results}
        # lemma2.2-orth does not involve f, and this map's polar form
        # vanishes on the orthogonal pairs (phi(z), psi(w))
        assert read.pop("lemma2.2-orth") < 1e-12
        assert read.pop("thm2.7-B-orth-preserving") < 1e-10
        # open defects, ROADMAP item 3(b) and (d): B is bitwise symmetric, and
        # thm2.7-unique compares A and B of f with themselves, so these two
        # rows read exactly zero on every map
        assert read.pop("thm2.7-B-symmetric") == 0.0
        assert read.pop("thm2.7-unique") == 0.0
        # the other 17 read from 0.44 to 1
        assert len(read) == 17 and min(read.values()) >= 0.4, read


class TestBumpSensitivity:
    def test_residual_grows_with_bump_size(self):
        space_e = scalar_space(2)
        space_g = scalar_space(1)
        site = space_e.basis_vector(0)
        other = space_e.basis_vector(1)
        a = scalar_coefficient(SCALAR, 0.5)
        sampler = hb.explicit_sampler(space_e, [(site, other)])
        base = zero_map(space_e, space_g)
        seen = []
        for size in (0.05, 0.1, 0.2, 0.4):
            delta = cj.vec_scale(space_g.basis_vector(0), size)
            f = mp.Sum([base, mp.Bump(site, delta, 0.05)])
            entry = cj.check_orthogonal_jensen(f, a, sampler, n=3, seed=[23])
            seen.append(entry.max_residual)
        assert all(r > 1e-3 for r in seen)
        assert seen == sorted(seen)


class TestWorstTracking:
    @pytest.mark.parametrize(
        "residuals",
        [[0.0, math.nan], [math.nan, 0.0], [0.1, math.nan, 0.2], [math.inf, math.nan, 1.0]],
    )
    def test_nan_residual_fails_the_check(self, residuals):
        entry = idn._fold("eq-1.1", np.array(residuals), lambda i: {"index": i}, 1e-9)
        assert not entry.passed
        assert math.isnan(entry.max_residual)
        first_nan = next(i for i, r in enumerate(residuals) if math.isnan(r))
        assert entry.worst_input == {"index": first_nan}
        assert entry.samples == len(residuals)

    def test_finite_residuals_keep_the_largest(self):
        residuals = np.array([0.0, 3e-12, 1e-12, 3e-12])
        entry = idn._fold("eq-1.1", residuals, lambda i: {"index": i}, 1e-9)
        assert entry.passed and entry.max_residual == 3e-12
        assert type(entry.max_residual) is float and entry.passed is True
        assert entry.worst_input == {"index": 1}

    @pytest.mark.parametrize(
        "first, second, row",
        [
            ([0.0, 2e-12, 1e-12], [1e-12, 1e-12, 2e-12], 1),  # flat index 2: row 1, column 0
            ([0.0, 1e-12, 1e-12], [1e-12, 1e-12, 2e-12], 2),  # flat index 5: row 2, column 1
            ([0.0, 1.0, math.nan], [math.nan, 2.0, 0.0], 0),  # flat index 1: the first NaN
        ],
    )
    def test_tuple_columns_read_row_by_row(self, first, second, row):
        residuals = (np.array(first), np.array(second))
        described = []

        def describe(i):
            described.append(i)
            return {"index": i}

        entry = idn._fold("thm2.7-unique", residuals, describe, 1e-9)
        # the worst row is the flat index // 2, and only it is described
        assert entry.worst_input == {"index": row} and described == [row]
        assert entry.samples == 6
        want = Worst()
        for i, r in enumerate(folded(residuals)):
            want.update(r, lambda i=i: {"index": i // 2})
        # canonical JSON, since a NaN compares unequal to itself
        got, want = entry.to_obj(), want.result("thm2.7-unique", 1e-9).to_obj()
        assert canonical_dumps(got) == canonical_dumps(want)

    def test_no_rows(self):
        with pytest.raises(DomainError, match="eq-1.1"):
            idn._fold("eq-1.1", np.empty(0), lambda i: {"index": i}, 1e-9)
