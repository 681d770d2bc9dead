"""Residual checks for the orthogonal Jensen equation and its consequences.

The defining property of a mapping f: E -> G for a coefficient a is

    <x, y> = 0   implies   f(a.x + (1-a).y) = a.f(x) + (1-a).f(y)

where the coefficient acts on values through the left module action. Every
check here evaluates one identity that follows from this property on
sampled inputs, reports the worst scale-free residual and compares it
against a tolerance. Checks never decide anything symbolically; failures
surface as residuals, not exceptions.

Each check seeds one generator from its seed base and draws all of its
inputs as the stacks of one hilbert.sample_stacks call, row i of each
stack for sample i. Every family but eq-1.1 calls f, and each map it uses
(phi, psi, a derived map), once, on the stack of every point it needs,
the zero vector included, and splits the images back by rows (_images);
it measures all of its residuals with one alg.vec_residual call on their
stacks (_residuals). eq-1.1 calls f on its three stacks, which at 200
pairs costs less than copying them into one. The residual table goes to
_fold. That keeps the first NaN, else the first largest residual, and
names the input of that row alone by row(i). A Mapping gives each row of
a stack the bits it gives that row alone, and block_norm measures each row
on its own, so each residual is, bit for bit, the one its sample gives
alone.

Fixed identity ids name the checks in reports and scenarios; see CHECK_IDS.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import algebra as alg
from . import hilbert as hb
from . import mappings as mp
from .algebra import Coefficient, ModuleVector
from .errors import DomainError, InvalidSampler, PairConditionViolated, PairNotValidated
from .hilbert import OrthoSampler
from .mappings import AdditivePair, Mapping

# campaign defaults
DEFAULT_SAMPLES = 200
DEFAULT_TOL = 1e-9

# the ids of the two families with several entries, in their report order
SCALING_IDS = (
    "lemma2.1-i", "lemma2.1-ii", "lemma2.1-iii", "lemma2.1-iv", "lemma2.1-v", "lemma2.1-vi",
)
DECOMPOSE_IDS = (
    "thm2.7-reconstruct",
    "thm2.7-A-a-additive",
    "thm2.7-B-symmetric",
    "thm2.7-B-biadditive",
    "thm2.7-B-a-biadditive",
    "thm2.7-B-orth-preserving",
)
CHECK_IDS = (
    "eq-1.1",
    *SCALING_IDS,
    "lemma2.2",
    "lemma2.2-orth",
    "prop2.3-additive",
    "prop2.5-quadratic",
    "prop2.5-id211",
    "prop2.5-id212",
    *DECOMPOSE_IDS,
    "thm2.7-unique",
    "cor2.9-B-vanishes",
)


@dataclass(frozen=True)
class IdentityResidual:
    """Outcome of one identity check over a sample set."""

    identity_id: str
    samples: int
    max_residual: float
    worst_input: dict | None
    passed: bool

    def to_obj(self) -> dict:
        return {
            "id": self.identity_id,
            "samples": self.samples,
            "max_residual": self.max_residual,
            "worst_input": self.worst_input,
            "pass": self.passed,
        }


def _fold(identity_id: str, residuals, describe, tol: float) -> IdentityResidual:
    """The entry of a residual table: an array of shape (S,), or a tuple of
    them whose entries for row i go in tuple order. Read row by row, the
    worst entry is the first NaN, else the first largest value (np.argmax
    gives both), so a NaN never passes. describe(i) names the input of row
    i; it is called once, for the worst entry's row. A table of no rows
    would pass on nothing, so it raises DomainError."""
    columns = residuals if isinstance(residuals, tuple) else (residuals,)
    table = np.column_stack(columns).ravel()
    if not table.size:
        raise DomainError(f"{identity_id} needs at least one sample")
    k = int(np.argmax(table))
    worst, where = float(table[k]), describe(k // len(columns))
    return IdentityResidual(identity_id, table.size, worst, where, worst <= tol)


def _rows(**stacks) -> Callable[[int], dict]:
    """describe for _fold: row i of each named stack."""
    return lambda i: {name: v.row(i).to_obj() for name, v in stacks.items()}


def _stack(xs) -> ModuleVector:
    """The vectors and stacks xs, in order, as one stack of their space; a
    lone stack is itself, not a copy."""
    if len(xs) == 1 and xs[0].batch:
        return xs[0]
    return alg.stack_vectors(xs[0].space, xs)


def _spans(xs) -> list:
    """Where each of xs sits in their _stack: the row of a vector, the
    slice of rows of a stack, whatever their lengths."""
    spans, start = [], 0
    for x in xs:
        if x.batch:
            spans.append(slice(start, start + x.batch[0]))
            start += x.batch[0]
        else:
            spans.append(start)
            start += 1
    return spans


def _images(f, *points) -> tuple[ModuleVector, ...]:
    """f at each of points, from one call of f on their stack, split back
    by rows: a point is a vector or a stack, or for a map of two arguments
    a tuple (x, y) of them. Each argument is stacked on its own space, so f
    may be any callable; by Mapping's rule each row gets the bits it gets
    alone."""
    args = [p if isinstance(p, tuple) else (p,) for p in points]
    images = f(*(_stack(column) for column in zip(*args)))
    return tuple(images.row(s) for s in _spans([arg[0] for arg in args]))


def _residuals(*sides) -> tuple[np.ndarray, ...]:
    """alg.vec_residual(lhs, rhs) for each (lhs, rhs) stack pair of sides,
    from one call on their stacks, split back by rows. block_norm measures
    each row on its own, so each residual is, bit for bit, the one its
    pair gives alone."""
    lhs, rhs = zip(*sides)
    table = alg.vec_residual(_stack(lhs), _stack(rhs))
    return tuple(table[s] for s in _spans(lhs))


def _zeros_like(v: ModuleVector) -> ModuleVector:
    """A zero vector of v's space for each row of v."""
    return ModuleVector._wrap(v.space, tuple(np.zeros_like(b) for b in v.blocks))


# ---------------------------------------------------------------------------
# the defining equation


def check_orthogonal_jensen(
    f: Mapping,
    a: Coefficient,
    sampler: OrthoSampler,
    n: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
    seed=0,
) -> IdentityResidual:
    """Residual of f(a.x + (1-a).y) = a.f(x) + (1-a).f(y) on orthogonal pairs.

    The n pairs are drawn as two stacks by hilbert.sample_pairs, and f is
    called on three stacks.
    """
    xs, ys = hb.sample_pairs(sampler, n, seed)
    if not hb.is_orthogonal(xs, ys).all():
        raise InvalidSampler("sampler emitted a non-orthogonal pair")
    lhs = f(alg.vec_add(alg.act(a.value, xs), alg.act(a.co, ys)))
    rhs = alg.vec_add(alg.act(a.value, f(xs)), alg.act(a.co, f(ys)))
    return _fold("eq-1.1", alg.vec_residual(lhs, rhs), _rows(x=xs, y=ys), tol)


# ---------------------------------------------------------------------------
# one-variable scaling identities


def scaling_identity_suite(
    f: Mapping,
    a: Coefficient,
    xs: list[ModuleVector],
    tol: float = DEFAULT_TOL,
) -> list[IdentityResidual]:
    """The six identities a Jensen mapping satisfies in one variable, on the
    vectors and stacks in xs, taken in order as one stack.

    All six come from pairing x with 0 (always orthogonal) and moving the
    coefficient across the equation with its inverses:

      i    a.f(a^{-1} x) + (1-a).f(0)            = f(x)
      ii   a.f(0) + (1-a).f((1-a)^{-1} x)        = f(x)
      iii  f(a^{-1} x) + (a^{-1}(1-a)).f(0)      = a^{-1}.f(x)
      iv   ((1-a)^{-1} a).f(0) + f((1-a)^{-1} x) = (1-a)^{-1}.f(x)
      v    ((1-a)^{-1} a).f(x) + f(0)            = (1-a)^{-1}.f(a x)
      vi   f(0) + (a^{-1}(1-a)).f(x)             = a^{-1}.f((1-a) x)
    """
    if not xs:
        raise DomainError("the scaling identities need at least one sample")
    act = alg.act
    x = _stack(xs)
    inv_co, co_inv_a, _ = _coefficient_products(a)
    f0, fx, f_ainv, f_coinv, f_ax, f_cx = _images(
        f, x.space.zero(), x, act(a.inv, x), act(a.co_inv, x), act(a.value, x), act(a.co, x)
    )
    residuals = _residuals(
        (alg.vec_add(act(a.value, f_ainv), act(a.co, f0)), fx),
        (alg.vec_add(act(a.value, f0), act(a.co, f_coinv)), fx),
        (alg.vec_add(f_ainv, act(inv_co, f0)), act(a.inv, fx)),
        (alg.vec_add(act(co_inv_a, f0), f_coinv), act(a.co_inv, fx)),
        (alg.vec_add(act(co_inv_a, fx), f0), act(a.co_inv, f_ax)),
        (alg.vec_add(f0, act(inv_co, fx)), act(a.inv, f_cx)),
    )
    describe = _rows(x=x)
    return [
        _fold(identity_id, r, describe, tol) for identity_id, r in zip(SCALING_IDS, residuals)
    ]


# ---------------------------------------------------------------------------
# two-variable expansion over a pair


def _require_validated(pair: AdditivePair) -> None:
    if not pair.validated:
        raise PairNotValidated("this check needs a validated pair")


def _coefficient_products(a: Coefficient):
    """a^{-1}(1-a), (1-a)^{-1}a and (1-a)a^{-1}."""
    return alg.act(a.inv, a.co), alg.act(a.co_inv, a.value), alg.act(a.co, a.inv)


def pair_expansion_residual(f: Mapping, phi: Mapping, psi: Mapping, a: Coefficient, x, y):
    """Residual of the two-variable expansion at (x, y) in F x F:

    a.f(phi(x) + phi(y)) + (1-a).f(psi(x) - psi(y))
      = a.[f(phi(x)) + (a^{-1}(1-a)).f(psi(x)) - ((1-a)a^{-1}).f(0)]
      + (1-a).[((1-a)^{-1}a).f(phi(y)) - ((1-a)^{-1}a).f(0) + f(psi(-y))]

    A float for one pair, an array for stacks.
    """
    inv_co, co_inv_a, co_a_inv = _coefficient_products(a)
    phi_x, phi_y = _images(phi, x, y)
    psi_x, psi_y, psi_neg_y = _images(psi, x, y, alg.vec_neg(y))
    f0, f_sum, f_diff, f_phi_x, f_psi_x, f_phi_y, f_psi_neg_y = _images(
        f, phi_x.space.zero(), alg.vec_add(phi_x, phi_y), alg.vec_sub(psi_x, psi_y),
        phi_x, psi_x, phi_y, psi_neg_y,
    )
    lhs = alg.vec_add(alg.act(a.value, f_sum), alg.act(a.co, f_diff))
    bracket_x = alg.vec_sub(
        alg.vec_add(f_phi_x, alg.act(inv_co, f_psi_x)),
        alg.act(co_a_inv, f0),
    )
    bracket_y = alg.vec_add(
        alg.vec_sub(alg.act(co_inv_a, f_phi_y), alg.act(co_inv_a, f0)),
        f_psi_neg_y,
    )
    rhs = alg.vec_add(alg.act(a.value, bracket_x), alg.act(a.co, bracket_y))
    return alg.vec_residual(lhs, rhs)


def pair_expansion_check(
    f: Mapping,
    pair: AdditivePair,
    n: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
    seed=0,
) -> IdentityResidual:
    """The expansion on n sampled pairs (z, w) of F x F."""
    _require_validated(pair)
    z, w = hb.sample_stacks(pair.phi.domain, seed, n, 2)
    residuals = pair_expansion_residual(f, pair.phi, pair.psi, pair.coefficient, z, w)
    return _fold("lemma2.2", residuals, _rows(z=z, w=w), tol)


def orthogonality_display_norm(phi: Mapping, psi: Mapping, a: Coefficient, x, y):
    """Norm of <phi(x) + (a^{-1}(1-a)).psi(x), ((1-a)^{-1}a).phi(y) - psi(y)>.

    Zero whenever the pair conditions hold at (x, y); how it departs from
    zero measures how badly they fail. A float for one pair, an array for
    stacks.
    """
    inv_co, co_inv_a, _ = _coefficient_products(a)
    phi_x, phi_y = _images(phi, x, y)
    psi_x, psi_y = _images(psi, x, y)
    left = alg.vec_add(phi_x, alg.act(inv_co, psi_x))
    right = alg.vec_sub(alg.act(co_inv_a, phi_y), psi_y)
    return alg.module_norm(hb.inner_product(left, right))


def orthogonality_identity_check(
    pair: AdditivePair,
    n: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
    seed=0,
) -> IdentityResidual:
    """The display norm on n sampled pairs (z, w) of F x F."""
    _require_validated(pair)
    z, w = hb.sample_stacks(pair.phi.domain, seed, n, 2)
    norms = orthogonality_display_norm(pair.phi, pair.psi, pair.coefficient, z, w)
    return _fold("lemma2.2-orth", norms, _rows(z=z, w=w), tol)


# ---------------------------------------------------------------------------
# odd/even structure and the decomposition


def _half(v: ModuleVector) -> ModuleVector:
    return alg.vec_scale(v, 0.5)


class _DerivedMap:
    """A map built from f, any callable on vectors and stacks. Each call
    evaluates f once, on the stack of every point it needs (_images)."""

    __slots__ = ("f",)

    def __init__(self, f):
        self.f = f


class OddPart(_DerivedMap):
    """x -> (f(x) - f(-x)) / 2; the additive candidate A, with A(0) = 0 bit for bit."""

    __slots__ = ()

    def __call__(self, x: ModuleVector) -> ModuleVector:
        fx, f_neg = _images(self.f, x, alg.vec_neg(x))
        return _half(alg.vec_sub(fx, f_neg))


class CenteredEvenPart(_DerivedMap):
    """x -> (f(x) + f(-x)) / 2 - f(0); even with value 0 at 0."""

    __slots__ = ()

    def __call__(self, x: ModuleVector) -> ModuleVector:
        f0, fx, f_neg = _images(self.f, x.space.zero(), x, alg.vec_neg(x))
        return alg.vec_sub(_half(alg.vec_add(fx, f_neg)), f0)


class PolarForm(_DerivedMap):
    """(x, y) -> (f(x+y) + f(-x-y) - f(x-y) - f(-x+y)) / 8.

    The summation order is fixed so the value is bitwise symmetric in
    (x, y): both parenthesized sums are single commutative additions, and
    B(x, 0) = 0 bit for bit.
    """

    __slots__ = ()

    def __call__(self, x: ModuleVector, y: ModuleVector) -> ModuleVector:
        s = alg.vec_add(x, y)
        d = alg.vec_sub(x, y)
        fs, f_neg_s, fd, f_neg_d = _images(self.f, s, alg.vec_neg(s), d, alg.vec_neg(d))
        plus = alg.vec_add(fs, f_neg_s)
        minus = alg.vec_add(fd, f_neg_d)
        return alg.vec_scale(alg.vec_sub(plus, minus), 0.125)


def _pair_images(pair: AdditivePair, seed, n: int, count: int):
    """phi(draw 2j) and psi(draw 2j + 1) for j < count, of one sample_stacks
    call on F at n rows, from one call of phi and one of psi."""
    drawn = hb.sample_stacks(pair.phi.domain, seed, n, 2 * count)
    return _images(pair.phi, *drawn[0::2]), _images(pair.psi, *drawn[1::2])


def _pair_ranges(pair: AdditivePair, seed, n: int, count: int) -> list[ModuleVector]:
    """count stacks of n elements of K = phi(F) + psi(F) from one
    generator: stack j is phi(draw 2j) + psi(draw 2j + 1)."""
    return [alg.vec_add(p, q) for p, q in zip(*_pair_images(pair, seed, n, count))]


@dataclass(frozen=True)
class Decomposition:
    """f = A + B(x, x) + f(0) on K, with the checks that certify it."""

    A: OddPart
    B: PolarForm
    property_report: tuple[IdentityResidual, ...]

    @property
    def passed(self) -> bool:
        return all(entry.passed for entry in self.property_report)


def check_additivity_on_pair_range(
    g,
    pair: AdditivePair,
    n: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
    seed=0,
) -> IdentityResidual:
    """Residual of g(x + y) = g(x) + g(y) for x, y sampled from K."""
    _require_validated(pair)
    x, y = _pair_ranges(pair, seed, n, 2)
    g_sum, gx, gy = _images(g, alg.vec_add(x, y), x, y)
    residuals = alg.vec_residual(g_sum, alg.vec_add(gx, gy))
    return _fold("prop2.3-additive", residuals, _rows(x=x, y=y), tol)


def check_quadratic_on_pair_range(
    g,
    pair: AdditivePair,
    n: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
    seed=0,
) -> IdentityResidual:
    """Residual of g(x+y) + g(x-y) = 2 g(x) + 2 g(y) for x, y from K."""
    _require_validated(pair)
    x, y = _pair_ranges(pair, seed, n, 2)
    g_sum, g_diff, gx, gy = _images(g, alg.vec_add(x, y), alg.vec_sub(x, y), x, y)
    lhs = alg.vec_add(g_sum, g_diff)
    rhs = alg.vec_scale(alg.vec_add(gx, gy), 2.0)
    return _fold("prop2.5-quadratic", alg.vec_residual(lhs, rhs), _rows(x=x, y=y), tol)


def check_pair_balance_identities(
    g,
    pair: AdditivePair,
    n: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
    seed=0,
) -> tuple[IdentityResidual, IdentityResidual]:
    """Residuals of a.g(2 phi(x)) = (1-a).g(2 psi(x)) and of
    a.g(phi(x)) = (1-a).g(psi(x)) for x sampled from F.

    Both hold for even Jensen mappings vanishing at 0; the caller supplies
    a g with that structure.
    """
    _require_validated(pair)
    a = pair.coefficient
    (x,) = hb.sample_stacks(pair.phi.domain, seed, n)
    phi_x, psi_x = pair.phi(x), pair.psi(x)
    g_2phi, g_2psi, g_phi, g_psi = _images(
        g, alg.vec_scale(phi_x, 2.0), alg.vec_scale(psi_x, 2.0), phi_x, psi_x
    )
    doubled, plain = _residuals(
        (alg.act(a.value, g_2phi), alg.act(a.co, g_2psi)),
        (alg.act(a.value, g_phi), alg.act(a.co, g_psi)),
    )
    describe = _rows(x=x)
    return (
        _fold("prop2.5-id211", doubled, describe, tol),
        _fold("prop2.5-id212", plain, describe, tol),
    )


def decompose(
    f: Mapping,
    a: Coefficient,
    pair: AdditivePair,
    n: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
    seed=0,
) -> Decomposition:
    """Split f into A + B(x, x) + f(0) and certify the split on K.

    The report carries DECOMPOSE_IDS in order: reconstruction on K,
    a-additivity of A, then symmetry, biadditivity, a-biadditivity and
    orthogonality preservation of B. Both biadditivity checks take two
    residuals per sample and keep the larger, NaN if either is.
    """
    _require_validated(pair)
    A = OddPart(f)
    B = PolarForm(f)
    phis, psis = _pair_images(pair, seed, n, 4)
    x, y, z = (alg.vec_add(p, q) for p, q in zip(phis[:3], psis[:3]))
    u, v = phis[3], psis[3]

    ax, cx, z2 = alg.act(a.value, x), alg.act(a.co, x), alg.vec_scale(z, 2.0)
    f0, fx = _images(f, x.space.zero(), x)
    a_x, a_ax = _images(A, x, ax)
    bxx, bxz, bxy, byx, b_sum_z2, byz, bxz2, b_ax, b_cx, buv = _images(
        B, (x, x), (x, z), (x, y), (y, x), (alg.vec_add(x, y), z2), (y, z), (x, z2),
        (ax, ax), (cx, cx), (u, v),
    )
    recon, a_add, b_sym, b_bi_sum, b_bi_scale, b_a_bi_a, b_a_bi_co, b_orth = _residuals(
        (fx, alg.vec_add(alg.vec_add(a_x, bxx), f0)),
        (a_ax, alg.act(a.value, a_x)),
        (bxy, byx),
        (b_sum_z2, alg.vec_scale(alg.vec_add(bxz, byz), 2.0)),
        (bxz2, alg.vec_scale(bxz, 2.0)),
        (b_ax, alg.act(a.value, bxx)),
        (b_cx, alg.act(a.co, bxx)),
        (buv, _zeros_like(buv)),
    )
    b_bi = np.maximum(b_bi_sum, b_bi_scale)
    b_a_bi = np.maximum(b_a_bi_a, b_a_bi_co)

    dx, dxy = _rows(x=x), _rows(x=x, y=y)
    tables = (
        (recon, dx), (a_add, dx), (b_sym, dxy), (b_bi, dxy), (b_a_bi, dx),
        (b_orth, _rows(x=u, y=v)),
    )
    report = tuple(
        _fold(identity_id, residuals, describe, tol)
        for identity_id, (residuals, describe) in zip(DECOMPOSE_IDS, tables)
    )
    return Decomposition(A, B, report)


def uniqueness_check(
    f: Mapping,
    first: Decomposition,
    second: Decomposition,
    n: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
    seed=0,
) -> IdentityResidual:
    """Residual between two decompositions of the same f.

    Compares A and the diagonal of B on the zero vector and on random
    inputs; A(0) != 0 in either operand counts as disagreement.
    """
    x = alg.stack_vectors(f.domain, [f.domain.zero(), *hb.sample_stacks(f.domain, seed, n)])
    residuals = _residuals((first.A(x), second.A(x)), (first.B(x, x), second.B(x, x)))
    return _fold("thm2.7-unique", residuals, _rows(x=x), tol)


# ---------------------------------------------------------------------------
# scalar rational coefficient reduction


def check_scalar_affine_reduction(
    f: Mapping,
    p: float,
    pair: AdditivePair,
    n: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
    seed=0,
) -> IdentityResidual:
    """For a scalar coefficient p the quadratic part must vanish:
    f = A + f(0) on K and B(x, x) = 0 there.

    Requires the scalar balance condition
    (1-p)^2 <phi(z), phi(w)> = p^2 <psi(z), psi(w)> on basis pairs, which
    is the validated balance condition with the roles of phi and psi
    swapped, within the pair validation threshold; a refusal names the
    first failing basis pair in row-major order.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie in (0, 1), got {p}")
    _require_validated(pair)
    _, _, (_, gram_phi, gram_psi) = mp.basis_pair_grams(pair.phi, pair.psi)
    r = alg.vec_residual(alg.vec_scale(gram_phi, (1.0 - p) ** 2), alg.vec_scale(gram_psi, p * p))
    failing = np.flatnonzero(~(r <= mp.PAIR_VALIDATION_TOL))
    if failing.size:
        k = int(failing[0])
        i, j = divmod(k, pair.phi.domain.rank)
        raise PairConditionViolated(
            f"scalar balance condition fails at basis pair ({i}, {j}) "
            f"with residual {r[k]:.3e}",
            condition="scalar-balance",
            basis_pair=(i, j),
            residual=float(r[k]),
        )
    (x,) = _pair_ranges(pair, seed, n, 1)
    f0, fx = _images(f, x.space.zero(), x)
    bxx = PolarForm(f)(x, x)
    residuals = _residuals((bxx, _zeros_like(bxx)), (fx, alg.vec_add(OddPart(f)(x), f0)))
    return _fold("cor2.9-B-vanishes", residuals, _rows(x=x), tol)
