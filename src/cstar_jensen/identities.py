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
stack for sample i. It calls every mapping on whole stacks or once at the
zero vector, and hands its residual table to _fold.
That keeps the first NaN, else the first largest residual, and names the
input of that row alone by row(i). Each residual is, bit for bit, the one
its sample gives alone.

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
    act = alg.act
    x = alg.stack_vectors(f.domain, xs)
    f0 = f(f.domain.zero())
    inv_co, co_inv_a, _ = _coefficient_products(a)
    fx = f(x)
    f_ainv = f(act(a.inv, x))
    f_coinv = f(act(a.co_inv, x))
    sides = (
        (alg.vec_add(act(a.value, f_ainv), act(a.co, f0)), fx),
        (alg.vec_add(act(a.value, f0), act(a.co, f_coinv)), fx),
        (alg.vec_add(f_ainv, act(inv_co, f0)), act(a.inv, fx)),
        (alg.vec_add(act(co_inv_a, f0), f_coinv), act(a.co_inv, fx)),
        (alg.vec_add(act(co_inv_a, fx), f0), act(a.co_inv, f(act(a.value, x)))),
        (alg.vec_add(f0, act(inv_co, fx)), act(a.inv, f(act(a.co, x)))),
    )
    describe = _rows(x=x)
    return [
        _fold(identity_id, alg.vec_residual(lhs, rhs), describe, tol)
        for identity_id, (lhs, rhs) in zip(SCALING_IDS, sides)
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
    f0 = f(f.domain.zero())
    inv_co, co_inv_a, co_a_inv = _coefficient_products(a)
    phi_x, phi_y = phi(x), phi(y)
    psi_x, psi_y = psi(x), psi(y)
    lhs = alg.vec_add(
        alg.act(a.value, f(alg.vec_add(phi_x, phi_y))),
        alg.act(a.co, f(alg.vec_sub(psi_x, psi_y))),
    )
    bracket_x = alg.vec_sub(
        alg.vec_add(f(phi_x), alg.act(inv_co, f(psi_x))),
        alg.act(co_a_inv, f0),
    )
    bracket_y = alg.vec_add(
        alg.vec_sub(alg.act(co_inv_a, f(phi_y)), alg.act(co_inv_a, f0)),
        f(psi(alg.vec_neg(y))),
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
    left = alg.vec_add(phi(x), alg.act(inv_co, psi(x)))
    right = alg.vec_sub(alg.act(co_inv_a, phi(y)), psi(y))
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


def _images(f: Mapping, *xs: ModuleVector) -> tuple[ModuleVector, ...]:
    """f(x) for each of xs, vectors or stacks of one batch, from one call of
    f on their stack; by Mapping's rule each row gets the bits it gets
    alone."""
    images = f(alg.stack_vectors(f.domain, xs))
    lead = (len(xs),) + xs[0].batch
    split = ModuleVector._wrap(
        f.codomain, tuple(b.reshape(lead + b.shape[-2:]) for b in images.blocks)
    )
    return tuple(split.row(i) for i in range(len(xs)))


class _DerivedMap:
    """A map built from f, with f's domain and codomain. Each call evaluates
    f once, on the stack of every point it needs (_images)."""

    __slots__ = ("f", "domain", "codomain")

    def __init__(self, f: Mapping):
        self.f = f
        self.domain = f.domain
        self.codomain = f.codomain


class OddPart(_DerivedMap):
    """x -> (f(x) - f(-x)) / 2; the additive candidate A, with A(0) = 0 bit for bit."""

    __slots__ = ()

    def __call__(self, x: ModuleVector) -> ModuleVector:
        fx, f_neg = _images(self.f, x, alg.vec_neg(x))
        return _half(alg.vec_sub(fx, f_neg))


class CenteredEvenPart(_DerivedMap):
    """x -> (f(x) + f(-x)) / 2 - f(0); even with value 0 at 0."""

    __slots__ = ("f0",)

    def __init__(self, f: Mapping):
        super().__init__(f)
        self.f0 = f(f.domain.zero())

    def __call__(self, x: ModuleVector) -> ModuleVector:
        fx, f_neg = _images(self.f, x, alg.vec_neg(x))
        return alg.vec_sub(_half(alg.vec_add(fx, f_neg)), self.f0)


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


def sample_pair_range(pair: AdditivePair, z: ModuleVector, w: ModuleVector) -> ModuleVector:
    """The stack of elements phi(z) + psi(w) of K = phi(F) + psi(F), for
    drawn stacks z, w of F."""
    return alg.vec_add(pair.phi(z), pair.psi(w))


def _pair_ranges(pair: AdditivePair, seed, n: int, count: int) -> list[ModuleVector]:
    """count stacks of n elements of K from one generator: stack j is made
    of draws 2j and 2j + 1 of one sample_stacks call on F."""
    drawn = hb.sample_stacks(pair.phi.domain, seed, n, 2 * count)
    return [sample_pair_range(pair, drawn[2 * j], drawn[2 * j + 1]) for j in range(count)]


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
    residuals = alg.vec_residual(g(alg.vec_add(x, y)), alg.vec_add(g(x), g(y)))
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
    lhs = alg.vec_add(g(alg.vec_add(x, y)), g(alg.vec_sub(x, y)))
    rhs = alg.vec_scale(alg.vec_add(g(x), g(y)), 2.0)
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
    doubled = alg.vec_residual(
        alg.act(a.value, g(alg.vec_scale(phi_x, 2.0))),
        alg.act(a.co, g(alg.vec_scale(psi_x, 2.0))),
    )
    plain = alg.vec_residual(alg.act(a.value, g(phi_x)), alg.act(a.co, g(psi_x)))
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
    f0 = f(f.domain.zero())
    f_stacks = hb.sample_stacks(pair.phi.domain, seed, n, 8)
    x, y, z = (sample_pair_range(pair, *f_stacks[j : j + 2]) for j in (0, 2, 4))
    u, v = pair.phi(f_stacks[6]), pair.psi(f_stacks[7])

    bxx, bxz = B(x, x), B(x, z)
    ax, cx, z2 = alg.act(a.value, x), alg.act(a.co, x), alg.vec_scale(z, 2.0)
    a_x = A(x)
    recon = alg.vec_residual(f(x), alg.vec_add(alg.vec_add(a_x, bxx), f0))
    a_add = alg.vec_residual(A(ax), alg.act(a.value, a_x))
    b_sym = alg.vec_residual(B(x, y), B(y, x))
    b_bi = np.maximum(
        alg.vec_residual(
            B(alg.vec_add(x, y), z2), alg.vec_scale(alg.vec_add(bxz, B(y, z)), 2.0)
        ),
        alg.vec_residual(B(x, z2), alg.vec_scale(bxz, 2.0)),
    )
    b_a_bi = np.maximum(
        alg.vec_residual(B(ax, ax), alg.act(a.value, bxx)),
        alg.vec_residual(B(cx, cx), alg.act(a.co, bxx)),
    )
    b_orth = alg.vec_residual(B(u, v), f.codomain.zero())

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
    residuals = (
        alg.vec_residual(first.A(x), second.A(x)),
        alg.vec_residual(first.B(x, x), second.B(x, x)),
    )
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
    A = OddPart(f)
    B = PolarForm(f)
    f0 = f(f.domain.zero())
    (x,) = _pair_ranges(pair, seed, n, 1)
    residuals = (
        alg.vec_residual(B(x, x), f.codomain.zero()),
        alg.vec_residual(f(x), alg.vec_add(A(x), f0)),
    )
    return _fold("cor2.9-B-vanishes", residuals, _rows(x=x), tol)
