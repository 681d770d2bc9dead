"""Residual checks for the orthogonal Jensen equation and its consequences.

The defining property of a mapping f: E -> G for a coefficient a is

    <x, y> = 0   implies   f(a.x + (1-a).y) = a.f(x) + (1-a).f(y)

where the coefficient acts on values through the left module action. Every
check here evaluates one identity that follows from this property on
sampled inputs, reports the worst scale-free residual and compares it
against a tolerance. Checks never decide anything symbolically; failures
surface as residuals, not exceptions.

Each check draws its inputs as stacks, row i on the i-th per-sample seed
(hilbert.sample_seeds and sample_stacks), calls every mapping on whole
stacks or once at the zero vector, and hands its residual table to _fold.
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
from .algebra import Coefficient
from .errors import DomainError, InvalidSampler, PairConditionViolated, PairNotValidated
from .hilbert import ModuleVector, OrthoSampler
from .mappings import AdditivePair, Mapping

# campaign defaults
DEFAULT_SAMPLES = 200
DEFAULT_TOL = 1e-9

CHECK_IDS = (
    "eq-1.1",
    "lemma2.1-i",
    "lemma2.1-ii",
    "lemma2.1-iii",
    "lemma2.1-iv",
    "lemma2.1-v",
    "lemma2.1-vi",
    "lemma2.2",
    "lemma2.2-orth",
    "prop2.3-additive",
    "prop2.5-quadratic",
    "prop2.5-id211",
    "prop2.5-id212",
    "thm2.7-reconstruct",
    "thm2.7-A-a-additive",
    "thm2.7-B-symmetric",
    "thm2.7-B-biadditive",
    "thm2.7-B-a-biadditive",
    "thm2.7-B-orth-preserving",
    "thm2.7-unique",
    "cor2.9-B-vanishes",
)

SCALING_IDS = CHECK_IDS[1:7]


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
    gives 0 samples, a pass and no worst input."""
    columns = residuals if isinstance(residuals, tuple) else (residuals,)
    table = np.column_stack(columns).ravel()
    worst, where = 0.0, None
    if table.size:
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

    The n pairs are drawn one by one and evaluated as stacks, with f called
    on three stacks.
    """
    pairs = list(hb.orthogonal_pairs(sampler, n, seed))
    xs, ys = (hb.stack_vectors(sampler.space, [p[j] for p in pairs]) for j in (0, 1))
    if not hb.is_orthogonal(xs, ys).all():
        raise InvalidSampler("sampler emitted a non-orthogonal pair")
    lhs = f(hb.vec_add(hb.act(a.value, xs), hb.act(a.co, ys)))
    rhs = hb.vec_add(hb.act(a.value, f(xs)), hb.act(a.co, f(ys)))
    return _fold("eq-1.1", hb.vec_residual(lhs, rhs), _rows(x=xs, y=ys), tol)


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
    act = hb.act
    x = hb.stack_vectors(f.domain, xs)
    f0 = f(f.domain.zero())
    inv_co, co_inv_a, _ = _coefficient_products(a)
    fx = f(x)
    f_ainv = f(act(a.inv, x))
    f_coinv = f(act(a.co_inv, x))
    sides = (
        (hb.vec_add(act(a.value, f_ainv), act(a.co, f0)), fx),
        (hb.vec_add(act(a.value, f0), act(a.co, f_coinv)), fx),
        (hb.vec_add(f_ainv, act(inv_co, f0)), act(a.inv, fx)),
        (hb.vec_add(act(co_inv_a, f0), f_coinv), act(a.co_inv, fx)),
        (hb.vec_add(act(co_inv_a, fx), f0), act(a.co_inv, f(act(a.value, x)))),
        (hb.vec_add(f0, act(inv_co, fx)), act(a.inv, f(act(a.co, x)))),
    )
    describe = _rows(x=x)
    return [
        _fold(identity_id, hb.vec_residual(lhs, rhs), describe, tol)
        for identity_id, (lhs, rhs) in zip(SCALING_IDS, sides)
    ]


# ---------------------------------------------------------------------------
# two-variable expansion over a pair


def _require_validated(pair: AdditivePair) -> None:
    if not pair.validated:
        raise PairNotValidated("this check needs a validated pair")


def _coefficient_products(a: Coefficient):
    """a^{-1}(1-a), (1-a)^{-1}a and (1-a)a^{-1}."""
    return alg.mul(a.inv, a.co), alg.mul(a.co_inv, a.value), alg.mul(a.co, a.inv)


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
    lhs = hb.vec_add(
        hb.act(a.value, f(hb.vec_add(phi_x, phi_y))),
        hb.act(a.co, f(hb.vec_sub(psi_x, psi_y))),
    )
    bracket_x = hb.vec_sub(
        hb.vec_add(f(phi_x), hb.act(inv_co, f(psi_x))),
        hb.act(co_a_inv, f0),
    )
    bracket_y = hb.vec_add(
        hb.vec_sub(hb.act(co_inv_a, f(phi_y)), hb.act(co_inv_a, f0)),
        f(psi(hb.vec_neg(y))),
    )
    rhs = hb.vec_add(hb.act(a.value, bracket_x), hb.act(a.co, bracket_y))
    return hb.vec_residual(lhs, rhs)


def _sample_f(pair: AdditivePair, n: int, seed, tails) -> list[ModuleVector]:
    """One stack of n vectors of F per tail t, row i drawn on seed + [i, t]."""
    return [hb.sample_stacks(pair.phi.domain, hb.sample_seeds(seed, n, t))[0] for t in tails]


def pair_expansion_check(
    f: Mapping,
    pair: AdditivePair,
    n: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
    seed=0,
) -> IdentityResidual:
    """The expansion on n sampled pairs (z, w) of F x F."""
    _require_validated(pair)
    z, w = _sample_f(pair, n, seed, (0, 1))
    residuals = pair_expansion_residual(f, pair.phi, pair.psi, pair.coefficient, z, w)
    return _fold("lemma2.2", residuals, _rows(z=z, w=w), tol)


def orthogonality_display_norm(phi: Mapping, psi: Mapping, a: Coefficient, x, y):
    """Norm of <phi(x) + (a^{-1}(1-a)).psi(x), ((1-a)^{-1}a).phi(y) - psi(y)>.

    Zero whenever the pair conditions hold at (x, y); how it departs from
    zero measures how badly they fail. A float for one pair, an array for
    stacks.
    """
    inv_co, co_inv_a, _ = _coefficient_products(a)
    left = hb.vec_add(phi(x), hb.act(inv_co, psi(x)))
    right = hb.vec_sub(hb.act(co_inv_a, phi(y)), psi(y))
    return alg.cstar_norm(hb.inner_product(left, right))


def orthogonality_identity_check(
    pair: AdditivePair,
    n: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
    seed=0,
) -> IdentityResidual:
    """The display norm on n sampled pairs (z, w) of F x F."""
    _require_validated(pair)
    z, w = _sample_f(pair, n, seed, (0, 1))
    norms = orthogonality_display_norm(pair.phi, pair.psi, pair.coefficient, z, w)
    return _fold("lemma2.2-orth", norms, _rows(z=z, w=w), tol)


# ---------------------------------------------------------------------------
# odd/even structure and the decomposition


def _half(v: ModuleVector) -> ModuleVector:
    return hb.vec_scale(v, 0.5)


class _DerivedMap:
    """A map built from f, with f's domain and codomain."""

    __slots__ = ("f", "domain", "codomain")

    def __init__(self, f: Mapping):
        self.f = f
        self.domain = f.domain
        self.codomain = f.codomain


class OddPart(_DerivedMap):
    """x -> (f(x) - f(-x)) / 2; the additive candidate A, with A(0) = 0 bit for bit."""

    __slots__ = ()

    def __call__(self, x: ModuleVector) -> ModuleVector:
        return _half(hb.vec_sub(self.f(x), self.f(hb.vec_neg(x))))


class CenteredEvenPart(_DerivedMap):
    """x -> (f(x) + f(-x)) / 2 - f(0); even with value 0 at 0."""

    __slots__ = ("f0",)

    def __init__(self, f: Mapping):
        super().__init__(f)
        self.f0 = f(f.domain.zero())

    def __call__(self, x: ModuleVector) -> ModuleVector:
        return hb.vec_sub(
            _half(hb.vec_add(self.f(x), self.f(hb.vec_neg(x)))), self.f0
        )


class PolarForm(_DerivedMap):
    """(x, y) -> (f(x+y) + f(-x-y) - f(x-y) - f(-x+y)) / 8.

    The summation order is fixed so the value is bitwise symmetric in
    (x, y): both parenthesized sums are single commutative additions, and
    B(x, 0) = 0 bit for bit.
    """

    __slots__ = ()

    def __call__(self, x: ModuleVector, y: ModuleVector) -> ModuleVector:
        s = hb.vec_add(x, y)
        d = hb.vec_sub(x, y)
        plus = hb.vec_add(self.f(s), self.f(hb.vec_neg(s)))
        minus = hb.vec_add(self.f(d), self.f(hb.vec_neg(d)))
        return hb.vec_scale(hb.vec_sub(plus, minus), 0.125)


def sample_pair_range(pair: AdditivePair, seeds) -> ModuleVector:
    """A stack of random elements phi(z) + psi(w) of K = phi(F) + psi(F),
    row i from two draws z, w on seeds[i]."""
    z, w = hb.sample_stacks(pair.phi.domain, seeds, 2)
    return hb.vec_add(pair.phi(z), pair.psi(w))


@dataclass(frozen=True)
class Decomposition:
    """f = A + B(x, x) + f0 on K, with the checks that certify it."""

    A: OddPart
    B: PolarForm
    f0: ModuleVector
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
    x, y = (sample_pair_range(pair, hb.sample_seeds(seed, n, j)) for j in (0, 1))
    residuals = hb.vec_residual(g(hb.vec_add(x, y)), hb.vec_add(g(x), g(y)))
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
    x, y = (sample_pair_range(pair, hb.sample_seeds(seed, n, j)) for j in (0, 1))
    lhs = hb.vec_add(g(hb.vec_add(x, y)), g(hb.vec_sub(x, y)))
    rhs = hb.vec_scale(hb.vec_add(g(x), g(y)), 2.0)
    return _fold("prop2.5-quadratic", hb.vec_residual(lhs, rhs), _rows(x=x, y=y), tol)


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
    (x,) = hb.sample_stacks(pair.phi.domain, hb.sample_seeds(seed, n))
    phi_x, psi_x = pair.phi(x), pair.psi(x)
    doubled = hb.vec_residual(
        hb.act(a.value, g(hb.vec_scale(phi_x, 2.0))),
        hb.act(a.co, g(hb.vec_scale(psi_x, 2.0))),
    )
    plain = hb.vec_residual(hb.act(a.value, g(phi_x)), hb.act(a.co, g(psi_x)))
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

    The report carries, in order: reconstruction on K, additivity of A on
    K, a-additivity of A, symmetry of B, biadditivity of B, a-biadditivity
    of B, and orthogonality preservation of B. Both biadditivity checks
    take two residuals per sample and keep the larger, NaN if either is.
    """
    _require_validated(pair)
    A = OddPart(f)
    B = PolarForm(f)
    f0 = f(f.domain.zero())
    x, y, z = (sample_pair_range(pair, hb.sample_seeds(seed, n, j)) for j in range(3))
    z_f, w_f = _sample_f(pair, n, seed, (3, 4))
    u, v = pair.phi(z_f), pair.psi(w_f)

    bxx, bxz = B(x, x), B(x, z)
    ax, cx, z2 = hb.act(a.value, x), hb.act(a.co, x), hb.vec_scale(z, 2.0)
    recon = hb.vec_residual(f(x), hb.vec_add(hb.vec_add(A(x), bxx), f0))
    a_add = hb.vec_residual(A(ax), hb.act(a.value, A(x)))
    b_sym = hb.vec_residual(B(x, y), B(y, x))
    b_bi = np.maximum(
        hb.vec_residual(
            B(hb.vec_add(x, y), z2), hb.vec_scale(hb.vec_add(bxz, B(y, z)), 2.0)
        ),
        hb.vec_residual(B(x, z2), hb.vec_scale(bxz, 2.0)),
    )
    b_a_bi = np.maximum(
        hb.vec_residual(B(ax, ax), hb.act(a.value, bxx)),
        hb.vec_residual(B(cx, cx), hb.act(a.co, bxx)),
    )
    b_orth = hb.vec_residual(B(u, v), f.codomain.zero())

    dx, dxy = _rows(x=x), _rows(x=x, y=y)
    report = (
        _fold("thm2.7-reconstruct", recon, dx, tol),
        # on the seed base seed + [5]
        check_additivity_on_pair_range(A, pair, n, tol, hb.sample_seeds(seed, 6)[5]),
        _fold("thm2.7-A-a-additive", a_add, dx, tol),
        _fold("thm2.7-B-symmetric", b_sym, dxy, tol),
        _fold("thm2.7-B-biadditive", b_bi, dxy, tol),
        _fold("thm2.7-B-a-biadditive", b_a_bi, dx, tol),
        _fold("thm2.7-B-orth-preserving", b_orth, _rows(x=u, y=v), tol),
    )
    return Decomposition(A, B, f0, report)


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
    x = hb.stack_vectors(
        f.domain, [f.domain.zero(), *hb.sample_stacks(f.domain, hb.sample_seeds(seed, n))]
    )
    residuals = (
        hb.vec_residual(first.A(x), second.A(x)),
        hb.vec_residual(first.B(x, x), second.B(x, x)),
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
    r = alg.residual(alg.scale(gram_phi, (1.0 - p) ** 2), alg.scale(gram_psi, p * p))
    failing = np.flatnonzero(r > mp.PAIR_VALIDATION_TOL)
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
    x = sample_pair_range(pair, hb.sample_seeds(seed, n))
    residuals = (
        hb.vec_residual(B(x, x), f.codomain.zero()),
        hb.vec_residual(f(x), hb.vec_add(A(x), f0)),
    )
    return _fold("cor2.9-B-vanishes", residuals, _rows(x=x), tol)
