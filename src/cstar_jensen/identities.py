"""Residual checks for the orthogonal Jensen equation and its consequences.

The defining property of a mapping f: E -> G for a coefficient a is

    <x, y> = 0   implies   f(a.x + (1-a).y) = a.f(x) + (1-a).f(y)

where the coefficient acts on values through the left module action. Every
check here evaluates one identity that follows from this property on
sampled inputs, reports the worst scale-free residual and compares it
against a tolerance. Checks never decide anything symbolically; failures
surface as residuals, not exceptions.

Fixed identity ids name the checks in reports and scenarios; see CHECK_IDS.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
# scalar balance precondition; matches the pair validation threshold
PAIR_SCALAR_TOL = 1e-10

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


class _Worst:
    """Track the largest residual and the input that produced it."""

    __slots__ = ("value", "where", "count")

    def __init__(self):
        self.value = 0.0
        self.where = None
        self.count = 0

    def update(self, residual: float, describe: Callable[[], dict]):
        # a NaN compares false against everything; once seen it stays the
        # worst value, so the check fails
        self.count += 1
        if residual > self.value or self.where is None or (
            residual != residual and self.value == self.value
        ):
            self.value = residual
            self.where = describe()

    def result(self, identity_id: str, tol: float) -> IdentityResidual:
        return IdentityResidual(
            identity_id, self.count, self.value, self.where, self.value <= tol
        )


def _seed_list(seed) -> list:
    return list(seed) if isinstance(seed, (list, tuple)) else [seed]


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
    on three stacks; each residual is, bit for bit, the one the pair gives
    on its own.
    """
    worst = _Worst()
    pairs = list(hb.orthogonal_pairs(sampler, n, seed))
    if not pairs:
        return worst.result("eq-1.1", tol)
    xs = hb.stack_vectors(sampler.space, [x for x, _ in pairs])
    ys = hb.stack_vectors(sampler.space, [y for _, y in pairs])
    if not hb.is_orthogonal(xs, ys).all():
        raise InvalidSampler("sampler emitted a non-orthogonal pair")
    lhs = mp.evaluate_stack(f, hb.vec_add(hb.act(a.value, xs), hb.act(a.co, ys)))
    rhs = hb.vec_add(
        hb.act(a.value, mp.evaluate_stack(f, xs)),
        hb.act(a.co, mp.evaluate_stack(f, ys)),
    )
    for (x, y), r in zip(pairs, hb.vec_residual(lhs, rhs).tolist()):
        worst.update(r, lambda x=x, y=y: {"x": x.to_obj(), "y": y.to_obj()})
    return worst.result("eq-1.1", tol)


# ---------------------------------------------------------------------------
# one-variable scaling identities


def scaling_identity_suite(
    f: Mapping,
    a: Coefficient,
    xs: list[ModuleVector],
    tol: float = DEFAULT_TOL,
) -> list[IdentityResidual]:
    """The six identities a Jensen mapping satisfies in one variable.

    All six come from pairing x with 0 (always orthogonal) and moving the
    coefficient across the equation with its inverses:

      i    a.f(a^{-1} x) + (1-a).f(0)            = f(x)
      ii   a.f(0) + (1-a).f((1-a)^{-1} x)        = f(x)
      iii  f(a^{-1} x) + (a^{-1}(1-a)).f(0)      = a^{-1}.f(x)
      iv   ((1-a)^{-1} a).f(0) + f((1-a)^{-1} x) = (1-a)^{-1}.f(x)
      v    ((1-a)^{-1} a).f(x) + f(0)            = (1-a)^{-1}.f(a x)
      vi   f(0) + (a^{-1}(1-a)).f(x)             = a^{-1}.f((1-a) x)
    """
    f0 = f(f.domain.zero())
    inv_co = alg.mul(a.inv, a.co)  # a^{-1} (1-a)
    co_inv_a = alg.mul(a.co_inv, a.value)  # (1-a)^{-1} a
    trackers = [_Worst() for _ in range(6)]
    for x in xs:
        fx = f(x)
        f_ainv = f(hb.act(a.inv, x))
        f_coinv = f(hb.act(a.co_inv, x))
        describe = lambda x=x: {"x": x.to_obj()}

        lhs = hb.vec_add(hb.act(a.value, f_ainv), hb.act(a.co, f0))
        trackers[0].update(hb.vec_residual(lhs, fx), describe)

        lhs = hb.vec_add(hb.act(a.value, f0), hb.act(a.co, f_coinv))
        trackers[1].update(hb.vec_residual(lhs, fx), describe)

        lhs = hb.vec_add(f_ainv, hb.act(inv_co, f0))
        rhs = hb.act(a.inv, fx)
        trackers[2].update(hb.vec_residual(lhs, rhs), describe)

        lhs = hb.vec_add(hb.act(co_inv_a, f0), f_coinv)
        rhs = hb.act(a.co_inv, fx)
        trackers[3].update(hb.vec_residual(lhs, rhs), describe)

        lhs = hb.vec_add(hb.act(co_inv_a, fx), f0)
        rhs = hb.act(a.co_inv, f(hb.act(a.value, x)))
        trackers[4].update(hb.vec_residual(lhs, rhs), describe)

        lhs = hb.vec_add(f0, hb.act(inv_co, fx))
        rhs = hb.act(a.inv, f(hb.act(a.co, x)))
        trackers[5].update(hb.vec_residual(lhs, rhs), describe)
    return [
        tracker.result(identity_id, tol)
        for tracker, identity_id in zip(trackers, SCALING_IDS)
    ]


# ---------------------------------------------------------------------------
# two-variable expansion over a pair


def _require_validated(pair: AdditivePair) -> None:
    if not pair.validated:
        raise PairNotValidated("this check needs a validated pair")


def _coefficient_products(a: Coefficient):
    """a^{-1}(1-a), (1-a)^{-1}a and (1-a)a^{-1}, the same for every sample."""
    return alg.mul(a.inv, a.co), alg.mul(a.co_inv, a.value), alg.mul(a.co, a.inv)


def pair_expansion_residual(
    f: Mapping, phi: Mapping, psi: Mapping, a: Coefficient, x, y,
    f0=None, products=None,
) -> float:
    """Residual of the two-variable expansion at (x, y) in F x F:

    a.f(phi(x) + phi(y)) + (1-a).f(psi(x) - psi(y))
      = a.[f(phi(x)) + (a^{-1}(1-a)).f(psi(x)) - ((1-a)a^{-1}).f(0)]
      + (1-a).[((1-a)^{-1}a).f(phi(y)) - ((1-a)^{-1}a).f(0) + f(psi(-y))]

    A check passes f0 = f(0) and products = _coefficient_products(a),
    computed once for all its samples.
    """
    if f0 is None:
        f0 = f(f.domain.zero())
    inv_co, co_inv_a, co_a_inv = products or _coefficient_products(a)
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


def pair_expansion_check(
    f: Mapping,
    pair: AdditivePair,
    samples: list[tuple[ModuleVector, ModuleVector]],
    tol: float = DEFAULT_TOL,
) -> IdentityResidual:
    _require_validated(pair)
    f0 = f(f.domain.zero())
    products = _coefficient_products(pair.coefficient)
    worst = _Worst()
    for x, y in samples:
        worst.update(
            pair_expansion_residual(
                f, pair.phi, pair.psi, pair.coefficient, x, y, f0, products
            ),
            lambda x=x, y=y: {"z": x.to_obj(), "w": y.to_obj()},
        )
    return worst.result("lemma2.2", tol)


def orthogonality_display_norm(
    phi: Mapping, psi: Mapping, a: Coefficient, x, y, products=None
) -> float:
    """Norm of <phi(x) + (a^{-1}(1-a)).psi(x), ((1-a)^{-1}a).phi(y) - psi(y)>.

    Zero whenever the pair conditions hold at (x, y); how it departs from
    zero measures how badly they fail. A check passes products =
    _coefficient_products(a), computed once for all its samples.
    """
    inv_co, co_inv_a, _ = products or _coefficient_products(a)
    left = hb.vec_add(phi(x), hb.act(inv_co, psi(x)))
    right = hb.vec_sub(hb.act(co_inv_a, phi(y)), psi(y))
    return alg.cstar_norm(hb.inner_product(left, right))


def orthogonality_identity_check(
    pair: AdditivePair,
    samples: list[tuple[ModuleVector, ModuleVector]],
    tol: float = DEFAULT_TOL,
) -> IdentityResidual:
    _require_validated(pair)
    products = _coefficient_products(pair.coefficient)
    worst = _Worst()
    for x, y in samples:
        worst.update(
            orthogonality_display_norm(
                pair.phi, pair.psi, pair.coefficient, x, y, products
            ),
            lambda x=x, y=y: {"z": x.to_obj(), "w": y.to_obj()},
        )
    return worst.result("lemma2.2-orth", tol)


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


def sample_pair_range(pair: AdditivePair, seed) -> ModuleVector:
    """Random element phi(z) + psi(w) of the set K = phi(F) + psi(F)."""
    rng = hb._rng(seed)
    f_space = pair.phi.domain
    z = hb.sample_vector(f_space, rng)
    w = hb.sample_vector(f_space, rng)
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
    base = _seed_list(seed)
    worst = _Worst()
    for i in range(n):
        x = sample_pair_range(pair, base + [i, 0])
        y = sample_pair_range(pair, base + [i, 1])
        lhs = g(hb.vec_add(x, y))
        rhs = hb.vec_add(g(x), g(y))
        worst.update(
            hb.vec_residual(lhs, rhs),
            lambda x=x, y=y: {"x": x.to_obj(), "y": y.to_obj()},
        )
    return worst.result("prop2.3-additive", tol)


def check_quadratic_on_pair_range(
    g,
    pair: AdditivePair,
    n: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
    seed=0,
) -> IdentityResidual:
    """Residual of g(x+y) + g(x-y) = 2 g(x) + 2 g(y) for x, y from K."""
    _require_validated(pair)
    base = _seed_list(seed)
    worst = _Worst()
    for i in range(n):
        x = sample_pair_range(pair, base + [i, 0])
        y = sample_pair_range(pair, base + [i, 1])
        lhs = hb.vec_add(g(hb.vec_add(x, y)), g(hb.vec_sub(x, y)))
        rhs = hb.vec_scale(hb.vec_add(g(x), g(y)), 2.0)
        worst.update(
            hb.vec_residual(lhs, rhs),
            lambda x=x, y=y: {"x": x.to_obj(), "y": y.to_obj()},
        )
    return worst.result("prop2.5-quadratic", tol)


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
    base = _seed_list(seed)
    f_space = pair.phi.domain
    doubled = _Worst()
    plain = _Worst()
    for i in range(n):
        x = hb.sample_vector(f_space, base + [i])
        describe = lambda x=x: {"x": x.to_obj()}
        phi_x, psi_x = pair.phi(x), pair.psi(x)
        lhs = hb.act(a.value, g(hb.vec_scale(phi_x, 2.0)))
        rhs = hb.act(a.co, g(hb.vec_scale(psi_x, 2.0)))
        doubled.update(hb.vec_residual(lhs, rhs), describe)
        lhs = hb.act(a.value, g(phi_x))
        rhs = hb.act(a.co, g(psi_x))
        plain.update(hb.vec_residual(lhs, rhs), describe)
    return (
        doubled.result("prop2.5-id211", tol),
        plain.result("prop2.5-id212", tol),
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
    of B, and orthogonality preservation of B.
    """
    _require_validated(pair)
    A = OddPart(f)
    B = PolarForm(f)
    f0 = f(f.domain.zero())
    base = _seed_list(seed)
    f_space = pair.phi.domain

    recon = _Worst()
    a_add = _Worst()
    b_sym = _Worst()
    b_bi = _Worst()
    b_a_bi = _Worst()
    for i in range(n):
        x = sample_pair_range(pair, base + [i, 0])
        y = sample_pair_range(pair, base + [i, 1])
        z = sample_pair_range(pair, base + [i, 2])
        dx = lambda x=x: {"x": x.to_obj()}
        dxy = lambda x=x, y=y: {"x": x.to_obj(), "y": y.to_obj()}

        lhs = f(x)
        rhs = hb.vec_add(hb.vec_add(A(x), B(x, x)), f0)
        recon.update(hb.vec_residual(lhs, rhs), dx)

        a_add.update(
            hb.vec_residual(A(hb.act(a.value, x)), hb.act(a.value, A(x))), dx
        )

        b_sym.update(hb.vec_residual(B(x, y), B(y, x)), dxy)

        z2 = hb.vec_scale(z, 2.0)
        lhs = B(hb.vec_add(x, y), z2)
        rhs = hb.vec_scale(hb.vec_add(B(x, z), B(y, z)), 2.0)
        r1 = hb.vec_residual(lhs, rhs)
        r2 = hb.vec_residual(B(x, z2), hb.vec_scale(B(x, z), 2.0))
        b_bi.update(max(r1, r2), dxy)

        ax = hb.act(a.value, x)
        cx = hb.act(a.co, x)
        r1 = hb.vec_residual(B(ax, ax), hb.act(a.value, B(x, x)))
        r2 = hb.vec_residual(B(cx, cx), hb.act(a.co, B(x, x)))
        b_a_bi.update(max(r1, r2), dx)

    b_orth = _Worst()
    zero_g = f.codomain.zero()
    for i in range(n):
        z = hb.sample_vector(f_space, base + [i, 3])
        w = hb.sample_vector(f_space, base + [i, 4])
        u, v = pair.phi(z), pair.psi(w)
        b_orth.update(
            hb.vec_residual(B(u, v), zero_g),
            lambda u=u, v=v: {"x": u.to_obj(), "y": v.to_obj()},
        )

    addit = check_additivity_on_pair_range(A, pair, n, tol, base + [5])
    report = (
        recon.result("thm2.7-reconstruct", tol),
        addit,
        a_add.result("thm2.7-A-a-additive", tol),
        b_sym.result("thm2.7-B-symmetric", tol),
        b_bi.result("thm2.7-B-biadditive", tol),
        b_a_bi.result("thm2.7-B-a-biadditive", tol),
        b_orth.result("thm2.7-B-orth-preserving", tol),
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
    base = _seed_list(seed)
    worst = _Worst()
    xs = [f.domain.zero()]
    xs += [hb.sample_vector(f.domain, base + [i]) for i in range(n)]
    for x in xs:
        describe = lambda x=x: {"x": x.to_obj()}
        worst.update(hb.vec_residual(first.A(x), second.A(x)), describe)
        worst.update(hb.vec_residual(first.B(x, x), second.B(x, x)), describe)
    return worst.result("thm2.7-unique", tol)


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
    swapped.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie in (0, 1), got {p}")
    _require_validated(pair)
    f_space = pair.phi.domain
    phis = [pair.phi(f_space.basis_vector(i)) for i in range(f_space.rank)]
    psis = [pair.psi(f_space.basis_vector(i)) for i in range(f_space.rank)]
    for i in range(f_space.rank):
        for j in range(f_space.rank):
            lhs = alg.scale(hb.inner_product(phis[i], phis[j]), (1.0 - p) ** 2)
            rhs = alg.scale(hb.inner_product(psis[i], psis[j]), p * p)
            r = alg.residual(lhs, rhs)
            if r > PAIR_SCALAR_TOL:
                raise PairConditionViolated(
                    f"scalar balance condition fails at basis pair ({i}, {j}) "
                    f"with residual {r:.3e}",
                    condition="scalar-balance",
                    basis_pair=(i, j),
                    residual=r,
                )
    A = OddPart(f)
    B = PolarForm(f)
    f0 = f(f.domain.zero())
    base = _seed_list(seed)
    worst = _Worst()
    zero_g = f.codomain.zero()
    for i in range(n):
        x = sample_pair_range(pair, base + [i])
        describe = lambda x=x: {"x": x.to_obj()}
        worst.update(hb.vec_residual(B(x, x), zero_g), describe)
        worst.update(
            hb.vec_residual(f(x), hb.vec_add(A(x), f0)), describe
        )
    return worst.result("cor2.9-B-vanishes", tol)
