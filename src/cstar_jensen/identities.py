"""Residual checks for the orthogonal Jensen equation and its consequences.

The defining property of a mapping f: E -> G for a coefficient a is

    <x, y> = 0   implies   f(a.x + (1-a).y) = a.f(x) + (1-a).f(y)

where the coefficient acts on values through the left module action. Every
identity checked here follows from it and is a functional equation: a sum
of coefficient actions on values of f, phi or psi at linear combinations of
drawn points. FAMILIES is the one table of them. A row, a Family, names its
draws (stacks of E or of F, or orthogonal pairs), any precondition, and for
each of its ids the sides of the identity as small expression trees
(_Expr): a map call, act by a coefficient element, add, sub, neg, scale,
the zero vector and the norm of an inner product. An element of K =
phi(F) + psi(F) is itself such a tree, phi(draw 2j) + psi(draw 2j + 1), and
the maps derived from f, the odd part A, the centered even part and the
polar form B, are macros over f.

run_family is the one evaluator. It seeds one generator from the family's
seed base and draws the family's stacks from it. It computes every node of
the family once, operands first, by one rule for map calls: the first call
of a map that is needed computes every call of that map in the family, as
one call on the stack of their arguments, f(0) a row of one, and splits
the images back by rows. f takes phi and psi images as arguments and
nothing feeds phi or psi, so each of f, phi and psi is called at most once;
the table refuses a call that needs another call of its own map. It
measures every residual of the family with one alg.vec_residual call on
the stacks of their sides, and folds each id's table with _fold. That
keeps the first NaN, else the first largest residual, and names the input
of that row alone. A Mapping gives each row of a stack the bits it gives
that row alone, and block_norm measures each row on its own, so each
residual is, bit for bit, the one its sample gives alone. Checks never
decide anything symbolically; failures surface as residuals, not
exceptions.

Fixed identity ids name the checks in reports and scenarios; see CHECK_IDS.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from typing import Callable

import numpy as np

from . import algebra as alg
from . import hilbert as hb
from .algebra import Coefficient, ModuleSpace, ModuleVector
from .errors import DomainError, InvalidSampler, PairConditionViolated, PairNotValidated
from .errors import ValidationError
from .hilbert import OrthoSampler
from .mappings import PAIR_VALIDATION_TOL, AdditivePair, Mapping

# campaign defaults
DEFAULT_SAMPLES = 200
DEFAULT_TOL = 1e-9


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
        rows = x.batch
        if rows:
            spans.append(slice(start, start + rows[0]))
            start += rows[0]
        else:
            spans.append(start)
            start += 1
    return spans


# ---------------------------------------------------------------------------
# expressions and their evaluation


class _Expr(tuple):
    """A node (op, *operands) of a side of an identity. Equal nodes are equal
    tuples, so a family computes each once. x + y, x - y, -x, s * x (a
    float s) and c @ x (a coefficient node c) build add, sub, neg, scale
    and act."""

    __slots__ = ()

    def __new__(cls, *node):
        return tuple.__new__(cls, node)

    def __add__(self, other):
        return _Expr("add", self, other)

    def __sub__(self, other):
        return _Expr("sub", self, other)

    def __neg__(self):
        return _Expr("neg", self)

    def __rmul__(self, s):
        return _Expr("scale", self, s)

    def __matmul__(self, x):
        return _Expr("act", self, x)


# the zero vector of E
_ZERO = _Expr("zero")
# the stacks a family draws, in the order its draw returns them
_DRAW = tuple(_Expr("draw", i) for i in range(8))
# the parts of a Coefficient, and calls of f, phi and psi
_A, _CO, _INV, _CO_INV = (_Expr("coef", name) for name in ("value", "co", "inv", "co_inv"))
_f, _phi, _psi = (partial(_Expr, "map", name) for name in ("f", "phi", "psi"))


def _odd(x):
    """A(x) = (f(x) - f(-x)) / 2, the additive candidate, with A(0) = 0 bit
    for bit."""
    return 0.5 * (_f(x) - _f(-x))


def _even(x):
    """(f(x) + f(-x)) / 2 - f(0): even, with value 0 at 0."""
    return 0.5 * (_f(x) + _f(-x)) - _f(_ZERO)


def _polar(x, y):
    """B(x, y) = (f(x+y) + f(-x-y) - f(x-y) - f(-x+y)) / 8.

    The summation order is fixed so the value is bitwise symmetric in
    (x, y): both parenthesized sums are single commutative additions, and
    B(x, 0) = 0 bit for bit.
    """
    s, d = x + y, x - y
    return 0.125 * ((_f(s) + _f(-s)) - (_f(d) + _f(-d)))


def _k(j):
    """Element j of K = phi(F) + psi(F): phi(draw 2j) + psi(draw 2j + 1)."""
    return _phi(_DRAW[2 * j]) + _psi(_DRAW[2 * j + 1])


def _compile(exprs):
    """(index, nodes, calls) of the nodes under exprs, each once, operands
    first: index gives a node's position, nodes[k] is (op, *operands) with
    the operand nodes given by position, and calls gives each map's name
    the positions of its calls, in node order. A map's calls are made as
    one, so a call whose argument needs a call of the same map, directly or
    through another map, as in f(f(x)), raises ValueError."""
    index, nodes, calls, under = {}, [], {}, []

    def visit(e):
        if e not in index:
            ref = [visit(x) for x in e[1:] if isinstance(x, _Expr)]
            k = index[e] = len(nodes)
            nodes.append((e[0], *(index[x] if isinstance(x, _Expr) else x for x in e[1:])))
            # the maps called at or under the node
            under.append(set().union(*(under[j] for j in ref)))
            if e[0] == "map":
                under[k].add(e[1])
                calls.setdefault(e[1], []).append(k)
        return index[e]

    for e in exprs:
        visit(e)
    # the maps each map's arguments call, then every map they reach
    feeds = {m: set().union(*(under[nodes[k][2]] for k in ks)) for m, ks in calls.items()}
    for _ in calls:
        feeds = {m: fed.union(*(feeds[n] for n in fed)) for m, fed in feeds.items()}
    for m, fed in feeds.items():
        if m in fed:
            raise ValueError(f"a call of {m} needs another call of {m}; they cannot be made as one")
    return index, nodes, calls


def _evaluate(nodes, calls, draws, space: ModuleSpace, a: Coefficient | None, maps: dict) -> list:
    """The value of every node (_compile), by position: draw i is draws[i],
    zero the zero vector of space, coef a part of a, and a map call
    maps[name] at its argument. The first call of a map that is needed
    computes all of that map's calls, as one call of the map on the stack
    of their arguments in node order, and splits the images back by rows."""
    values = [None] * len(nodes)

    def value(k):
        if values[k] is None:
            op, *args = nodes[k]
            if op == "map":
                stacked = [value(nodes[j][2]) for j in calls[args[0]]]
                images = maps[args[0]](_stack(stacked))
                for j, span in zip(calls[args[0]], _spans(stacked)):
                    values[j] = images.row(span)
            elif op == "draw":
                values[k] = draws[args[0]]
            elif op == "zero":
                values[k] = space.zero()
            elif op == "coef":
                values[k] = getattr(a, args[0])
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
            else:  # norm
                values[k] = alg.module_norm(hb.inner_product(value(args[0]), value(args[1])))
        return values[k]

    try:
        return [value(k) for k in range(len(nodes))]
    finally:
        # value refers to itself; without the cycle the arrays go with the call
        del value


# ---------------------------------------------------------------------------
# the table


@dataclass(frozen=True, eq=False)
class Identity:
    """One id of a family. Each side is a pair (lhs, rhs) of nodes, whose
    residual is alg.vec_residual(lhs, rhs), or a norm node, whose residual
    is its value. join makes the id's residual table of the list of the
    sides' columns: by default their largest per row, NaN if any is; tuple
    keeps them all, each row's entries in side order. rows names the
    stacks whose row i describes sample i."""

    id: str
    sides: list
    rows: dict
    join: Callable = partial(reduce, np.maximum)


class Family:
    """One row of the table: identities checked on the same draws.

    draw(space, pair, sampler, n, seed) gives the stacks the draw nodes read,
    refusing when an input it needs is missing; require(a, pair), when
    given, refuses before anything is drawn. The coef nodes read the pair's
    coefficient when pair_coefficient is set, else the campaign's.
    """

    def __init__(self, name, draw, identities, pair_coefficient=False, require=None):
        self.name, self.draw, self.require = name, draw, require
        self.pair_coefficient = pair_coefficient
        self.identities = tuple(identities)
        self.ids = tuple(identity.id for identity in self.identities)
        sides = [s for identity in self.identities for s in identity.sides]
        roots = [e for s in sides for e in ((s,) if isinstance(s, _Expr) else s)]
        roots += [e for identity in self.identities for e in identity.rows.values()]
        at, self.nodes, self.calls = _compile(roots)
        # per identity: its sides by position, and its rows
        self.compiled = tuple(
            (
                tuple(at[s] if isinstance(s, _Expr) else (at[s[0]], at[s[1]]) for s in i.sides),
                tuple((name, at[e]) for name, e in i.rows.items()),
            )
            for i in self.identities
        )


def _scenario_pair(pair: AdditivePair | None) -> AdditivePair:
    if pair is None:
        raise ValidationError("this check needs a scenario pair")
    return pair


def _validated(pair: AdditivePair | None) -> AdditivePair:
    if not _scenario_pair(pair).validated:
        raise PairNotValidated("this check needs a validated pair")
    return pair


def _pairs(space, pair, sampler: OrthoSampler | None, n, seed):
    """n orthogonal pairs as two stacks (hilbert.sample_pairs)."""
    if sampler is None:
        raise ValidationError("eq-1.1 needs an orthogonal-pair sampler")
    xs, ys = hb.sample_pairs(sampler, n, seed)
    if not hb.is_orthogonal(xs, ys).all():
        raise InvalidSampler("sampler emitted a non-orthogonal pair")
    return xs, ys


def _sampler_first(space, pair, sampler: OrthoSampler | None, n, seed):
    """One stack of n vectors of E: an explicit sampler's vectors, pair by
    pair, then a stack drawn for the remaining rows."""
    xs = []
    if sampler is not None and sampler.mode == "explicit":
        xs = [v for xy in sampler.pairs for v in xy][:n]
    return (_stack(xs + list(hb.sample_stacks(space, seed, n - len(xs)))),)


def _on_f(count: int):
    """The draw of count stacks of n vectors of F."""

    def draw(space, pair, sampler, n, seed):
        return hb.sample_stacks(_validated(pair).phi.domain, seed, n, count)

    return draw


def _zero_first(space, pair, sampler, n, seed):
    """One stack of E: the zero vector, then n vectors drawn on the seed
    base + [2]. It takes a validated pair, as A and B are those of the
    decomposition on K."""
    _validated(pair)
    return (alg.stack_vectors(space, [space.zero(), *hb.sample_stacks(space, seed + [2], n)]),)


def _scalar_of(coefficient: Coefficient) -> float:
    """The real scalar p with coefficient = p * 1, or ValidationError."""
    value = coefficient.value
    p = float(value.blocks[0][0, 0].real)
    probe = alg.vec_scale(alg.unit(value.shape), p)
    if not alg.vec_residual(value, probe) <= 1e-12:
        raise ValidationError("coefficient is not a real scalar multiple of the unit")
    return p


def _scalar_balance(a: Coefficient, pair: AdditivePair | None) -> None:
    """Cor. 2.9's hypotheses: a = p * 1 for a real p in (0, 1), and the
    scalar balance condition (1-p)^2 <phi(z), phi(w)> = p^2 <psi(z), psi(w)>
    on basis pairs, the validated balance condition with the roles of phi
    and psi swapped, within the pair validation threshold, read from the
    Grams the pair keeps. A refusal names the first failing basis pair in
    row-major order."""
    _scenario_pair(pair)
    p = _scalar_of(a)
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie in (0, 1), got {p}")
    gram_phi, gram_psi = _validated(pair).grams
    r = alg.vec_residual(alg.vec_scale(gram_phi, (1.0 - p) ** 2), alg.vec_scale(gram_psi, p * p))
    failing = np.flatnonzero(~(r <= PAIR_VALIDATION_TOL))
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


def _table() -> tuple[Family, ...]:
    """FAMILIES, in seed-index order."""
    f, phi, psi, odd, even, polar, k = _f, _phi, _psi, _odd, _even, _polar, _k
    a, co, inv, co_inv = _A, _CO, _INV, _CO_INV
    inv_co, co_inv_a, co_a_inv = inv @ co, co_inv @ a, co @ inv
    d0, d1 = _DRAW[:2]
    on_d0, on_d01 = {"x": d0}, {"x": d0, "y": d1}

    # the defining equation, on orthogonal pairs (x, y)
    jensen = [Identity("eq-1.1", [(f(a @ d0 + co @ d1), a @ f(d0) + co @ f(d1))], on_d01)]

    # Lemma 2.1: x paired with 0 (always orthogonal), the coefficient moved
    # across the equation with its inverses
    f0, fx = f(_ZERO), f(d0)
    scaling = [
        Identity("lemma2.1-i", [(a @ f(inv @ d0) + co @ f0, fx)], on_d0),
        Identity("lemma2.1-ii", [(a @ f0 + co @ f(co_inv @ d0), fx)], on_d0),
        Identity("lemma2.1-iii", [(f(inv @ d0) + inv_co @ f0, inv @ fx)], on_d0),
        Identity("lemma2.1-iv", [(co_inv_a @ f0 + f(co_inv @ d0), co_inv @ fx)], on_d0),
        Identity("lemma2.1-v", [(co_inv_a @ fx + f0, co_inv @ f(a @ d0))], on_d0),
        Identity("lemma2.1-vi", [(f0 + inv_co @ fx, inv @ f(co @ d0))], on_d0),
    ]

    # Lemma 2.2 on pairs (z, w) of F x F: the two-variable expansion, and
    # the display norm, zero whenever the pair conditions hold at (z, w)
    z, w = d0, d1
    on_zw = {"z": z, "w": w}
    lhs = a @ f(phi(z) + phi(w)) + co @ f(psi(z) - psi(w))
    bracket_z = f(phi(z)) + inv_co @ f(psi(z)) - co_a_inv @ f0
    bracket_w = co_inv_a @ f(phi(w)) - co_inv_a @ f0 + f(psi(-w))
    expansion = [Identity("lemma2.2", [(lhs, a @ bracket_z + co @ bracket_w)], on_zw)]
    display = _Expr("norm", phi(z) + inv_co @ psi(z), co_inv_a @ phi(w) - psi(w))
    orth_display = [Identity("lemma2.2-orth", [display], on_zw)]

    # Prop. 2.3 and 2.5 on x, y of K; the balance identities on x of F
    x, y = k(0), k(1)
    on_x, on_xy = {"x": x}, {"x": x, "y": y}
    additive = [Identity("prop2.3-additive", [(odd(x + y), odd(x) + odd(y))], on_xy)]
    parallelogram = (even(x + y) + even(x - y), 2.0 * (even(x) + even(y)))
    quadratic = [Identity("prop2.5-quadratic", [parallelogram], on_xy)]
    balance = [
        Identity("prop2.5-id211", [(a @ even(2.0 * phi(d0)), co @ even(2.0 * psi(d0)))], on_d0),
        Identity("prop2.5-id212", [(a @ even(phi(d0)), co @ even(psi(d0)))], on_d0),
    ]

    # Thm 2.7: f = A + B(x, x) + f(0) on K, with A a-additive and B
    # symmetric, biadditive, a-biadditive and orthogonality preserving; a
    # pair of sides holds when both do
    z = k(2)
    u, v = phi(_DRAW[6]), psi(_DRAW[7])
    ax, cx, z2 = a @ x, co @ x, 2.0 * z
    bxx, bxz, buv = polar(x, x), polar(x, z), polar(u, v)
    biadditive = [(polar(x + y, z2), 2.0 * (bxz + polar(y, z))), (polar(x, z2), 2.0 * bxz)]
    a_biadditive = [(polar(ax, ax), a @ bxx), (polar(cx, cx), co @ bxx)]
    decompose = [
        Identity("thm2.7-reconstruct", [(f(x), odd(x) + bxx + f0)], on_x),
        Identity("thm2.7-A-a-additive", [(odd(ax), a @ odd(x))], on_x),
        Identity("thm2.7-B-symmetric", [(polar(x, y), polar(y, x))], on_xy),
        Identity("thm2.7-B-biadditive", biadditive, on_xy),
        Identity("thm2.7-B-a-biadditive", a_biadditive, on_x),
        Identity("thm2.7-B-orth-preserving", [(buv, 0.0 * buv)], {"x": u, "y": v}),
    ]
    # A and B of a second decomposition against the first, at 0 and on E;
    # both entries of a row count. The second is f's own, so this reads 0
    both = [(odd(d0), odd(d0)), (polar(d0, d0), polar(d0, d0))]
    unique = [Identity("thm2.7-unique", both, on_d0, tuple)]
    # Cor. 2.9: for a scalar coefficient, B(x, x) = 0 and f = A + f(0) on K
    scalar = [Identity("cor2.9-B-vanishes", [(bxx, 0.0 * bxx), (f(x), odd(x) + f0)], on_x, tuple)]
    return (
        Family("jensen", _pairs, jensen),
        Family("scaling", _sampler_first, scaling),
        Family("expansion", _on_f(2), expansion, pair_coefficient=True),
        Family("orth-display", _on_f(2), orth_display, pair_coefficient=True),
        Family("additive", _on_f(4), additive),
        Family("quadratic", _on_f(4), quadratic),
        Family("balance", _on_f(1), balance, pair_coefficient=True),
        Family("decompose", _on_f(8), decompose),
        Family("unique", _zero_first, unique),
        Family("scalar", _on_f(2), scalar, require=_scalar_balance),
    )


FAMILIES = _table()
FAMILY_OF = {check_id: family for family in FAMILIES for check_id in family.ids}
CHECK_IDS = tuple(FAMILY_OF)


# ---------------------------------------------------------------------------
# the evaluator


def run_family(
    family: Family,
    f,
    space: ModuleSpace,
    a: Coefficient | None,
    pair: AdditivePair | None,
    sampler: OrthoSampler | None,
    n: int,
    tol: float,
    seed,
) -> list[IdentityResidual]:
    """The entries of family's ids for f: E -> G (any callable on vectors
    and stacks of E = space) with the campaign's coefficient a, pair and
    sampler, on n samples drawn from the seed base seed."""
    if family.require is not None:
        family.require(a, pair)
    draws = family.draw(space, pair, sampler, n, seed)
    if family.pair_coefficient:
        a = pair.coefficient
    maps = {"f": f} if pair is None else {"f": f, "phi": pair.phi, "psi": pair.psi}
    values = _evaluate(family.nodes, family.calls, draws, space, a, maps)
    measured = [s for sides, _ in family.compiled for s in sides if isinstance(s, tuple)]
    columns = iter(())
    if measured:
        lhs = [values[p] for p, _ in measured]
        rhs = [values[q] for _, q in measured]
        table = alg.vec_residual(_stack(lhs), _stack(rhs))
        columns = iter([table[s] for s in _spans(lhs)])
    entries = []
    for identity, (sides, rows) in zip(family.identities, family.compiled):
        residuals = identity.join(
            [next(columns) if isinstance(s, tuple) else values[s] for s in sides]
        )
        stacks = {name: values[k] for name, k in rows}
        describe = lambda i, stacks=stacks: {name: v.row(i).to_obj() for name, v in stacks.items()}
        entries.append(_fold(identity.id, residuals, describe, tol))
    return entries


def check_orthogonal_jensen(
    f: Mapping,
    a: Coefficient,
    sampler: OrthoSampler,
    n: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
    seed=0,
) -> IdentityResidual:
    """Residual of f(a.x + (1-a).y) = a.f(x) + (1-a).f(y) on n orthogonal
    pairs drawn by hilbert.sample_pairs: the eq-1.1 row of FAMILIES."""
    (entry,) = run_family(FAMILY_OF["eq-1.1"], f, sampler.space, a, None, sampler, n, tol, seed)
    return entry
