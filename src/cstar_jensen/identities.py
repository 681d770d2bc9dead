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
the zero vector and orth, the pair conditions' orthogonality residual
(hilbert.orthogonality_residual) of two vectors. The table numbers the
draw nodes with one running count, so each family's are its own, and each
coef node names the coefficient it reads: the pair's for Lemma 2.2 and
Prop. 2.5's balance identities, the campaign's for every other id. An
element of K = phi(F) + psi(F) is itself such a tree, phi(z) + psi(w) for
two draws z and w of F, and the maps derived from f, the odd part A, the
centered even part and the polar form B, are macros over f.

run_families is the one runner. For one mapping it runs the families that
hold a selected id as one program (_Program), built once per tuple of
families (_program) on its first run and kept. It compiles the table's own
trees, so the nodes families share (the zero vector, f(0), a coefficient's
products) are computed once. _compile builds the program's schedule, a
straight-line program: its steps come in dependency order, all calls of one
map are one step after all of their arguments, and each step names the
values whose last reader it is.
_evaluate runs the steps in one loop over per-block array tuples
(alg.act_blocks, scale_blocks and numpy's add, subtract and negative, the
operations vec_add and the rest run), drops each value after its last
reader, checks spaces once per pair of the sources it tracks for each
value, and builds a vector only for a map's argument, an orth operand and
the values the runner reads. A map step is one call on its calls'
arguments as one stack of their source's type, f(0) a row of one:
alg.stack_blocks stacks them and gives each its span, its row or its
slice of rows, by which the images are split back. f takes phi and psi
images as arguments and phi and psi take draws alone, so each of f, phi
and psi is called once per program run; the schedule refuses a call
that needs another call of its own map.

Each family seeds one generator from its seed base, as the caller gives it
with nothing appended, and draws its rows from it in chunks: every chunk
draws at most CHUNK_REALS real coordinates over all of the families, so a
run's arrays are set by that constant, not by the sample count, and a
chunk is rows start..stop of the one draw of every row, since draws are
sample-major. Each chunk runs the program once, stacks the left and the
right sides of every residual of every family, measures them with one
alg.vec_residual call, splits the table by the sides' spans, and folds
each id's table with _fold into its entry so far. That keeps the first
NaN, else the first largest residual, across the chunks in row order,
and names the input of that row alone: describe copies that row of each
stack the id names into a _HeldRow, which reads as the row's to_obj() and
which the report writes straight from its array. A Mapping gives each row
of a stack the bits it gives that row alone, and block_norm measures each
row on its own, so each residual is, bit for bit, the one its sample
gives alone, whatever families and rows share its program run. A package
error of a family's require or draw fails that family alone; one that
the program raises, which only a map built in code can (a scenario's
maps have their spaces checked at load), fails every family in it.
Checks never decide anything symbolically; failures surface as
residuals, not exceptions.

Fixed identity ids name the checks in reports and scenarios; see CHECK_IDS.
"""
from __future__ import annotations

import dataclasses
import math
from collections import abc
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from typing import Callable, NamedTuple

import numpy as np

from . import algebra as alg
from . import hilbert as hb
from . import mappings as mp
from .algebra import Coefficient, ModuleSpace, ModuleVector
from .errors import CstarJensenError, DomainError, InvalidSampler, ValidationError
from .hilbert import OrthoSampler
from .mappings import AdditivePair, Mapping

# campaign defaults
DEFAULT_SAMPLES = 200
DEFAULT_TOL = 1e-9


class _HeldRow(abc.Mapping):
    """A worst input: a copy of one row of a family's stack, so that an
    entry never keeps the family's stacks alive. Read as a mapping, it is
    the row's to_obj(), built on the first read and kept; canonical_dumps
    writes it from the array (canonical_json, alg.obj_text), to the same
    bytes."""

    __slots__ = ("vector", "_obj")

    def __init__(self, row: ModuleVector):
        self.vector = type(row)._wrap(row.space, tuple(b.copy() for b in row.blocks))
        self._obj = None

    def _read(self) -> dict:
        if self._obj is None:
            self._obj = self.vector.to_obj()
        return self._obj

    def __getitem__(self, key):
        return self._read()[key]

    def __iter__(self):
        return iter(self._read())

    def __len__(self):
        return len(self._read())

    def canonical_json(self) -> str:
        return alg.obj_text(self.vector)


@dataclass(frozen=True)
class IdentityResidual:
    """Outcome of one identity check over a sample set.

    worst_input names the input of the worst residual: for a checked row,
    {name: row} with each row a copy of that input's vector (_HeldRow), a
    read-only mapping equal to the vector's to_obj(); for a family that
    raised a package error, {"error": message}."""

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


def _fold(identity_id: str, residuals, describe, tol: float, prior=None) -> IdentityResidual:
    """The entry of a residual table: an array of shape (S,), or a tuple of
    them whose entries for row i go in tuple order. Read row by row, the
    worst entry is the first NaN, else the first largest value (np.argmax
    gives both), so a NaN never passes. describe(i) names the input of row
    i; it is called once, for the worst entry's row. A table of no rows
    would pass on nothing, so it raises DomainError.

    prior, the entry of the rows before the table's, folds both tables as
    one by the same rule: prior's worst entry stays unless it is a number
    and the table's is a NaN or larger, and describe is called only when
    the table's is the one kept."""
    columns = residuals if isinstance(residuals, tuple) else (residuals,)
    table = np.column_stack(columns).ravel()
    if not table.size:
        raise DomainError(f"{identity_id} needs at least one sample")
    k = int(np.argmax(table))
    worst, samples = float(table[k]), table.size + (prior.samples if prior else 0)
    if prior is not None and not _replaces(worst, prior.max_residual):
        return dataclasses.replace(prior, samples=samples)
    return IdentityResidual(identity_id, samples, worst, describe(k // len(columns)), worst <= tol)


def _replaces(worst: float, earlier: float) -> bool:
    """Whether the worst entry of later rows replaces that of earlier rows,
    read as one table: the first NaN, else the first largest value."""
    return not math.isnan(earlier) and (math.isnan(worst) or worst > earlier)


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
        return _Expr("scale", self, float(s))

    def __matmul__(self, x):
        return _Expr("act", self, x)


# the zero vector of E
_ZERO = _Expr("zero")
# draw i reads stack i of a program's draws; the table gives each family a
# run of its own (Family.first), 27 draws in all
_DRAW = tuple(_Expr("draw", i) for i in range(32))
# the parts of the campaign's Coefficient ("a") and of the pair's ("pair"),
# and calls of f, phi and psi
_A, _CO, _INV, _CO_INV = (_Expr("coef", name, "a") for name in ("value", "co", "inv", "co_inv"))
_PAIR = tuple(_Expr("coef", name, "pair") for name in ("value", "co", "inv", "co_inv"))
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


def _k(z, w):
    """The element phi(z) + psi(w) of K = phi(F) + psi(F)."""
    return _phi(z) + _psi(w)


def _compile(exprs):
    """(index, nodes, calls, schedule) of the nodes under exprs, each once,
    operands first: index gives a node's position, nodes[k] is
    (op, *operands) with the operand nodes given by position, calls gives
    each map's name the positions of its calls, in node order, and
    schedule is _evaluate's program, which keeps the values of exprs. A
    map's calls are made as one, so _schedule refuses a call whose argument
    needs a call of the same map, directly or through another map, as in
    f(f(x))."""
    index, nodes, calls, operands = {}, [], {}, []

    def visit(e):
        if e not in index:
            ref = [visit(x) for x in e[1:] if isinstance(x, _Expr)]
            k = index[e] = len(nodes)
            nodes.append((e[0], *(index[x] if isinstance(x, _Expr) else x for x in e[1:])))
            operands.append(tuple(ref))
            if e[0] == "map":
                calls.setdefault(e[1], []).append(k)
        return index[e]

    for e in exprs:
        visit(e)
    return index, nodes, calls, _schedule(nodes, operands, calls, [index[e] for e in exprs])


class _Schedule(NamedTuple):
    """_evaluate's program for a program's nodes. steps run in order, each a
    tuple (op, out, x, y, aux, free): op names the node's operation, out is
    the position it writes (a map step: the positions of all the map's
    calls), x and y its operands' positions or constants (a source step's
    x is the node's operands, its y the node's source), aux the sources
    its space check or its wrapping reads, and free the positions whose
    last reader it is. A source is where the type and space of a value come
    from: a draw, the zero vector, a part of the coefficient or a map's
    images; size is the number of positions, sources the number of
    sources, and reads the positions (k, source of k) the caller reads,
    never freed; an orth node's source is None."""

    steps: tuple
    size: int
    sources: int
    reads: tuple


def _schedule(nodes, operands, calls, roots) -> _Schedule:
    """The _Schedule of nodes, whose operand positions are operands[k],
    keeping the positions roots. Its steps are the order in which computing
    each node in turn, operands first, reaches them: a map's calls are one
    step, after the arguments of all of them. The first step that adds or
    subtracts values of two sources checks that their spaces agree, and the
    first that acts on a source's values by another's checks that they are
    elements of its algebra. A call that needs a call of a map whose step
    is still being scheduled raises ValueError."""
    source, src, done, checked, steps, making = {}, [None] * len(nodes), set(), set(), [], set()

    def need(k):
        if k in done:
            return
        op, *args = nodes[k]
        ks = [k]
        if op == "map":
            m = args[0]
            if m in making:
                raise ValueError(f"a call of {m} needs another call of {m}; they cannot be made as one")
            making.add(m)
            ks = calls[m]
        for j in ks:
            for i in operands[j]:
                need(i)
        done.update(ks)
        if op in ("map", "draw", "zero", "coef"):
            s = source.setdefault((op, args[0]) if op == "map" else (op, *args), len(source))
            for j in ks:
                src[j] = s
        if op == "map":
            x = tuple(nodes[j][2] for j in ks)
            steps.append((op, tuple(ks), x, args[0], (s, src[x[0]])))
        elif op in ("draw", "zero", "coef"):
            steps.append((op, k, tuple(args), s, None))
        elif op == "orth":
            steps.append((op, k, *args, (src[args[0]], src[args[1]])))
        else:
            x, y = args if len(args) == 2 else (args[0], None)
            # act's vector is its second operand; the others' their first
            src[k] = src[y] if op == "act" else src[x]
            pair = (op == "act", src[x], src[y]) if op in ("act", "add", "sub") else None
            check = pair is not None and pair[1] != pair[2] and pair not in checked
            checked.add(pair)
            steps.append((op, k, x, y, pair[1:] if check else None))

    for k in range(len(nodes)):
        need(k)
    last = {}
    for t, (op, out, x, *_) in enumerate(steps):
        for j in x if op == "map" else operands[out]:
            last[j] = t
    free = [[] for _ in steps]
    for j, t in last.items():
        if j not in roots:
            free[t].append(j)
    return _Schedule(
        tuple(step + (tuple(f),) for step, f in zip(steps, free)),
        len(nodes),
        len(source),
        tuple((k, src[k]) for k in dict.fromkeys(roots)),
    )


def _evaluate(
    schedule: _Schedule, draws, space: ModuleSpace, coefficients: dict, maps: dict
) -> list:
    """The values of a program's nodes (_compile), by position, running
    schedule's steps in order on per-block array tuples: draw i is
    draws[i], the stack of draw number i, zero the zero vector of space,
    coef (name, which) the part name of coefficients[which], and a map
    step one call of maps[name] on the stack of its calls' arguments, its
    images split back by rows. Each value is dropped after its last
    reader. The positions schedule reads come back as vectors of their
    source's type and space, an orth node's as its residual; every other
    entry is None."""
    values = [None] * schedule.size
    kinds = [None] * schedule.sources
    for op, out, x, y, aux, free in schedule.steps:
        if op == "add":
            if aux:
                alg.require_same_space(kinds[aux[0]][1], kinds[aux[1]][1])
            values[out] = tuple(map(np.add, values[x], values[y]))
        elif op == "act":
            if aux:
                alg.require_action(kinds[aux[0]][1], kinds[aux[1]][1])
            values[out] = alg.act_blocks(values[x], values[y])
        elif op == "sub":
            if aux:
                alg.require_same_space(kinds[aux[0]][1], kinds[aux[1]][1])
            values[out] = tuple(map(np.subtract, values[x], values[y]))
        elif op == "neg":
            values[out] = tuple(map(np.negative, values[x]))
        elif op == "scale":
            values[out] = alg.scale_blocks(values[x], y)
        elif op == "map":
            kind, at = kinds[aux[1]]
            stack, spans = alg.stack_blocks(at, [values[j] for j in x])
            stack = kind._wrap(at, stack)
            # the stack holds copies, or is a lone argument: the arguments
            # last read here go first
            for k in free:
                values[k] = None
            images = maps[y](stack)
            # locals outlive the step: the stack goes now, and the images
            # once the last of their rows in values does
            del stack
            kinds[aux[0]] = (type(images), images.space)
            for k, span in zip(out, spans):
                values[k] = tuple([b[span] for b in images.blocks])
            del images
        elif op == "orth":
            (kx, at_x), (ky, at_y) = kinds[aux[0]], kinds[aux[1]]
            values[out] = hb.orthogonality_residual(
                kx._wrap(at_x, values[x]), ky._wrap(at_y, values[y])
            )
        else:  # draw, zero, coef: a source
            if op == "draw":
                vector = draws[x[0]]
            elif op == "zero":
                vector = space.zero()
            else:
                vector = getattr(coefficients[x[1]], x[0])
            kinds[y] = (type(vector), vector.space)
            values[out] = vector.blocks
        for k in free:
            values[k] = None
    for k, s in schedule.reads:
        if s is not None:
            kind, at = kinds[s]
            values[k] = kind._wrap(at, values[k])
    return values


# ---------------------------------------------------------------------------
# the table


@dataclass(frozen=True, eq=False)
class Identity:
    """One id of a family. Each side is a pair (lhs, rhs) of nodes, whose
    residual is alg.vec_residual(lhs, rhs), or an orth node, whose residual
    is its value. join makes the id's residual table of the list of the
    sides' columns: by default their largest per row, NaN if any is; tuple
    keeps them all, each row's entries in side order. rows names the
    stacks whose row i describes sample i."""

    id: str
    sides: list
    rows: dict
    join: Callable = partial(reduce, np.maximum)

    def nodes(self) -> list:
        """The nodes of its sides, then of its rows."""
        sides = [e for s in self.sides for e in ((s,) if isinstance(s, _Expr) else s)]
        return sides + list(self.rows.values())


class Family:
    """One row of the table: identities checked on the same draws.

    draw(space, pair, sampler, start, stop, rng) gives the draws stacks
    that the draw nodes first .. first + draws - 1 read, in order, rows
    start..stop of the stacks one draw of all rows would give, from the
    generator rng, which has drawn the rows before start; it refuses when
    an input it needs is missing. require(a, pair), when given, refuses
    before anything is drawn. When orthogonal is set, the first two stacks
    are orthogonal pairs, which the runner checks (run_families).
    """

    def __init__(self, name, draw, first, draws, identities, require=None, orthogonal=False):
        self.name, self.draw, self.require, self.orthogonal = name, draw, require, orthogonal
        self.first, self.draws = first, draws
        self.identities = tuple(identities)
        self.ids = tuple(identity.id for identity in self.identities)


class _Program:
    """The table's trees of some families as one straight-line program: the
    nodes two families share (the zero vector, f(0), a coefficient's
    products) are computed once and each map is one step. families; nodes,
    calls and schedule as _compile gives them, which refuses a call that
    needs another call of its own map; and per family, per identity, its
    sides by position, an orth node's or a pair (lhs, rhs), and its rows
    (compiled)."""

    def __init__(self, families):
        self.families = tuple(families)
        roots = [e for family in self.families for i in family.identities for e in i.nodes()]
        at, self.nodes, self.calls, self.schedule = _compile(roots)
        self.compiled = tuple(
            tuple(
                (
                    tuple(at[s] if isinstance(s, _Expr) else (at[s[0]], at[s[1]]) for s in i.sides),
                    tuple((name, at[e]) for name, e in i.rows.items()),
                )
                for i in family.identities
            )
            for family in self.families
        )
        # the measured sides, each pair of positions once, in order
        self.measured = tuple(
            dict.fromkeys(
                s for identities in self.compiled for sides, _ in identities for s in sides
                if isinstance(s, tuple)
            )
        )


@lru_cache(maxsize=None)
def _program(families: tuple) -> _Program:
    """The _Program of families, built on the first call per tuple and
    kept."""
    return _Program(families)


def _scenario_pair(pair: AdditivePair | None) -> AdditivePair:
    if pair is None:
        raise ValidationError("this check needs a scenario pair")
    return pair


def _pairs(space, pair, sampler: OrthoSampler | None, start, stop, rng):
    """Orthogonal pairs as two stacks (hilbert.sample_pairs); the runner
    checks that they are orthogonal."""
    if sampler is None:
        raise ValidationError("eq-1.1 needs an orthogonal-pair sampler")
    return hb.sample_pairs(sampler, stop - start, rng, start)


def _sampler_first(space, pair, sampler: OrthoSampler | None, start, stop, rng):
    """One stack of E: an explicit sampler's vectors, pair by pair, then
    vectors drawn for the remaining rows."""
    xs = []
    if sampler is not None and sampler.mode == "explicit":
        xs = [v for xy in sampler.pairs for v in xy][start:stop]
    drawn = hb.sample_stacks(space, rng, stop - start - len(xs))
    return (alg.stack_vectors(space, [*xs, *drawn]),)


def _on_f(count: int):
    """The draw of count stacks of vectors of F."""

    def draw(space, pair, sampler, start, stop, rng):
        return hb.sample_stacks(_scenario_pair(pair).phi.domain, rng, stop - start, count)

    return draw


def _zero_first(space, pair, sampler, start, stop, rng):
    """One stack of E: the zero vector, then the drawn vectors, a row more
    than the samples; the zero row is the first chunk's. It takes a
    scenario pair, as A and B are those of the decomposition on K."""
    _scenario_pair(pair)
    zero = [space.zero()] if start == 0 else []
    return (alg.stack_vectors(space, [*zero, *hb.sample_stacks(space, rng, stop - start)]),)


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
    on basis pairs within the pair validation threshold: the table of
    mp.balance_residuals with a and 1 - a swapped, on the Grams the pair
    keeps, refused by mp.require_pair_condition."""
    _scenario_pair(pair)
    p = _scalar_of(a)
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie in (0, 1), got {p}")
    swapped = Coefficient(a.co, a.co_inv, a.value, a.inv)
    mp.require_pair_condition("scalar-balance", mp.balance_residuals(swapped, *pair.grams))


def _table() -> tuple[Family, ...]:
    """FAMILIES, in seed-index order. Each family's draw nodes are the next
    draws numbers of one running count, from first. Lemma 2.2 and Prop.
    2.5's balance identities read the pair's coefficient, for which the
    paper states them; every other id reads the campaign's."""
    f, phi, psi, odd, even, polar, k = _f, _phi, _psi, _odd, _even, _polar, _k
    a, co, inv, co_inv = _A, _CO, _INV, _CO_INV
    inv_co, co_inv_a = inv @ co, co_inv @ a
    f0 = f(_ZERO)

    # the defining equation, on orthogonal pairs (x, y)
    def jensen(x, y):
        return [Identity("eq-1.1", [(f(a @ x + co @ y), a @ f(x) + co @ f(y))], {"x": x, "y": y})]

    # Lemma 2.1: x paired with 0 (always orthogonal), the coefficient moved
    # across the equation with its inverses
    def scaling(x):
        fx, on_x = f(x), {"x": x}
        return [
            Identity("lemma2.1-i", [(a @ f(inv @ x) + co @ f0, fx)], on_x),
            Identity("lemma2.1-ii", [(a @ f0 + co @ f(co_inv @ x), fx)], on_x),
            Identity("lemma2.1-iii", [(f(inv @ x) + inv_co @ f0, inv @ fx)], on_x),
            Identity("lemma2.1-iv", [(co_inv_a @ f0 + f(co_inv @ x), co_inv @ fx)], on_x),
            Identity("lemma2.1-v", [(co_inv_a @ fx + f0, co_inv @ f(a @ x))], on_x),
            Identity("lemma2.1-vi", [(f0 + inv_co @ fx, inv @ f(co @ x))], on_x),
        ]

    # Lemma 2.2 on pairs (z, w) of F x F, for the pair's coefficient: the
    # two-variable expansion, and the display's orthogonality, which the
    # pair conditions give at (z, w)
    def expansion(z, w):
        a, co, inv, co_inv = _PAIR
        inv_co, co_inv_a = inv @ co, co_inv @ a
        lhs = a @ f(phi(z) + phi(w)) + co @ f(psi(z) - psi(w))
        bracket_z = f(phi(z)) + inv_co @ f(psi(z)) - (co @ inv) @ f0
        bracket_w = co_inv_a @ f(phi(w)) - co_inv_a @ f0 + f(psi(-w))
        return [Identity("lemma2.2", [(lhs, a @ bracket_z + co @ bracket_w)], {"z": z, "w": w})]

    def orth_display(z, w):
        a, co, inv, co_inv = _PAIR
        display = _Expr("orth", phi(z) + (inv @ co) @ psi(z), (co_inv @ a) @ phi(w) - psi(w))
        return [Identity("lemma2.2-orth", [display], {"z": z, "w": w})]

    # Prop. 2.3 and 2.5 on x, y of K; the balance identities on x of F, for
    # the pair's coefficient
    def additive(z0, w0, z1, w1):
        x, y = k(z0, w0), k(z1, w1)
        return [Identity("prop2.3-additive", [(odd(x + y), odd(x) + odd(y))], {"x": x, "y": y})]

    def quadratic(z0, w0, z1, w1):
        x, y = k(z0, w0), k(z1, w1)
        parallelogram = (even(x + y) + even(x - y), 2.0 * (even(x) + even(y)))
        return [Identity("prop2.5-quadratic", [parallelogram], {"x": x, "y": y})]

    def balance(x):
        a, co, _, _ = _PAIR
        on_x = {"x": x}
        return [
            Identity("prop2.5-id211", [(a @ even(2.0 * phi(x)), co @ even(2.0 * psi(x)))], on_x),
            Identity("prop2.5-id212", [(a @ even(phi(x)), co @ even(psi(x)))], on_x),
        ]

    # Thm 2.7: f = A + B(x, x) + f(0) on K, with A a-additive and B
    # symmetric, biadditive, a-biadditive and orthogonality preserving; a
    # pair of sides holds when both do
    def decompose(*d):
        x, y, z = (k(d[i], d[i + 1]) for i in (0, 2, 4))
        u, v = phi(d[6]), psi(d[7])
        ax, cx, z2 = a @ x, co @ x, 2.0 * z
        bxx, bxz, buv = polar(x, x), polar(x, z), polar(u, v)
        on_x, on_xy = {"x": x}, {"x": x, "y": y}
        biadditive = [(polar(x + y, z2), 2.0 * (bxz + polar(y, z))), (polar(x, z2), 2.0 * bxz)]
        a_biadditive = [(polar(ax, ax), a @ bxx), (polar(cx, cx), co @ bxx)]
        return [
            Identity("thm2.7-reconstruct", [(f(x), odd(x) + bxx + f0)], on_x),
            Identity("thm2.7-A-a-additive", [(odd(ax), a @ odd(x))], on_x),
            Identity("thm2.7-B-symmetric", [(polar(x, y), polar(y, x))], on_xy),
            Identity("thm2.7-B-biadditive", biadditive, on_xy),
            Identity("thm2.7-B-a-biadditive", a_biadditive, on_x),
            Identity("thm2.7-B-orth-preserving", [(buv, 0.0 * buv)], {"x": u, "y": v}),
        ]

    # A and B of a second decomposition against the first, at 0 and on E;
    # both entries of a row count. The second is f's own, so this reads 0
    def unique(x):
        both = [(odd(x), odd(x)), (polar(x, x), polar(x, x))]
        return [Identity("thm2.7-unique", both, {"x": x}, tuple)]

    # Cor. 2.9: for a scalar coefficient, B(x, x) = 0 and f = A + f(0) on K
    def scalar(z, w):
        x = k(z, w)
        bxx = polar(x, x)
        sides = [(bxx, 0.0 * bxx), (f(x), odd(x) + f0)]
        return [Identity("cor2.9-B-vanishes", sides, {"x": x}, tuple)]

    families = []

    def family(name, draw, draws, identities, **options):
        # the family whose ids are identities(*nodes), nodes its draw
        # nodes: the next draws numbers of the count
        first = sum(row.draws for row in families)
        nodes = _DRAW[first : first + draws]
        families.append(Family(name, draw, first, draws, identities(*nodes), **options))

    family("jensen", _pairs, 2, jensen, orthogonal=True)
    family("scaling", _sampler_first, 1, scaling)
    family("expansion", _on_f(2), 2, expansion)
    family("orth-display", _on_f(2), 2, orth_display)
    family("additive", _on_f(4), 4, additive)
    family("quadratic", _on_f(4), 4, quadratic)
    family("balance", _on_f(1), 1, balance)
    family("decompose", _on_f(8), 8, decompose)
    family("unique", _zero_first, 1, unique)
    family("scalar", _on_f(2), 2, scalar, require=_scalar_balance)
    return tuple(families)


FAMILIES = _table()
FAMILY_OF = {check_id: family for family in FAMILIES for check_id in family.ids}
CHECK_IDS = tuple(FAMILY_OF)


# ---------------------------------------------------------------------------
# the runner

# the most real coordinates a chunk draws, over the stacks of all of its
# families: a run draws and evaluates its rows a chunk at a time, so its
# arrays are set by this, not by the sample count
CHUNK_REALS = 2**20


def run_families(families, f, space, a, pair, sampler, n: int, tol: float, seeds) -> list:
    """The outcome of each of families for f: E -> G (any callable on
    vectors and stacks of E = space) with the campaign's coefficient a,
    pair and sampler, on n samples: its entries, or the package error
    (CstarJensenError) that failed it.

    Once its require passes, each family seeds one generator from its seed
    base in seeds, and draws its rows from it chunk after chunk, each of
    at most CHUNK_REALS drawn real coordinates over all of the families
    (counted on the larger of E and F), and at least one row. A chunk runs
    the program of its families (_program), so f, phi and psi are called
    once a chunk, measures every side with one alg.vec_residual call, and
    folds each id's residuals into its entry (_fold). Of a family's
    orthogonal pairs it keeps the worst row by the same rule, and fails
    the family after the last chunk when that row is not orthogonal at
    hb.ORTHOGONALITY_TOL, naming it by its row among all of them. An error
    of a family's require or draw fails that family alone; one that the
    program raises fails every family in it.
    """
    outcomes, runs = {}, {}
    for family, seed in zip(families, seeds):
        try:
            if family.require is not None:
                family.require(a, pair)
        except CstarJensenError as exc:
            outcomes[family] = exc.with_traceback(None)
        else:
            runs[family] = _Run(np.random.default_rng(seed), [None] * len(family.ids))
    if runs:
        spaces = [space] if pair is None else [space, pair.phi.domain]
        width = max(2 * s.rank * s.algebra.dim for s in spaces)
        rows = max(1, CHUNK_REALS // (width * sum(family.draws for family in runs)))
        maps = {"f": f} if pair is None else {"f": f, "phi": pair.phi, "psi": pair.psi}
        coefficients = {"a": a, "pair": None if pair is None else pair.coefficient}
        setting = (space, pair, sampler, tol, coefficients, maps)
        # n < 1 is one chunk of n rows, which the draws or the folds refuse
        for start in range(0, max(n, 1), rows):
            live = {family: run for family, run in runs.items() if family not in outcomes}
            _chunk(live, outcomes, start, min(start + rows, n), setting)
    for family, run in runs.items():
        if family in outcomes:
            continue
        if run.pairs is not None and not run.pairs[1] <= hb.ORTHOGONALITY_TOL:
            k, residual = run.pairs
            outcomes[family] = InvalidSampler(
                f"sampler emitted a non-orthogonal pair at row {k}: {hb.not_orthogonal(residual)}"
            )
        else:
            outcomes[family] = run.entries
    return [outcomes[family] for family in families]


@dataclass
class _Run:
    """A family's state in run_families: its generator, the entry of each
    id over the chunks so far (None before the first), and for orthogonal
    pairs the worst row so far and its orthogonality residual."""

    rng: np.random.Generator
    entries: list
    pairs: tuple[int, float] | None = None


def _chunk(runs: dict, outcomes: dict, start: int, stop: int, setting) -> None:
    """Rows start..stop of the families in runs (family: _Run), folded into
    their runs; a family that fails gets its error in outcomes. Every
    array of the chunk goes when it returns."""
    space, pair, sampler, tol, coefficients, maps = setting
    draws = {}
    for family, run in runs.items():
        try:
            draws[family] = family.draw(space, pair, sampler, start, stop, run.rng)
        except CstarJensenError as exc:
            outcomes[family] = exc.with_traceback(None)
            continue
        if family.orthogonal:
            residual = np.ravel(hb.orthogonality_residual(*draws[family][:2]))
            k = int(np.argmax(residual)) if residual.size else None
            if k is not None and (run.pairs is None or _replaces(residual[k], run.pairs[1])):
                run.pairs = (start + k, float(residual[k]))
    if not draws:
        return
    program = _program(tuple(draws))
    # each family's stacks by the numbers of its draw nodes
    stacks = {family.first + i: s for family, d in draws.items() for i, s in enumerate(d)}
    try:
        # a map may overflow or hold NaN; its residuals are then NaN and
        # fail, which says all that numpy's warnings would
        with np.errstate(over="ignore", invalid="ignore"):
            values = _evaluate(program.schedule, stacks, space, coefficients, maps)
            columns = {}
            if program.measured:
                lhs, rhs = ([values[k] for k in side] for side in zip(*program.measured))
                (left, spans), (right, _) = (
                    alg.stack_blocks(v[0].space, [x.blocks for x in v]) for v in (lhs, rhs)
                )
                table = alg.vec_residual(
                    ModuleVector._wrap(lhs[0].space, left), ModuleVector._wrap(rhs[0].space, right)
                )
                columns = {side: table[span] for side, span in zip(program.measured, spans)}
    except CstarJensenError as exc:
        for family in draws:
            outcomes[family] = exc.with_traceback(None)
        return
    for family, compiled in zip(program.families, program.compiled):
        entries = runs[family].entries
        try:
            for j, (identity, (sides, rows)) in enumerate(zip(family.identities, compiled)):
                residuals = identity.join(
                    [columns[s] if isinstance(s, tuple) else values[s] for s in sides]
                )
                stacks = {name: values[k] for name, k in rows}
                describe = lambda i, stacks=stacks: {
                    name: _HeldRow(v.row(i)) for name, v in stacks.items()
                }
                entries[j] = _fold(identity.id, residuals, describe, tol, entries[j])
        except CstarJensenError as exc:
            outcomes[family] = exc.with_traceback(None)


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
    family = FAMILY_OF["eq-1.1"]
    (outcome,) = run_families((family,), f, sampler.space, a, None, sampler, n, tol, [seed])
    if isinstance(outcome, CstarJensenError):
        raise outcome
    (entry,) = outcome
    return entry
