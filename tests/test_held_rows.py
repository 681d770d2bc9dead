"""Worst inputs held as vector rows: the template writer against the text of
to_obj, byte for byte, and held rows that share no memory with the stacks
they were copied from."""
import math

import numpy as np
import pytest

from cstar_jensen import algebra as alg
from cstar_jensen import catalog, harness
from cstar_jensen import identities as idn
from cstar_jensen.jsonutil import canonical_dumps

DIMS = [(1,), (2,), (2, 1), (3,), (1, 1, 1)]
EDGES = [-0.0, 3.0, 1e16, 1e17, 5e-324, 1e308, math.nan, math.inf, -math.inf]


def vectors(space, seed):
    """A stack of vectors of space: one of normal draws, then one per shift
    of EDGES tiled over the real coordinates, so that every coordinate
    meets every edge."""
    size = 2 * space.rank * space.algebra.dim
    table = [np.random.default_rng(seed).standard_normal(size)]
    table += [np.roll(np.resize(EDGES, size), shift) for shift in range(len(EDGES))]
    return alg.from_real(space, np.array(table))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("dims", DIMS)
def test_a_row_is_written_as_its_to_obj(dims, rank):
    stack = vectors(alg.ModuleSpace(alg.AlgebraShape(dims), rank), [rank, *dims])
    for i in range(stack.batch[0]):
        row = stack.row(i)
        assert alg.obj_text(row) == canonical_dumps(row.to_obj())
        held = {"x": idn._HeldRow(row)}
        assert canonical_dumps(held) == canonical_dumps({"x": row.to_obj()})


@pytest.mark.parametrize("dims", DIMS)
def test_an_element_is_written_as_its_to_obj(dims):
    # an element's wire format is not a vector's of A^1: one template each
    stack = vectors(alg.element_space(alg.AlgebraShape(dims)), list(dims))
    elements = alg.AlgebraElement._wrap(stack.space, stack.blocks)
    for i in range(stack.batch[0]):
        # the adjoint's blocks are transposed views, not C-ordered
        for element in (elements.row(i), alg.adjoint(elements.row(i))):
            assert alg.obj_text(element) == canonical_dumps(element.to_obj())
        assert alg.obj_text(stack.row(i)) == canonical_dumps(stack.row(i).to_obj())


# 1e17 and its neighbours: the largest float below it is integral and
# written with ".0", the smallest above it is not
EDGE_ROWS = [
    [0.0, -0.0],
    [1.0, -1.0],
    [np.nextafter(1e17, 0.0), np.nextafter(1e17, math.inf)],
    [1e17, -1e17],
    [5e-324, -5e-324, 2.2250738585072009e-308],
    [math.inf, -math.inf],
    [math.nan],
    [0.1, -0.1],
]


@pytest.mark.parametrize("fill", [*EDGE_ROWS, [v for row in EDGE_ROWS for v in row]])
@pytest.mark.parametrize("dims", [(2,), (1, 1)])
def test_edge_floats_are_written_as_their_to_obj(dims, fill):
    """Each row holds only the floats of fill, tiled, or fill at one
    coordinate among normal draws: both ways of writing a row (the fill of
    %.17g and its suffix, and format_float) give its to_obj's bytes."""
    space = alg.ModuleSpace(alg.AlgebraShape(dims), 2)
    size = 2 * space.rank * space.algebra.dim
    normal = np.random.default_rng(len(fill)).standard_normal(size)
    table = [np.resize(fill, size)]
    table += [np.concatenate([normal[:i], [value], normal[i + 1 :]]) for i in (0, 3) for value in fill]
    stack = alg.from_real(space, np.array(table))
    for i in range(stack.batch[0]):
        row = stack.row(i)
        assert canonical_dumps({"x": idn._HeldRow(row)}) == canonical_dumps({"x": row.to_obj()})


# a row of each branch of obj_text: finite rows take one fill of each
# float's %.17g and its suffix, ".0" after an integral float below 1e17;
# a row with a non-finite float takes format_float of each
BRANCH_ROWS = {
    "non-integral": [0.1, -2.5, 1e-300, 1.5e17, 3e300],
    "an exact zero": [0.0, 0.7, -1.25, 0.3],
    "signed zeros": [-0.0, 0.0, -0.3],
    "integral": [1.0, -3.0, 1e16, np.nextafter(1e17, 0.0), -12345678901234567.0],
    "at and above 1e17": [1e17, -1e17, 2e17, np.nextafter(1e17, math.inf), 0.5],
    "subnormal": [5e-324, -5e-324, 2.2250738585072009e-308, 4.0],
    "a NaN": [math.nan, 1.0, 0.25],
    "infinities": [math.inf, -math.inf, 0.0, 0.1],
}


@pytest.mark.parametrize("name", BRANCH_ROWS)
@pytest.mark.parametrize("dims", [(2,), (2, 1)])
def test_each_branch_of_the_writer_gives_to_obj(dims, name, monkeypatch):
    fill = BRANCH_ROWS[name]
    space = alg.ModuleSpace(alg.AlgebraShape(dims), 2)
    size = 2 * space.rank * space.algebra.dim
    stack = alg.from_real(space, np.array([np.resize(fill, size), np.roll(np.resize(fill, size), 1)]))
    finite = all(math.isfinite(v) for v in fill)
    if finite:
        # a finite row is one fill: format_float is not called
        monkeypatch.setattr(alg, "format_float", None)
    for i in range(stack.batch[0]):
        row = stack.row(i)
        assert alg.obj_text(row) == canonical_dumps(row.to_obj())


class Text:
    def __init__(self, text):
        self.text = text

    def canonical_json(self):
        return self.text


def test_a_value_with_its_own_text_is_written_in_place():
    obj = [1.5, Text('{"a":1}'), {"k": Text("[]")}, Text("null")]
    assert canonical_dumps(obj) == '[1.5,{"a":1},{"k":[]},null]'


def test_a_held_row_reads_as_a_copy_of_its_to_obj(monkeypatch):
    stack = vectors(alg.ModuleSpace(alg.AlgebraShape((2, 1)), 2), 3)
    # row 0 holds no NaN, which would equal nothing
    row = stack.row(0)
    want = row.to_obj()
    held = idn._HeldRow(row)
    assert held == want and dict(held) == want and held["coords"] == want["coords"]
    with pytest.raises(TypeError):
        held["rank"] = 3
    assert not any(np.shares_memory(h, b) for h in held.vector.blocks for b in stack.blocks)
    # the writer reads the array: no to_obj once the template is built
    alg.obj_template(alg.ModuleVector, row.space)
    fresh = idn._HeldRow(row)

    def refuse(self):
        raise AssertionError("to_obj called")

    monkeypatch.setattr(alg.ModuleVector, "to_obj", refuse)
    assert canonical_dumps({"x": fresh}) == canonical_dumps({"x": want})


@pytest.mark.parametrize("name", catalog.SCENARIO_NAMES)
def test_held_rows_share_no_memory_with_the_family_stacks(name, monkeypatch):
    """A report never keeps a family's stacks alive through its worst
    inputs: no block of a held row shares memory with any value the
    evaluator computed, the drawn stacks included. The evaluator runs its
    schedule with nothing freed, so that every value it computed stays:
    the block tuples of the steps, and the vectors it reads out."""
    evaluate, evaluated = idn._evaluate, []

    def recording(schedule, *args):
        kept = schedule._replace(steps=tuple(step[:-1] + ((),) for step in schedule.steps))
        values = evaluate(kept, *args)
        assert all(v is not None for v in values)
        evaluated.append(values)
        return values

    monkeypatch.setattr(idn, "_evaluate", recording)
    scenario = harness.load_scenario(catalog.bundled_scenario_path(name), samples=20)
    report = harness.run_suite(scenario)
    stacks = [
        b
        for values in evaluated
        for v in values
        for b in (v.blocks if isinstance(v, alg.ModuleVector) else v if isinstance(v, tuple) else ())
    ]
    held = [
        row
        for _, entry in report.results
        for row in entry.worst_input.values()
        if isinstance(row, idn._HeldRow)
    ]
    assert held and stacks
    for row in held:
        for block in row.vector.blocks:
            assert not any(np.shares_memory(block, b) for b in stacks)
