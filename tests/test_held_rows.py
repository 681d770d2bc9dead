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
    evaluator computed, the drawn stacks included."""
    evaluate, evaluated = idn._evaluate, []

    def recording(*args):
        evaluated.append(evaluate(*args))
        return evaluated[-1]

    monkeypatch.setattr(idn, "_evaluate", recording)
    scenario = harness.load_scenario(catalog.bundled_scenario_path(name), samples=20)
    report = harness.run_suite(scenario)
    stacks = [
        b for values in evaluated for v in values if isinstance(v, alg.ModuleVector) for b in v.blocks
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
