"""The canonical writer against the recursive writer it replaced, byte for
byte, and floats that read back as floats."""
import collections
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cstar_jensen import catalog, harness
from cstar_jensen.jsonutil import canonical_dumps, format_float

from support import ref_canonical_dumps


@pytest.mark.parametrize("seed", [7, 12345])
@pytest.mark.parametrize("name", catalog.SCENARIO_NAMES)
def test_reports_match_the_recursive_writer(name, seed):
    scenario = harness.load_scenario(catalog.bundled_scenario_path(name), seed=seed)
    obj = harness.run_suite(scenario).to_obj()
    assert canonical_dumps(obj) == ref_canonical_dumps(obj)


class Key(str):
    pass


class Count(int):
    pass


class Row(list):
    pass


EDGES = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "0.0": 0.0,
    "-0.0": -0.0,
    "1e15": 1e15,
    "2e16": 2e16,
    "-2e16": -2e16,
    "below 1e17": 99999999999999984.0,
    "1e17": 1e17,
    "2**53 float": float(2**53),
    "2**53 int": 2**53,
    "smallest subnormal": 5e-324,
    "largest double": sys.float_info.max,
    "-largest double": -sys.float_info.max,
    "np.float64": [np.float64(0.1), np.float64(-0.0), np.float64(2e16), np.float64(math.nan)],
    "True against 1": [True, 1, False, 0, None, 1.0],
    "nested tuples": (1, (2.5, (None, ("x", ()))), []),
    "empty": [[], (), {}, ""],
    "non-ASCII": ["ünïcødé ☃", "\U0001d11e", "  ", {"é": "ß"}],
    "control characters": "tab\tnew\nline\r\x00\x1f\x7f \"quote\" \\ /",
    "subclasses": [Key("sub"), Count(3), Row([1.5, Key("k")]), {Key("b"): 1, "a": 2}],
    "ordered dict": collections.OrderedDict([("z", 1), ("a", [0.5, -0.0])]),
    "report-like": {
        "b": [[[0.1, -0.2], [3.0, 4e-300]]],
        "a": {"max_residual": math.inf, "worst_input": None, "pass": False},
    },
}


@pytest.mark.parametrize("obj", list(EDGES.values()), ids=list(EDGES))
def test_edges_match_the_recursive_writer(obj):
    text = canonical_dumps(obj)
    assert text == ref_canonical_dumps(obj)
    assert text.isascii()
    json.loads(text)


def test_edge_tokens():
    assert canonical_dumps([True, 1, 1.0, None]) == "[true,1,1.0,null]"
    assert canonical_dumps([2e16, -0.0, 1e17]) == "[20000000000000000.0,-0.0,1e+17]"
    assert canonical_dumps([math.nan, -math.inf]) == '["NaN","-Infinity"]'
    assert canonical_dumps({"b": (), "a": {}}) == '{"a":{},"b":[]}'


@pytest.mark.parametrize(
    "obj",
    [{1: "x"}, {"a": {2.5: "b"}}, [{None: 1}], object(), {1, 2}, 1j, b"x", np.int64(3)],
    ids=repr,
)
def test_unsupported_values_and_keys_raise_type_error(obj):
    for dumps in (canonical_dumps, ref_canonical_dumps):
        with pytest.raises(TypeError):
            dumps(obj)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)


@given(JSON_VALUES)
@settings(max_examples=200, deadline=None)
def test_any_value_matches_the_recursive_writer(obj):
    assert canonical_dumps(obj) == ref_canonical_dumps(obj)


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(2e16)
@example(-2e16)
@example(1e16)
@example(99999999999999984.0)
@example(1e17)
@example(-0.0)
@example(5e-324)
@example(sys.float_info.max)
@settings(max_examples=500, deadline=None)
def test_every_finite_float_reads_back_as_itself(x):
    back = json.loads(format_float(x))
    assert type(back) is float
    assert back == x and math.copysign(1.0, back) == math.copysign(1.0, x)
