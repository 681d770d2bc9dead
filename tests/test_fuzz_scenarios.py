"""A scenario fuzzer: any scenario file, however malformed, gets a named
error (exit 2) or a verdict (exit 0 or 1), never an internal error, a
traceback or a numpy warning.

Each example starts from a bundled scenario cut to at most 4 samples. It
changes one or two values, each found by a random walk down the document,
to a value of a fixed pool of leaves, or deletes a key, and runs verify,
decompose or solve-kernel on the file in this process.
"""
import contextlib
import copy
import io
import json
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstar_jensen import catalog
from cstar_jensen.cli import cli_main

LEAVES = ["x", -1, 0, 1e308, -1e-300, 2.5, True, None, [], {}, 10**30, "NaN"]
DELETE = object()
COMMANDS = ("verify", "decompose", "solve-kernel")


def bundled(name):
    obj = json.loads(Path(catalog.bundled_scenario_path(name)).read_text())
    obj["samples"] = min(obj["samples"], 4)
    return obj


SCENARIOS = {name: bundled(name) for name in catalog.SCENARIO_NAMES}


@st.composite
def mutated(draw):
    """(first mapping label, scenario object) of a bundled scenario with
    one or two values replaced or keys deleted."""
    obj = copy.deepcopy(SCENARIOS[draw(st.sampled_from(catalog.SCENARIO_NAMES))])
    label = obj["mappings"][0]["label"]
    for _ in range(draw(st.integers(1, 2))):
        # descend from the root, stopping at each node with chance 1/5
        parent, key, node = None, None, obj
        while isinstance(node, (dict, list)) and node and (parent is None or draw(st.integers(0, 4))):
            parent = node
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
            node = parent[key]
        if parent is None:
            continue
        value = draw(st.sampled_from(LEAVES + [DELETE] * isinstance(parent, dict)))
        if value is DELETE:
            del parent[key]
        else:
            parent[key] = copy.deepcopy(value)
    return label, obj


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def assert_named_error_or_verdict(argv):
    """Run the CLI on argv and check the contract."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    stderr = err.getvalue()
    assert code in (0, 1, 2), stderr
    assert "internal" not in stderr and "Traceback" not in stderr, stderr
    assert not caught, [str(w.message) for w in caught]
    return code, stderr


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(mutated(), st.sampled_from(COMMANDS))
def test_a_scenario_gets_an_error_or_a_verdict(workdir, case, command):
    label, obj = case
    path = workdir / "scenario.json"
    path.write_text(json.dumps(obj))
    argv = [command, "--scenario", str(path)]
    if command == "decompose":
        argv += ["--mapping", label, "--report", str(workdir / "report.json")]
    assert_named_error_or_verdict(argv)


def test_interleave_p_whose_inverse_overflows_is_refused(tmp_path):
    # found by the fuzzer: 1/p is inf for p = 1e-320, and scaling psi by
    # it wrote an invalid-value warning before validation refused the pair
    obj = copy.deepcopy(SCENARIOS["interleave_p025"])
    assert obj["pair"]["builder"] == "interleave"
    obj["pair"]["p"] = 1e-320
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj))
    for argv in (["verify", "--scenario", str(path)], ["example-l2", "--p", "1e-320", "--n", "4"]):
        code, stderr = assert_named_error_or_verdict(argv)
        assert code == 2 and stderr == "error: 1/p overflows for p = 1e-320\n"
