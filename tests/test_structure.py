"""The package's module structure: one name per function, a public surface
that its users use, and the entry points the benchmark workloads call."""
import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import cstar_jensen

LAYERS = ("algebra", "hilbert", "mappings", "identities", "harness")

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def public_functions(module):
    """The public functions defined in module itself."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


@pytest.mark.parametrize("owner", LAYERS)
def test_no_layer_reexports_another_layers_functions(owner):
    # a function has one name, in the module that defines it
    functions = public_functions(importlib.import_module(f"cstar_jensen.{owner}"))
    for other in LAYERS:
        if other == owner:
            continue
        module = importlib.import_module(f"cstar_jensen.{other}")
        aliases = sorted(
            name for name, obj in vars(module).items() if any(obj is f for f in functions.values())
        )
        assert aliases == [], f"cstar_jensen.{other} re-exports {owner} functions {aliases}"


def workload_calls():
    """(alias, module, attribute, call or None) for every attribute of a
    cstar_jensen module that perfbench/workloads.py uses."""
    tree = ast.parse(WORKLOADS.read_text(), str(WORKLOADS))
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "cstar_jensen":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"cstar_jensen.{alias.name}"
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return [
        (node.value.id, modules[node.value.id], node.attr, calls.get(id(node)))
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ]


def test_workloads_use_every_layer_alias():
    aliases = {alias for alias, _, _, _ in workload_calls()}
    assert aliases == {"alg", "hb", "mp", "idn", "harness", "catalog", "cli"}


def test_benchmark_entry_points_resolve():
    # a renamed or moved name fails here, not in every benchmark task
    for alias, module_name, attr, call in workload_calls():
        module = importlib.import_module(module_name)
        assert hasattr(module, attr), f"perfbench/workloads.py uses {alias}.{attr}"
        obj = getattr(module, attr)
        if call is None or not callable(obj):
            continue
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords
        ):
            continue
        try:
            inspect.signature(obj).bind(*call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            pytest.fail(f"perfbench/workloads.py line {call.lineno}: {alias}.{attr}: {exc}")


def test_every_exported_name_has_a_user():
    # a name in __all__ is there for the CLI, the tools, the benchmark or
    # the README; the tests reach the rest through their modules
    users = [ROOT / "src" / "cstar_jensen" / "cli.py", ROOT / "README.md"]
    users += sorted((ROOT / "tools").glob("*.py"))
    users += sorted(p for p in (ROOT / "perfbench").rglob("*") if p.suffix in (".py", ".md"))
    text = "\n".join(p.read_text() for p in users)
    unused = [name for name in cstar_jensen.__all__ if not re.search(rf"\b{name}\b", text)]
    assert unused == []
