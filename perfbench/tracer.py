"""Per-layer tracing by wrapping the library's public functions.

``Tracer.install()`` replaces every public module-level function of the
traced modules, and ``Mapping.__call__``, with a wrapper that counts calls
and adds inclusive and self time. Self time is inclusive time minus the
inclusive time of wrapped calls made inside it, kept on a stack. Calls to
the coarse boundaries also leave a raw span (name, start, end, parent span,
task id) in memory; ``spans`` holds them until the caller writes them out.

The wrapper is bound wherever the original function object is bound in the
package, so ``from .jsonutil import canonical_dumps`` aliases are traced too.
A generator function is timed on every resumption, not only when created.
Recursive calls add their inclusive time once per level.

Only the traced run imports this module; nothing in the library changes.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# modules of cstar_jensen that get metrics; catalog and errors hold data
LAYERS = ("algebra", "hilbert", "mappings", "identities", "harness", "jsonutil", "cli")

# identities functions that each run one family of checks
CHECK_FUNCTIONS = (
    "check_orthogonal_jensen",
    "scaling_identity_suite",
    "pair_expansion_check",
    "orthogonality_identity_check",
    "check_additivity_on_pair_range",
    "check_quadratic_on_pair_range",
    "check_pair_balance_identities",
    "decompose",
    "uniqueness_check",
    "check_scalar_affine_reduction",
)

KERNEL_FUNCTIONS = ("solve_abiadditive_kernel", "kernel_constraint_residual")

MARK = "__perfbench_traced__"


def is_coarse(name: str) -> bool:
    """True for the boundaries that keep raw spans."""
    layer, _, func = name.partition(".")
    return (
        layer == "harness"
        or name == "cli.cli_main"
        or (layer == "identities" and func in CHECK_FUNCTIONS)
        or (layer == "mappings" and func in KERNEL_FUNCTIONS)
    )


def public_functions(module):
    """(name, function) for the public callables defined in module."""
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    """Counts, inclusive and self time per wrapped name; spans at coarse ones."""

    def __init__(self, package: str = "cstar_jensen"):
        self.package = package
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.spans: list[list] = []  # [name, start, end, parent, task]
        self.task = -1  # the worker sets the current task index; -1 is set-up
        self._stack: list[list] = []  # one [child_time, span_id] per open call
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _enter(self, name, start):
        """Open a raw span; its parent is the innermost open coarse call."""
        parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
        self.spans.append([name, start, None, parent, self.task])
        return [0.0, len(self.spans) - 1]

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        coarse = is_coarse(name)
        enter = self._enter

        def timed(callee, counted):
            def call(*args, **kwargs):
                if counted:
                    stat[0] += 1
                start = clock()
                frame = enter(name, start) if coarse else [0.0, None]
                stack.append(frame)
                try:
                    return callee(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    inclusive = end - start
                    stat[1] += inclusive
                    stat[2] += inclusive - frame[0]
                    if stack:
                        stack[-1][0] += inclusive
                    if coarse:
                        spans[frame[1]][2] = end

            return call

        if inspect.isgeneratorfunction(fn):
            step = timed(next, counted=False)

            def resume(gen):
                while True:
                    try:
                        item = step(gen)
                    except StopIteration:
                        return
                    yield item

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stat[0] += 1
                return resume(fn(*args, **kwargs))

        else:
            wrapper = functools.wraps(fn)(timed(fn, counted=True))

        setattr(wrapper, MARK, True)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer module, and Mapping.__call__."""
        modules = {
            layer: importlib.import_module(f"{self.package}.{layer}") for layer in LAYERS
        }
        replace = {}
        for layer, module in modules.items():
            for func, obj in public_functions(module):
                replace[id(obj)] = (obj, self.wrap(f"{layer}.{func}", obj))
        mapping = modules["mappings"].Mapping
        original_call = mapping.__dict__["__call__"]
        self._set(mapping, "__call__", self.wrap("mappings.Mapping.__call__", original_call))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != self.package and not mod_name.startswith(self.package + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])

    def _set(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)


def wrapped_count(package: str = "cstar_jensen") -> int:
    """Number of traced wrappers bound in the package's modules."""
    count = 0
    for mod_name, module in list(sys.modules.items()):
        if mod_name == package or mod_name.startswith(package + "."):
            count += sum(1 for v in vars(module).values() if getattr(v, MARK, False))
    return count
