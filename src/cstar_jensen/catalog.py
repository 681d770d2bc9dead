"""Bundled scenario catalog: the names and where their files live.

Every bundled scenario is a JSON file under cstar_jensen/scenarios/,
shipped with the package, so campaign outcomes are reproducible by name.
The files are built from fixed seeds by a separate authoring tool that the
runtime never imports; rebuild them from a source checkout with

    python3 tools/make_scenarios.py [OUTDIR]

Its docstring says what each scenario covers.
"""
from __future__ import annotations

import importlib.resources

from .errors import ValidationError

SCENARIO_NAMES = (
    "affine_roundtrip",
    "constant_map",
    "interleave_p010",
    "interleave_p025",
    "interleave_p050",
    "interleave_p075",
    "interleave_p090",
    "morphism_shift",
    "quad_negative",
    "perturb_negative",
    "kernel_probe",
)


def bundled_scenario_path(name: str) -> str:
    """Filesystem path of a bundled scenario file."""
    if name.endswith(".json"):
        name = name[: -len(".json")]
    if name not in SCENARIO_NAMES:
        raise ValidationError(f"unknown bundled scenario {name!r}")
    root = importlib.resources.files(__package__)
    return str(root.joinpath("scenarios", name + ".json"))
