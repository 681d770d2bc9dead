"""Scenario files, check campaigns and canonical reports.

A scenario is a JSON document that fixes the algebra, the coefficient, the
three module spaces F, E, G, an optional (phi, psi) pair, labelled mappings
E -> G and a list of identity ids to check. run_suite executes every
selected check for every mapping with per-check sub-seeds derived from the
scenario seed, so reports are a pure function of (scenario bytes, CLI
overrides). Each check draws its own samples from its seed base; only the
scaling family gets its vectors from here: the explicit sampler's pairs,
then a stack drawn on the rest of the base's per-sample seeds.

CHECK_SPECS is the one registry of checks: each spec names a family, its
identity ids and the function that runs them for one mapping; its position
in the registry is its seed index. The specs of one mapping share a
per-mapping context that hands out the scenario pair and builds the odd
part, the centered even part and the decomposition at most once, on first
use. Checks that presuppose odd or even structure are applied to the
matching part: additivity runs on the odd part, the quadratic equation and
the balance identities on the centered even part, and the uniqueness check
compares the decomposition with itself. The mapping itself is used
everywhere else.
"""
from __future__ import annotations

import datetime
import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

from . import algebra as alg
from . import hilbert as hb
from . import identities as idn
from . import mappings as mp
from .algebra import AlgebraShape, Coefficient
from .errors import (
    CstarJensenError,
    IoError,
    ParseError,
    ValidationError,
    require_field,
)
from .hilbert import ModuleSpace, OrthoSampler
from .identities import CHECK_IDS, IdentityResidual
from .jsonutil import canonical_dumps
from .mappings import AdditivePair, Mapping

TOOL_VERSION = "0.1.0"
SEED_ENV_VAR = "CSTAR_JENSEN_SEED"


@dataclass(frozen=True)
class Scenario:
    algebra: AlgebraShape
    coefficient: Coefficient
    space_f: ModuleSpace
    space_e: ModuleSpace
    space_g: ModuleSpace
    pair: AdditivePair | None
    sampler: OrthoSampler | None
    mappings: tuple[tuple[str, Mapping], ...]
    checks: tuple[str, ...]
    samples: int
    seed: int
    tol: float
    digest: str


@dataclass(frozen=True)
class CampaignReport:
    scenario_digest: str
    started: str
    finished: str
    results: tuple[tuple[str, IdentityResidual], ...]
    overall_pass: bool
    tool_version: str

    def to_obj(self) -> dict:
        return {
            "scenario_digest": self.scenario_digest,
            "started": self.started,
            "finished": self.finished,
            "results": [
                {"label": label, **entry.to_obj()} for label, entry in self.results
            ],
            "overall_pass": self.overall_pass,
            "tool_version": self.tool_version,
        }


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# scenario loading


def load_scenario(
    path, seed: int | None = None, samples: int | None = None, tol: float | None = None
) -> Scenario:
    """Read and validate a scenario file, applying CLI overrides."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read scenario file {path}: {exc}") from None
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    return scenario_from_obj(obj, raw=raw, seed=seed, samples=samples, tol=tol)


def scenario_from_obj(
    obj,
    raw: bytes | None = None,
    seed: int | None = None,
    samples: int | None = None,
    tol: float | None = None,
) -> Scenario:
    if not isinstance(obj, dict):
        raise ValidationError("scenario must be a JSON object")
    for field in ("algebra", "coefficient", "spaces", "mappings", "checks"):
        require_field(obj, field, "scenario")

    shape = AlgebraShape(_integers(obj["algebra"], "algebra"))

    coeff_obj = obj["coefficient"]
    if not isinstance(coeff_obj, dict):
        raise ValidationError("coefficient must be an object")
    strict = bool(coeff_obj.get("strict_order", False))
    value = alg.element_from_obj(coeff_obj)
    if value.shape != shape:
        raise ValidationError("coefficient shape does not match the algebra")
    coefficient = alg.validate_coefficient(value, require_strict_order=strict)

    spaces_obj = obj["spaces"]
    try:
        space_f, space_e, space_g = (
            ModuleSpace(shape, _number(int, spaces_obj[k], f"spaces.{k}"))
            for k in "FEG"
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"spaces must give integer ranks F, E, G: {exc}")

    pair = _pair_from_obj(obj.get("pair"), shape, space_f, space_e)

    mappings = []
    seen = set()
    for entry in obj["mappings"]:
        if not isinstance(entry, dict) or "label" not in entry or "map" not in entry:
            raise ValidationError("each mapping needs 'label' and 'map' fields")
        label = str(entry["label"])
        if label in seen:
            raise ValidationError(f"duplicate mapping label {label!r}")
        seen.add(label)
        mappings.append((label, mp.mapping_from_obj(entry["map"], space_e, space_g)))
    if not mappings:
        raise ValidationError("a campaign needs at least one mapping")

    checks = []
    for check_id in obj["checks"]:
        if check_id not in CHECK_IDS:
            raise ValidationError(f"unknown identity id {check_id!r}")
        if check_id not in checks:
            checks.append(check_id)
    if not checks:
        raise ValidationError("a campaign needs at least one check")

    sampler = _sampler_from_obj(obj.get("sampler"), space_e, pair)

    n_samples = samples
    if n_samples is None:
        n_samples = _number(int, obj.get("samples", idn.DEFAULT_SAMPLES), "samples")
    if n_samples < 1:
        raise ValidationError("samples must be at least 1")
    tolerance = tol if tol is not None else _number(float, obj.get("tol", idn.DEFAULT_TOL), "tol")
    if not 0.0 < tolerance < math.inf:
        raise ValidationError("tol must be positive and finite")
    # a seed that is not in the scenario bytes goes into the digest
    overrides = {}
    if seed is not None:
        seed_val = overrides["seed"] = seed
    elif "seed" in obj:
        seed_val = _number(int, obj["seed"], "seed")
    elif SEED_ENV_VAR in os.environ:
        seed_val = _number(int, os.environ[SEED_ENV_VAR], SEED_ENV_VAR)
        overrides[SEED_ENV_VAR] = seed_val
    else:
        seed_val = 0
    if seed_val < 0:
        raise ValidationError("seed must be non-negative")
    if samples is not None:
        overrides["samples"] = samples
    if tol is not None:
        overrides["tol"] = tol
    if raw is None:
        raw = canonical_dumps(obj).encode()
    digest = hashlib.sha256(raw + b"\n" + canonical_dumps(overrides).encode()).hexdigest()

    return Scenario(
        algebra=shape,
        coefficient=coefficient,
        space_f=space_f,
        space_e=space_e,
        space_g=space_g,
        pair=pair,
        sampler=sampler,
        mappings=tuple(mappings),
        checks=tuple(checks),
        samples=n_samples,
        seed=seed_val,
        tol=tolerance,
        digest=digest,
    )


def _number(kind, value, name: str):
    """kind(value) for a scenario field or setting; ValidationError naming
    it when the value does not convert, and for an integer field also when
    it is a bool or a float with a fractional part."""
    try:
        if kind is int and (
            isinstance(value, bool) or isinstance(value, float) and not value.is_integer()
        ):
            raise TypeError
        return kind(value)
    except (TypeError, ValueError):
        raise ValidationError(
            f"{name} must be {'an integer' if kind is int else 'a number'}, got {value!r}"
        ) from None


def _integers(value, name: str) -> tuple[int, ...]:
    """A list of integers for a scenario field; ValidationError naming it."""
    if not isinstance(value, list):
        raise ValidationError(f"{name} must be a list of integers, got {value!r}")
    return tuple(_number(int, v, name) for v in value)


def _pair_from_obj(obj, shape, space_f, space_e) -> AdditivePair | None:
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise ValidationError("pair must be an object")
    builder = obj.get("builder")
    if builder == "interleave":
        if shape.block_dims != (1,):
            raise ValidationError("the interleave builder needs the scalar algebra [1]")
        if space_e.rank != 2 * space_f.rank:
            raise ValidationError("the interleave builder needs E rank = 2 * F rank")
        return mp.interleave_pair(_number(float, obj.get("p"), "pair.p"), space_e.rank)
    if builder == "morphism_shift":
        if space_e.rank != 2 * space_f.rank:
            raise ValidationError("the morphism_shift builder needs E rank = 2 * F rank")
        return mp.morphism_shift_pair(shape, space_f.rank)
    if builder not in (None, "explicit"):
        raise ValidationError(f"unknown pair builder {builder!r}")
    phi_obj, psi_obj, a_obj = (
        require_field(obj, field, "explicit pair") for field in ("phi", "psi", "a")
    )
    phi = mp.mapping_from_obj(phi_obj, space_f, space_e)
    psi = mp.mapping_from_obj(psi_obj, space_f, space_e)
    a_elem = alg.element_from_obj(a_obj)
    if a_elem.shape != shape:
        raise ValidationError("pair coefficient shape does not match the algebra")
    a = alg.validate_coefficient(a_elem)
    return mp.validate_pair(phi, psi, a)


def _sampler_from_obj(obj, space_e, pair) -> OrthoSampler | None:
    if obj is None:
        # default: split the coordinates in half, else fall back to the pair
        if space_e.rank >= 2:
            half = space_e.rank // 2
            return hb.disjoint_support_sampler(
                space_e, range(half), range(half, space_e.rank)
            )
        if pair is not None:
            return hb.pair_image_sampler(pair)
        return None
    if not isinstance(obj, dict) or "mode" not in obj:
        raise ValidationError("sampler must be an object with a 'mode' tag")
    mode = obj["mode"]
    if mode == "disjoint_support":
        left, right = (
            _integers(require_field(obj, key, "sampler"), f"sampler.{key}")
            for key in ("left_coords", "right_coords")
        )
        return hb.disjoint_support_sampler(space_e, left, right)
    if mode == "pair_image":
        if pair is None:
            raise ValidationError("pair_image sampler needs a scenario pair")
        return hb.pair_image_sampler(pair)
    if mode == "explicit":
        pairs = require_field(obj, "pairs", "sampler")
        if not isinstance(pairs, list) or not all(
            isinstance(xy, list) and len(xy) == 2 for xy in pairs
        ):
            raise ValidationError("sampler.pairs must be a list of [x, y] pairs")
        return hb.explicit_sampler(
            space_e, [tuple(hb.vector_from_obj(v, space_e) for v in xy) for xy in pairs]
        )
    raise ValidationError(f"unknown sampler mode {mode!r}")


# ---------------------------------------------------------------------------
# campaign execution

def _require_pair(scenario: Scenario) -> AdditivePair:
    if scenario.pair is None:
        raise ValidationError("this check needs a scenario pair")
    return scenario.pair


def _scalar_of(coefficient: Coefficient) -> float:
    """The real scalar p with coefficient = p * 1, or DomainError."""
    value = coefficient.value
    p = float(value.blocks[0][0, 0].real)
    probe = alg.scale(alg.unit(value.shape), p)
    if alg.residual(value, probe) > 1e-12:
        raise ValidationError("coefficient is not a real scalar multiple of the unit")
    return p


class _MappingContext:
    """What the checks of one mapping share; each part is built on first use."""

    def __init__(self, scenario: Scenario, mi: int, f: Mapping):
        self.scenario, self.mi, self.f = scenario, mi, f
        self.a, self.n, self.tol = scenario.coefficient, scenario.samples, scenario.tol

    def seed_base(self, index: int) -> list:
        return [self.scenario.seed, self.mi, index]

    @property
    def pair(self) -> AdditivePair:
        return _require_pair(self.scenario)

    @functools.cached_property
    def odd(self) -> idn.OddPart:
        return idn.OddPart(self.f)

    @functools.cached_property
    def even(self) -> idn.CenteredEvenPart:
        return idn.CenteredEvenPart(self.f)

    @functools.cached_property
    def decomposition(self) -> idn.Decomposition:
        """f = A + B(x, x) + f(0), certified on the decompose spec's seed base."""
        seed_base = self.seed_base(_DECOMPOSE)
        return idn.decompose(self.f, self.a, self.pair, self.n, self.tol, seed_base)


# one function per check family: (context, seed_base) -> its IdentityResiduals


def _jensen(ctx, seed):
    sampler = ctx.scenario.sampler
    if sampler is None:
        raise ValidationError("eq-1.1 needs an orthogonal-pair sampler")
    return [idn.check_orthogonal_jensen(ctx.f, ctx.a, sampler, ctx.n, ctx.tol, seed)]


def _scaling(ctx, seed):
    sampler, xs = ctx.scenario.sampler, []
    if sampler is not None and sampler.mode == "explicit":
        xs = [v for xy in sampler.pairs for v in xy]
    seeds = hb.sample_seeds(seed, ctx.n)[len(xs):]
    xs += hb.sample_stacks(ctx.scenario.space_e, seeds)
    return idn.scaling_identity_suite(ctx.f, ctx.a, xs, ctx.tol)


def _expansion(ctx, seed):
    return [idn.pair_expansion_check(ctx.f, ctx.pair, ctx.n, ctx.tol, seed)]


def _orth_display(ctx, seed):
    return [idn.orthogonality_identity_check(ctx.pair, ctx.n, ctx.tol, seed)]


def _additive(ctx, seed):
    return [idn.check_additivity_on_pair_range(ctx.odd, ctx.pair, ctx.n, ctx.tol, seed)]


def _quadratic(ctx, seed):
    return [idn.check_quadratic_on_pair_range(ctx.even, ctx.pair, ctx.n, ctx.tol, seed)]


def _balance(ctx, seed):
    return idn.check_pair_balance_identities(ctx.even, ctx.pair, ctx.n, ctx.tol, seed)


def _decompose(ctx, seed):
    report = ctx.decomposition.property_report
    return [entry for entry in report if entry.identity_id.startswith("thm2.7-")]


def _unique(ctx, seed):
    # A and B are OddPart(f) and PolarForm(f) whatever the seed, so the one
    # decomposition serves as both operands
    dec = ctx.decomposition
    return [idn.uniqueness_check(ctx.f, dec, dec, ctx.n, ctx.tol, seed + [2])]


def _scalar(ctx, seed):
    pair = ctx.pair
    p = _scalar_of(ctx.a)
    return [idn.check_scalar_affine_reduction(ctx.f, p, pair, ctx.n, ctx.tol, seed)]


@dataclass(frozen=True)
class CheckSpec:
    """A family of checks: its identity ids and how to run them on one mapping.

    run(context, seed_base) returns the family's IdentityResiduals; the
    spec's position in CHECK_SPECS is the last entry of its seed base.
    """

    family: str
    ids: tuple[str, ...]
    run: Callable[[_MappingContext, list], Sequence[IdentityResidual]]


CHECK_SPECS = (
    CheckSpec("jensen", ("eq-1.1",), _jensen),
    CheckSpec("scaling", idn.SCALING_IDS, _scaling),
    CheckSpec("expansion", ("lemma2.2",), _expansion),
    CheckSpec("orth-display", ("lemma2.2-orth",), _orth_display),
    CheckSpec("additive", ("prop2.3-additive",), _additive),
    CheckSpec("quadratic", ("prop2.5-quadratic",), _quadratic),
    CheckSpec("balance", ("prop2.5-id211", "prop2.5-id212"), _balance),
    CheckSpec("decompose", idn.CHECK_IDS[13:19], _decompose),  # thm2.7-*, not unique
    CheckSpec("unique", ("thm2.7-unique",), _unique),
    CheckSpec("scalar", ("cor2.9-B-vanishes",), _scalar),
)
_SPEC_INDEX = {
    check_id: index for index, spec in enumerate(CHECK_SPECS) for check_id in spec.ids
}
_DECOMPOSE = _SPEC_INDEX["thm2.7-reconstruct"]


def run_suite(scenario: Scenario) -> CampaignReport:
    """Execute every selected check for every mapping.

    A package error (CstarJensenError) raised by a check becomes a failure
    entry with the message in worst_input, and the campaign goes on; any
    other exception is a bug in the program and propagates.
    """
    started = _utc_now()
    results: list[tuple[str, IdentityResidual]] = []
    for mi, (label, f) in enumerate(scenario.mappings):
        context = _MappingContext(scenario, mi, f)
        outcomes: dict[int, dict[str, IdentityResidual]] = {}
        for check_id in scenario.checks:
            index = _SPEC_INDEX[check_id]
            if index not in outcomes:
                spec = CHECK_SPECS[index]
                try:
                    entries = spec.run(context, context.seed_base(index))
                except CstarJensenError as exc:
                    error = {"error": str(exc)}
                    entries = [
                        IdentityResidual(i, 0, math.inf, error, False) for i in spec.ids
                    ]
                outcomes[index] = {entry.identity_id: entry for entry in entries}
            results.append((label, outcomes[index][check_id]))
    results.sort(key=lambda item: (item[0], item[1].identity_id))
    overall = all(entry.passed for _, entry in results)
    return CampaignReport(
        scenario_digest=scenario.digest,
        started=started,
        finished=_utc_now(),
        results=tuple(results),
        overall_pass=overall,
        tool_version=TOOL_VERSION,
    )


def emit_report(report: CampaignReport, path) -> None:
    """Write the report as canonical JSON."""
    text = canonical_dumps(report.to_obj())
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write report to {path}: {exc}") from None


def run_decompose(
    scenario: Scenario, label: str
) -> tuple[idn.Decomposition, CampaignReport]:
    """Decompose one labelled mapping and wrap the outcome as a report."""
    for name, f in scenario.mappings:
        if name == label:
            break
    else:
        raise ValidationError(f"no mapping labelled {label!r} in the scenario")
    pair = _require_pair(scenario)
    started = _utc_now()
    dec = idn.decompose(
        f, scenario.coefficient, pair, scenario.samples, scenario.tol, [scenario.seed]
    )
    results = tuple(
        (label, entry)
        for entry in sorted(dec.property_report, key=lambda e: e.identity_id)
    )
    report = CampaignReport(
        scenario_digest=scenario.digest,
        started=started,
        finished=_utc_now(),
        results=results,
        overall_pass=dec.passed,
        tool_version=TOOL_VERSION,
    )
    return dec, report
