"""Scenario files, check campaigns and canonical reports.

A scenario is a JSON document that fixes the algebra, the coefficient, the
three module spaces F, E, G, an optional (phi, psi) pair, labelled mappings
E -> G and a list of identity ids to check. Reports are a pure function of
(scenario bytes, CLI overrides).

One runner, _mapping_entries, makes every report entry. For one mapping it
hands the selected ids to identities.run_checks, which runs them alone as
one program in chunks of rows, with the scenario's space E, coefficient,
pair, sampler, sample count and tolerance, each family that holds one
drawing on the seed base [seed, mapping index, family index]. An error of
a family's precondition or draw fails its selected ids alone, and one
raised while the program runs fails every selected id. run_suite runs it
for every mapping on the scenario's checks, and run_decompose for one
mapping on DECOMPOSE_CHECKS, seven ids of the pair family, so decompose
prints the entries verify prints for that mapping.
"""
from __future__ import annotations

import datetime
import hashlib
import json
import math
import os
from dataclasses import dataclass

from . import __version__
from . import algebra as alg
from . import hilbert as hb
from . import identities as idn
from . import mappings as mp
from .algebra import AlgebraShape, Coefficient, ModuleSpace
from .errors import CstarJensenError, IoError, ParseError, ValidationError
from .hilbert import OrthoSampler
from .identities import CHECK_IDS, IdentityResidual
from .jsonutil import canonical_dumps, integers, items, number, require_field
from .mappings import AdditivePair, Mapping

TOOL_VERSION = __version__
SEED_ENV_VAR = "CSTAR_JENSEN_SEED"
# the most samples a campaign draws per check; more is refused at load
MAX_SAMPLES = 10**6
# the most real coordinates of one drawn stack, samples * 2 * rank * dim A
# for the largest of E, F and G; a scenario above it is refused at load. It
# bounds the rows a run draws, not its memory: identities.CHUNK_REALS
# bounds each chunk of rows, and a run holds one chunk's arrays at a time.
# It admits MAX_SAMPLES on a space of 4 real coordinates, and 200 samples
# on A = M_32 at rank 8.
MAX_STACK_REALS = 2**22
# the ids decompose reports: Thm 2.7's decomposition on K and the
# additivity of its A there (Prop. 2.3)
DECOMPOSE_CHECKS = (
    "prop2.3-additive", "thm2.7-reconstruct", "thm2.7-A-a-additive", "thm2.7-B-symmetric",
    "thm2.7-B-biadditive", "thm2.7-B-a-biadditive", "thm2.7-B-orth-preserving",
)


@dataclass(frozen=True)
class Scenario:
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
    except ValueError as exc:
        # a literal json cannot convert, such as an integer of more digits
        # than Python's int-string limit
        raise ParseError(f"{path}: {exc}") from None
    return scenario_from_obj(obj, raw=raw, seed=seed, samples=samples, tol=tol)


def scenario_from_obj(
    obj,
    raw: bytes | None = None,
    seed: int | None = None,
    samples: int | None = None,
    tol: float | None = None,
) -> Scenario:
    algebra, coeff_obj, spaces_obj, mapping_objs, check_ids = (
        require_field(obj, field, "scenario")
        for field in ("algebra", "coefficient", "spaces", "mappings", "checks")
    )
    shape = AlgebraShape(integers(algebra, "algebra"))

    if not isinstance(coeff_obj, dict):
        raise ValidationError("coefficient must be an object")
    strict = coeff_obj.get("strict_order", False)
    if not isinstance(strict, bool):
        raise ValidationError(f"strict_order must be true or false, got {strict!r}")
    value = alg.element_from_obj(coeff_obj)
    if value.shape != shape:
        raise ValidationError("coefficient shape does not match the algebra")
    coefficient = alg.validate_coefficient(value, require_strict_order=strict)

    space_f, space_e, space_g = (
        ModuleSpace(shape, number(int, require_field(spaces_obj, k, "spaces"), f"spaces.{k}"))
        for k in "FEG"
    )
    for k, space in zip("FEG", (space_f, space_e, space_g)):
        if 2 * space.rank * shape.dim > alg.MAX_REAL_DIM:
            raise ValidationError(
                f"spaces.{k}: rank {space.rank} has more than {alg.MAX_REAL_DIM} real coordinates"
            )

    pair = _pair_from_obj(obj.get("pair"), shape, space_f, space_e)

    mappings = []
    seen = set()
    for entry in items(mapping_objs, "mappings"):
        label, map_obj = (require_field(entry, k, "mapping entry") for k in ("label", "map"))
        if not isinstance(label, str):
            raise ValidationError(f"label must be a string, got {label!r}")
        if label in seen:
            raise ValidationError(f"duplicate mapping label {label!r}")
        seen.add(label)
        mappings.append((label, mp.mapping_from_obj(map_obj, space_e, space_g)))
    if not mappings:
        raise ValidationError("a campaign needs at least one mapping")

    checks = []
    for check_id in items(check_ids, "checks"):
        if check_id not in CHECK_IDS:
            raise ValidationError(f"unknown identity id {check_id!r}")
        if check_id not in checks:
            checks.append(check_id)
    if not checks:
        raise ValidationError("a campaign needs at least one check")

    sampler = _sampler_from_obj(obj.get("sampler"), space_e, pair)

    n_samples = samples
    if n_samples is None:
        n_samples = number(int, obj.get("samples", idn.DEFAULT_SAMPLES), "samples")
    if not 1 <= n_samples <= MAX_SAMPLES:
        raise ValidationError(f"samples must be at least 1 and at most {MAX_SAMPLES}")
    k, largest = max(zip("FEG", (space_f, space_e, space_g)), key=lambda s: s[1].rank)
    stack = n_samples * 2 * largest.rank * shape.dim
    if stack > MAX_STACK_REALS:
        raise ValidationError(
            f"samples: {n_samples} samples of spaces.{k} make a drawn stack of {stack} "
            f"real coordinates, more than {MAX_STACK_REALS}"
        )
    tolerance = tol if tol is not None else number(float, obj.get("tol", idn.DEFAULT_TOL), "tol")
    if not 0.0 < tolerance < math.inf:
        raise ValidationError("tol must be positive and finite")
    # a seed that is not in the scenario bytes goes into the digest
    overrides = {}
    if seed is not None:
        seed_val = overrides["seed"] = seed
    elif "seed" in obj:
        seed_val = number(int, obj["seed"], "seed")
    elif SEED_ENV_VAR in os.environ:
        text = os.environ[SEED_ENV_VAR]
        try:
            seed_val = overrides[SEED_ENV_VAR] = int(text)
        except ValueError:
            raise ValidationError(f"{SEED_ENV_VAR} must be an integer, got {text!r}") from None
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
        return mp.interleave_pair(number(float, obj.get("p"), "pair.p"), space_e.rank)
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
    mode = require_field(obj, "mode", "sampler")
    if mode == "disjoint_support":
        left, right = (
            integers(require_field(obj, key, "sampler"), f"sampler.{key}")
            for key in ("left_coords", "right_coords")
        )
        return hb.disjoint_support_sampler(space_e, left, right)
    if mode == "pair_image":
        if pair is None:
            raise ValidationError("pair_image sampler needs a scenario pair")
        return hb.pair_image_sampler(pair)
    if mode == "explicit":
        name, what = "sampler.pairs", "a list of [x, y] pairs"
        pairs = items(require_field(obj, "pairs", "sampler"), name, what)
        pairs = [[alg.vector_from_obj(v, space_e) for v in items(xy, name, what, 2)] for xy in pairs]
        sampler = hb.explicit_sampler(space_e, pairs)
        # the rule eq-1.1 applies to the pairs it draws, decided at load
        xs, ys = (alg.stack_vectors(space_e, side) for side in zip(*sampler.pairs))
        failure = hb.first_non_orthogonal(xs, ys)
        if failure is not None:
            raise ValidationError(f"{name}[{failure[0]}] is not an orthogonal pair: {failure[1]}")
        return sampler
    raise ValidationError(f"unknown sampler mode {mode!r}")


# ---------------------------------------------------------------------------
# campaign execution

def _mapping_entries(scenario: Scenario, mi: int, checks) -> list:
    """The (label, entry) results of the ids checks for mapping mi: one run
    of identities.run_checks, each family that holds one drawing on the
    seed base [seed, mi, family index].

    A package error (CstarJensenError) that fails a family becomes a
    failure entry for each of its selected ids, with the message in
    worst_input; any other exception is a bug in the program and
    propagates.
    """
    label, f = scenario.mappings[mi]
    outcomes = idn.run_checks(
        checks, f, scenario.space_e, scenario.coefficient, scenario.pair, scenario.sampler,
        scenario.samples, scenario.tol, lambda index: [scenario.seed, mi, index],
    )
    results = []
    for check_id, entry in outcomes.items():
        if isinstance(entry, CstarJensenError):
            entry = IdentityResidual(check_id, 0, math.inf, {"error": str(entry)}, False)
        results.append((label, entry))
    return results


def run_suite(scenario: Scenario) -> CampaignReport:
    """Execute every selected check for every mapping; an error fails the
    ids of its family alone, and the campaign goes on."""
    started = _utc_now()
    mappings = range(len(scenario.mappings))
    results = [item for mi in mappings for item in _mapping_entries(scenario, mi, scenario.checks)]
    return _campaign_report(scenario, started, results)


def _campaign_report(scenario: Scenario, started: str, results) -> CampaignReport:
    """The report of (label, entry) results, sorted by label, then by id;
    it passes when every entry does."""
    results = sorted(results, key=lambda item: (item[0], item[1].identity_id))
    return CampaignReport(
        scenario_digest=scenario.digest,
        started=started,
        finished=_utc_now(),
        results=tuple(results),
        overall_pass=all(entry.passed for _, entry in results),
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


def run_decompose(scenario: Scenario, label: str) -> CampaignReport:
    """Decompose one labelled mapping: the entries that run_suite gives it
    for DECOMPOSE_CHECKS, Thm 2.7's decomposition on K and the additivity
    of its A there, which run alone as one program on the pair family's
    draw."""
    labels = [name for name, _ in scenario.mappings]
    if label not in labels:
        raise ValidationError(f"no mapping labelled {label!r} in the scenario")
    started = _utc_now()
    results = _mapping_entries(scenario, labels.index(label), DECOMPOSE_CHECKS)
    return _campaign_report(scenario, started, results)
