"""Families run as one program per mapping, in chunks of rows: the same
report bytes as the per-family oracle (support.run_family) at one chunk
and at several, the same entries at every chunk size, one call of each map
per chunk, errors that fail the families they belong to, and a peak memory
that does not grow with the sample count."""
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from cstar_jensen import algebra as alg
from cstar_jensen import catalog, harness
from cstar_jensen import hilbert as hb
from cstar_jensen import identities as idn
from cstar_jensen import mappings as mp
from cstar_jensen.errors import CstarJensenError, DomainError, InvalidSampler, SpaceMismatch
from cstar_jensen.jsonutil import canonical_dumps

from support import oracle_results, run_family


def load(name, **overrides):
    return harness.load_scenario(catalog.bundled_scenario_path(name), **overrides)


def results_bytes(scenario, results):
    """The canonical bytes of a report's results array."""
    return canonical_dumps(harness._campaign_report(scenario, "", results).to_obj()["results"])


def oracle_suite(scenario, checks=None):
    checks = set(scenario.checks if checks is None else checks)
    return [item for mi in range(len(scenario.mappings)) for item in oracle_results(scenario, mi, checks)]


def running(scenario, checks):
    """The families run_families runs for checks: those that hold one,
    less those whose require refuses."""
    families = []
    for family in idn.FAMILIES:
        if set(checks).isdisjoint(family.ids):
            continue
        try:
            if family.require is not None:
                family.require(scenario.coefficient, scenario.pair)
        except CstarJensenError:
            continue
        families.append(family)
    return families


def reals_per_row(scenario, checks):
    """The drawn real coordinates a row of checks' families counts toward
    identities.CHUNK_REALS: each stack at the width of the larger of E and
    F."""
    spaces = [scenario.space_e] + ([scenario.pair.phi.domain] if scenario.pair else [])
    width = max(2 * s.rank * s.algebra.dim for s in spaces)
    return width * sum(family.draws for family in running(scenario, checks))


def chunk_rows(scenario, checks):
    return max(1, idn.CHUNK_REALS // reals_per_row(scenario, checks))


def explicit_scenario():
    """affine_roundtrip with an explicit sampler of three disjoint-support
    pairs, so that eq-1.1 cycles through them and scaling puts their six
    vectors first."""
    obj = json.loads(open(catalog.bundled_scenario_path("affine_roundtrip")).read())
    space = load("affine_roundtrip").space_e
    sampler = hb.disjoint_support_sampler(space, [0, 1], [2, 3])
    xs, ys = hb.sample_pairs(sampler, 3, [21])
    obj["sampler"] = {
        "mode": "explicit",
        "pairs": [[xs.row(i).to_obj(), ys.row(i).to_obj()] for i in range(3)],
    }
    return harness.scenario_from_obj(obj)


def pair_image_scenario():
    obj = json.loads(open(catalog.bundled_scenario_path("morphism_shift")).read())
    obj["sampler"] = {"mode": "pair_image"}
    return harness.scenario_from_obj(obj)


SCENARIOS = {name: (lambda name=name: load(name)) for name in catalog.SCENARIO_NAMES}
SCENARIOS["explicit_sampler"] = explicit_scenario
SCENARIOS["pair_image_sampler"] = pair_image_scenario


# ---------------------------------------------------------------------------
# the oracle


@pytest.mark.parametrize("name", catalog.SCENARIO_NAMES)
def test_verify_and_decompose_give_the_oracles_bytes(name):
    scenario = load(name)
    assert chunk_rows(scenario, scenario.checks) >= scenario.samples
    report = harness.run_suite(scenario)
    assert results_bytes(scenario, report.results) == results_bytes(scenario, oracle_suite(scenario))
    if scenario.pair is not None:
        label = scenario.mappings[0][0]
        got = harness.run_decompose(scenario, label).results
        want = oracle_results(scenario, 0, set(harness.DECOMPOSE_CHECKS))
        assert results_bytes(scenario, got) == results_bytes(scenario, want)


@pytest.mark.parametrize("name", ["constant_map", "interleave_p025"])
def test_several_chunks_give_the_oracles_bytes(name, monkeypatch):
    """At a sample count that spans more than three chunks of the real
    CHUNK_REALS: the rows are drawn chunk after chunk from one generator
    per family, and the entries fold across them to the bytes of the
    oracle's one draw of every row."""
    scenario = load(name)
    samples = 3 * chunk_rows(scenario, idn.CHECK_IDS) + 5
    scenario = load(name, samples=samples)
    chunks = []
    chunk = idn._chunk

    def counted(runs, outcomes, start, stop, setting):
        chunks.append((start, stop))
        return chunk(runs, outcomes, start, stop, setting)

    monkeypatch.setattr(idn, "_chunk", counted)
    got = harness._mapping_entries(scenario, 0, set(idn.CHECK_IDS))
    assert len(chunks) == 4 and chunks[-1][1] == samples
    want = oracle_results(scenario, 0, set(idn.CHECK_IDS))
    assert results_bytes(scenario, got) == results_bytes(scenario, want)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_each_map_is_called_once_per_mapping(name, monkeypatch):
    scenario = SCENARIOS[name]()
    calls = []
    call = mp.Mapping.__call__

    def counted(g, x):
        calls.append(g)
        return call(g, x)

    monkeypatch.setattr(mp.Mapping, "__call__", counted)
    for mi, (_, f) in enumerate(scenario.mappings):
        calls.clear()
        harness._mapping_entries(scenario, mi, set(idn.CHECK_IDS))
        assert calls.count(f) == 1
        if scenario.pair is not None:
            # a pair_image sampler calls phi and psi once more, to draw
            drawing = scenario.sampler.mode == "pair_image"
            assert calls.count(scenario.pair.phi) == calls.count(scenario.pair.psi) == 1 + drawing
            assert len(calls) == 3 + 2 * drawing
        else:
            assert len(calls) == 1


# ---------------------------------------------------------------------------
# errors


def test_a_refused_precondition_or_draw_fails_its_family_alone():
    """perturb_negative has no pair: the rows that need one refuse as they
    draw, the scalar row's require refuses on constant_map's coefficient,
    and every other family gives the oracle's entries."""
    for name in ("perturb_negative", "constant_map"):
        scenario = dataclasses.replace(load(name), checks=idn.CHECK_IDS)
        report = harness.run_suite(scenario)
        assert results_bytes(scenario, report.results) == results_bytes(scenario, oracle_suite(scenario))
        errors = {e.identity_id for _, e in report.results if "error" in e.worst_input}
        if name == "perturb_negative":
            assert errors == set(idn.CHECK_IDS) - set(idn.FAMILY_OF["eq-1.1"].ids) - set(
                idn.FAMILY_OF["lemma2.1-i"].ids
            )
        else:
            assert errors == set(idn.FAMILY_OF["cor2.9-B-vanishes"].ids)


def test_a_draw_that_refuses_in_a_later_chunk_fails_its_family_alone(monkeypatch):
    scenario = load("affine_roundtrip")
    checks = set(scenario.checks)
    want = {e.identity_id: e.to_obj() for _, e in harness._mapping_entries(scenario, 0, checks)}
    family = idn.FAMILY_OF["prop2.3-additive"]
    draw = family.draw

    def refusing(space, pair, sampler, start, stop, rng):
        if start > 0:
            raise DomainError("refused in a later chunk")
        return draw(space, pair, sampler, start, stop, rng)

    monkeypatch.setattr(family, "draw", refusing)
    monkeypatch.setattr(idn, "CHUNK_REALS", 7 * reals_per_row(scenario, checks))
    got = {e.identity_id: e.to_obj() for _, e in harness._mapping_entries(scenario, 0, checks)}
    assert got.pop("prop2.3-additive")["worst_input"] == {"error": "refused in a later chunk"}
    del want["prop2.3-additive"]
    assert canonical_dumps(got) == canonical_dumps(want)


class Refusing(mp.Mapping):
    """f that raises a package error on a stack of more than one row: a
    programmatic map whose spaces no load checked."""

    __slots__ = ("inner",)

    def __init__(self, inner):
        super().__init__(inner.domain, inner.codomain)
        object.__setattr__(self, "inner", inner)

    def evaluate(self, x):
        if x.batch and x.batch[0] > 1:
            raise SpaceMismatch("refused by the map")
        return self.inner.evaluate(x)


def test_an_error_in_the_program_fails_every_family_in_it():
    """All families of a mapping run as one program, so an error raised
    while it runs, which only a programmatic map can raise (file maps have
    their spaces checked at load), fails each of them; a family refused
    before the program keeps its own error."""
    scenario = load("constant_map")
    ((label, f),) = scenario.mappings
    scenario = dataclasses.replace(scenario, mappings=((label, Refusing(f)),), checks=idn.CHECK_IDS)
    report = harness.run_suite(scenario)
    errors = {e.identity_id: e.worst_input["error"] for _, e in report.results}
    scalar = set(idn.FAMILY_OF["cor2.9-B-vanishes"].ids)
    assert {errors.pop(i) for i in scalar} == {"coefficient is not a real scalar multiple of the unit"}
    assert set(errors.values()) == {"refused by the map"}
    assert set(errors) == set(idn.CHECK_IDS) - scalar
    # run alone by the oracle, orth-display, which never calls f, passes
    family = idn.FAMILY_OF["lemma2.2-orth"]
    (entry,) = run_family(
        family, Refusing(f), scenario.space_e, scenario.coefficient, scenario.pair,
        scenario.sampler, scenario.samples, scenario.tol, [scenario.seed, 0, idn.FAMILIES.index(family)],
    )
    assert entry.passed


# ---------------------------------------------------------------------------
# chunk sizes

NAN, INF = float("nan"), float("inf")
TABLES = [
    [1.0, 3.0, 2.0, 3.0, 0.5],
    [1.0, NAN, 2.0, NAN, 5.0],
    [NAN, NAN, 1.0],
    [0.0, -0.0, 0.0],
    [2.0, INF, NAN, INF],
    [1e-12, 1e-10, 1e-11, 1e-10],
]


@pytest.mark.parametrize("table", TABLES, ids=range(len(TABLES)))
@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("columns", [1, 2])
def test_folding_chunks_gives_the_fold_of_the_whole_table(table, rows, columns):
    """_fold's prior reads the chunks as one table: the first NaN, else the
    first largest entry, its row and the sum of the samples."""
    table = np.array(table)
    split = tuple(np.roll(table, k) for k in range(columns)) if columns > 1 else table
    want = idn._fold("id", split, lambda i: {"row": i}, 1e-9)
    entry = None
    for start in range(0, table.size, rows):
        part = tuple(c[start : start + rows] for c in split) if columns > 1 else table[start : start + rows]
        entry = idn._fold("id", part, lambda i, start=start: {"row": start + i}, 1e-9, entry)
    assert (entry.samples, entry.worst_input, entry.passed) == (want.samples, want.worst_input, want.passed)
    assert np.array(entry.max_residual).tobytes() == np.array(want.max_residual).tobytes()


def entries_at(scenario, rows, monkeypatch):
    """The results of every family on every mapping of scenario, rows rows
    a chunk, and the chunks run."""
    checks = set(idn.CHECK_IDS)
    monkeypatch.setattr(idn, "CHUNK_REALS", rows * reals_per_row(scenario, checks))
    chunks = []
    chunk = idn._chunk

    def counted(runs, outcomes, start, stop, setting):
        chunks.append(stop - start)
        return chunk(runs, outcomes, start, stop, setting)

    monkeypatch.setattr(idn, "_chunk", counted)
    results = [
        item for mi in range(len(scenario.mappings)) for item in harness._mapping_entries(scenario, mi, checks)
    ]
    monkeypatch.undo()
    return results_bytes(scenario, results), chunks


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_entries_do_not_depend_on_the_chunk_size(name, monkeypatch):
    """Every family on every mapping, at chunks of 1, 7 and all rows: the
    same bytes. The explicit sampler's pairs cycle by global row, scaling
    puts its explicit vectors first, unique's zero row is the first
    chunk's, and each chunk's worst entry folds in row order."""
    scenario = SCENARIOS[name]()
    n, mappings = scenario.samples, len(scenario.mappings)
    whole, chunks = entries_at(scenario, n, monkeypatch)
    assert chunks == [n] * mappings
    for rows in (1, 7):
        got, chunks = entries_at(scenario, rows, monkeypatch)
        assert chunks == ([rows] * (n // rows) + [n % rows] * (n % rows > 0)) * mappings
        assert got == whole


def test_pairs_that_are_not_orthogonal_name_the_global_worst_row(monkeypatch):
    """An explicit sampler built in code is not checked at load: eq-1.1
    refuses its pairs after the last chunk, naming the worst row of all of
    them as the oracle's one draw does, at every chunk size."""
    space = load("affine_roundtrip").space_e
    disjoint = hb.disjoint_support_sampler(space, [0, 1], [2, 3])
    xs, ys = hb.sample_pairs(disjoint, 5, [4])
    ys = [ys.row(i) for i in range(5)]
    # rows 2 and 4 of each cycle are not orthogonal, row 4 the more
    ys[2] = alg.vec_add(ys[2], alg.vec_scale(xs.row(2), 1e-6))
    ys[4] = alg.vec_add(ys[4], alg.vec_scale(xs.row(4), 1e-3))
    sampler = hb.explicit_sampler(space, [(xs.row(i), ys[i]) for i in range(5)])
    scenario = load("affine_roundtrip")
    (_, f), a = scenario.mappings[0], scenario.coefficient
    family = idn.FAMILY_OF["eq-1.1"]
    with pytest.raises(InvalidSampler) as oracle:
        run_family(family, f, space, a, None, sampler, 12, 1e-9, [0])
    assert "at row 4:" in str(oracle.value)
    for rows in (1, 3, 7, 12):
        monkeypatch.setattr(idn, "CHUNK_REALS", rows * 2 * 2 * space.rank * space.algebra.dim)
        with pytest.raises(InvalidSampler) as got:
            idn.check_orthogonal_jensen(f, a, sampler, n=12, seed=0)
        assert str(got.value) == str(oracle.value)


# ---------------------------------------------------------------------------
# memory


def traced_peak(scenario) -> int:
    tracemalloc.start()
    try:
        harness.run_suite(scenario)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_is_set_by_the_chunk_not_the_samples():
    """run_suite's traced peak at four chunks' samples is at most 1.5 times
    its peak at one chunk's."""
    scenario = load("constant_map")
    rows = chunk_rows(scenario, scenario.checks)
    harness.run_suite(load("constant_map", samples=2))
    one, four = (traced_peak(load("constant_map", samples=k * rows)) for k in (1, 4))
    assert four <= 1.5 * one, (one, four)
