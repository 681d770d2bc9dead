"""Scenario loading, campaign determinism, report emission and the CLI."""
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import cstar_jensen as cj
from cstar_jensen import algebra as alg
from cstar_jensen import catalog, harness
from cstar_jensen import identities as idn
from cstar_jensen import mappings as mp
from cstar_jensen.cli import cli_main
from cstar_jensen.errors import IoError, NearSingular, ParseError, ValidationError
from cstar_jensen.jsonutil import canonical_dumps

from support import MAKE_SCENARIOS, run_family

SCALAR = cj.AlgebraShape((1,))


def minimal_obj():
    one = cj.unit(SCALAR)
    linear = {
        "kind": "linear",
        "coeffs": [[cj.vec_scale(one, 2.0).to_obj()], [one.to_obj()]],
    }
    return {
        "algebra": [1],
        "coefficient": {**cj.vec_scale(one, 0.5).to_obj(), "strict_order": True},
        "spaces": {"F": 1, "E": 2, "G": 1},
        "pair": None,
        "mappings": [{"label": "f", "map": linear}],
        "checks": ["eq-1.1"],
        "samples": 5,
        "seed": 3,
        "tol": 1e-9,
    }


def write_scenario(tmp_path, obj, name="scenario.json"):
    path = tmp_path / name
    path.write_text(canonical_dumps(obj))
    return path


class TestScenarioLoading:
    def test_minimal_loads_and_passes(self, tmp_path):
        path = write_scenario(tmp_path, minimal_obj())
        scenario = harness.load_scenario(path)
        assert scenario.checks == ("eq-1.1",)
        report = harness.run_suite(scenario)
        assert report.overall_pass

    def test_coefficient_one_rejected(self, tmp_path):
        obj = minimal_obj()
        obj["coefficient"] = {**cj.unit(SCALAR).to_obj(), "strict_order": False}
        path = write_scenario(tmp_path, obj)
        with pytest.raises(NearSingular):
            harness.load_scenario(path)

    def test_unknown_check_id_named(self, tmp_path):
        obj = minimal_obj()
        obj["checks"] = ["lemma9"]
        path = write_scenario(tmp_path, obj)
        with pytest.raises(ValidationError, match="lemma9"):
            harness.load_scenario(path)

    def test_no_mappings_rejected(self, tmp_path):
        obj = minimal_obj()
        obj["mappings"] = []
        with pytest.raises(ValidationError):
            harness.load_scenario(write_scenario(tmp_path, obj))

    def test_no_checks_rejected(self, tmp_path):
        obj = minimal_obj()
        obj["checks"] = []
        with pytest.raises(ValidationError):
            harness.load_scenario(write_scenario(tmp_path, obj))

    def test_duplicate_labels_rejected(self, tmp_path):
        obj = minimal_obj()
        obj["mappings"] = obj["mappings"] * 2
        with pytest.raises(ValidationError):
            harness.load_scenario(write_scenario(tmp_path, obj))

    def test_missing_field_rejected(self, tmp_path):
        obj = minimal_obj()
        del obj["coefficient"]
        with pytest.raises(ValidationError, match="coefficient"):
            harness.load_scenario(write_scenario(tmp_path, obj))

    def test_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  oops\n}")
        with pytest.raises(ParseError, match="line 2"):
            harness.load_scenario(path)

    def test_integer_past_the_digit_limit_is_a_parse_error(self, tmp_path, capsys):
        # json.loads raises a plain ValueError here, not a JSONDecodeError
        text = open(catalog.bundled_scenario_path("constant_map")).read()
        assert text.count('"seed":11') == 1
        path = tmp_path / "long_seed.json"
        path.write_text(text.replace('"seed":11', '"seed":' + "1" * 5001))
        with pytest.raises(ParseError, match="long_seed.json"):
            harness.load_scenario(path)
        assert cli_main(["verify", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert "internal" not in err and "Traceback" not in err

    @pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan, 0.0])
    def test_tolerance_must_be_positive_and_finite(self, tmp_path, tol):
        obj = minimal_obj()
        obj["tol"] = tol
        # canonical JSON writes the strings "Infinity", "-Infinity" and "NaN";
        # the stdlib writes the bare tokens, which json.loads reads too
        for text in (canonical_dumps(obj), json.dumps(obj)):
            path = tmp_path / "scenario.json"
            path.write_text(text)
            assert "Infinity" in path.read_text() or not math.isinf(tol)
            with pytest.raises(ValidationError, match="tol must be positive and finite"):
                harness.load_scenario(path)
        with pytest.raises(ValidationError, match="tol must be positive and finite"):
            harness.load_scenario(write_scenario(tmp_path, minimal_obj(), "ok.json"), tol=tol)

    def test_samples_flag_above_the_bound_exit_two(self, tmp_path, capsys):
        # --samples meets the bound the file's samples does
        path = write_scenario(tmp_path, minimal_obj())
        assert harness.load_scenario(path, samples=harness.MAX_SAMPLES).samples == harness.MAX_SAMPLES
        with pytest.raises(ValidationError, match="samples must be"):
            harness.load_scenario(path, samples=harness.MAX_SAMPLES + 1)
        assert cli_main(["verify", "--scenario", str(path), "--samples", str(10**30)]) == 2
        message = f"error: samples must be at least 1 and at most {harness.MAX_SAMPLES}\n"
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("source", ["file", "flag"])
    def test_a_drawn_stack_above_the_size_bound_exit_two(self, tmp_path, capsys, source):
        # a million samples on E = C^8192, whose first draw would hold 131 GB,
        # and on the bundled interleave_p010's E = C^8
        if source == "file":
            obj = minimal_obj()
            obj["spaces"]["E"] = 8192
            zero = cj.ModuleSpace(SCALAR, 1).zero().to_obj()
            obj["mappings"][0]["map"] = {"kind": "constant", "value": zero}
            obj["samples"] = harness.MAX_SAMPLES
            args, size = ["verify", "--scenario", str(write_scenario(tmp_path, obj))], 16384 * 10**6
        else:
            args = ["verify", "--scenario", "interleave_p010", "--samples", str(harness.MAX_SAMPLES)]
            size = 16 * 10**6
        start = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main(args)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and [str(w.message) for w in caught] == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: samples: {harness.MAX_SAMPLES} samples of spaces.E make a drawn stack of "
            f"{size} real coordinates, more than {harness.MAX_STACK_REALS}\n"
        )

    def test_every_bundled_scenario_loads_within_the_stack_bound(self):
        # at its own samples and at the default; the largest family calls
        # one map 45 times, each call a part of one stack
        for name in catalog.SCENARIO_NAMES:
            for samples in (None, idn.DEFAULT_SAMPLES):
                harness.load_scenario(catalog.bundled_scenario_path(name), samples=samples)
        assert max(len(calls) for f in idn.FAMILIES for calls in idn._program((f,)).calls.values()) == 45

    @pytest.mark.parametrize("tol", ["inf", "-inf", "nan"])
    def test_non_finite_tol_flag_exit_two(self, tol, capsys):
        assert cli_main(["verify", "--scenario", "quad_negative", f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert "tol must be positive and finite" in captured.err
        assert "overall" not in captured.out

    @pytest.mark.parametrize(
        "field, value, name",
        [
            ("tol", "abc", "tol"),
            ("samples", [3], "samples"),
            ("seed", "x", "seed"),
            ("spaces", {"F": "x", "E": 2, "G": 1}, "spaces.F"),
            (None, "12x", harness.SEED_ENV_VAR),
            # an integer field takes no fraction and no bool
            ("samples", 2.5, "samples"),
            ("samples", True, "samples"),
            ("seed", 7.9, "seed"),
            ("spaces", {"F": 1, "E": 2.7, "G": 1}, "spaces.E"),
            ("spaces", {"F": 1, "E": 2, "G": True}, "spaces.G"),
            # a number written as text is refused, not converted
            ("samples", "5", "samples"),
            ("tol", "1e-9", "tol"),
            ("seed", "3", "seed"),
            ("spaces", {"F": 1, "E": 2, "G": "1"}, "spaces.G"),
            ("pair", {"builder": "interleave", "p": "0.25"}, "pair.p"),
            # an integer too large for a float
            pytest.param("tol", 10**400, "tol", id="tol-401-digits"),
            # more samples than a generator can draw
            pytest.param("samples", 10**30, "samples", id="samples-10**30"),
        ],
    )
    def test_malformed_number_is_a_validation_error(
        self, tmp_path, monkeypatch, capsys, field, value, name
    ):
        obj = minimal_obj()
        if field is None:  # the seed comes from the environment
            del obj["seed"]
            monkeypatch.setenv(harness.SEED_ENV_VAR, value)
        else:
            obj[field] = value
        path = write_scenario(tmp_path, obj)
        with pytest.raises(ValidationError, match=name):
            harness.load_scenario(path)
        assert cli_main(["verify", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be ")
        assert "internal" not in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            (
                "constant_map",
                lambda o: o.update(sampler={"mode": "disjoint_support", "right_coords": [1]}),
                "sampler is missing the 'left_coords' field",
            ),
            (
                "constant_map",
                lambda o: o.update(
                    sampler={"mode": "disjoint_support", "left_coords": ["a"], "right_coords": [1]}
                ),
                "sampler.left_coords must be an integer",
            ),
            (
                "constant_map",
                lambda o: o.update(
                    sampler={"mode": "disjoint_support", "left_coords": [0], "right_coords": [0.5]}
                ),
                "sampler.right_coords must be an integer",
            ),
            (
                "constant_map",
                lambda o: o.update(
                    sampler={"mode": "disjoint_support", "left_coords": 0, "right_coords": [1]}
                ),
                "sampler.left_coords must be a list of integers",
            ),
            (
                "perturb_negative",
                lambda o: o["sampler"].pop("pairs"),
                "sampler is missing the 'pairs' field",
            ),
            (
                "perturb_negative",
                lambda o: o["sampler"]["pairs"][0].append(o["sampler"]["pairs"][0][0]),
                "sampler.pairs must be a list of [x, y] pairs",
            ),
            (
                "constant_map",
                lambda o: o["mappings"][0]["map"].update(kind="linear"),
                "linear mapping is missing the 'coeffs' field",
            ),
            (
                "constant_map",
                lambda o: o["mappings"][0]["map"].update(
                    kind="quad_diag", g=o["mappings"][0]["map"]["value"]
                ),
                "quad_diag mapping is missing the 'scale' field",
            ),
            ("constant_map", lambda o: o.update(algebra=2), "algebra must be a list of integers"),
            ("quad_negative", lambda o: o["mappings"][0]["map"].update(scale="x"), "scale must be a number"),
            (
                "perturb_negative",
                lambda o: o["mappings"][0]["map"]["children"][1].update(radius="x"),
                "radius must be a number",
            ),
            (
                "constant_map",
                lambda o: o["mappings"][0]["map"]["value"].update(rank="x"),
                "rank must be an integer",
            ),
            (
                "constant_map",
                lambda o: o["mappings"][0]["map"]["value"].update(coords=3),
                "coords must be a list",
            ),
            ("constant_map", lambda o: o["coefficient"].update(shape=2), "shape must be a list of integers"),
            ("constant_map", lambda o: o["coefficient"].update(blocks=5), "blocks must be a list"),
            ("constant_map", lambda o: o.update(checks=5), "checks must be a list"),
            ("constant_map", lambda o: o.update(mappings=5), "mappings must be a list"),
            (
                "perturb_negative",
                lambda o: o["mappings"][0]["map"]["children"][0]["children"][0].update(coeffs=5),
                "coeffs must be a list",
            ),
            (
                "perturb_negative",
                lambda o: o["mappings"][0]["map"].update(children=5),
                "children must be a list",
            ),
            # each of these was accepted and misread
            ("constant_map", lambda o: o["coefficient"].update(shape=["2"]), "shape must be an integer"),
            (
                "constant_map",
                lambda o: o["mappings"][0]["map"]["value"].update(rank=1.5),
                "rank must be an integer",
            ),
            ("quad_negative", lambda o: o["mappings"][0]["map"].update(scale=True), "scale must be a number"),
            ("quad_negative", lambda o: o["mappings"][0]["map"].update(scale="1"), "scale must be a number"),
            (
                "constant_map",
                lambda o: o["coefficient"].update(strict_order="no"),
                "strict_order must be true or false",
            ),
            ("constant_map", lambda o: o["mappings"][0].update(label=5), "label must be a string"),
            (
                "constant_map",
                lambda o: o["coefficient"]["blocks"][0][0][0].append(0.0),
                "blocks must be a list of square matrices of [re, im] pairs",
            ),
            # these are read as values and refused by the range check alone
            ("constant_map", lambda o: o.update(tol="Infinity"), "tol must be positive and finite"),
            ("constant_map", lambda o: o.update(seed=-7.0), "seed must be non-negative"),
        ],
        ids=[
            "no-left-coords",
            "text-coord",
            "fraction-coord",
            "coords-not-a-list",
            "no-pairs",
            "pair-of-three",
            "linear-no-coeffs",
            "quad-diag-no-scale",
            "algebra-not-a-list",
            "text-scale",
            "text-radius",
            "text-rank",
            "vector-coords-not-a-list",
            "shape-not-a-list",
            "blocks-not-a-list",
            "checks-not-a-list",
            "mappings-not-a-list",
            "coeffs-not-a-list",
            "children-not-a-list",
            "text-shape",
            "fraction-rank",
            "bool-scale",
            "text-number-scale",
            "text-strict-order",
            "number-label",
            "block-entry-of-three",
            "infinite-tol-token",
            "integral-float-seed",
        ],
    )
    def test_malformed_section_is_a_validation_error(
        self, tmp_path, capsys, name, edit, message
    ):
        # each of these was an internal KeyError, ValueError or TypeError
        obj = json.loads(open(catalog.bundled_scenario_path(name)).read())
        edit(obj)
        path = write_scenario(tmp_path, obj)
        with pytest.raises(ValidationError) as info:
            harness.load_scenario(path)
        assert str(info.value).startswith(message)
        assert cli_main(["verify", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "internal" not in err and "Traceback" not in err

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            harness.load_scenario(tmp_path / "nope.json")

    def test_seed_resolution_order(self, tmp_path, monkeypatch):
        obj = minimal_obj()
        path = write_scenario(tmp_path, obj)
        monkeypatch.setenv(harness.SEED_ENV_VAR, "123")
        assert harness.load_scenario(path).seed == 3  # scenario field wins env
        assert harness.load_scenario(path, seed=9).seed == 9  # override wins all
        del obj["seed"]
        path2 = write_scenario(tmp_path, obj, "noseed.json")
        assert harness.load_scenario(path2).seed == 123  # env fallback
        monkeypatch.delenv(harness.SEED_ENV_VAR)
        assert harness.load_scenario(path2).seed == 0

    def test_env_seed_enters_digest(self, tmp_path, monkeypatch):
        obj = minimal_obj()
        del obj["seed"]
        path = write_scenario(tmp_path, obj)

        def digest(env_seed):
            monkeypatch.setenv(harness.SEED_ENV_VAR, env_seed)
            return harness.load_scenario(path).digest

        assert digest("1") == digest("1") != digest("2")

    def test_env_seed_leaves_other_digests_alone(self, tmp_path, monkeypatch):
        path = write_scenario(tmp_path, minimal_obj())  # carries a seed field
        monkeypatch.delenv(harness.SEED_ENV_VAR, raising=False)
        plain = harness.load_scenario(path).digest
        seeded = harness.load_scenario(path, seed=5).digest
        monkeypatch.setenv(harness.SEED_ENV_VAR, "7")
        assert harness.load_scenario(path).digest == plain
        assert harness.load_scenario(path, seed=5).digest == seeded

    def test_overrides_change_digest(self, tmp_path):
        path = write_scenario(tmp_path, minimal_obj())
        plain = harness.load_scenario(path)
        seeded = harness.load_scenario(path, seed=5)
        assert plain.digest != seeded.digest
        again = harness.load_scenario(path)
        assert plain.digest == again.digest


class TestRunSuite:
    def test_repeat_runs_identical(self, tmp_path):
        path = write_scenario(tmp_path, minimal_obj())
        first = harness.run_suite(harness.load_scenario(path))
        second = harness.run_suite(harness.load_scenario(path))
        dump = lambda r: canonical_dumps([
            {"label": label, **entry.to_obj()} for label, entry in r.results
        ])
        assert dump(first) == dump(second)

    def test_checker_errors_become_failures(self, tmp_path):
        obj = minimal_obj()
        obj["checks"] = ["eq-1.1", "lemma2.2"]  # lemma2.2 needs a pair
        path = write_scenario(tmp_path, obj)
        report = harness.run_suite(harness.load_scenario(path))
        entries = {e.identity_id: e for _, e in report.results}
        assert entries["eq-1.1"].passed
        bad = entries["lemma2.2"]
        assert not bad.passed
        assert math.isinf(bad.max_residual)
        assert "error" in bad.worst_input
        assert not report.overall_pass

    def test_no_check_computes_an_svd(self, monkeypatch):
        # norms are Gram eigenvalues; invert runs its SVD at load, so the
        # scenarios are loaded before the SVD is taken away
        scenarios = [
            harness.load_scenario(catalog.bundled_scenario_path(name))
            for name in catalog.SCENARIO_NAMES
        ]
        dump = lambda r: canonical_dumps([
            {"label": label, **entry.to_obj()} for label, entry in r.results
        ])
        want = [dump(harness.run_suite(scenario)) for scenario in scenarios]

        def no_svd(*args, **kwargs):
            raise AssertionError("a check called np.linalg.svd")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        assert [dump(harness.run_suite(scenario)) for scenario in scenarios] == want

    def test_overflowing_non_scalar_coefficient_is_not_a_scalar(self):
        # its residual against 1e200 * 1 overflows to NaN, which never passes
        value = cj.AlgebraElement(cj.AlgebraShape((2,)), [[[1e200, 0], [0, 2e200]]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValidationError, match="not a real scalar"):
                idn._scalar_of(cj.validate_coefficient(value))

    def test_table_holds_every_id_once_in_order(self):
        ids = [check_id for row in idn.FAMILIES for check_id in row.ids]
        assert ids == list(cj.CHECK_IDS) and len(set(ids)) == len(ids) == 21
        scaling, decompose = (idn.FAMILY_OF[i].ids for i in ("lemma2.1-i", "thm2.7-reconstruct"))
        assert scaling == tuple(f"lemma2.1-{i}" for i in ("i", "ii", "iii", "iv", "v", "vi"))
        assert decompose == tuple(i for i in ids if i.startswith("thm2.7-") and i != "thm2.7-unique")

    def test_each_family_runs_once_per_mapping(self, monkeypatch):
        calls = []
        run_families = idn.run_families

        def counted(families, f, *args):
            calls.extend((family.name, f) for family in families)
            return run_families(families, f, *args)

        monkeypatch.setattr(idn, "run_families", counted)
        scenario = harness.load_scenario(
            catalog.bundled_scenario_path("affine_roundtrip")
        )
        assert harness.run_suite(scenario).overall_pass
        mappings = [f for _, f in scenario.mappings]
        # one call per family that holds a selected id, for each mapping
        names = [row.name for row in idn.FAMILIES if set(row.ids) & set(scenario.checks)]
        assert calls == [(name, f) for f in mappings for name in names]

    def test_one_generator_per_family_call(self, monkeypatch):
        # each family seeds one generator and draws all of its samples from
        # it; one generator per sample built 4940 over these scenarios. A
        # generator passed on to a draw is returned as it is, not built
        built = []
        default_rng = np.random.default_rng

        def counted(*args, **kwargs):
            if not isinstance(args[0], np.random.Generator):
                built.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counted)
        for name in catalog.SCENARIO_NAMES:
            scenario = harness.load_scenario(catalog.bundled_scenario_path(name))
            before = len(built)
            harness.run_suite(scenario)
            families = {idn.FAMILY_OF[check_id] for check_id in scenario.checks}
            assert len(built) - before <= len(families) * len(scenario.mappings), name
        # 85 drawn from, and perturb_negative's eq-1.1, whose explicit
        # pairs draw nothing from theirs
        assert len(built) == 86

    def test_scaling_takes_at_most_n_explicit_vectors(self):
        # perturb_negative's one explicit pair gives two vectors; one sample
        # keeps the first of them and draws nothing
        path = catalog.bundled_scenario_path("perturb_negative")
        scenario = harness.load_scenario(path, samples=1)
        x = scenario.sampler.pairs[0][0]
        entries = {e.identity_id: e for _, e in harness.run_suite(scenario).results}
        for check_id in idn.FAMILY_OF["lemma2.1-i"].ids:
            assert entries[check_id].samples == 1
            assert entries[check_id].worst_input == {"x": x.to_obj()}

    def test_results_sorted_by_label_then_id(self, tmp_path):
        obj = minimal_obj()
        obj["checks"] = ["lemma2.1-ii", "eq-1.1", "lemma2.1-i"]
        obj["mappings"] = [
            {"label": "zeta", "map": obj["mappings"][0]["map"]},
            {"label": "alpha", "map": obj["mappings"][0]["map"]},
        ]
        report = harness.run_suite(harness.load_scenario(write_scenario(tmp_path, obj)))
        keys = [(label, e.identity_id) for label, e in report.results]
        assert keys == sorted(keys)


class TestReports:
    def test_emit_then_reload(self, tmp_path):
        path = write_scenario(tmp_path, minimal_obj())
        report = harness.run_suite(harness.load_scenario(path))
        out = tmp_path / "report.json"
        harness.emit_report(report, out)
        loaded = json.loads(out.read_text())
        assert loaded == report.to_obj()
        assert loaded["overall_pass"] is True
        assert loaded["tool_version"] == harness.TOOL_VERSION

    def test_failing_campaign_report_shape(self, tmp_path):
        obj = minimal_obj()
        quad = {
            "kind": "quad_diag",
            "g": cj.ModuleSpace(SCALAR, 1).basis_vector(0).to_obj(),
            "scale": 1.0,
        }
        obj["mappings"] = [{"label": "quad", "map": quad}]
        report = harness.run_suite(harness.load_scenario(write_scenario(tmp_path, obj)))
        assert not report.overall_pass
        assert any(not e.passed for _, e in report.results)

    def test_non_finite_values_are_standard_json(self, tmp_path):
        def refuse(token):
            raise AssertionError(f"non-standard JSON token {token}")

        assert json.loads(
            canonical_dumps([math.inf, -math.inf, math.nan]), parse_constant=refuse
        ) == ["Infinity", "-Infinity", "NaN"]

        # an error entry: lemma2.2 needs a pair and the scenario has none
        obj = minimal_obj()
        obj["checks"] = ["eq-1.1", "lemma2.2"]
        scenario = harness.load_scenario(write_scenario(tmp_path, obj))
        # a NaN residual: a constant that overflowed to inf gives inf - inf
        with np.errstate(over="ignore"):
            huge = cj.vec_scale(scenario.space_g.basis_vector(0), 1e200)
            nan_map = mp.Constant(scenario.space_e, cj.vec_scale(huge, 1e200))
        nan_scenario = dataclasses.replace(
            scenario, mappings=(("nan", nan_map),), checks=("eq-1.1",)
        )
        want = {("f", "lemma2.2"): "Infinity", ("nan", "eq-1.1"): "NaN"}
        for case in (scenario, nan_scenario):
            with np.errstate(over="ignore", invalid="ignore"):
                report = harness.run_suite(case)
            out = tmp_path / "report.json"
            harness.emit_report(report, out)
            loaded = json.loads(out.read_text(), parse_constant=refuse)
            for entry in loaded["results"]:
                key = (entry["label"], entry["id"])
                if key in want:
                    assert entry["max_residual"] == want.pop(key)
                    assert entry["pass"] is False
        assert not want

    def test_unwritable_report_path(self, tmp_path):
        report = harness.run_suite(
            harness.load_scenario(write_scenario(tmp_path, minimal_obj()))
        )
        with pytest.raises(IoError):
            harness.emit_report(report, tmp_path / "missing" / "report.json")


class TestBundledScenarios:
    def test_catalog_files_match_builders(self, tmp_path):
        tool = str(MAKE_SCENARIOS)
        done = subprocess.run(
            [sys.executable, tool, str(tmp_path)], capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        names = list(catalog.SCENARIO_NAMES)
        assert done.stdout.splitlines() == [str(tmp_path / f"{n}.json") for n in names]
        for name in names:
            with open(catalog.bundled_scenario_path(name), "rb") as fh:
                want = fh.read()
            assert (tmp_path / f"{name}.json").read_bytes() == want, name
        bundled = Path(catalog.bundled_scenario_path(names[0])).parent
        assert sorted(p.stem for p in bundled.glob("*.json")) == sorted(names)
        usage = subprocess.run(
            [sys.executable, tool, str(tmp_path), "extra"], capture_output=True, text=True
        )
        assert usage.returncode == 2
        assert usage.stderr == "usage: python3 tools/make_scenarios.py [OUTDIR]\n"

    def test_every_bundled_scenario_loads(self):
        for name in catalog.SCENARIO_NAMES:
            scenario = harness.load_scenario(catalog.bundled_scenario_path(name))
            assert scenario.mappings

    def test_affine_roundtrip_passes_everything(self):
        scenario = harness.load_scenario(
            catalog.bundled_scenario_path("affine_roundtrip")
        )
        assert set(scenario.checks) == set(cj.CHECK_IDS)
        report = harness.run_suite(scenario)
        assert report.overall_pass

    def test_quad_negative_pinpoints_the_broken_hypothesis(self):
        scenario = harness.load_scenario(
            catalog.bundled_scenario_path("quad_negative")
        )
        report = harness.run_suite(scenario)
        entries = {e.identity_id: e for _, e in report.results}
        assert not report.overall_pass
        assert not entries["eq-1.1"].passed
        assert entries["eq-1.1"].max_residual > 1e-3
        assert entries["thm2.7-B-symmetric"].passed
        assert entries["thm2.7-B-orth-preserving"].passed
        assert entries["thm2.7-B-biadditive"].passed
        assert not entries["thm2.7-B-a-biadditive"].passed

    def test_perturb_negative_detected_via_forced_sampler(self):
        scenario = harness.load_scenario(
            catalog.bundled_scenario_path("perturb_negative")
        )
        report = harness.run_suite(scenario)
        assert not report.overall_pass
        worst = max(e.max_residual for _, e in report.results)
        assert worst > 1e-3

    @pytest.mark.parametrize("seed", [7, 12345])
    @pytest.mark.parametrize("name", catalog.SCENARIO_NAMES)
    def test_verdicts_keep_three_decades_from_tol(self, name, seed):
        """No bundled verdict hinges on the tolerance: every PASS is at most
        tol * 1e-3 and every FAIL at least tol * 1e3, so a rounding-level
        change of the arithmetic cannot move one."""
        scenario = harness.load_scenario(catalog.bundled_scenario_path(name), seed=seed)
        report = harness.run_suite(scenario)
        for label, e in report.results:
            where = f"{label} {e.identity_id}: {e.max_residual!r} against tol {scenario.tol!r}"
            if e.passed:
                assert e.max_residual <= scenario.tol * 1e-3, where
            else:
                assert e.max_residual >= scenario.tol * 1e3, where


class TestCli:
    def test_verify_pass_exit_zero(self):
        assert cli_main(["verify", "--scenario", "affine_roundtrip"]) == 0

    def test_verify_failure_exit_one(self):
        assert cli_main(["verify", "--scenario", "quad_negative"]) == 1

    def test_unknown_scenario_exit_two(self):
        assert cli_main(["verify", "--scenario", "definitely_not_there"]) == 2

    def test_usage_error_exit_two(self):
        assert cli_main(["verify"]) == 2

    def test_list_checks_prints_all_ids(self, capsys):
        assert cli_main(["list-checks"]) == 0
        out = capsys.readouterr().out.split()
        assert out == list(cj.CHECK_IDS)

    def test_example_l2(self, capsys):
        assert cli_main(["example-l2", "--p", "0.5", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out
        # the one bound a pair meets is the one pair validation applies
        assert out.splitlines()[-1] == f"validation pass (bound {mp.PAIR_VALIDATION_TOL:.1e})"

    def test_example_l2_bad_p_exit_two(self):
        assert cli_main(["example-l2", "--p", "1.5", "--n", "8"]) == 2

    def test_solve_kernel_probe(self, capsys):
        assert cli_main(["solve-kernel", "--scenario", "kernel_probe"]) == 0
        assert "kernel dimension: 4" in capsys.readouterr().out

    def test_solve_kernel_scalar_zero(self, capsys):
        assert cli_main(["solve-kernel", "--scenario", "interleave_p050"]) == 0
        assert "kernel dimension: 0" in capsys.readouterr().out

    def test_decompose_writes_report(self, tmp_path):
        out = tmp_path / "dec.json"
        code = cli_main(
            [
                "decompose",
                "--scenario",
                "affine_roundtrip",
                "--mapping",
                "affine",
                "--report",
                str(out),
            ]
        )
        assert code == 0
        loaded = json.loads(out.read_text())
        assert loaded["overall_pass"] is True
        ids = [entry["id"] for entry in loaded["results"]]
        assert ids == sorted(["prop2.3-additive", *idn.FAMILY_OF["thm2.7-reconstruct"].ids])
        # A's additivity on K, drawn on the seed base [seed, mapping index,
        # family index], as verify draws it
        scenario = harness.load_scenario(catalog.bundled_scenario_path("affine_roundtrip"))
        (_, f), pair = scenario.mappings[0], scenario.pair
        entries = {e.identity_id: e for _, e in harness.run_decompose(scenario, "affine").results}
        additive = idn.FAMILY_OF["prop2.3-additive"]
        (expected,) = run_family(
            additive, f, scenario.space_e, None, pair, None, 40, 1e-9, [7, 0, idn.FAMILIES.index(additive)]
        )
        assert entries["prop2.3-additive"].to_obj() == expected.to_obj()

    def test_nan_bump_radius_exit_two(self, tmp_path, capsys):
        obj = json.loads(open(catalog.bundled_scenario_path("perturb_negative")).read())
        bump = obj["mappings"][0]["map"]["children"][1]
        assert bump["kind"] == "perturb"
        bump["radius"] = "NaN"
        path = write_scenario(tmp_path, obj)
        assert cli_main(["verify", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bump radius must be positive")
        assert "internal" not in err and "Traceback" not in err

    def test_an_overflowing_map_fails_without_warnings(self, tmp_path, capsys):
        # f's linear part 1e308 overflows in the derived maps of lemma 2.1:
        # those entries read NaN and fail, and numpy warns of nothing
        obj = json.loads(open(catalog.bundled_scenario_path("perturb_negative")).read())
        linear = obj["mappings"][0]["map"]["children"][0]["children"][0]
        assert linear["kind"] == "linear"
        linear["coeffs"][0][0]["blocks"][0][0][0] = [1e308, 0.0]
        path, report = write_scenario(tmp_path, obj), tmp_path / "report.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main(["verify", "--scenario", str(path), "--report", str(report)])
        assert code == 1
        assert [str(w.message) for w in caught] == []
        assert "RuntimeWarning" not in capsys.readouterr().err
        results = json.loads(report.read_text())["results"]
        nan = [e for e in results if e["max_residual"] == "NaN"]
        assert nan and not any(e["pass"] for e in nan)

    @pytest.mark.parametrize(
        "name, where, value, message",
        [
            # psi's coefficient 1e308 overflows the pair's Grams; the cross
            # terms stay exactly zero, so the balance condition refuses it,
            # at the first basis pair whose residual is NaN
            (
                "quad_negative",
                ("pair", "psi", "coeffs", 0, 1, "blocks", 0, 0, 0),
                [1e308, 0.0],
                "balance condition fails at basis pair (0, 0) with residual nan",
            ),
            # an imaginary part of 1e308 overflows x - x^* of the
            # self-adjointness check that strict_order asks for
            (
                "interleave_p075",
                ("coefficient", "blocks", 0, 0, 0),
                [0.75, 1e308],
                "spectrum bounds need a self-adjoint element",
            ),
        ],
        ids=["quad_negative", "interleave_p075"],
    )
    def test_an_overflowing_input_is_refused_without_warnings(
        self, tmp_path, capsys, name, where, value, message
    ):
        obj = json.loads(open(catalog.bundled_scenario_path(name)).read())
        target = obj
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        path = write_scenario(tmp_path, obj)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main(["verify", "--scenario", str(path)])
        assert code == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [f"error: {message}"]
        assert "internal" not in err and "RuntimeWarning" not in err

    def test_solve_kernel_overflowing_coefficient_exit_two(self, tmp_path, capsys):
        # 1e200 squared overflows the conjugation b -> a b a^*; the solver
        # refuses it before any SVD, which would not converge on it
        obj = json.loads(open(catalog.bundled_scenario_path("kernel_probe")).read())
        obj["coefficient"]["blocks"][0][0][0] = [1e200, 0.0]
        path = write_scenario(tmp_path, obj)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main(["solve-kernel", "--scenario", str(path)])
        assert code == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("error: the coefficient's conjugation overflows")
        assert "internal" not in err and "Traceback" not in err

    def test_solve_kernel_above_the_entry_bound_exit_two(self, monkeypatch, capsys):
        # kernel_probe's 4 members hold 64 real entries
        monkeypatch.setattr(mp, "MAX_KERNEL_ENTRIES", 63)
        assert cli_main(["solve-kernel", "--scenario", "kernel_probe"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: the kernel has 4 members of 16 real entries each, 64 in all, above the bound of 63"
        ]

    def test_solve_kernel_above_the_column_system_bound_exit_two(self, monkeypatch, capsys):
        # kernel_probe's algebra is (1, 1): each column system holds 32 real
        # entries; none is built once the bound is below that
        def refuse(*args):
            raise AssertionError("a column system was built")

        monkeypatch.setattr(mp, "_column_system", refuse)
        monkeypatch.setattr(mp, "MAX_KERNEL_ENTRIES", 31)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main(["solve-kernel", "--scenario", "kernel_probe"])
        assert code == 2
        assert [str(w.message) for w in caught] == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: the column system of block pair (0, 0) has 32 real entries, above the bound of 31"
        ]

    @pytest.mark.parametrize("bad", [0, 1])
    def test_non_orthogonal_explicit_pair_exit_two(self, tmp_path, capsys, bad):
        obj = json.loads(open(catalog.bundled_scenario_path("affine_roundtrip")).read())
        dims, rank = obj["algebra"], obj["spaces"]["E"]

        def vector(value):
            element = {"shape": dims, "blocks": [[[[value, 0.0]]] for _ in dims]}
            return {"rank": rank, "coords": [element] * rank}

        x, zero = vector(1.0), vector(0.0)
        pairs = [[x, zero]] * bad + [[x, x]]
        obj["sampler"] = {"mode": "explicit", "pairs": pairs}
        path = write_scenario(tmp_path, obj)
        assert cli_main(["verify", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: sampler.pairs[{bad}] is not an orthogonal pair")
        # <x, x> = rank * 1 and ||x||^2 = rank, so the residual is rank / (1 + rank)
        assert f"orthogonality residual {rank / (1 + rank):.3e}, tolerance 1e-09\n" in err
        assert "internal" not in err and "Traceback" not in err

    def test_an_overflowing_explicit_pair_is_refused_without_warnings(self, tmp_path, capsys):
        # <x, x> and ||x||^2 overflow: the residual is NaN, and numpy warns
        # of nothing
        obj = json.loads(open(catalog.bundled_scenario_path("affine_roundtrip")).read())
        dims, rank = obj["algebra"], obj["spaces"]["E"]
        element = {"shape": dims, "blocks": [[[[1e200, 0.0]]] for _ in dims]}
        x = {"rank": rank, "coords": [element] * rank}
        obj["sampler"] = {"mode": "explicit", "pairs": [[x, x]]}
        path = write_scenario(tmp_path, obj)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main(["verify", "--scenario", str(path)])
        assert code == 2 and [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("error: sampler.pairs[0] is not an orthogonal pair: orthogonality residual nan")
        assert "internal" not in err and "RuntimeWarning" not in err

    @pytest.mark.parametrize(
        "name, field",
        [("perturb_negative", "E"), ("affine_roundtrip", "F"), ("affine_roundtrip", "G")],
    )
    def test_a_space_above_the_size_bound_exit_two(self, tmp_path, capsys, name, field):
        obj = json.loads(open(catalog.bundled_scenario_path(name)).read())
        dim = cj.AlgebraShape(obj["algebra"]).dim
        obj["spaces"][field] = alg.MAX_REAL_DIM // (2 * dim) + 1
        obj["samples"] = 1
        path = write_scenario(tmp_path, obj)
        assert cli_main(["verify", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith(f"error: spaces.{field}: ")
        assert "internal" not in err and "Traceback" not in err

    @pytest.mark.parametrize("source", ["example-l2", "scenario", "explicit"])
    def test_a_pair_builder_above_the_size_bound_exit_two(self, tmp_path, capsys, source):
        # E = C^4096 and C^2048 are within MAX_REAL_DIM, but phi and psi
        # would hold n^2 / 2 complex entries each, above MAX_PLACED_ENTRIES;
        # an explicit pair of constant maps on F = C^16384 is a small file
        # whose basis pair grid would hold 16384^2 entries per Gram
        if source == "example-l2":
            args = ["example-l2", "--p", "0.3", "--n", "4096"]
        else:
            obj = json.loads(open(catalog.bundled_scenario_path("interleave_p025")).read())
            assert obj["pair"]["builder"] == "interleave"
            obj["spaces"].update(F=1024, E=2048)
            if source == "explicit":
                obj["spaces"].update(F=16384, E=8)
                space_e = cj.ModuleSpace(SCALAR, 8)
                zero = {"kind": "constant", "value": space_e.zero().to_obj()}
                obj["pair"] = {"phi": zero, "psi": zero, "a": obj["coefficient"]}
            args = ["verify", "--scenario", str(write_scenario(tmp_path, obj))]
        start = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main(args)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "complex entries, above the bound of" in errors[0]
        assert ("basis pair grid of A^16384 -> A^8" in errors[0]) == (source == "explicit")
        assert "internal" not in err and "Traceback" not in err

    @pytest.mark.parametrize("scale", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_quad_scale_exit_two(self, tmp_path, capsys, scale):
        obj = json.loads(open(catalog.bundled_scenario_path("quad_negative")).read())
        quad = obj["mappings"][0]["map"]
        assert quad["kind"] == "quad_diag"
        quad["scale"] = scale
        path = write_scenario(tmp_path, obj)
        assert cli_main(["verify", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "internal" not in err and "Traceback" not in err

    def test_decompose_unknown_label_exit_two(self, tmp_path):
        code = cli_main(
            [
                "decompose",
                "--scenario",
                "affine_roundtrip",
                "--mapping",
                "nope",
                "--report",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == 2

    def test_verify_report_determinism(self, tmp_path):
        r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
        assert (
            cli_main(
                ["verify", "--scenario", "morphism_shift", "--report", str(r1)]
            )
            == 0
        )
        assert (
            cli_main(
                ["verify", "--scenario", "morphism_shift", "--report", str(r2)]
            )
            == 0
        )
        a = json.loads(r1.read_text())
        b = json.loads(r2.read_text())
        assert canonical_dumps(a["results"]) == canonical_dumps(b["results"])
        assert a["scenario_digest"] == b["scenario_digest"]

    def test_seed_override_changes_results(self, tmp_path):
        r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
        cli_main(
            ["verify", "--scenario", "morphism_shift", "--seed", "1", "--report", str(r1)]
        )
        cli_main(
            ["verify", "--scenario", "morphism_shift", "--seed", "2", "--report", str(r2)]
        )
        a = json.loads(r1.read_text())
        b = json.loads(r2.read_text())
        assert a["scenario_digest"] != b["scenario_digest"]

    def test_consecutive_calls_share_no_state(self, tmp_path, capsys):
        # the parser is built once per process; what one call parses must
        # not reach the next
        from cstar_jensen import cli

        assert cli._build_parser() is cli._build_parser()
        seeded, plain = tmp_path / "seeded.json", tmp_path / "plain.json"
        argv = ["verify", "--scenario", "morphism_shift", "--report"]
        assert cli_main([*argv, str(seeded), "--seed", "7"]) == 0
        assert cli_main([*argv, str(plain)]) == 0
        own = harness.load_scenario(catalog.bundled_scenario_path("morphism_shift"))
        assert own.seed == 13
        got, want = json.loads(plain.read_text()), harness.run_suite(own).to_obj()
        assert got["scenario_digest"] == own.digest
        assert got["scenario_digest"] != json.loads(seeded.read_text())["scenario_digest"]
        assert canonical_dumps(got["results"]) == canonical_dumps(want["results"])
        for _ in range(2):
            assert cli_main(["verify"]) == 2
            assert cli_main(["verify", "--scenario", "morphism_shift", "--seed", "x"]) == 2
        for argv in (["--help"], ["verify", "--help"], ["--help"]):
            assert cli_main(argv) == 0
        capsys.readouterr()

    def test_solve_kernel_prints_rank_margin(self, capsys):
        assert cli_main(["solve-kernel", "--scenario", "kernel_probe"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "kernel dimension: 4"
        assert lines[1].startswith("singular values: smallest kept ")
        assert "largest dropped " in lines[1] and "threshold " in lines[1]

    def test_program_bug_is_an_error_not_a_failed_check(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise TypeError("broken check")

        monkeypatch.setattr(idn, "run_families", broken)
        assert cli_main(["verify", "--scenario", "affine_roundtrip"]) == 2
        err = capsys.readouterr().err
        assert "error: internal TypeError: broken check" in err

    def test_solve_kernel_nan_member_fails(self, monkeypatch, capsys):
        solve = mp.solve_abiadditive_kernel

        def poisoned(a, target):
            good = solve(a, target)
            bad = mp.KernelMap(target, np.full(good.basis[0].matrix.shape, np.nan))
            return dataclasses.replace(good, basis=good.basis[:1] + (bad,) + good.basis[2:])

        monkeypatch.setattr(mp, "solve_abiadditive_kernel", poisoned)
        assert cli_main(["solve-kernel", "--scenario", "kernel_probe"]) == 1
        assert "re-verification FAIL (worst nan" in capsys.readouterr().out


def reported(tmp_path, argv, name):
    """The exit code of a CLI run and the results array of its report."""
    out = tmp_path / name
    code = cli_main([*argv, "--report", str(out)])
    return code, json.loads(out.read_text())["results"]


def verify_entries(tmp_path, obj, label):
    """verify's exit code and its entries for label and the decompose ids,
    at the scenario's own seed."""
    path = write_scenario(tmp_path, {**obj, "checks": list(harness.DECOMPOSE_CHECKS)}, "verify.json")
    code, results = reported(tmp_path, ["verify", "--scenario", str(path)], "verify-report.json")
    return code, [entry for entry in results if entry["label"] == label]


def bundled_obj(name):
    return json.loads(Path(catalog.bundled_scenario_path(name)).read_text())


PAIRED = [name for name in catalog.SCENARIO_NAMES if bundled_obj(name).get("pair") is not None]


class TestDecomposeIsVerify:
    """decompose prints the entries verify gives the mapping, byte for byte."""

    @pytest.mark.parametrize("name", PAIRED)
    def test_bundled_decompose_is_verify(self, tmp_path, name):
        obj = bundled_obj(name)
        for entry in obj["mappings"]:
            label = entry["label"]
            argv = ["decompose", "--scenario", name, "--mapping", label]
            code, results = reported(tmp_path, argv, "decompose.json")
            want_code, want = verify_entries(tmp_path, obj, label)
            assert canonical_dumps(results) == canonical_dumps(want)
            assert code == want_code

    def test_second_mapping_keeps_its_index(self, tmp_path):
        # the same map under two labels: only the mapping index tells their
        # draws apart
        obj = bundled_obj("affine_roundtrip")
        (mapping,) = obj["mappings"]
        obj["mappings"] = [{**mapping, "label": "first"}, {**mapping, "label": "second"}]
        path = write_scenario(tmp_path, obj)
        argv = ["decompose", "--scenario", str(path), "--mapping"]
        code, second = reported(tmp_path, [*argv, "second"], "second.json")
        _, first = reported(tmp_path, [*argv, "first"], "first.json")
        _, want = verify_entries(tmp_path, obj, "second")
        assert code == 0 and canonical_dumps(second) == canonical_dumps(want)
        assert [e["worst_input"] for e in first] != [e["worst_input"] for e in second]

    def test_pairless_scenario_fails_its_entries(self, tmp_path):
        obj = bundled_obj("perturb_negative")
        assert obj["pair"] is None
        (label,) = (entry["label"] for entry in obj["mappings"])
        argv = ["decompose", "--scenario", "perturb_negative", "--mapping", label]
        code, results = reported(tmp_path, argv, "decompose.json")
        assert code == 1 and len(results) == 7
        assert canonical_dumps(results) == canonical_dumps(verify_entries(tmp_path, obj, label)[1])
        assert all(e["worst_input"] == {"error": "this check needs a scenario pair"} for e in results)


def test_cli_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cj.__file__)))
    code = (
        "import sys, cstar_jensen.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_versions_agree():
    # a seed draws other samples under another version, so reports of two
    # sample streams never carry the same version
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        (project,) = re.findall(r'^version = "([^"]+)"$', fh.read(), re.M)
    assert harness.TOOL_VERSION == cj.__version__ == project
