"""Scenario loading, campaign determinism, report emission and the CLI."""
import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import cstar_jensen as cj
from cstar_jensen import catalog, harness
from cstar_jensen import identities as idn
from cstar_jensen import mappings as mp
from cstar_jensen.cli import cli_main
from cstar_jensen.errors import ParseError, ValidationError
from cstar_jensen.jsonutil import canonical_dumps

SCALAR = cj.AlgebraShape((1,))


def minimal_obj():
    one = cj.unit(SCALAR)
    linear = {
        "kind": "linear",
        "coeffs": [[cj.scale(one, 2.0).to_obj()], [one.to_obj()]],
    }
    return {
        "algebra": [1],
        "coefficient": {**cj.scale(one, 0.5).to_obj(), "strict_order": True},
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
        with pytest.raises(cj.NearSingular):
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
        with pytest.raises(cj.IoError):
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

    def test_registry_covers_every_id_once_in_order(self):
        ids = [check_id for spec in harness.CHECK_SPECS for check_id in spec.ids]
        assert ids == list(cj.CHECK_IDS)

    def test_decompose_runs_once_per_mapping(self, monkeypatch):
        calls = []
        decompose = idn.decompose

        def counted(f, *args, **kwargs):
            calls.append(f)
            return decompose(f, *args, **kwargs)

        monkeypatch.setattr(idn, "decompose", counted)
        scenario = harness.load_scenario(
            catalog.bundled_scenario_path("affine_roundtrip")
        )
        assert harness.run_suite(scenario).overall_pass
        mappings = [f for _, f in scenario.mappings]
        assert calls and all(calls.count(f) <= 1 for f in mappings)

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
        with pytest.raises(cj.IoError):
            harness.emit_report(report, tmp_path / "missing" / "report.json")


class TestBundledScenarios:
    def test_catalog_files_match_builders(self, tmp_path):
        regenerated = catalog.write_all(tmp_path)
        for path in regenerated:
            name = path.split("/")[-1]
            bundled = catalog.bundled_scenario_path(name)
            with open(bundled, "rb") as fh:
                want = fh.read()
            with open(path, "rb") as fh:
                got = fh.read()
            assert got == want, name

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
        assert "pass" in capsys.readouterr().out

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
        assert "thm2.7-reconstruct" in ids

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

    def test_solve_kernel_prints_rank_margin(self, capsys):
        assert cli_main(["solve-kernel", "--scenario", "kernel_probe"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "kernel dimension: 4"
        assert lines[1].startswith("singular values: smallest kept ")
        assert "largest dropped " in lines[1] and "threshold " in lines[1]

    def test_program_bug_is_an_error_not_a_failed_check(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise TypeError("broken check")

        monkeypatch.setattr(idn, "check_orthogonal_jensen", broken)
        assert cli_main(["verify", "--scenario", "affine_roundtrip"]) == 2
        err = capsys.readouterr().err
        assert "error: internal TypeError: broken check" in err

    def test_solve_kernel_nan_member_fails(self, monkeypatch, capsys):
        solve = mp.solve_abiadditive_kernel

        def poisoned(a, target):
            good = solve(a, target)
            bad = mp.KernelMap(
                good.basis[0].shape, target, np.full(good.basis[0].matrix.shape, np.nan)
            )
            return dataclasses.replace(good, basis=good.basis[:1] + (bad,) + good.basis[2:])

        monkeypatch.setattr(mp, "solve_abiadditive_kernel", poisoned)
        assert cli_main(["solve-kernel", "--scenario", "kernel_probe"]) == 1
        assert "re-verification FAIL (worst nan" in capsys.readouterr().out


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
