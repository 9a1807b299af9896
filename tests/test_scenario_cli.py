import json

import numpy as np
import pytest

from lplab.cli import _parser, bundled_scenario_path, bundled_scenarios, main
from lplab.reports import format_float
from lplab.scenario import ScenarioError, load_scenario, parse_scenario
from lplab.tasks import execute, sweep

EXPECTED_STATUS = {
    "swap-decompose": "pass",
    "swap-gap": "pass",
    "swap-cocycle-cobound": "pass",
    "swap-cocycle-fm": "pass",
    "swap-cocycle-fixpoint": "pass",
    "translation-fm": "not-applicable",
    "translation-fixpoint": "not-applicable",
    "cyclic3-gap": "pass",
    "cyclic5-gap": "pass",
    "dihedral4-gap": "pass",
    "grid-z2xz2-gap": "pass",
    "grid-z2xz2-split": "pass",
    "commuting-pair-displacement": "pass",
    "mautner-matrix": "pass",
    "induce-sign-z4": "pass",
    "superrigid-diagonal-s3": "pass",
    "superrigid-overlap-d3": "pass",
    "mazur-z4": "pass",
    "modulus-p2": "pass",
    "schoenberg-p15": "pass",
    "schoenberg-p3-search": "pass",
    "klee-p4": "pass",
}


def run_bundled(name, **kw):
    return execute(load_scenario(bundled_scenario_path(name)), **kw)


class TestSchema:
    def test_zero_weight_refused_with_field_path(self):
        raw = {
            "name": "bad",
            "space": {"dim": 2, "p": 2.0, "weights": [1.0, 0.0]},
            "group": {"kind": "presentation", "generators": ["a"], "relators": []},
            "task": {"command": "gap"},
        }
        with pytest.raises(ScenarioError) as err:
            parse_scenario(raw)
        assert "$.space.weights" in str(err.value)

    def test_unknown_command(self):
        raw = {
            "name": "bad",
            "space": {"dim": 1, "p": 2.0},
            "group": {"kind": "presentation", "generators": ["a"], "relators": []},
            "task": {"command": "frobnicate"},
        }
        with pytest.raises(ScenarioError, match="task.command"):
            parse_scenario(raw)

    def test_missing_field(self):
        with pytest.raises(ScenarioError, match="missing"):
            parse_scenario({"name": "x", "space": {"dim": 1, "p": 2.0}})

    def test_invalid_representation_reported(self):
        raw = {
            "name": "bad",
            "space": {"dim": 2, "p": 2.0},
            "group": {"kind": "table", "table": [[0, 1], [1, 0]], "identity": 0, "generators": {"s": 1}},
            "representation": {"images": {"s": {"kind": "matrix", "entries": [[2.0, 0.0], [0.0, 0.5]]}}},
            "task": {"command": "decompose"},
        }
        with pytest.raises(ScenarioError, match="representation"):
            parse_scenario(raw)


class TestBundledScenarios:
    def test_corpus_is_listed(self):
        names = bundled_scenarios()
        assert len(names) >= 20
        for key in EXPECTED_STATUS:
            assert f"{key}.json" in names

    @pytest.mark.parametrize("name", sorted(EXPECTED_STATUS))
    def test_scenario_status(self, name):
        report = run_bundled(name)
        assert report.status == EXPECTED_STATUS[name]

    def test_minimal_decompose_dims(self):
        report = run_bundled("swap-decompose")
        assert report.payload["fixed_dim"] == 1
        assert report.payload["complement_dim"] == 1

    def test_split_residual_field(self):
        report = run_bundled("grid-z2xz2-split")
        assert report.payload["reconstruction_residual"] <= 1e-8

    def test_overlap_scenario_dims(self):
        report = run_bundled("superrigid-overlap-d3")
        assert report.payload["overlap_dim"] == 1

    def test_refused_split_exit_code(self):
        assert main(["run", "grid-split-refused"]) == 2

    def test_split_with_non_commuting_factors_is_refused(self, tmp_path, capsys):
        raw = json.loads(bundled_scenario_path("superrigid-diagonal-s3").read_text())
        raw["group"] = raw["group"]["factor1"]  # S3 itself: its t and c do not commute
        raw["task"] = {"command": "split", "factor1": ["t"], "factor2": ["c"]}
        path = tmp_path / "s3-split.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["status"] == "refused"
        assert doc["payload"]["error"] == "generator families do not commute: ['t', 'c']"
        assert captured.err == ""


class TestDeterminism:
    @pytest.mark.parametrize("name", ["cyclic3-gap", "grid-z2xz2-split", "swap-cocycle-fm", "modulus-p2"])
    def test_byte_identical_reports(self, name):
        a = run_bundled(name, seed=7).to_json()
        b = run_bundled(name, seed=7).to_json()
        assert a == b

    def test_seed_recorded_in_provenance(self):
        report = run_bundled("cyclic3-gap", seed=11)
        doc = json.loads(report.to_json())
        assert doc["provenance"]["seed"] == 11

    def test_float_formatting_17_digits(self):
        assert format_float(1.0 / 3.0) == format(1.0 / 3.0, ".17g")
        assert format_float(float("inf")) == '"inf"'
        assert json.loads("[" + format_float(np.pi) + "]")[0] == np.pi


class TestSweep:
    def test_gap_sweep_transfer(self):
        scenario = load_scenario(bundled_scenario_path("cyclic3-gap"))
        cells = sweep(scenario, [1.5, 2.0, 3.0, 4.0])
        assert len(cells) == 4
        for p, report, _ in cells:
            assert report.status == "pass"
            assert report.payload["gap_upper"] > 0.01

    def test_inadmissible_cell_recorded_not_raised(self):
        scenario = load_scenario(bundled_scenario_path("cyclic3-gap"))
        cells = sweep(scenario, [1.0, 2.0])
        statuses = [report.status for _, report, _ in cells]
        assert statuses == ["refused", "pass"]

    def test_empty_p_list(self):
        scenario = load_scenario(bundled_scenario_path("cyclic3-gap"))
        assert sweep(scenario, []) == []


class TestCli:
    def test_run_writes_files(self, tmp_path, capsys):
        code = main(["run", "swap-decompose", "--out", str(tmp_path), "--format", "both"])
        assert code == 0
        capsys.readouterr()
        assert (tmp_path / "swap-decompose.decompose.json").exists()
        csv_text = (tmp_path / "swap-decompose.decompose.csv").read_text()
        assert csv_text.splitlines()[0] == "scenario,task,status,key,value"

    def test_sweep_csv_columns(self, tmp_path, capsys):
        code = main(["run", "cyclic3-gap"])
        capsys.readouterr()
        assert code == 0
        code = main(["sweep", "cyclic3-gap", "--p", "1.5,2", "--out", str(tmp_path), "--format", "csv"])
        capsys.readouterr()
        assert code == 0
        lines = (tmp_path / "cyclic3-gap.sweep.csv").read_text().splitlines()
        assert lines[0] == "p,status,gap_upper,witness_norm,runtime_s"
        assert len(lines) == 3

    def test_missing_scenario_is_invalid_input(self, capsys):
        assert main(["run", "no-such-scenario"]) == 2
        capsys.readouterr()

    def test_env_seed_override(self, monkeypatch, capsys):
        monkeypatch.setenv("LPLAB_SEED", "33")
        main(["run", "cyclic3-gap"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["provenance"]["seed"] == 33

    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "swap-decompose.json" in out

    def test_one_parser_serves_independent_calls(self, capsys):
        # the parser is built once per process; no flag of one call reaches the next
        assert _parser() is _parser()
        assert main(["run", "cyclic3-gap"]) == 0
        plain = capsys.readouterr().out
        assert main(["run", "cyclic3-gap", "--seed", "7", "--tol", "1e-3", "--format", "csv"]) == 0
        flagged = capsys.readouterr().out
        assert flagged.splitlines()[0] == "scenario,task,status,key,value"
        assert main(["sweep", "cyclic3-gap", "--p", "1.5,3", "--seed", "9"]) == 0
        cells = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [doc["provenance"]["seed"] for doc in cells] == [9, 9]
        assert main(["run", "cyclic3-gap"]) == 0
        assert capsys.readouterr().out == plain
        assert json.loads(plain)["provenance"]["seed"] == 0

    def test_bad_flag_exits_through_argparse(self, capsys):
        for argv in (["run", "cyclic3-gap", "--no-such-flag"], ["sweep", "cyclic3-gap"], ["nonsense"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert capsys.readouterr().err.startswith("usage: lplab")
        assert main(["run", "cyclic3-gap"]) == 0
        capsys.readouterr()


class TestSchoenbergSweep:
    def test_mode_switches_with_exponent(self):
        # without an explicit mode the task checks positivity for p <= 2 and
        # hunts for a violation beyond
        raw = {
            "name": "schoenberg-sweep",
            "space": {"dim": 3, "p": 2.0},
            "group": {"kind": "presentation", "generators": ["e"], "relators": ["e"]},
            "task": {"command": "schoenberg", "n_configs": 60, "trials": 1500},
        }
        scenario = parse_scenario(raw)
        cells = sweep(scenario, [1.0, 1.5, 2.0, 3.0])
        for p, report, _ in cells:
            assert report.status == "pass"
        found = [report.payload.get("found") for _, report, _ in cells]
        assert found[:3] == [None, None, None]
        assert found[3] in (True, False)  # none-found must not fail the sweep


class TestChecksInvariant:
    @pytest.mark.parametrize("name", sorted(EXPECTED_STATUS))
    def test_pass_reports_carry_inequality_records(self, name):
        report = run_bundled(name)
        assert "checks" in report.payload
        for check in report.payload["checks"]:
            assert {"name", "value", "bound", "kind", "ok"} <= set(check)
        if report.status == "pass" and report.payload["checks"]:
            assert all(c["ok"] for c in report.payload["checks"])


class TestMalformedFile:
    def test_invalid_json_file_is_refused(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["run", str(bad)]) == 2
        capsys.readouterr()

    def test_zero_weight_file_refused_with_path(self, tmp_path, capsys):
        bad = tmp_path / "weights.json"
        bad.write_text(json.dumps({
            "name": "bad-weights",
            "space": {"dim": 2, "p": 2.0, "weights": [1.0, 0.0]},
            "group": {"kind": "presentation", "generators": ["a"], "relators": []},
            "task": {"command": "gap"},
        }))
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "$.space.weights" in err


def _write_bundled_variant(tmp_path, name, edit):
    raw = json.loads(bundled_scenario_path(name).read_text())
    edit(raw)
    path = tmp_path / f"{name}-variant.json"
    path.write_text(json.dumps(raw))
    return str(path)


class TestStatusFromChecks:
    TRANSLATION_COBOUND = {
        "name": "translation-cobound",
        "space": {"dim": 1, "p": 2.0},
        "group": {"kind": "presentation", "generators": ["t"], "relators": [], "k": ["t"]},
        "representation": {"images": {"t": {"kind": "matrix", "entries": [[1.0]]}}},
        "cocycle": {"values": {"t": [1.0]}},
        "task": {"command": "cobound"},
    }

    def test_non_coboundary_fails(self, tmp_path, capsys):
        path = tmp_path / "translation-cobound.json"
        path.write_text(json.dumps(self.TRANSLATION_COBOUND))
        assert main(["run", str(path)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "fail"
        assert doc["payload"]["is_coboundary"] is False
        assert [c["ok"] for c in doc["payload"]["checks"]] == [False]

    def test_coboundary_passes(self, capsys):
        assert main(["run", "swap-cocycle-cobound"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "pass"
        assert doc["payload"]["is_coboundary"] is True


class TestNonFiniteInput:
    def test_nan_cocycle_refused_with_path(self, tmp_path, capsys):
        def edit(raw):
            raw["cocycle"]["values"]["s"] = [float("nan"), float("nan")]

        path = _write_bundled_variant(tmp_path, "swap-cocycle-fm", edit)
        assert "NaN" in open(path).read()
        assert main(["run", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "$.cocycle.values.s" in captured.err
        assert "Traceback" not in captured.err

    def test_infinite_matrix_entry_refused_with_path(self, tmp_path, capsys):
        def edit(raw):
            raw["representation"]["images"]["h"]["entries"][0][1] = float("inf")

        assert main(["run", _write_bundled_variant(tmp_path, "mautner-matrix", edit)]) == 2
        captured = capsys.readouterr()
        assert "$.representation.images.h" in captured.err
        assert "Traceback" not in captured.err


class TestNonObjectFields:
    """A number where the schema wants an object is refused at its path (exit 2), not a traceback."""

    @pytest.mark.parametrize(("name", "keys", "path"), [
        ("swap-gap", ("task",), "$.task"),
        ("swap-gap", ("space",), "$.space"),
        ("swap-gap", ("group",), "$.group"),
        ("grid-z2xz2-split", ("group", "factor1"), "$.group.factor1"),
        ("grid-z2xz2-split", ("group", "factor1", "generators"), "$.group.factor1.generators"),
        ("swap-gap", ("representation",), "$.representation"),
        ("swap-gap", ("representation", "images"), "$.representation.images"),
        ("swap-gap", ("representation", "images", "s"), "$.representation.images.s"),
        ("swap-cocycle-cobound", ("cocycle",), "$.cocycle"),
    ])
    def test_number_refused_at_its_path(self, tmp_path, capsys, name, keys, path):
        def edit(raw):
            node = raw
            for key in keys[:-1]:
                node = node[key]
            node[keys[-1]] = 5

        assert main(["run", _write_bundled_variant(tmp_path, name, edit)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"invalid input: {path}:" in captured.err

    @pytest.mark.parametrize("value", ["abc", ["a", "b"], None])
    def test_product_k_is_refused(self, tmp_path, capsys, value):
        def edit(raw):
            raw["group"]["k"] = value

        assert main(["run", _write_bundled_variant(tmp_path, "grid-z2xz2-split", edit)]) == 2
        captured = capsys.readouterr()
        assert "invalid input: $.group.k:" in captured.err and "task.k" in captured.err

    @pytest.mark.parametrize(("factor", "words"), [("factor1", ["aaaa", "a"]), ("factor2", ["b"])])
    def test_factor_k_is_refused(self, tmp_path, capsys, factor, words):
        def edit(raw):
            raw["group"][factor]["k"] = words

        assert main(["run", _write_bundled_variant(tmp_path, "grid-z2xz2-gap", edit)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"invalid input: $.group.{factor}.k:" in captured.err
        assert "a product's K is its generators; give other words as task.k" in captured.err


class TestGroupShapes:
    """Group tables, identities, generator indices and presentation lists are refused at their paths."""

    @pytest.mark.parametrize(("name", "keys", "value", "message"), [
        ("swap-gap", ("group", "generators", "s"), None, "expected an integer, got None"),
        ("swap-gap", ("group", "generators", "s"), True, "expected an integer, got True"),
        ("swap-gap", ("group", "identity"), None, "expected an integer, got None"),
        ("swap-gap", ("group", "identity"), 2, "must be between 0 and 1, got 2"),
        ("swap-gap", ("group", "table"), 5, "expected a square list of integer lists"),
        ("swap-gap", ("group", "table"), [[0, 1], [1]], "expected a square list of integer lists"),
        ("swap-gap", ("group", "table"), [[0, 1], [1, 0.5]], "expected an integer, got 0.5"),
        ("swap-gap", ("group", "table"), [[0, 1], [1, 2]], "must be between 0 and 1, got 2"),
        ("cyclic3-gap", ("group", "generators", "a"), None, "expected a list of integers, got None"),
        ("cyclic3-gap", ("group", "generators"), {}, "expected at least one generator"),
        ("klee-p4", ("group", "generators"), 5, "expected a list of words, got 5"),
        ("klee-p4", ("group", "generators"), "e", "expected a list of words, got 'e'"),
        ("klee-p4", ("group", "relators"), 5, "expected a list of words, got 5"),
        ("grid-z2xz2-gap", ("group", "factor1", "identity"), None, "expected an integer, got None"),
    ])
    def test_refused_at_its_path(self, tmp_path, capsys, name, keys, value, message):
        def edit(raw):
            node = raw
            for key in keys[:-1]:
                node = node[key]
            node[keys[-1]] = value

        assert main(["run", _write_bundled_variant(tmp_path, name, edit)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"invalid input: $.{'.'.join(keys)}: {message}" in captured.err

    def test_integral_float_entries_still_count(self, tmp_path, capsys):
        def edit(raw):
            raw["group"]["table"] = [[0.0, 1.0], [1.0, 0.0]]
            raw["group"]["identity"] = 0.0

        assert main(["run", _write_bundled_variant(tmp_path, "swap-gap", edit)]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "pass"
