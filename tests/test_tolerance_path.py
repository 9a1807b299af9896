"""One tolerance path, one refusal path, one seed path: each input is resolved and checked in one place."""

import json

import pytest

from lplab.cli import bundled_scenario_path, main


def _bundled(name):
    return json.loads(bundled_scenario_path(name).read_text())


def _variant(name, top=None, **task):
    raw = _bundled(name)
    raw["task"].update(task)
    raw.update(top or {})
    return raw


def _run(tmp_path, capsys, raw, *flags):
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(raw))
    code = main(["run", str(path), *flags])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, captured


def _report(capsys, *argv):
    code = main(["run", *argv])
    return code, json.loads(capsys.readouterr().out)


def _bounds(doc, name):
    return [c["bound"] for c in doc["payload"]["checks"] if c["name"] == name]


# (scenario, check whose bound is the tolerance times factor, factor)
TOLERANCE_CHECKS = [
    ("swap-cocycle-fixpoint", "displacement", 1.0),
    ("swap-cocycle-fm", "displacement", 1.0),
    ("mautner-matrix", "h_displacement", 1.0),
    ("commuting-pair-displacement", "exchange_identity_residual", 1.0),
    ("swap-cocycle-cobound", "residual_classifies_coboundary", 1.0),
    ("induce-sign-z4", "block_constancy", 10.0),
    ("grid-z2xz2-split", "reconstruction_residual", 1.0),
    ("superrigid-diagonal-s3", "split_reconstruction_residual", 1.0),
]


@pytest.mark.parametrize("name, check_name, factor", TOLERANCE_CHECKS, ids=[t[0] for t in TOLERANCE_CHECKS])
def test_tol_flag_reaches_every_command(capsys, name, check_name, factor):
    _, doc = _report(capsys, name, "--tol", "0.00025")
    assert _bounds(doc, check_name) == [factor * 0.00025]
    assert doc["provenance"]["tolerances"] == {"solver": 0.00025}


def test_tiny_tol_flag_fails_the_cobound():
    assert main(["run", "swap-cocycle-cobound", "--tol", "1e-30"]) == 1


def test_flag_beats_task_tol_beats_default(tmp_path, capsys):
    raw = _variant("swap-cocycle-cobound", tol=1e-4)
    default = _report(capsys, "swap-cocycle-cobound")[1]
    assert _bounds(default, "residual_classifies_coboundary") == [1e-8]
    code, captured = _run(tmp_path, capsys, raw)
    assert code == 0 and _bounds(json.loads(captured.out), "residual_classifies_coboundary") == [1e-4]
    code, captured = _run(tmp_path, capsys, raw, "--tol", "0.001")
    doc = json.loads(captured.out)
    assert _bounds(doc, "residual_classifies_coboundary") == [1e-3]
    assert doc["provenance"]["tolerances"] == {"solver": 1e-3}


def test_provenance_records_the_resolved_tolerance(capsys):
    assert _report(capsys, "swap-gap")[1]["provenance"]["tolerances"] == {}
    assert _report(capsys, "swap-cocycle-fixpoint")[1]["provenance"]["tolerances"] == {"solver": 1e-6}
    code, doc = _report(capsys, "grid-split-refused")
    assert code == 2 and doc["status"] == "refused"
    assert doc["provenance"]["tolerances"] == {"solver": 1e-8}


@pytest.mark.parametrize(
    "raw, flags, env, field",
    [
        pytest.param(_variant("swap-cocycle-cobound", tol=None), (), None, "$.task.tol", id="task-tol-null"),
        pytest.param(_variant("swap-cocycle-cobound", tol=-1.0), (), None, "$.task.tol", id="task-tol-negative"),
        pytest.param(_bundled("swap-cocycle-fixpoint"), ("--tol", "nan"), None, "--tol", id="tol-flag-nan"),
        pytest.param(_bundled("swap-cocycle-fixpoint"), ("--tol", "0"), None, "--tol", id="tol-flag-zero"),
        pytest.param(_variant("swap-gap", top={"tolerances": 5}), (), None, "$.tolerances", id="tolerances-number"),
        pytest.param(_variant("swap-cocycle-fixpoint", top={"tolerances": {"solver": "abc"}}), (), None,
                     "$.tolerances", id="tolerances-text"),
        pytest.param(_variant("swap-gap", top={"seed": 1.5}), (), None, "$.seed", id="seed-fraction"),
        pytest.param(_variant("swap-gap", top={"seed": "abc"}), (), None, "$.seed", id="seed-text"),
        pytest.param(_bundled("swap-gap"), ("--seed", "-1"), None, "--seed", id="seed-flag-negative"),
        pytest.param(_bundled("swap-gap"), (), "abc", "LPLAB_SEED", id="seed-env-text"),
        pytest.param(_bundled("swap-gap"), (), "-3", "LPLAB_SEED", id="seed-env-negative"),
        pytest.param(_variant("commuting-pair-displacement", radius=-1), (), None, "$.task.radius",
                     id="radius-negative"),
        pytest.param(_variant("mautner-matrix", n_max=2.5), (), None, "$.task.n_max", id="n-max-fraction"),
        pytest.param(_variant("grid-z2xz2-split", gap_threshold="abc"), (), None, "$.task.gap_threshold",
                     id="split-gap-threshold-text"),
        pytest.param(_variant("superrigid-diagonal-s3", gap_threshold=0), (), None, "$.task.gap_threshold",
                     id="superrigid-gap-threshold-zero"),
        pytest.param(_variant("mazur-z4", n_samples=0), (), None, "$.task.n_samples", id="n-samples-zero"),
        pytest.param(_variant("schoenberg-p15", s=[1.0, -2.0]), (), None, "$.task.s", id="s-negative"),
        pytest.param(_variant("schoenberg-p15", s=["abc"]), (), None, "$.task.s", id="s-text"),
        pytest.param(_variant("schoenberg-p15", s=[]), (), None, "$.task.s", id="s-empty"),
        pytest.param(_variant("schoenberg-p15", n_points=10**7), (), None, "$.task.n_points", id="n-points-huge"),
        pytest.param(_bundled("modulus-p2"), ("--budget", "0"), None, "--budget", id="budget-flag-zero"),
        pytest.param(_bundled("swap-decompose"), ("--budget", "-5"), None, "--budget", id="budget-flag-negative"),
    ],
)
def test_bad_input_exits_2_naming_it(tmp_path, capsys, monkeypatch, raw, flags, env, field):
    if env is None:
        monkeypatch.delenv("LPLAB_SEED", raising=False)
    else:
        monkeypatch.setenv("LPLAB_SEED", env)
    code, captured = _run(tmp_path, capsys, raw, *flags)
    assert code == 2
    assert captured.out == ""
    assert field in captured.err


def test_tolerances_refusal_points_to_task_tol(tmp_path, capsys):
    _, captured = _run(tmp_path, capsys, _variant("swap-gap", top={"tolerances": {"solver": 1e-6}}))
    assert "task.tol" in captured.err


@pytest.mark.parametrize("name", ["grid-z2xz2-split", "klee-p4", "commuting-pair-displacement",
                                  "superrigid-diagonal-s3"])
def test_run_at_p1_is_refused(tmp_path, capsys, name):
    raw = _bundled(name)
    raw["space"]["p"] = 1.0
    code, captured = _run(tmp_path, capsys, raw)
    doc = json.loads(captured.out)
    assert code == 2 and doc["status"] == "refused"
    assert "p > 1" in doc["payload"]["error"]


def test_bad_budget_refuses_a_sweep_once(capsys):
    assert main(["sweep", "modulus-p2", "--p", "1.5,3", "--budget", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.count("--budget") == 1
