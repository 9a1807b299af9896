"""Bad solver parameters are refused with their field path (exit 2), never a traceback."""

import json
import warnings

import numpy as np
import pytest

import lplab.gap
import lplab.tasks
from lplab import LampertiIsometry, LpSpace, Representation, cyclic_group
from lplab.cli import bundled_scenario_path, main
from lplab.scenario import parse_scenario
from lplab.tasks import execute


def _run_variant(tmp_path, capsys, name, **task):
    raw = json.loads(bundled_scenario_path(name).read_text())
    raw["task"].update(task)
    path = tmp_path / f"{name}-variant.json"
    path.write_text(json.dumps(raw))
    code = main(["run", str(path)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, captured


@pytest.mark.parametrize(
    "name, task, field",
    [
        pytest.param("swap-gap", {"restarts": "abc"}, "$.task.restarts", id="restarts-text"),
        pytest.param("swap-gap", {"restarts": 10**9}, "$.task.restarts", id="restarts-huge"),
        pytest.param("modulus-p2", {"budget": 0}, "$.task.budget", id="budget-zero"),
        pytest.param("modulus-p2", {"budget": 2.5}, "$.task.budget", id="budget-fraction"),
        pytest.param("modulus-p2", {"eps_grid": [0.5, float("nan"), 1.5]}, "$.task.eps_grid", id="eps-nan"),
        pytest.param("swap-cocycle-fm", {"max_iter": 2.5}, "$.task.max_iter", id="max-iter-fraction"),
        pytest.param("swap-cocycle-fm", {"c": -1}, "$.task.c", id="c-negative"),
        pytest.param("swap-cocycle-fm", {"x0": [0.0, 0.0, 0.0]}, "$.task.x0", id="x0-length"),
    ],
)
def test_bad_solver_parameter_refused_with_field_path(tmp_path, capsys, name, task, field):
    code, captured = _run_variant(tmp_path, capsys, name, **task)
    assert code == 2
    assert captured.out == ""
    assert field in captured.err


def test_integral_float_parameter_is_accepted(tmp_path, capsys):
    code, captured = _run_variant(tmp_path, capsys, "swap-cocycle-fm", max_iter=40.0)
    assert code == 0
    assert json.loads(captured.out)["status"] == "pass"


def test_budget_derived_restarts_are_bounded(monkeypatch):
    seen = []

    def record(rep, k_words=None, restarts=64, seed=0):
        seen.append(restarts)
        return lplab.gap.GapEstimate(np.inf, np.inf, None, 0)

    monkeypatch.setattr(lplab.tasks, "kazhdan_gap", record)
    scenario = parse_scenario(json.loads(bundled_scenario_path("swap-gap").read_text()))
    execute(scenario, budget=10**9)
    execute(scenario, budget=100)
    assert seen == [lplab.gap.MAX_RESTARTS, 4]


def test_fractional_fisher_margulis_sweep_has_no_nan_constraint(capsys):
    # the epigraph constraint t**p is evaluated at t < 0 by SLSQP on these cells
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "swap-cocycle-fm", "--p", "1.25,1.5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_zero_edge_deviations_take_no_svd(monkeypatch):
    space = LpSpace(8, 3.0)
    shift = LampertiIsometry(np.roll(np.arange(8), 1), np.ones(8), space, space)
    calls = []
    norm = np.linalg.norm

    def counting(x, ord=None, *args, **kwargs):
        if ord == 2:
            calls.append(x.shape)
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting)
    rep = Representation(cyclic_group(8), space, {"a": shift})
    assert rep.relation_residual == 0.0
    assert calls == []
