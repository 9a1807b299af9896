"""The isometry rule is applied once to each image, and ``require_isometric`` must be a JSON boolean."""

import json

import pytest

from lplab.cli import bundled_scenario_path, main
from lplab.cocycle import Cocycle
from lplab.lamperti import as_isometry
from lplab.scenario import parse_scenario
from lplab.tasks import execute

from conftest import count_calls


def _bundled(name):
    return json.loads(bundled_scenario_path(name).read_text())


@pytest.mark.parametrize("name", ["superrigid-diagonal-s3", "superrigid-overlap-d3"])
def test_superrigid_run_checks_each_subgroup_image_once(name):
    # the induced and the split's factor representations are isometric by construction; the pullback
    # reads the element tables instead of walking words
    raw = _bundled(name)
    counts = count_calls([as_isometry, Cocycle.walk, Cocycle.value], lambda: execute(parse_scenario(raw)))
    assert counts == {"as_isometry": len(raw["task"]["subgroup_generators"]), "Cocycle.walk": 0, "Cocycle.value": 0}


def test_split_task_checks_no_image_again():
    scenario = parse_scenario(_bundled("grid-z2xz2-split"))
    reports = []
    counts = count_calls([as_isometry], lambda: reports.append(execute(scenario)))
    assert counts == {"as_isometry": 0}
    assert reports[0].status == "pass"


def _run(tmp_path, capsys, raw):
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(raw))
    code = main(["run", str(path)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, captured


@pytest.mark.parametrize("value", ["abc", 1, 0, None, [], {}, 2.5])
def test_non_boolean_require_isometric_is_refused(tmp_path, capsys, value):
    raw = _bundled("swap-decompose")
    raw["representation"]["require_isometric"] = value
    code, captured = _run(tmp_path, capsys, raw)
    assert code == 2 and captured.out == ""
    assert "$.representation.require_isometric" in captured.err


@pytest.mark.parametrize("value", [True, False])
def test_boolean_require_isometric_is_read(tmp_path, capsys, value):
    raw = _bundled("swap-decompose")
    raw["representation"]["require_isometric"] = value
    code, captured = _run(tmp_path, capsys, raw)
    assert code == 0 and json.loads(captured.out)["status"] == "pass"
