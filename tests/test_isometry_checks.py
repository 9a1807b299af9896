"""Each image is sampled for isometry once, and ``require_isometric`` must be a JSON boolean."""

import json

import pytest

from lplab.cli import bundled_scenario_path, main
from lplab.representation import Representation
from lplab.scenario import parse_scenario
from lplab.tasks import execute

from conftest import count_calls


def _bundled(name):
    return json.loads(bundled_scenario_path(name).read_text())


@pytest.mark.parametrize("name", ["superrigid-diagonal-s3", "superrigid-overlap-d3"])
def test_superrigid_run_samples_each_representation_once(name):
    # the subgroup representation and its induction; the split's factor representations reuse their images
    raw = _bundled(name)
    counts = count_calls([Representation._check_isometric], lambda: execute(parse_scenario(raw)))
    assert counts == {"Representation._check_isometric": 2}


def test_split_task_samples_no_image_again():
    scenario = parse_scenario(_bundled("grid-z2xz2-split"))
    reports = []
    counts = count_calls([Representation._check_isometric], lambda: reports.append(execute(scenario)))
    assert counts == {"Representation._check_isometric": 0}
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
