"""Each derived object is built once, and bad induction, space and budget inputs exit 2 with a field path."""

import json

import numpy as np
import pytest

from lplab import (
    Cocycle,
    CosetStructure,
    LpSpace,
    Representation,
    coboundary_of,
    cyclic_group,
    fixed_point_transfer,
    induce_cocycle,
    induce_rep,
    klee_search,
    schoenberg_violation_search,
)
from lplab.cli import bundled_scenario_path, main
from lplab.scenario import parse_scenario
from lplab.tasks import execute

from conftest import count_calls


def _bundled(name):
    return json.loads(bundled_scenario_path(name).read_text())


def test_induce_builds_the_induction_once():
    scenario = parse_scenario(_bundled("induce-sign-z4"))
    counts = count_calls([induce_rep, induce_cocycle, Representation.__init__], lambda: execute(scenario))
    # the subgroup representation and the induced one
    assert counts == {"induce_rep": 1, "induce_cocycle": 1, "Representation.__init__": 2}


@pytest.mark.parametrize("name", ["superrigid-diagonal-s3", "superrigid-overlap-d3"])
def test_superrigid_builds_one_coset_structure(name):
    scenario = parse_scenario(_bundled(name))
    counts = count_calls([CosetStructure.__init__, induce_rep, induce_cocycle], lambda: execute(scenario))
    assert counts == {"CosetStructure.__init__": 1, "induce_rep": 1, "induce_cocycle": 1}


def test_transfer_refuses_a_cocycle_induced_elsewhere():
    group = cyclic_group(4)
    cs = CosetStructure(group, [0, 2], {"s": 2})
    rep = Representation(cs.subgroup, LpSpace(1, 3.0), {"s": -np.eye(1)})
    coc = coboundary_of(rep, [2.5])
    with pytest.raises(ValueError, match="coset structure"):
        fixed_point_transfer(cs, coc, coc)


def _run(tmp_path, capsys, raw, *flags):
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(raw))
    code = main(["run", str(path), *flags])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, captured


def _task_variant(name, **task):
    raw = _bundled(name)
    raw["task"].update(task)
    return raw


def _space_variant(name, **space):
    raw = _bundled(name)
    raw["space"].update(space)
    return raw


def _without_n_configs():
    raw = _bundled("schoenberg-p15")
    del raw["task"]["n_configs"]
    return raw


@pytest.mark.parametrize(
    "raw, flags, field",
    [
        pytest.param(_task_variant("induce-sign-z4", subgroup=[0, 1]), (), "$.task.subgroup",
                     id="induce-subgroup-not-closed"),
        pytest.param(_task_variant("superrigid-diagonal-s3", subgroup=[0, 14]), (), "$.task.subgroup",
                     id="superrigid-subgroup-not-closed"),
        pytest.param(_task_variant("induce-sign-z4", subgroup=[0, 2, 99]), (), "$.task.subgroup",
                     id="induce-subgroup-out-of-range"),
        pytest.param(_task_variant("induce-sign-z4", subgroup_generators={"s": 1}), (),
                     "$.task.subgroup_generators", id="induce-generator-outside"),
        pytest.param(_task_variant("superrigid-diagonal-s3", subgroup_generators={"t": 1, "c": 14}), (),
                     "$.task.subgroup_generators", id="superrigid-generator-outside"),
        pytest.param(_task_variant("induce-sign-z4", subgroup_generators={"s": 2.5}), (),
                     "$.task.subgroup_generators", id="induce-generator-fraction"),
        pytest.param(_task_variant("induce-sign-z4", subgroup_generators={"s": "x"}), (),
                     "$.task.subgroup_generators", id="induce-generator-text"),
        pytest.param(_task_variant("superrigid-diagonal-s3", subgroup_generators={"t": 7.5, "c": 14}), (),
                     "$.task.subgroup_generators", id="superrigid-generator-fraction"),
        pytest.param(_space_variant("swap-gap", p=None), (), "$.space.p", id="p-null"),
        pytest.param(_space_variant("swap-gap", p="abc"), (), "$.space.p", id="p-text"),
        pytest.param(_space_variant("swap-gap", weights=[1.0, "a"]), (), "$.space.weights", id="weights-text"),
        pytest.param(_without_n_configs(), ("--budget", "0"), "--budget", id="n-configs-from-budget"),
        pytest.param(_task_variant("schoenberg-p15", n_points=1), (), "$.task.n_points", id="n-points-one"),
        pytest.param(_task_variant("schoenberg-p3-search", trials=0), (), "$.task.trials", id="schoenberg-trials"),
        pytest.param(_task_variant("klee-p4", trials=0), (), "$.task.trials", id="klee-trials"),
    ],
)
def test_bad_input_refused_with_field_path(tmp_path, capsys, raw, flags, field):
    code, captured = _run(tmp_path, capsys, raw, *flags)
    assert code == 2
    assert captured.out == ""
    assert field in captured.err


def test_klee_result_carries_its_certificate():
    space = LpSpace(3, 4.0)
    res = klee_search(space, trials=60, seed=0, margin=1e-3)
    assert res.found
    assert res.checks == ({"name": "certified_hull_distance", "value": res.hull_distance, "bound": 1e-3,
                           "kind": "gt", "ok": True},)
    assert klee_search(space, trials=3, seed=0, margin=10.0).checks == ()


def test_schoenberg_search_carries_its_violation_check():
    found = schoenberg_violation_search(3.0, trials=2000, seed=0, threshold=-1e-3)
    assert found["checks"] == [{"name": "violation_eigenvalue", "value": found["lambda_min"], "bound": -1e-3,
                                "kind": "le", "ok": True}]


def test_letter_tables_give_each_inverse_letter():
    group = cyclic_group(3)
    space = LpSpace(3, 2.5)
    shift = np.roll(np.eye(3), 1, axis=0)
    rep = Representation(group, space, {"a": shift})
    coc = Cocycle(rep, {"a": [1.0, -1.0, 0.0]})
    assert list(rep.letters) == ["a", "A"]
    assert np.array_equal(rep.operator("A"), np.linalg.inv(shift))
    assert np.array_equal(coc.letter_values["A"], -np.linalg.inv(shift) @ coc.values["a"])
    mat, val = coc.walk("aaA")
    assert np.array_equal(mat, rep.operator("aaA"))
    assert np.array_equal(val, coc.value("aaA"))
