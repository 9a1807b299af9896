"""One status rule: results carry their checks, the rule turns them into a status."""

import functools
import json

import numpy as np
import pytest

from conftest import table_matrices
from lplab import Refusal, TableGroup, fisher_margulis_iterate, symmetric_group_3
from lplab.cli import bundled_scenario_path, bundled_scenarios, main
from lplab.reports import check, status_of
from lplab.scenario import load_scenario, parse_scenario
from lplab.tasks import execute, refused, sweep

BUNDLED = sorted(name[: -len(".json")] for name in bundled_scenarios())
FM_MAX_ITER_2 = "swap-cocycle-fm@max_iter=2"


def _raw(name):
    return json.loads(bundled_scenario_path(name).read_text())


def _fm_max_iter_2():
    raw = _raw("swap-cocycle-fm")
    raw["task"]["max_iter"] = 2
    return raw


@functools.cache
def _report(name):
    if name == FM_MAX_ITER_2:
        scenario = parse_scenario(_fm_max_iter_2())
    else:
        scenario = load_scenario(bundled_scenario_path(name))
    try:
        return execute(scenario)
    except Refusal as exc:
        return refused(scenario, exc)


def _hypothesis_failed(payload) -> bool:
    """What a payload says about its task's hypotheses, read without the status."""
    if payload.get("outcome") in ("unbounded", "non-contracting"):
        return True
    if "contracting" in payload:  # mautner: no contraction, or no g-fixed point to test h at
        return not payload["contracting"] or np.isnan(payload["h_displacement"])
    if "worst_a_complement_norm" in payload:  # displacement: H has no complement
        return payload["gap"] == np.inf
    return False


class TestRule:
    def test_check_kinds(self):
        assert check("a", 1.0, 1.0)["ok"] and not check("a", 1.0, 1.0, "gt")["ok"]
        assert check("a", 2.0, 1.0, "ge")["ok"] and check("a", 1, 1, "eq")["ok"]
        assert not check("a", np.nan, np.nan)["ok"]

    def test_rule(self):
        ok, bad = check("ok", 0.0, 1.0), check("bad", 2.0, 1.0)
        assert status_of([]) == "pass"
        assert status_of([ok, ok]) == "pass"
        assert status_of([ok, bad]) == "fail"
        assert status_of([ok, bad], applicable=False) == "not-applicable"
        assert status_of([], applicable=False) == "not-applicable"


@pytest.mark.parametrize("name", [*BUNDLED, FM_MAX_ITER_2])
class TestBundledReports:
    def test_pass_exactly_when_every_check_holds(self, name):
        report = _report(name)
        if report.status in ("refused", "not-applicable"):
            return
        every = all(c["ok"] for c in report.payload["checks"])
        assert (report.status == "pass") == every
        assert (report.status == "fail") == (not every)

    def test_not_applicable_only_on_failed_hypothesis(self, name):
        report = _report(name)
        if report.status == "refused":
            return
        assert (report.status == "not-applicable") == _hypothesis_failed(report.payload)


class TestFisherMargulisMaxIter:
    def test_report_fails_on_its_displacement_check(self, tmp_path, capsys):
        path = tmp_path / "fm-max-iter.json"
        path.write_text(json.dumps(_fm_max_iter_2()))
        assert main(["run", str(path)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "fail" and doc["payload"]["outcome"] == "max-iter"
        last = doc["payload"]["checks"][-1]
        assert last["name"] == "displacement" and last["ok"] is False
        assert all(c["ok"] for c in doc["payload"]["checks"][:-1])

    def test_library_status_from_checks(self):
        scenario = parse_scenario(_fm_max_iter_2())
        res = fisher_margulis_iterate(scenario.cocycle, k_words=["s"], x0=[0.0, 0.0],
                                      c_mult=0.4, max_iter=2, tol=1e-6)
        assert res.status == "max-iter" and res.applicable
        assert [c["name"] for c in res.checks] == ["halving_step_0", "halving_step_1", "displacement"]
        assert res.checks[-1]["value"] == res.displacement


class TestSuperrigidChecks:
    @pytest.mark.parametrize("name", ["superrigid-diagonal-s3", "superrigid-overlap-d3"])
    def test_split_checks_recorded(self, name):
        checks = {c["name"]: c for c in _report(name).payload["checks"]}
        assert checks["split_support_residual"]["bound"] == 1e-8
        assert checks["split_factor_relator_residual"]["bound"] == 10 * 1e-8
        assert list(checks) == [
            "split_reconstruction_residual",
            "split_support_residual",
            "split_factor_relator_residual",
            "pullback_reconstruction_residual",
        ]

    def test_induce_records_transfer_inequalities(self):
        names = [c["name"] for c in _report("induce-sign-z4").payload["checks"]]
        assert "transfer_passes" not in names
        assert names[3:] == [
            "classification_agrees",
            "block_constancy",
            "block_value_displacement",
            "constant_section_displacement",
        ]


class TestRefusedProvenance:
    def test_seed_flag(self, capsys):
        assert main(["run", "grid-split-refused", "--seed", "5"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "refused"
        assert doc["provenance"]["seed"] == 5

    def test_env_seed_and_tol(self, monkeypatch, capsys):
        monkeypatch.setenv("LPLAB_SEED", "7")
        assert main(["run", "grid-split-refused", "--tol", "0.001"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["provenance"]["seed"] == 7
        assert doc["provenance"]["tolerances"]["solver"] == 0.001

    def test_sweep_cell_matches_run(self):
        scenario = load_scenario(bundled_scenario_path("cyclic3-gap"))
        (_, cell, _), = sweep(scenario, [1.0], seed=4, tol=1e-3)
        assert cell.status == "refused" and cell.scenario == "cyclic3-gap@p=1"
        assert cell.seed == 4 and cell.tolerances["solver"] == 1e-3


class TestSubgroupTable:
    def test_matches_pairwise_products(self):
        group = symmetric_group_3()
        elems = group.subgroup_closure([group.generators["c"]])
        sub, index_of = group.subgroup(elems, {"c": group.generators["c"]})
        assert sub.order == 3 and index_of == {g: i for i, g in enumerate(elems)}
        for a in elems:
            for b in elems:
                assert sub.mult(index_of[a], index_of[b]) == index_of[group.mult(a, b)]
        assert sub.generators == {"c": index_of[group.generators["c"]]}

    def test_generator_outside_subgroup(self):
        group = symmetric_group_3()
        elems = group.subgroup_closure([group.generators["c"]])
        with pytest.raises(ValueError, match="not in the subgroup"):
            group.subgroup(elems, {"t": group.generators["t"]})


def test_tree_orbit_points_equal_word_points():
    # fixed_point_circumcenter takes table-group orbits from the cached tree
    scenarios = [load_scenario(bundled_scenario_path(name)) for name in BUNDLED]
    scenarios = [s for s in scenarios if isinstance(s.group, TableGroup) and s.cocycle is not None]
    assert scenarios
    rng = np.random.default_rng(5)
    for scenario in scenarios:
        action = scenario.cocycle
        mats, vals = table_matrices(action.rep), scenario.cocycle.element_values()
        for _ in range(5):
            x0 = rng.standard_normal(scenario.space.dim)
            for g, word in sorted(scenario.group.element_words().items()):
                assert np.array_equal(mats[g] @ x0 + vals[g], action.apply(word, x0))
