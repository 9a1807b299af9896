"""The gap search's polish: never worse than the long subgradient descent, and the same gap for isometric twins.

``kazhdan_gap``'s search runs a 60-step lockstep seeding and then polishes
the best restart with BFGS.  The reference here is the per-restart
subgradient descent ``sequential_gap`` run for 400 iterations, with the
same starts and step rule as the seeding; it equals the lockstep descent
that was the whole search before the polish.  On every input below, the
search's upper bound is at most that reference's, up to 1e-12 relative,
and it is the ratio evaluated at the returned witness.
"""

import json
import math

import numpy as np
import pytest

from lplab import cocycle, gap, induction, kazhdan_gap
from lplab.cli import bundled_scenario_path, main
from lplab.groups import k_words_of
from lplab.representation import canonical_complement
from lplab.scenario import parse_scenario

from test_batched_solvers import GAP_EXPONENTS, _gap_scenarios, lockstep_gap, search_gap, sequential_gap
from test_structured_lamperti import _scale_raws

# rounding may lift the polished ratio above the 400-iteration one by this much, relative
_NEVER_WORSE = 1e-12


def _ratio_at(rep, words, witness):
    """max_k ||rho(k) x - x|| / ||x|| at the witness x, from the dense operators."""
    space = rep.space
    return max(space.norm(rep.operator(k) @ witness - witness) for k in words) / space.norm(witness)


def _assert_never_worse(rep, k_words, basis, restarts, seed):
    words = k_words_of(rep.group, k_words)
    ops, *_, start = gap._setup(rep, words, np.ascontiguousarray(basis))
    est = gap._descent(rep.space, ops, start, restarts, seed)
    reference = sequential_gap(rep, k_words, restarts, iters=400, seed=seed, basis=basis)[0]
    assert est.upper <= reference * (1.0 + _NEVER_WORSE)
    assert _ratio_at(rep, words, est.witness) == pytest.approx(est.upper, rel=1e-12)
    assert 0.0 <= est.heuristic_lower == max(0.0, est.upper - 1e-6) <= est.upper


@pytest.fixture(scope="module")
def scale_gaps(tmp_path_factory):
    """The benchmark's ``scale`` gap scenarios for seeds 1 and 2, by (seed, name)."""
    out = {}
    for seed in (1, 2):
        for raw in _scale_raws(seed, tmp_path_factory.mktemp(f"scale{seed}")):
            if raw["task"]["command"] == "gap":
                out[seed, raw["name"]] = parse_scenario(raw)
    return out


@pytest.mark.parametrize("p", GAP_EXPONENTS)
@pytest.mark.parametrize("name", _gap_scenarios())
def test_search_is_never_worse_than_the_long_lockstep_on_bundled_gaps(name, p):
    scenario = parse_scenario(json.loads(bundled_scenario_path(name).read_text())).with_exponent(p)
    rep, task = scenario.representation, scenario.task
    _assert_never_worse(rep, task["k"], canonical_complement(rep).complement_basis, task["restarts"], scenario.seed)


def test_search_is_never_worse_than_the_long_lockstep_on_scale_gaps(scale_gaps):
    assert len(scale_gaps) == 6
    for scenario in scale_gaps.values():
        rep, task = scenario.representation, scenario.task
        _assert_never_worse(rep, task["k"], canonical_complement(rep).complement_basis, task["restarts"],
                            scenario.seed)


@pytest.mark.parametrize("name", ["superrigid-diagonal-s3", "commuting-pair-displacement"])
def test_search_is_never_worse_than_the_long_lockstep_inside_other_tasks(name, monkeypatch, capsys):
    # the gap calls that split_action and displacement_bound_check make, at the scenario's p and the swept ones
    calls = []

    def recording(rep, **kwargs):
        calls.append((rep, kwargs))
        return kazhdan_gap(rep, **kwargs)

    monkeypatch.setattr(induction, "kazhdan_gap", recording)
    monkeypatch.setattr(cocycle, "kazhdan_gap", recording)
    assert main(["run", name]) == 0
    assert main(["sweep", name, "--p", "1.5,3,4"]) == 0
    capsys.readouterr()
    assert len(calls) == 4
    for rep, kwargs in calls:
        _assert_never_worse(rep, kwargs["k_words"], kwargs["basis"], kwargs["restarts"], kwargs["seed"])


@pytest.mark.parametrize("name", ["cyclic24-gap", "dihedral12-gap"])
def test_isometric_scale_twins_have_the_same_gap(scale_gaps, name):
    # seeds 1 and 2 write the same action in other coordinates: weights and signs that an isometry absorbs
    ests = []
    for seed in (1, 2):
        scenario = scale_gaps[seed, name]
        ests.append(kazhdan_gap(scenario.representation, k_words=scenario.task["k"],
                                restarts=scenario.task["restarts"], seed=scenario.seed))
    assert math.isclose(ests[0].upper, ests[1].upper, rel_tol=1e-9, abs_tol=0.0)


@pytest.mark.parametrize("iters", [60, 400])
def test_search_starts_from_the_lockstep_seeding(iters, monkeypatch):
    # the polish takes the seeding's best restart and keeps it unless its own point has a lower ratio
    scenario = parse_scenario(json.loads(bundled_scenario_path("grid-z2xz2-gap").read_text())).with_exponent(1.5)
    rep, task = scenario.representation, scenario.task
    monkeypatch.setattr(gap, "_SEED_ITERS", iters)
    seeded = lockstep_gap(rep, k_words=task["k"], restarts=task["restarts"], seed=scenario.seed)
    est = search_gap(rep, k_words=task["k"], restarts=task["restarts"], seed=scenario.seed)
    assert est.upper < seeded.upper
    monkeypatch.setattr(gap, "_polish", lambda space, ops, c, val: c)
    unpolished = search_gap(rep, k_words=task["k"], restarts=task["restarts"], seed=scenario.seed)
    assert unpolished.upper == seeded.upper
    assert np.array_equal(unpolished.witness, seeded.witness)
