"""The cocycle is the one affine action: each word is walked once, each orbit ball grows once.

Also: closed presented orbits count as bounded, the displacement check's A-word ball is capped, task word
lists are refused at their field paths, and hopeless shrink rounds of the modulus sampler are skipped.
"""

import json

import numpy as np
import pytest

import lplab
from lplab import (
    Cocycle,
    LampertiIsometry,
    LpSpace,
    PresentedGroup,
    Representation,
    convexity_modulus,
    cyclic_group,
    displacement_bound_check,
    fisher_margulis_iterate,
    fixed_point_circumcenter,
    product_group,
)
from lplab.cli import bundled_scenario_path, main
from lplab.cocycle import MAX_A_WORDS, _a_word_count, _diameter
from lplab.geometry import _shrink_fits
from lplab.scenario import parse_scenario
from lplab.tasks import execute

from conftest import count_calls


def _scenario(name):
    return parse_scenario(json.loads(bundled_scenario_path(name).read_text()))


def test_affine_action_is_the_cocycle():
    assert "AffineAction" not in lplab.__all__
    assert not hasattr(lplab.cocycle, "AffineAction")


def test_orbit_closed_before_radius_three_is_bounded():
    # Z on R^1 by t -> -1, c(t) = 1: the orbit of 0 is {0, 1}, closed after one radius step
    space = LpSpace(1, 2.0)
    rep = Representation(PresentedGroup(["t"], [], k_set=["t"]), space, {"t": -np.eye(1)})
    res = fixed_point_circumcenter(Cocycle(rep, {"t": [1.0]}), [0.0])
    assert res.status == "fixed"
    assert res.orbit_size == 2 and res.orbit_diameter == 1.0
    assert res.point[0] == pytest.approx(0.5, abs=1e-12) and res.displacement <= 1e-12


def test_closed_presented_orbit_agrees_with_its_table_group():
    # Z, and Z/3, on l_3^3 by the 3-cycle perm [2, 0, 1] with c(t) = (1, -1, 0)
    space = LpSpace(3, 3.0)
    image = LampertiIsometry([2, 0, 1], np.ones(3), space, space)
    results = []
    for group in (PresentedGroup(["t"], [], k_set=["t"]), cyclic_group(3, "t")):
        coc = Cocycle(Representation(group, space, {"t": image}), {"t": [1.0, -1.0, 0.0]})
        results.append(fixed_point_circumcenter(coc, [0.0, 0.0, 0.0]))
    presented, table = results
    assert presented.status == table.status == "fixed"
    assert presented.orbit_size == table.orbit_size == 3
    assert presented.orbit_diameter == table.orbit_diameter
    assert np.max(np.abs(presented.point - table.point)) <= 1e-9


def test_translation_fixpoint_grows_one_ball_radius_by_radius():
    scenario = _scenario("translation-fixpoint")
    reports = []
    # one diameter update per radius step: 12 steps, where one ball per radius 1..12 took 78
    counts = count_calls([_diameter], lambda: reports.append(execute(scenario)))
    assert counts == {"_diameter": 12}
    assert reports[0].payload["outcome"] == "unbounded" and reports[0].payload["orbit_size"] == 25


def test_fisher_margulis_walks_each_k_word_once():
    coc = _scenario("swap-cocycle-fm").cocycle
    k_words = ["s", "sS", "ss"]
    results = []
    counts = count_calls([Cocycle.walk], lambda: results.append(
        fisher_margulis_iterate(coc, k_words=k_words, x0=[0.0, 0.0], c_mult=0.4, max_iter=40, seed=0)))
    assert results[0].status == "fixed" and len(results[0].trace) > 2
    assert counts == {"Cocycle.walk": len(k_words)}


def test_mautner_walks_h_once():
    scenario = _scenario("mautner-matrix")
    reports = []
    counts = count_calls([Cocycle.walk, Representation.operator], lambda: reports.append(execute(scenario)))
    assert reports[0].status == "pass"
    assert counts == {"Cocycle.walk": 2, "Representation.operator": 0}  # g and h, once each


def test_displacement_extends_a_words_along_their_tree():
    scenario = _scenario("commuting-pair-displacement")
    reports = []
    counts = count_calls([Cocycle.walk], lambda: reports.append(execute(scenario)))
    payload = reports[0].payload
    assert reports[0].status == "pass" and payload["checked_words"] == 127
    assert counts == {"Cocycle.walk": 1}  # the K_H seminorm over k_h = ["h"] only
    # the same maximum as walking every word from scratch
    coc = scenario.cocycle
    words = [""]
    for _ in range(6):
        words += [w + letter for w in words if len(w) == len(words[-1]) for letter in "aA"]
    assert len(words) == 127
    assert payload["worst_a_norm"] == max(coc.space.norm(coc.value(w)) for w in words)


def test_a_word_ball_is_capped_before_any_word_is_formed():
    assert _a_word_count(1, 6) == 127
    assert _a_word_count(1, 15) == 2**16 - 1 <= MAX_A_WORDS
    assert _a_word_count(0, 10**9) == 1
    with pytest.raises(ValueError, match="MAX_A_WORDS"):
        _a_word_count(1, 16)
    space = LpSpace(4, 2.5)
    info = product_group(cyclic_group(2, "a"), cyclic_group(2, "h"))
    images = {"a": LampertiIsometry([2, 3, 0, 1], np.ones(4), space, space),
              "h": LampertiIsometry([1, 0, 3, 2], np.ones(4), space, space)}
    coc = Cocycle(Representation(info, space, images),
                  {"a": [0.2, -0.3, -0.2, 0.3], "h": [1.0, -1.0, 0.5, -0.5]})

    def refuse():
        with pytest.raises(ValueError, match="MAX_A_WORDS"):
            displacement_bound_check(coc, ["a"], ["h"], a_radius=40)

    assert count_calls([lplab.gap.kazhdan_gap], refuse) == {"kazhdan_gap": 0}


@pytest.mark.parametrize(
    "name, field, value",
    [
        pytest.param("swap-gap", "k", ["q"], id="gap-k"),
        pytest.param("translation-fm", "k", ["tq"], id="fisher-margulis-k"),
        pytest.param("commuting-pair-displacement", "k_h", ["x"], id="displacement-k_h"),
        pytest.param("commuting-pair-displacement", "factor_a", ["q"], id="displacement-factor_a"),
        pytest.param("commuting-pair-displacement", "factor_h", ["H"], id="displacement-factor_h"),
        pytest.param("commuting-pair-displacement", "radius", 17, id="displacement-radius"),
        pytest.param("mautner-matrix", "g", "q", id="mautner-g"),
        pytest.param("mautner-matrix", "h", "hq", id="mautner-h"),
        pytest.param("grid-z2xz2-split", "factor1", ["q"], id="split-factor1"),
        pytest.param("grid-z2xz2-split", "factor2", ["ab"], id="split-factor2"),
    ],
)
def test_bad_task_word_refused_at_its_field(tmp_path, capsys, name, field, value):
    raw = json.loads(bundled_scenario_path(name).read_text())
    raw["task"][field] = value
    path = tmp_path / f"{name}-variant.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"$.task.{field}:" in captured.err


def test_hopeless_shrink_rounds_evaluate_no_candidate():
    # at eps = 2 every stalled round has ||d|| = 1 + 1e-12 > 1, where no shrink factor can fit
    results = []
    counts = count_calls([_shrink_fits], lambda: results.append(convexity_modulus(LpSpace(3, 3.0), 2.0, budget=40, seed=0)))
    assert counts == {"_shrink_fits": 0}
    assert results[0].delta >= 1.0 - 1e-8
