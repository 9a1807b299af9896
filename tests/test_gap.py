import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lplab
from lplab import (
    LampertiIsometry,
    LpSpace,
    Representation,
    cyclic_group,
    kazhdan_gap,
    zero_mean_rep,
)
from lplab.cli import bundled_scenario_path, bundled_scenarios, main
from lplab.scenario import parse_scenario

from test_structured_lamperti import _scale_raws


def shift_rep(n, p):
    space = LpSpace(n, p)
    group = cyclic_group(n)
    image = LampertiIsometry(np.argsort(np.roll(np.arange(n), -1)), np.ones(n), space, space)
    return Representation(group, space, {"a": image})


def test_swap_gap_is_two():
    est = kazhdan_gap(shift_rep(2, 2.0), seed=0)
    assert est.upper == pytest.approx(2.0, abs=1e-12)
    assert est.complement_dim == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cyclic_shift_matches_eigenvalue_oracle(n):
    # the complement of constants decomposes into rotation planes with
    # angles 2 pi k / n; the slowest plane gives gap 2 sin(pi / n)
    est = kazhdan_gap(shift_rep(n, 2.0), seed=0)
    assert est.upper == pytest.approx(2.0 * np.sin(np.pi / n), abs=1e-4)


def test_trivial_rep_gives_infinite_sentinel():
    space = LpSpace(3, 2)
    rep = Representation(cyclic_group(2, "s"), space, {"s": np.eye(3)})
    est = kazhdan_gap(rep, seed=0)
    assert est.infinite
    assert est.witness is None and est.complement_dim == 0


def test_upper_bound_is_achieved_by_witness():
    for p in (1.5, 3.0):
        rep = shift_rep(4, p)
        est = kazhdan_gap(rep, seed=1)
        v = est.witness
        assert rep.space.norm(v) == pytest.approx(1.0, abs=1e-10)
        value = max(rep.space.norm(rep.apply(w, v) - v) for w in rep.group.k_set)
        assert value == pytest.approx(est.upper, abs=1e-12)
        assert est.heuristic_lower <= est.upper


def test_deterministic_for_fixed_seed():
    rep = shift_rep(5, 3.0)
    a = kazhdan_gap(rep, seed=42)
    b = kazhdan_gap(rep, seed=42)
    assert a.upper == b.upper
    assert np.array_equal(a.witness, b.witness)


def test_empty_k_rejected():
    with pytest.raises(ValueError, match="nonempty"):
        kazhdan_gap(shift_rep(3, 2.0), k_words=[])


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_gap_positive_across_p_for_zero_mean_families(p):
    # permutation representations keep a uniform gap across exponents
    rep, _ = zero_mean_rep({"a": np.roll(np.arange(6), -1)}, np.ones(6), p)
    est = kazhdan_gap(rep, seed=0)
    assert est.upper > 0.01


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats is imported only by the low-dimensional Sobol sweep
    src = str(Path(lplab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, lplab.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_gap_descent_emits_no_warnings(tmp_path, capsys):
    # rows that stop or skip an iteration are dropped or masked, never divided by zero
    raws = [json.loads(bundled_scenario_path(name).read_text()) for name in bundled_scenarios()]
    raws = [raw for raw in raws if raw["task"]["command"] == "gap"]
    assert len(raws) == 5
    for seed in (1, 2):
        raws += [raw for raw in _scale_raws(seed, tmp_path) if raw["task"]["command"] == "gap"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for raw in raws:
            scenario = parse_scenario(raw)
            for restarts in (scenario.task["restarts"], 64):
                kazhdan_gap(scenario.representation, k_words=scenario.task["k"], restarts=restarts,
                            seed=scenario.seed)
        for raw in raws:
            path = tmp_path / f"{raw['name']}.json"
            path.write_text(json.dumps(raw))
            assert main(["run", str(path)]) == 0
            assert capsys.readouterr().err == ""
