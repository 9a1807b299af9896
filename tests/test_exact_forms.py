"""Exact answers that skip the searches: the gap's exact witnesses and the closed-form convexity modulus.

``kazhdan_gap`` returns an exact witness in complement dimension 1 and at
p = 2 for one or two words, and only when its evaluated ratio is within
1e-12 of sqrt(lambda*), the p = 2 lower bound; otherwise it falls back to
its descent.  ``convexity_modulus`` returns Clarkson's pair for p >= 2 in
dim >= 2 and an antipodal pair at eps = 2.  The oracles here are SciPy's
generalized ``eigh`` and bounded scalar maximizer, the sine formula for the
cyclic shift, and the closed forms themselves.
"""

import json
import math

import numpy as np
import pytest
from scipy import linalg, optimize

from lplab import LpSpace, convexity_modulus, gap, geometry, kazhdan_gap
from lplab.cli import bundled_scenario_path
from lplab.groups import k_words_of
from lplab.representation import canonical_complement
from lplab.scenario import parse_scenario

from test_batched_solvers import _gap_scenarios, search_gap
from test_numpy_linalg import _rotated_eigh
from test_structured_lamperti import _scale_raws


def _bundled(name, p=2.0):
    return parse_scenario(json.loads(bundled_scenario_path(name).read_text())).with_exponent(p)


def _weighted_dihedral(n, seed):
    """D_n on n points with seeded weights, as the benchmark's ``scale`` dihedral scenarios build it."""
    rot, refl = [(i + 1) % n for i in range(n)], [(-i) % n for i in range(n)]
    return parse_scenario({
        "name": f"dihedral{n}-gap", "seed": 0,
        "space": {"dim": n, "p": 2.0, "weights": np.random.default_rng([n, seed]).uniform(0.5, 2.0, n).tolist()},
        "group": {"kind": "permutations", "generators": {"r": rot, "s": refl}},
        "representation": {"images": {"r": {"kind": "permutation_action", "map": rot},
                                      "s": {"kind": "permutation_action", "map": refl}}},
        "task": {"command": "gap", "k": ["r", "s"]},
    })


def _weighted_s3(seed):
    """S_3 on 3 points by two transpositions, seeded weights: complement dimension 2, two words."""
    a, b = [1, 0, 2], [0, 2, 1]
    return parse_scenario({
        "name": "s3-gap", "seed": 0,
        "space": {"dim": 3, "p": 2.0, "weights": np.random.default_rng(seed).uniform(0.5, 2.0, 3).tolist()},
        "group": {"kind": "permutations", "generators": {"a": a, "b": b}},
        "representation": {"images": {"a": {"kind": "permutation_action", "map": a},
                                      "b": {"kind": "permutation_action", "map": b}}},
        "task": {"command": "gap", "k": ["a", "b"]},
    })


def _forms(scenario):
    """Q_k = A_k^T W A_k for each word, and G = B^T W B, from the dense operators."""
    rep = scenario.representation
    basis = canonical_complement(rep).complement_basis
    w = rep.space.weights
    eye = np.eye(rep.space.dim)
    disp = [(rep.operator(word) - eye) @ basis for word in k_words_of(rep.group, scenario.task["k"])]
    return [a.T @ (w[:, None] * a) for a in disp], basis.T @ (w[:, None] * basis)


def _estimate(scenario):
    """``kazhdan_gap`` as the ``gap`` task calls it, and whether it returned an exact witness."""
    exact = []
    real = gap._exact

    def spy(*args):
        exact.append(real(*args))
        return exact[-1]

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(gap, "_exact", spy)
        est = kazhdan_gap(scenario.representation, k_words=scenario.task["k"], restarts=scenario.task["restarts"],
                          seed=scenario.seed)
    return est, len(exact) == 1 and exact[0] is not None


def _achieved(scenario, est):
    rep = scenario.representation
    return max(rep.space.norm(rep.apply(k, est.witness) - est.witness)
               for k in k_words_of(rep.group, scenario.task["k"]))


@pytest.fixture(scope="module")
def scale_gaps(tmp_path_factory):
    """The benchmark's ``scale`` gap scenarios for seeds 1 to 3, at p = 2, by (seed, name)."""
    out = {}
    for seed in (1, 2, 3):
        for raw in _scale_raws(seed, tmp_path_factory.mktemp(f"scale{seed}")):
            if raw["task"]["command"] == "gap":
                out[seed, raw["name"]] = parse_scenario(raw).with_exponent(2.0)
    return out


# -- the gap ---------------------------------------------------------------------------------------------------


def test_one_word_gap_is_the_rayleigh_bound(scale_gaps):
    scenarios = [_bundled(name) for name in _gap_scenarios()] + list(scale_gaps.values())
    one_word = [sc for sc in scenarios if len(k_words_of(sc.representation.group, sc.task["k"])) == 1]
    assert len(one_word) == 3 + 2 * 3  # swap, cyclic3 and cyclic5; the two cyclic scale inputs of each seed
    for scenario in one_word:
        (quad,), gram = _forms(scenario)
        est, exact = _estimate(scenario)
        assert exact
        assert est.upper == pytest.approx(math.sqrt(linalg.eigh(quad, gram, eigvals_only=True)[0]), rel=1e-14)
        assert _achieved(scenario, est) == pytest.approx(est.upper, rel=1e-14)
        assert est.heuristic_lower == max(0.0, est.upper - 1e-6)


def test_weighted_signed_cyclic_at_p2_is_the_uniform_shift(scale_gaps):
    # x_i -> w_i^(1/2) x_i and a diagonal sign change (the signs multiply to 1) carry it onto the uniform shift
    for seed in (1, 2, 3):
        for name in ("cyclic24-gap", "cyclic-uniform24-gap"):
            est, exact = _estimate(scale_gaps[seed, name])
            assert exact
            assert est.upper == pytest.approx(2.0 * math.sin(math.pi / 24), rel=1e-14)


def _two_word_cases():
    return ([("bundled", name) for name in ("dihedral4-gap", "grid-z2xz2-gap")]
            + [("dihedral", n) for n in range(3, 14)])


def _two_word_scenario(kind, arg):
    return _bundled(arg) if kind == "bundled" else _weighted_dihedral(arg, 1)


@pytest.mark.parametrize(("kind", "arg"), _two_word_cases())
def test_two_word_witness_attains_the_bound(kind, arg):
    scenario = _two_word_scenario(kind, arg)
    (q0, q1), gram = _forms(scenario)

    def lam_min(t):
        return linalg.eigh(t * q0 + (1.0 - t) * q1, gram, eigvals_only=True)[0]

    best = optimize.minimize_scalar(lambda t: -lam_min(t), bounds=(0.0, 1.0), method="bounded",
                                    options={"xatol": 1e-13})
    lam = max([lam_min(best.x)] + [lam_min(t) for t in np.linspace(0.0, 1.0, 101)])
    est, exact = _estimate(scenario)
    assert exact
    # every t gives a lower bound, and the witness's ratio meets the best one
    assert math.sqrt(lam) <= est.upper * (1.0 + 1e-12)
    assert est.upper <= math.sqrt(lam) * (1.0 + 1e-13)
    assert _achieved(scenario, est) == pytest.approx(est.upper, rel=1e-14)
    assert est.heuristic_lower == max(0.0, est.upper - 1e-6)
    # the descent is never better than the exact witness by more than rounding
    search = search_gap(scenario.representation, k_words=scenario.task["k"], restarts=scenario.task["restarts"],
                        seed=scenario.seed)
    assert est.upper <= search.upper * (1.0 + 1e-12)


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_a_witness_that_misses_its_check_falls_back_to_the_descent(seed):
    # with two words in complement dimension 2, lambda_min of the pencil is smooth at its maximum here, so the
    # golden section's t (good to about the square root of rounding) leaves the two forms unequal by ~1e-9
    scenario = _weighted_s3(seed)
    (q0, q1), gram = _forms(scenario)
    lam, c = gap._two_word_point([q0, q1], gram)
    forms = [c @ q @ c / (c @ gram @ c) for q in (q0, q1)]
    assert max(forms) > lam * (1.0 + 2e-12)
    est, exact = _estimate(scenario)
    assert not exact and est.complement_dim == 2
    search = search_gap(scenario.representation, k_words=scenario.task["k"], restarts=scenario.task["restarts"],
                        seed=scenario.seed)
    assert (est.upper, est.heuristic_lower) == (search.upper, search.heuristic_lower)
    assert np.array_equal(est.witness, search.witness)


def test_exact_witness_does_not_depend_on_the_eigenvectors_lapack_returns(monkeypatch):
    scenarios = [_bundled(name) for name in ("cyclic3-gap", "cyclic5-gap", "dihedral4-gap", "grid-z2xz2-gap")]
    scenarios += [_weighted_dihedral(n, 2) for n in (4, 6, 9)]
    plain = [_estimate(sc) for sc in scenarios]
    assert all(exact for _, exact in plain)
    for seed in (1, 2, 3):
        _rotated_eigh(monkeypatch, seed)
        for scenario, (est, _) in zip(scenarios, plain):
            rotated, exact = _estimate(scenario)
            assert exact
            assert rotated.upper == pytest.approx(est.upper, rel=1e-14)
            assert np.max(np.abs(rotated.witness - est.witness)) <= 1e-12


def test_complement_dimension_one_is_exact_at_every_p():
    for p in (1.25, 1.5, 3.0, 6.0):
        scenario = _bundled("swap-gap", p)
        est, exact = _estimate(scenario)
        assert exact and est.complement_dim == 1
        search = search_gap(scenario.representation, k_words=scenario.task["k"], restarts=scenario.task["restarts"],
                            seed=scenario.seed)
        assert (est.upper, est.heuristic_lower) == (search.upper, search.heuristic_lower)
        assert np.array_equal(est.witness, search.witness)


def test_other_exponents_and_word_counts_take_the_descent():
    for name, p in (("dihedral4-gap", 3.0), ("cyclic5-gap", 1.5)):
        assert not _estimate(_bundled(name, p))[1]
    scenario = _bundled("dihedral4-gap")
    rep = scenario.representation
    est = kazhdan_gap(rep, k_words=["r", "s", "rs"], restarts=4, seed=0)
    search = search_gap(rep, k_words=["r", "s", "rs"], restarts=4, seed=0)
    assert (est.upper, est.heuristic_lower) == (search.upper, search.heuristic_lower)
    assert np.array_equal(est.witness, search.witness)


# -- the modulus -----------------------------------------------------------------------------------------------


def _feasible(space, est, eps, allowance=0.0):
    x, y = est.witness_x, est.witness_y
    return (space.norm(x) <= 1.0 + allowance and space.norm(y) <= 1.0 + allowance
            and space.norm(x - y) >= eps)


@pytest.mark.parametrize("p", (2.0, 3.0, 4.0, 6.0))
def test_modulus_is_clarksons_for_p_at_least_two(p):
    for dim in (2, 3, 4, 5):
        space = LpSpace(dim, p, np.random.default_rng([dim, int(p)]).uniform(0.5, 2.0, dim))
        for eps in (0.25, 0.5, 1.0, 1.5, 2.0):
            est = convexity_modulus(space, eps)
            assert abs(est.delta - (1.0 - (1.0 - (eps / 2.0) ** p) ** (1.0 / p))) <= 1e-15
            # at eps = 2 a pair may carry _make_feasible's 1e-12 inflation of the difference
            assert _feasible(space, est, eps, 0.0 if eps < 2.0 else 2e-12)
            assert est.delta == 1.0 - space.norm(est.witness_x + est.witness_y) / 2.0


@pytest.mark.parametrize("p", (1.25, 1.5, 3.0))
def test_modulus_at_eps_two_is_one(p):
    for dim in (1, 2, 3, 4):
        space = LpSpace(dim, p, np.random.default_rng([dim, 7]).uniform(0.5, 2.0, dim))
        est = convexity_modulus(space, 2.0, budget=50, seed=dim)
        assert est.delta == 1.0
        assert np.array_equal(est.witness_y, -est.witness_x)
        assert _feasible(space, est, 2.0, 2e-12)


def test_modulus_below_two_for_p_below_two_is_still_sampled():
    space = LpSpace(3, 1.5, np.array([0.5, 1.0, 2.0]))
    est = convexity_modulus(space, 1.0, budget=30, seed=3, polish_iters=40)
    sampled = geometry._sample(space, 1.0, 30, 3, None, 40)
    assert est.delta == sampled.delta
    assert np.array_equal(est.witness_x, sampled.witness_x) and np.array_equal(est.witness_y, sampled.witness_y)
