"""The complement and the gap seed use numpy's linear algebra; SciPy's is their test oracle.

``representation.null_space`` follows ``scipy.linalg.null_space``'s rule and
``gap._generalized_eigh`` solves what ``scipy.linalg.eigh(quad, gram)`` solves.
Each is compared with SciPy on every input the library hands it while it runs
the bundled scenarios and the benchmark's ``scale`` scenarios (seeds 1 and 2).
The two LAPACK builds round differently, so bases are compared by their
projectors and eigenvectors up to sign, or inside a repeated eigenspace.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from scipy import linalg

from lplab import gap, kazhdan_gap, representation
from lplab.cli import bundled_scenario_path, bundled_scenarios, main
from lplab.representation import canonical_complement, null_space
from lplab.scenario import parse_scenario

from test_batched_solvers import _gap_scenarios
from test_structured_lamperti import _scale_raws

GAP_EXPONENTS = "1.25,1.5,2,3,4,6"


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def _scale_paths(tmp_path):
    paths = []
    for seed in (1, 2):
        (tmp_path / f"scale{seed}").mkdir()
        for raw in _scale_raws(seed, tmp_path / f"scale{seed}"):
            path = tmp_path / f"{seed}-{raw['name']}.json"
            path.write_text(json.dumps(raw))
            paths.append(path)
    return paths


def _recorded(monkeypatch, module, name, runs):
    """The arguments of every call of ``module.name`` made while ``runs`` run (``monkeypatch`` restores it)."""
    calls, real = [], getattr(module, name)

    def recording(*args, **kwargs):
        calls.append(args + tuple(kwargs.values()))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    for argv in runs:
        _run(argv)
    return calls


# -- null space ------------------------------------------------------------------------------------------------


def _assert_null_space_matches_scipy(a, rcond):
    z, oracle = null_space(a, rcond), linalg.null_space(a, rcond=rcond)
    assert z.shape == oracle.shape
    assert np.max(np.abs(z.T @ z - np.eye(z.shape[1])), initial=0.0) <= 1e-12
    assert np.max(np.abs(z @ z.T - oracle @ oracle.T), initial=0.0) <= 1e-12


@pytest.fixture(scope="module")
def null_space_inputs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("null")
    runs = [["run", name[: -len(".json")]] for name in bundled_scenarios()]
    runs += [["run", str(path)] for path in _scale_paths(tmp_path)]
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _recorded(monkeypatch, representation, "null_space", runs)


def test_null_space_matches_scipy_on_every_bundled_and_scale_input(null_space_inputs):
    # the primal and dual fixed systems and the annihilator of every complement the runs build
    assert len(null_space_inputs) >= 80
    assert {rcond for _, rcond in null_space_inputs} == {1e-9}
    for a, rcond in null_space_inputs:
        _assert_null_space_matches_scipy(a, rcond)


@pytest.mark.parametrize(
    "a, rcond, dim",
    [
        pytest.param(np.zeros((0, 5)), 1e-9, 5, id="no-equations"),
        pytest.param(np.random.default_rng(3).standard_normal((6, 4)), 1e-9, 0, id="full-rank"),
        pytest.param(np.random.default_rng(4).uniform(0.5, 2.0, (1, 7)), 1e-12, 6, id="weight-row"),
        pytest.param(np.zeros((3, 4)), 1e-9, 4, id="zero-matrix"),
        # a singular value exactly at rcond * max(s) counts as zero, as in SciPy; just above it, as nonzero
        pytest.param(np.diag([1.0, 2.0**-30, 0.5]), 2.0**-30, 1, id="at-threshold"),
        pytest.param(np.diag([1.0, 2.0**-29, 0.5]), 2.0**-30, 0, id="above-threshold"),
    ],
)
def test_null_space_edge_cases_match_scipy(a, rcond, dim):
    assert null_space(a, rcond).shape == (a.shape[1], dim)
    _assert_null_space_matches_scipy(a, rcond)


def test_zero_mean_basis_matches_scipy():
    weights = np.random.default_rng(5).uniform(0.5, 2.0, 9)
    _, basis = representation.zero_mean_rep({"a": np.roll(np.arange(9), -1)}, weights, 3.0)
    assert basis.shape == (9, 8)
    assert np.max(np.abs(weights @ basis)) <= 1e-12
    _assert_null_space_matches_scipy(weights[None, :], 1e-12)


# -- the gap seed ----------------------------------------------------------------------------------------------


@pytest.fixture(scope="module")
def eigh_inputs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("eigh")
    runs = [["sweep", name, "--p", GAP_EXPONENTS] for name in _gap_scenarios()]
    runs.append(["sweep", "superrigid-diagonal-s3", "--p", "1.5,3,4"])
    runs += [["run", str(path)] for path in _scale_paths(tmp_path) if path.name.endswith("-gap.json")]
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _recorded(monkeypatch, gap, "_generalized_eigh", runs)


def test_seed_matches_scipy_generalized_eigh(eigh_inputs):
    repeated = []
    for quad, gram in eigh_inputs:
        vals, vecs = gap._generalized_eigh(quad, gram)
        oracle_vals, oracle_vecs = linalg.eigh(quad, gram)
        assert np.all(np.abs(vals - oracle_vals) <= 1e-12 * np.abs(oracle_vals))
        # both are gram-orthonormal, so the oracle's coordinates of the seed have unit length
        coords = oracle_vecs.T @ gram @ vecs[:, 0]
        assert np.linalg.norm(coords) == pytest.approx(1.0, abs=1e-10)
        lowest = np.abs(oracle_vals - oracle_vals[0]) <= 1e-10 * np.abs(oracle_vals[0])
        if lowest.sum() == 1:
            assert np.min(np.abs(vecs[:, 0] - np.array([[1.0], [-1.0]]) * oracle_vecs[:, 0]).max(axis=1)) <= 1e-9
        else:
            repeated.append(oracle_vals[0])
        # the seed lies in the lambda_min eigenspace
        assert np.linalg.norm(coords[~lowest]) <= 1e-9
    assert len(eigh_inputs) == 5 * 6 + 3 + 6
    # a repeated lambda_min leaves the seed free in a plane, and each LAPACK build picks its own vector:
    # cyclic3-gap (3), cyclic5-gap, grid-z2xz2-gap (4) and superrigid-diagonal-s3's mixing piece (6)
    assert {3.0, 4.0, 6.0} <= {round(float(v), 9) for v in repeated}


def _eigenproblem(vals, seed):
    """quad, gram with gram-orthonormal eigenvectors V for ``vals``: quad = gram V diag(vals) V^T gram."""
    rng = np.random.default_rng(seed)
    m = len(vals)
    a = rng.standard_normal((m, m))
    gram = a @ a.T + m * np.eye(m)
    vecs = np.linalg.inv(np.linalg.cholesky(gram)).T @ np.linalg.qr(rng.standard_normal((m, m)))[0]
    return gram @ vecs @ np.diag(vals) @ vecs.T @ gram, gram


def _start_problems(eigh_inputs):
    """Every recorded seed problem, and made-up ones with lambda_min of multiplicity 1 to 3."""
    made = [_eigenproblem(vals, seed) for seed, vals in
            enumerate(([1.0, 2.0, 3.0], [2.0, 2.0, 5.0, 7.0], [0.5, 0.5, 0.5, 4.0, 9.0], [3.0, 3.0 + 1e-11, 8.0]))]
    return list(eigh_inputs) + made


def _rotated_eigh(monkeypatch, seed):
    """Make ``gap._generalized_eigh`` hand back its lambda_min eigenspace in a random other orthonormal basis."""
    real, rng = gap._generalized_eigh, np.random.default_rng(seed)

    def rotated(quad, gram):
        vals, vecs = real(quad, gram)
        k = int(np.sum(vals - vals[0] <= gap._CLUSTER_TOL * max(1.0, abs(vals[-1]))))
        vecs = vecs.copy()
        vecs[:, :k] = vecs[:, :k] @ np.linalg.qr(rng.standard_normal((k, k)))[0]
        return vals, vecs

    monkeypatch.setattr(gap, "_generalized_eigh", rotated)


def test_eigen_start_lies_in_the_lambda_min_eigenspace(eigh_inputs):
    for quad, gram in _start_problems(eigh_inputs):
        start = gap._eigen_start(quad, gram)
        lam = linalg.eigh(quad, gram, eigvals_only=True)[0]
        scale = np.linalg.norm(quad) + abs(lam) * np.linalg.norm(gram)
        assert np.linalg.norm(quad @ start - lam * gram @ start) <= 1e-9 * scale * np.linalg.norm(start)
        assert np.linalg.norm(start) > 0


def test_eigen_start_is_the_same_for_every_basis_of_the_eigenspace(eigh_inputs, monkeypatch):
    problems = _start_problems(eigh_inputs)
    starts = [gap._eigen_start(quad, gram) for quad, gram in problems]
    repeated = 0
    for seed in (1, 2, 3):
        _rotated_eigh(monkeypatch, seed)
        for (quad, gram), start in zip(problems, starts):
            vals = gap._generalized_eigh(quad, gram)[0]
            if len(vals) == 1 or vals[1] - vals[0] > gap._CLUSTER_TOL * max(1.0, abs(vals[-1])):
                continue  # a simple lambda_min: the start is the solver's own vector, sign included
            repeated += 1
            rotated = gap._eigen_start(quad, gram)
            assert np.max(np.abs(rotated - start)) <= 1e-12 * max(1.0, np.max(np.abs(start)))
    # cyclic3-gap, cyclic5-gap, grid-z2xz2-gap, the superrigid mixing piece and three made-up problems
    assert repeated >= 3 * 10


def test_rank_deficient_basis_runs_from_its_random_starts():
    scenario = parse_scenario(json.loads(bundled_scenario_path("cyclic5-gap").read_text()))
    rep = scenario.representation
    basis = canonical_complement(rep).complement_basis
    # a zero column makes the gram matrix singular: the eigenvector seed is skipped
    deficient = np.hstack([basis, np.zeros((basis.shape[0], 1))])
    w = rep.space.weights
    with pytest.raises(np.linalg.LinAlgError):
        gap._generalized_eigh(np.eye(deficient.shape[1]), deficient.T @ (w[:, None] * deficient))
    est = kazhdan_gap(rep, basis=deficient, restarts=8, seed=1)
    assert est.complement_dim == deficient.shape[1] > 4
    assert np.isfinite(est.upper)
    value = max(rep.space.norm(rep.apply(k, est.witness) - est.witness) for k in rep.group.k_set)
    assert value == pytest.approx(est.upper, abs=1e-12)
    # from random starts alone the descent still reaches the bundled run's value
    full = kazhdan_gap(rep, k_words=scenario.task["k"], restarts=scenario.task["restarts"], seed=scenario.seed)
    assert est.upper == pytest.approx(full.upper, rel=1e-3)


# -- layout ----------------------------------------------------------------------------------------------------


def _layouts(basis):
    strided = np.zeros((basis.shape[0], 2 * basis.shape[1]))
    strided[:, ::2] = basis
    return [np.ascontiguousarray(basis), np.asfortranarray(basis), strided[:, ::2]]


@pytest.mark.parametrize("p", [None, 3.0])
@pytest.mark.parametrize("name", _gap_scenarios())
def test_gap_estimate_is_independent_of_the_basis_layout(name, p):
    scenario = parse_scenario(json.loads(bundled_scenario_path(name).read_text()))
    if p is not None:
        scenario = scenario.with_exponent(p)
    rep, task = scenario.representation, scenario.task
    estimates = [
        kazhdan_gap(rep, k_words=task["k"], basis=basis, restarts=task["restarts"], seed=scenario.seed)
        for basis in _layouts(canonical_complement(rep).complement_basis)
    ]
    first = estimates[0]
    for est in estimates[1:]:
        assert (est.upper, est.heuristic_lower, est.complement_dim) == (first.upper, first.heuristic_lower,
                                                                        first.complement_dim)
        assert np.array_equal(est.witness, first.witness)
