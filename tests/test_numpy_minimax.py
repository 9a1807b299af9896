"""The numpy minimax and hull solvers against the SciPy solvers they replaced.

``sequential_minimax`` (``test_batched_solvers.py``) keeps the L-BFGS-B
continuation and SLSQP epigraph polish that ``convex._minimize_minimax``
ran before; ``slsqp_hull_projection`` below keeps the ``linprog``
containment test and SLSQP projection that ``convex._project_hull`` ran.
Both are test references only.  Each minimax problem is checked twice:

- the numpy value is at most the SciPy value plus 1e-9 max(1, value), and it
  is the evaluated max at the returned point;
- a Lagrange-dual lower bound (ROADMAP item 3) is within 1e-6 of it,
  relative (1e-12 absolute for a value that vanishes).  The bound takes
  NNLS weights on the gradients of the active terms and of the ball,
  lambda on the simplex and mu >= 0: by convexity every z of the ball has
  max_i f_i(z) >= sum lambda_i f_i(y) + mu h(y) - ||r||_* ||z - y|| for the
  residual r = sum lambda_i grad f_i(y) + mu grad h(y), with h(y) = ||y - c||
  - R the ball's constraint.  Without a trust ball the minimizer lies in the
  ball of radius value around p_1, against which the residual is charged.

The problems are every call that ``run`` and the ``sweep --p 1.5,3,4``
cells of ``swap-cocycle-fm`` and ``translation-fm`` and ``run klee-p4``
make, and 100 seeded random circumcenter and trust-ball problems.
"""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from scipy import optimize

from lplab import ConvexHull, LpSpace, convex, fisher_margulis_iterate, klee_search, optimality_residual
from lplab.cli import bundled_scenario_path, main
from lplab.scenario import parse_scenario
from lplab.spaces import norm_pow, norms_and_grads, pow_grad

from test_batched_solvers import sequential_minimax

CLI_RUNS = {  # argv -> the number of minimax solves it makes
    "run swap-cocycle-fm": 9,
    "run translation-fm": 6,
    "sweep swap-cocycle-fm --p 1.5,3,4": 27,
    "sweep translation-fm --p 1.5,3,4": 18,
    "run klee-p4": 3,
}


# -- references ----------------------------------------------------------------


def slsqp_hull_projection(pts, x, space):
    """The SciPy hull projection: x when a feasibility LP puts it in the hull, else SLSQP on ||x - P^T lam||^p."""
    m = pts.shape[0]
    if m == 1:
        return pts[0].copy()
    a_eq = np.vstack([pts.T, np.ones((1, m))])
    b_eq = np.concatenate([x, [1.0]])
    res = optimize.linprog(np.zeros(m), A_eq=a_eq, b_eq=b_eq, bounds=[(0.0, None)] * m)
    if res.success and float(np.max(np.abs(a_eq @ res.x - b_eq))) <= 1e-9:
        return x.copy()
    w, p = space.weights, space.p

    def f_grad(lam):
        r = x - pts.T @ lam
        return norm_pow(w, p, r), -p * (pts @ pow_grad(w, p, r))

    res = optimize.minimize(f_grad, np.full(m, 1.0 / m), jac=True, method="SLSQP", bounds=[(0.0, 1.0)] * m,
                            constraints=[{"type": "eq", "fun": lambda lam: np.sum(lam) - 1.0,
                                          "jac": lambda lam: np.ones(m)}],
                            options={"ftol": 1e-16, "maxiter": 500})
    lam = np.clip(res.x, 0.0, None)
    return pts.T @ (lam / lam.sum())


def dual_norm(space, v):
    """The norm of v as a functional under the Euclidean pairing: (sum_i w_i**(1-q) |v_i|**q)**(1/q)."""
    q = space.q
    return float(np.sum(space.weights ** (1.0 - q) * np.abs(v) ** q) ** (1.0 / q))


def dual_lower_bound(space, mats, shifts, y, ball):
    """A lower bound on min max_i ||A_i z + b_i|| (over the ball) from the gradients at y (module docstring)."""
    vals, grads = norms_and_grads(space.weights, space.p, mats @ y + shifts)
    value = float(np.max(vals))
    active = np.flatnonzero(vals >= value * (1.0 - 1e-7))
    cols = [mats[i].T @ grads[i] for i in active]
    h = 0.0
    if ball is not None:
        center, radius = ball
        bval, bgrad = norms_and_grads(space.weights, space.p, (y - center)[None])
        h = float(bval[0]) - radius
        if h >= -1e-7 * radius:
            cols.append(bgrad[0])
    # NNLS with a heavy row that holds the term weights on the simplex
    heavy = 1e3 * max(1.0, max(float(np.max(np.abs(col))) for col in cols))
    a = np.vstack([np.array(cols).T, np.r_[np.full(len(active), heavy), np.zeros(len(cols) - len(active))]])
    coef, _ = optimize.nnls(a, np.r_[np.zeros(space.dim), heavy], maxiter=1000)
    coef = coef / coef[:len(active)].sum()
    resid = np.array(cols).T @ coef
    ball_term = coef[-1] * min(h, 0.0) if len(cols) > len(active) else 0.0
    if ball is not None:
        reach = radius + space.norm(y - center)
    else:  # a circumcenter: p_1 = -b_1, and the minimizer is within the value of it
        reach = value + space.norm(y + shifts[0])
    return float(coef[:len(active)] @ vals[active]) + ball_term - dual_norm(space, resid) * reach


def random_problems(n=100, seed=0):
    """Weighted circumcenter problems (even index) and trust-ball problems (odd), dim 1-5, p in {1.25, 1.5, 3, 4, 6}."""
    rng = np.random.default_rng(seed)
    problems = []
    for k in range(n):
        dim = int(rng.integers(1, 6))
        space = LpSpace(dim, float(rng.choice([1.25, 1.5, 3.0, 4.0, 6.0])), rng.uniform(0.5, 2.0, dim))
        if k % 2 == 0:  # 3 to 7 points from their barycenter
            pts = rng.standard_normal((int(rng.integers(3, 8)), dim)) * rng.uniform(0.1, 3.0)
            problems.append((space, np.tile(np.eye(dim), (len(pts), 1, 1)), -pts, pts.mean(axis=0), None))
        else:  # 1 to 5 random affine terms, and a ball around the start of 0.05 to 4 times its value's reach
            t = int(rng.integers(1, 6))
            mats, shifts, y0 = rng.standard_normal((t, dim, dim)), rng.standard_normal((t, dim)), rng.standard_normal(dim)
            value = convex._minimax_value(space, mats, shifts, y0)
            reach = value / max(1.0, float(np.max(np.linalg.norm(mats, 2, axis=(1, 2)))))
            problems.append((space, mats, shifts, y0, (y0, float(rng.choice([0.05, 0.25, 0.5, 1.0, 4.0])) * reach)))
    return problems


def assert_solves(space, mats, shifts, y0, ball=None, gtol=1e-12):
    y, value = convex._minimize_minimax(space, mats, shifts, y0, ball=ball, gtol=gtol)
    assert value == convex._minimax_value(space, mats, shifts, y)
    if ball is not None:  # in the ball, up to the rounding of y - center
        assert space.norm(y - ball[0]) <= ball[1] + 1e-15 * (1.0 + space.norm(ball[0]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # SLSQP's warnings about its own iterates
        _, reference = sequential_minimax(space, mats, shifts, y0, ball=ball, gtol=gtol)
    assert value <= reference + 1e-9 * max(1.0, value), (value, reference)
    lower = max(dual_lower_bound(space, mats, shifts, y, ball), 0.0)
    assert value - lower <= 1e-6 * value + 1e-12, (value, lower)


# -- minimax -------------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_calls():
    """The arguments of every minimax solve each of ``CLI_RUNS`` makes, by argv."""
    calls, solve = {}, convex._minimize_minimax

    def recording(space, mats, shifts, y0, ball=None, gtol=1e-12):
        calls[argv].append((space, mats.copy(), shifts.copy(), np.array(y0, dtype=float), ball, gtol))
        return solve(space, mats, shifts, y0, ball=ball, gtol=gtol)

    convex._minimize_minimax = recording
    try:
        for argv in CLI_RUNS:
            calls[argv] = []
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv.split()) in (0, 1)
    finally:
        convex._minimize_minimax = solve
    return calls


@pytest.mark.parametrize("argv", CLI_RUNS)
def test_cli_solves_match_the_scipy_solver(cli_calls, argv):
    assert len(cli_calls[argv]) == CLI_RUNS[argv]
    for space, mats, shifts, y0, ball, gtol in cli_calls[argv]:
        assert_solves(space, mats, shifts, y0, ball, gtol)


RANDOM_PROBLEMS = random_problems()


@pytest.mark.parametrize("index", range(len(RANDOM_PROBLEMS)))
def test_random_problem_matches_the_scipy_solver(index):
    assert_solves(*RANDOM_PROBLEMS[index])


def test_overflowing_norms_end_a_fisher_margulis_run_non_contracting():
    # at p = 200 the swap cocycle's values of size 40 overflow every norm; the run reports it, as before
    raw = json.loads(bundled_scenario_path("swap-cocycle-fm").read_text())
    raw["space"]["p"] = 200.0
    raw["cocycle"]["values"]["s"] = [40.0, -40.0]
    with np.errstate(over="ignore", invalid="ignore"):
        res = fisher_margulis_iterate(parse_scenario(raw).cocycle, k_words=["s"], x0=[0.0, 0.0], c_mult=0.4)
    assert res.status == "non-contracting" and res.radii == [np.inf]


def test_klee_p4_finds_its_witness_at_trial_3():
    # the bundled klee-p4 search: p = 4, dim 3, seed 0; the certificate never exceeds the reference distance
    res = klee_search(LpSpace(3, 4.0), trials=60, seed=0)
    assert res.found and res.trials_used == 3 and res.hull_distance > 1e-6
    space = LpSpace(3, 4.0)
    reference = space.norm(res.center - slsqp_hull_projection(res.points, res.center, space))
    assert res.hull_distance <= reference + 1e-12


# -- hull projection -----------------------------------------------------------


@pytest.mark.parametrize("p", (1.25, 1.5, 2.0, 3.0, 4.0, 6.0))
def test_hull_projection_matches_the_slsqp_projection(p):
    rng = np.random.default_rng(int(10 * p))
    for k in range(40):
        dim = int(rng.integers(1, 6))
        space = LpSpace(dim, p, rng.uniform(0.5, 2.0, dim))
        pts = rng.standard_normal((int(rng.integers(1, 8)), dim))
        if k % 4 == 0:  # a point of the hull
            x = pts.T @ rng.dirichlet(np.ones(len(pts)))
        else:
            x = rng.standard_normal(dim) * float(rng.choice([0.3, 1.0, 3.0]))
        hull = ConvexHull(pts)
        y = convex.nearest_point(hull, x, space)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reference = space.norm(x - slsqp_hull_projection(pts, x, space))
        distance = space.norm(x - y)
        assert distance <= reference + 1e-9 * max(1.0, reference), (k, distance, reference)
        assert optimality_residual(hull, x, y, space) <= 1e-6, k
        if k % 4 == 0 and len(pts) > 1:
            assert distance <= 1e-12, k
