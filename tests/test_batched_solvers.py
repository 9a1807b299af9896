"""The batched solver paths agree exactly with their one-at-a-time oracles.

The gap estimator advances every restart in lockstep, the convexity modulus
evaluates its candidates and their midpoint shrink factors as stacks of rows
(the polish speculatively), the Schoenberg scans take one stacked Gram kernel
per configuration size, and the minimax gradient reduces its terms in one
masked pass.  Each oracle below is the sequential loop the batched code
replaced, kept here only as a test reference (like ``pair_residual`` in
``test_representation.py``); every comparison is ``==``.
"""

import json
import sys
import warnings
import zlib

import numpy as np
import pytest
from scipy import optimize

from lplab import (
    LpSpace, convexity_modulus, invariant_norm, schoenberg_gram, schoenberg_scan, schoenberg_violation_search,
)
from lplab import gap, geometry
from lplab.cli import bundled_scenario_path, bundled_scenarios, main
from lplab.convex import _minimize_minimax, _transpose_times
from lplab.geometry import _BLOCK
from lplab.gap import _canonical_sign, _eigen_start, _matvecs, _sphere_directions, kazhdan_gap
from lplab.representation import canonical_complement
from lplab.scenario import parse_scenario
from lplab.spaces import grads_from_roots, norm_grad, norm_pow, norms, norms_and_grads, pow_grad

from conftest import count_calls
from test_structured_lamperti import _scale_raws

GAP_EXPONENTS = (1.25, 1.5, 2.0, 3.0, 4.0, 6.0)


# -- oracles -------------------------------------------------------------------


def sequential_gap(rep, k_words=None, restarts=64, iters=400, seed=0, cand_norm=np.linalg.norm):
    """Per-restart adaptive subgradient descent: (upper, heuristic_lower, witness).

    ``cand_norm`` measures each candidate before it is normalised.
    """
    words = list(k_words) if k_words is not None else list(rep.group.k_set)
    basis = np.ascontiguousarray(canonical_complement(rep).complement_basis)
    m = basis.shape[1]
    space = rep.space
    w, p = space.weights, space.p
    eye = np.eye(space.dim)
    disp_ops = [(rep.operator(word) - eye) @ basis for word in words]
    ops = np.array(disp_ops + [basis])

    def evaluate(c):
        rows = ops @ c
        vals = norms(w, p, rows)
        return rows, vals, float(np.max(vals[:-1]) / vals[-1])

    def subgrad(rows, vals):
        i = int(np.argmax(vals[:-1]))
        num, den = vals[i], vals[-1]
        grad_num, grad_den = norm_grad(w, p, rows[[i, -1]])
        g_num, g_den = ops[i].T @ grad_num, basis.T @ grad_den
        return (g_num * den - num * g_den) / den**2

    rng = np.random.default_rng(seed)
    starts = []
    quad = sum(a.T @ (w[:, None] * a) for a in disp_ops)
    gram = basis.T @ (w[:, None] * basis)
    starts.append(_eigen_start(quad, gram))  # checked in test_numpy_linalg.py
    if m <= 4:
        dense = _sphere_directions(m, 1 << 11, seed)
        vals = np.array([evaluate(c)[2] for c in dense])
        for idx in np.argsort(vals)[:3]:
            starts.append(dense[idx])
    while len(starts) < restarts:
        starts.append(rng.standard_normal(m))

    best_val, best_witness = np.inf, None
    for c0 in starts:
        c = c0 / np.linalg.norm(c0)
        rows, vals, val = evaluate(c)
        grad = None
        step = 0.2
        trace_mark = val
        for t in range(iters):
            if grad is None:
                grad = subgrad(rows, vals)
            cand = c - step * grad
            n = cand_norm(cand)
            if n < 1e-14:
                step *= 0.5
                continue
            cand /= n
            cand_rows, cand_vals, cand_val = evaluate(cand)
            if cand_val < val:
                c, rows, vals, val, grad = cand, cand_rows, cand_vals, cand_val, None
                step = min(step * 1.25, 1.0)
            else:
                step *= 0.6
                if step < 1e-14:
                    break
            if t == int(0.8 * iters):
                trace_mark = val
        slackish = trace_mark - val
        witness_vec = basis @ c
        witness_vec = _canonical_sign(witness_vec / space.norm(witness_vec))
        if best_witness is None or val < best_val - 1e-12:
            best_val, best_witness = val, (witness_vec, slackish)
        elif abs(val - best_val) <= 1e-12 and tuple(witness_vec) < tuple(best_witness[0]):
            best_val, best_witness = val, (witness_vec, slackish)
    witness, last_gain = best_witness
    return best_val, max(0.0, best_val - max(1e-6, 10.0 * last_gain)), witness


# ||x2|| + ||y2|| >= ||x2 - y2|| = 2 ||d||: past this no shrink factor fits, with room for rounding
_HOPELESS = 1.0 + 1e-13


def _shrink(norm_fn, mid, d):
    """mid * 0.7**k +- d for the first k < 80 that puts both in the ball, or None."""
    kappa = 1.0
    for _ in range(80):
        x2, y2 = mid * kappa + d, mid * kappa - d
        if norm_fn(x2) <= 1.0 and norm_fn(y2) <= 1.0:
            return x2, y2
        kappa *= 0.7
    return None


def sequential_make_feasible(norm_fn, x, y, eps, max_rounds=60):
    x = x.copy()
    y = y.copy()
    for _ in range(max_rounds):
        nx, ny = norm_fn(x), norm_fn(y)
        if nx > 1.0:
            x /= nx
        if ny > 1.0:
            y /= ny
        gap = norm_fn(x - y)
        if gap >= eps:
            return x, y
        if gap < 1e-14:
            return None
        mid = (x + y) / 2.0
        d = (x - y) / 2.0
        d *= (eps / (2.0 * norm_fn(d))) * (1.0 + 1e-12)
        fit = _shrink(norm_fn, mid, d) if norm_fn(d) <= _HOPELESS else None
        x, y = (d, -d) if fit is None else fit
        if norm_fn(x - y) >= eps:
            return x, y
    return None


def sequential_modulus(space, eps, budget=400, seed=0, norm_fn=None, polish_iters=300):
    """Sampled and polished modulus with the one-factor-at-a-time shrink: (delta, x, y)."""
    norm_fn = space.norm if norm_fn is None else norm_fn
    rng = np.random.default_rng(seed)
    dim = space.dim

    def objective(pair):
        return 1.0 - norm_fn(pair[0] + pair[1]) / 2.0

    best, best_val = None, np.inf
    for _ in range(budget):
        cand = sequential_make_feasible(norm_fn, rng.standard_normal(dim), rng.standard_normal(dim), eps)
        if cand is None:
            continue
        val = objective(cand)
        if val < best_val:
            best, best_val = cand, val
    x, y = best
    step = 0.3
    for _ in range(polish_iters):
        cand = sequential_make_feasible(
            norm_fn, x + step * rng.standard_normal(dim), y + step * rng.standard_normal(dim), eps
        )
        if cand is not None:
            val = objective(cand)
            if val < best_val:
                (x, y), best_val = cand, val
                continue
        step *= 0.93
        if step < 1e-9:
            break
    return best_val, x, y


def pairwise_gram(points, s, space):
    """The Schoenberg Gram matrix entry by entry, and its smallest eigenvalue."""
    pts = np.asarray(points, dtype=float)
    m = len(pts)
    gram = np.eye(m)
    for i in range(m):
        for j in range(i + 1, m):
            gram[i, j] = gram[j, i] = np.exp(-s * space.norm_pow(pts[i] - pts[j]))
    return gram, float(np.linalg.eigvalsh(gram)[0])


def looped_schoenberg_scan(space, n_configs, n_points, s_values, seed):
    """The smallest Gram eigenvalue, one configuration and one s at a time."""
    rng = np.random.default_rng(seed)
    lam_min = np.inf
    for _ in range(n_configs):
        m = int(rng.integers(2, n_points + 1))
        pts = rng.standard_normal((m, space.dim))
        for s in s_values:
            lam_min = min(lam_min, pairwise_gram(pts, float(s), space)[1])
    return lam_min


def looped_violation_search(p, trials, seed, threshold=-1e-6):
    """The first configuration and s, in (trial, s) order, whose Gram eigenvalue is at most ``threshold``."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        dim = int(rng.integers(1, 5))
        m = int(rng.integers(3, 7))
        space = LpSpace(dim, p)
        pts = rng.standard_normal((m, dim)) * rng.uniform(0.3, 2.0)
        for s in (0.5, 1.0, 2.0, 4.0):
            lam = pairwise_gram(pts, s, space)[1]
            if lam <= threshold:
                return s, dim, pts.tolist(), lam
    return None


def sequential_minimax(space, mats, shifts, y0, ball=None, gtol=1e-12):
    """The minimax solver with its softmax gradient summed term by term: (y, value)."""
    w, p = space.weights, space.p

    def value(y):
        return float(np.max(norms(w, p, mats @ y + shifts)))

    y = np.asarray(y0, dtype=float).copy()
    scale = max(value(y), 1e-9)
    if ball is not None:
        center, radius = ball
        radius = max(radius, 1e-300)
    for temp in (1.0, 0.1, 0.01, 0.001):
        t_eff = temp * scale

        def f_grad(yv):
            resid = mats @ yv + shifts
            ds = norms(w, p, resid)
            mx = ds.max()
            soft = np.exp((ds - mx) / t_eff)
            total = soft.sum()
            val = mx + t_eff * np.log(total)
            grad = np.zeros_like(yv)
            for g, s in zip(_transpose_times(mats, norm_grad(w, p, resid)), soft):
                if s > 1e-300:
                    grad += (s / total) * g
            if ball is not None:
                excess = space.norm(yv - center) - radius
                if excess > 0:
                    beta = 100.0 * scale / radius
                    val += beta * excess**2
                    grad += 2.0 * beta * excess * norm_grad(w, p, yv - center)
            return val, grad

        y = optimize.minimize(f_grad, y, jac=True, method="L-BFGS-B",
                              options={"ftol": 1e-16, "gtol": gtol, "maxiter": 500}).x
    if ball is not None:
        off = space.norm(y - center)
        if off > radius:
            y = center + (y - center) * (radius / off)
    best_y, best_val = y, value(y)

    def cfun(z):
        return max(z[-1], 1e-300) ** p - norm_pow(w, p, mats @ z[:-1] + shifts)

    def cjac(z):
        gy = -p * _transpose_times(mats, pow_grad(w, p, mats @ z[:-1] + shifts))
        return np.hstack([gy, np.full((len(gy), 1), p * max(z[-1], 1e-300) ** (p - 1.0))])

    cons = [{"type": "ineq", "fun": cfun, "jac": cjac}]
    if ball is not None:
        cons.append({"type": "ineq", "fun": lambda z: radius**p - norm_pow(w, p, z[:-1] - center),
                     "jac": lambda z: np.concatenate([-p * pow_grad(w, p, z[:-1] - center), [0.0]])})
    z0 = np.concatenate([best_y, [best_val * (1.0 + 1e-10) + 1e-14]])
    res = optimize.minimize(lambda z: z[-1], z0, jac=lambda z: np.concatenate([np.zeros(space.dim), [1.0]]),
                            constraints=cons, method="SLSQP", options={"ftol": 1e-14, "maxiter": 400})
    cand = res.x[:-1]
    if ball is not None:
        off = space.norm(cand - center)
        if off > radius:
            cand = center + (cand - center) * (radius / off)
    cand_val = value(cand)
    if cand_val < best_val:
        best_y, best_val = cand, cand_val
    return best_y, best_val


# -- comparisons ---------------------------------------------------------------


def _gap_scenarios():
    names = []
    for file_name in bundled_scenarios():
        raw = json.loads(bundled_scenario_path(file_name).read_text())
        if raw["task"]["command"] == "gap":
            names.append(file_name[: -len(".json")])
    return names


@pytest.mark.parametrize("p", GAP_EXPONENTS)
@pytest.mark.parametrize("name", _gap_scenarios())
def test_lockstep_gap_equals_per_restart_descent(name, p):
    scenario = parse_scenario(json.loads(bundled_scenario_path(name).read_text())).with_exponent(p)
    rep, task = scenario.representation, scenario.task
    restarts = task.get("restarts", 16)
    est = kazhdan_gap(rep, k_words=task.get("k"), restarts=restarts, seed=scenario.seed)
    upper, lower, witness = sequential_gap(rep, k_words=task.get("k"), restarts=restarts, seed=scenario.seed)
    assert est.upper == upper
    assert est.heuristic_lower == lower
    assert np.array_equal(est.witness, witness)


def test_lockstep_gap_equals_per_restart_descent_at_library_defaults():
    scenario = parse_scenario(json.loads(bundled_scenario_path("grid-z2xz2-gap").read_text())).with_exponent(3.0)
    est = kazhdan_gap(scenario.representation, seed=5)
    upper, lower, witness = sequential_gap(scenario.representation, seed=5)
    assert (est.upper, est.heuristic_lower) == (upper, lower)
    assert np.array_equal(est.witness, witness)


SCALE_GAPS = ("cyclic-uniform24-gap", "cyclic24-gap", "dihedral12-gap")


@pytest.fixture(scope="module")
def scale_gap_raws(tmp_path_factory):
    """The benchmark's generated ``scale`` gap scenarios, by (seed, name), for seeds 1 and 2."""
    raws = {}
    for seed in (1, 2):
        for raw in _scale_raws(seed, tmp_path_factory.mktemp(f"scale{seed}")):
            if raw["task"]["command"] == "gap":
                raws[seed, raw["name"]] = raw
    assert len(raws) == 2 * len(SCALE_GAPS)
    return raws


def _assert_gap_equals_oracle(scenario, restarts, **oracle_kw):
    rep, task = scenario.representation, scenario.task
    est = kazhdan_gap(rep, k_words=task["k"], restarts=restarts, seed=scenario.seed)
    upper, lower, witness = sequential_gap(rep, k_words=task["k"], restarts=restarts, seed=scenario.seed,
                                           **oracle_kw)
    assert est.upper == upper
    assert est.heuristic_lower == lower
    assert np.array_equal(est.witness, witness)


def _live_rows_per_iteration(scenario, restarts):
    """How many restarts are still descending at each iteration of ``kazhdan_gap``."""
    counts = []

    def counting(vecs):
        counts.append(len(vecs))
        return l2_norms(vecs)

    l2_norms, gap._l2_norms = gap._l2_norms, counting
    try:
        kazhdan_gap(scenario.representation, k_words=scenario.task["k"], restarts=restarts, seed=scenario.seed)
    finally:
        gap._l2_norms = l2_norms
    return counts[1:]  # the first call normalises the starts


@pytest.mark.parametrize("name", SCALE_GAPS)
@pytest.mark.parametrize("seed", (1, 2))
def test_lockstep_gap_equals_per_restart_descent_on_scale_inputs(scale_gap_raws, seed, name):
    # complement dimension 11 to 23 and random restarts only; the iteration cap binds but on the uniform shift
    scenario = parse_scenario(scale_gap_raws[seed, name])
    assert 11 <= canonical_complement(scenario.representation).complement_dim <= 23
    capped = len(_live_rows_per_iteration(scenario, scenario.task["restarts"])) == 400
    assert capped == (name != "cyclic-uniform24-gap")
    _assert_gap_equals_oracle(scenario, scenario.task["restarts"])


def test_lockstep_gap_equals_per_restart_descent_with_stops_around_the_mark(scale_gap_raws):
    # at 64 restarts, restarts stop before, at and after iteration 320, whose ratios set the lower bound
    scenario = parse_scenario(scale_gap_raws[1, "cyclic-uniform24-gap"])
    live = _live_rows_per_iteration(scenario, 64)
    stopped_in = {t - 1 for t in range(1, len(live)) if live[t] < live[t - 1]}
    assert {318, 320} <= stopped_in and max(stopped_in) > 320
    _assert_gap_equals_oracle(scenario, 64)


@pytest.mark.parametrize("restarts", (1, 4, 16))
def test_lockstep_gap_equals_per_restart_descent_with_tiny_candidates(restarts, monkeypatch):
    # a candidate measured below 1e-14 halves its step and skips the iteration, in both loops alike;
    # the choice of such candidates depends on their bits alone.  Here some restarts go on below a step
    # of 1e-14 after halving, and some of those accept a step again.
    def tiny(vec):
        return zlib.crc32(vec.tobytes()) % 4 == 0

    l2_norms, hits = gap._l2_norms, []

    def shrinking(vecs):
        norm = l2_norms(vecs)
        hit = np.array([tiny(v) for v in vecs], dtype=bool) if hits else []  # not the starts
        norm[hit] = 0.0
        hits.append(int(np.sum(hit)))
        return norm

    monkeypatch.setattr(gap, "_l2_norms", shrinking)
    scenario = parse_scenario(json.loads(bundled_scenario_path("grid-z2xz2-gap").read_text())).with_exponent(1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_gap_equals_oracle(scenario, restarts, cand_norm=lambda v: 0.0 if tiny(v) else np.linalg.norm(v))
    assert sum(hits) > 10


def test_gap_restarts_are_bounded():
    scenario = parse_scenario(json.loads(bundled_scenario_path("swap-gap").read_text()))
    with pytest.raises(ValueError, match="restarts must be at most 1024"):
        kazhdan_gap(scenario.representation, restarts=1025)


@pytest.mark.parametrize("p", (1.5, 3.0, 4.0))
@pytest.mark.parametrize("dim", (2, 3, 4, 5))
def test_stacked_shrink_modulus_equals_sequential(p, dim):
    space = LpSpace(dim, p, np.linspace(0.5, 2.0, dim))
    for i, eps in enumerate((0.25, 1.0, 2.0)):
        est = convexity_modulus(space, eps, budget=30, seed=dim + i, polish_iters=120)
        delta, x, y = sequential_modulus(space, eps, budget=30, seed=dim + i, polish_iters=120)
        assert est.delta == delta
        assert np.array_equal(est.witness_x, x) and np.array_equal(est.witness_y, y)


@pytest.mark.parametrize("p", (1.5, 3.0, 4.0))
def test_stacked_shrink_modulus_equals_sequential_for_invariant_norm(p):
    space = LpSpace(2, p)
    norm = invariant_norm([np.eye(2), np.array([[0.0, 1.25], [0.8, 0.0]])], space)
    est = convexity_modulus(space, 1.0, budget=25, seed=2, norm_fn=norm.norms, polish_iters=80)
    delta, x, y = sequential_modulus(space, 1.0, budget=25, seed=2, norm_fn=norm, polish_iters=80)
    assert est.delta == delta
    assert np.array_equal(est.witness_x, x) and np.array_equal(est.witness_y, y)


@pytest.mark.parametrize("p", GAP_EXPONENTS)
@pytest.mark.parametrize("dim", (1, 2, 3, 4, 5, 6))
def test_stacked_modulus_table_equals_sequential(p, dim):
    # a full modulus task's table: five eps values at budget 300, seeds as modulus_table gives them
    space = LpSpace(dim, p)
    for i, eps in enumerate((0.25, 0.5, 1.0, 1.5, 2.0)):
        est = convexity_modulus(space, eps, budget=300, seed=i)
        delta, x, y = sequential_modulus(space, eps, budget=300, seed=i)
        assert est.delta == delta
        assert np.array_equal(est.witness_x, x) and np.array_equal(est.witness_y, y)


@pytest.mark.parametrize("space", [LpSpace(3, 3.0), LpSpace(4, 1.5, np.linspace(0.5, 2.0, 4))],
                         ids=["l3^3", "weighted-l1.5^4"])
def test_no_shrink_factor_fits_a_hopeless_round(space, monkeypatch):
    # the oracle skips the shrink loop once ||d|| > _HOPELESS; run all 80 factors on those rounds instead
    hopeless, full_loop, margin = [], _shrink, _HOPELESS

    def every_factor(norm_fn, mid, d):
        fit = full_loop(norm_fn, mid, d)
        if norm_fn(d) > margin:
            hopeless.append(fit)
        return fit

    skipped = sequential_modulus(space, 2.0, budget=40, seed=1, polish_iters=40)
    monkeypatch.setattr(sys.modules[__name__], "_HOPELESS", np.inf)
    monkeypatch.setattr(sys.modules[__name__], "_shrink", every_factor)
    tried = sequential_modulus(space, 2.0, budget=40, seed=1, polish_iters=40)
    assert len(hopeless) >= 40
    assert all(fit is None for fit in hopeless)
    assert skipped[0] == tried[0]
    assert np.array_equal(skipped[1], tried[1]) and np.array_equal(skipped[2], tried[2])


@pytest.mark.parametrize("eps", (0.5, 1.5))
def test_modulus_beyond_one_block_equals_sequential(eps):
    # the budget spans three candidate blocks, and the polish runs long enough to fill a whole window
    space = LpSpace(3, 3.0, np.array([0.5, 1.0, 2.0]))
    budget, polish = 2 * _BLOCK + 37, 2 * _BLOCK
    est = convexity_modulus(space, eps, budget=budget, seed=4, polish_iters=polish)
    delta, x, y = sequential_modulus(space, eps, budget=budget, seed=4, polish_iters=polish)
    assert est.delta == delta
    assert np.array_equal(est.witness_x, x) and np.array_equal(est.witness_y, y)


def test_modulus_run_takes_no_single_vector_norm(capsys):
    counts = count_calls([LpSpace.norm], lambda: main(["run", "modulus-p2"]))
    assert counts == {"LpSpace.norm": 0}
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


@pytest.mark.parametrize("p", GAP_EXPONENTS)
def test_invariant_norm_rows_equal_single_norms(p):
    rng = np.random.default_rng(int(p * 8))
    for dim in (2, 3, 5):
        flip = np.eye(dim)
        flip[:2, :2] = [[0.0, 1.25], [0.8, 0.0]]
        norm = invariant_norm([np.eye(dim), flip], LpSpace(dim, p, rng.uniform(0.5, 2.0, dim)))
        rows = rng.standard_normal((120, dim))
        rows[7] = 0.0
        assert np.array_equal(norm.norms(rows), [norm.norm(row) for row in rows])
        assert norm.norms(rows[:0]).shape == (0,)


@pytest.mark.parametrize("p", (1.0, 1.5, 2.0, 3.0, 4.0))
def test_stacked_schoenberg_scan_equals_config_loop(p, monkeypatch):
    rng = np.random.default_rng(int(p * 10))
    for dim in (1, 2, 3, 5):
        space = LpSpace(dim, p, rng.uniform(0.5, 2.0, dim))
        for n_points in (2, 6, 9):
            assert schoenberg_scan(space, 40, n_points, [0.1, 1.0, 10.0], seed=dim) == looped_schoenberg_scan(
                space, 40, n_points, [0.1, 1.0, 10.0], seed=dim)
        pts = rng.standard_normal((6, dim))
        gram, lam = schoenberg_gram(pts, 0.7, space)
        gram_ref, lam_ref = pairwise_gram(pts, 0.7, space)
        assert lam == lam_ref and np.array_equal(gram, gram_ref)
    # chunks of a few configurations each draw and scan the same configurations
    monkeypatch.setattr(geometry, "_SCAN_ENTRIES", 700)
    space = LpSpace(2, p)
    assert schoenberg_scan(space, 50, 7, [0.5, 2.0], seed=3) == looped_schoenberg_scan(space, 50, 7, [0.5, 2.0], seed=3)


@pytest.mark.parametrize("p", (2.0, 3.0, 4.0, 6.0))
def test_stacked_violation_search_equals_config_loop(p):
    for seed in range(4):
        found = schoenberg_violation_search(p, trials=80, seed=seed)
        expected = looped_violation_search(p, 80, seed)
        if expected is None:
            assert found is None
        else:
            assert (found["s"], found["dim"], found["points"], found["lambda_min"]) == expected


@pytest.mark.parametrize("p", (1.5, 3.0, 4.0))
def test_one_pass_minimax_gradient_equals_term_loop(p):
    rng = np.random.default_rng(int(p * 10))
    for dim in (1, 2, 3):
        space = LpSpace(dim, p, rng.uniform(0.5, 2.0, dim))
        pts = rng.standard_normal((5, dim))
        mats = np.tile(np.eye(dim), (5, 1, 1))
        y, val = _minimize_minimax(space, mats, -pts, pts.mean(axis=0))
        y_ref, val_ref = sequential_minimax(space, mats, -pts, pts.mean(axis=0))
        assert val == val_ref and np.array_equal(y, y_ref)
        # a trust ball that binds, as in a Fisher-Margulis step
        ball = (pts[0], 0.25 * val)
        y, val = _minimize_minimax(space, mats, -pts, pts[0], ball=ball)
        y_ref, val_ref = sequential_minimax(space, mats, -pts, pts[0], ball=ball)
        assert val == val_ref and np.array_equal(y, y_ref)


@pytest.mark.parametrize("p", (1.25, 1.5, 2.0, 3.0, 4.0, 6.0))
def test_norms_and_grads_equals_norms_and_norm_grad(p):
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 9, 17, 39):
        w = rng.uniform(0.5, 2.0, n)
        rows = rng.standard_normal((6, n))
        rows[2] = 0.0
        vals, grads = norms_and_grads(w, p, rows)
        assert np.array_equal(vals, norms(w, p, rows))
        assert np.array_equal(grads, norm_grad(w, p, rows))
        assert not grads[2].any()
        space = LpSpace(n, p, w)
        for row, val, grad in zip(rows, vals, grads):
            assert val == space.norm(row)
            if row.any():
                assert np.array_equal(grad, space.norm_gradient(row))


@pytest.mark.parametrize("p", (1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 1.7390625, 2.45, 5.0123))
def test_grads_from_roots_equals_norms_and_grads(p):
    # the gradients from the roots that ``norms`` took are the ones ``norms_and_grads`` takes itself
    rng = np.random.default_rng(17)
    for n in (1, 2, 5, 9, 17, 39):
        w = rng.uniform(0.5, 2.0, n)
        rows = rng.standard_normal((8, n)) * rng.uniform(1e-3, 1e3, (8, 1))
        rows[[0, 5]] = 0.0
        roots = norms(w, p, rows)
        vals, grads = norms_and_grads(w, p, rows)
        got = grads_from_roots(w, p, rows, roots.tolist())
        assert roots.tobytes() == vals.tobytes()
        assert got.tobytes() == grads.tobytes()
        assert not got[[0, 5]].any()


def test_stacked_matvecs_equal_single_products():
    rng = np.random.default_rng(11)
    for _ in range(300):
        r, k, n, m = rng.integers(1, 65), rng.integers(1, 6), rng.integers(1, 40), rng.integers(1, 24)
        ops = rng.standard_normal((k, n, m))
        cs = rng.standard_normal((r, m))
        rows = _matvecs(ops, cs[:, None, :])
        picks = rng.integers(0, k, r)
        gs = rng.standard_normal((r, n))
        back = _matvecs(ops[picks].transpose(0, 2, 1), gs)
        dots = _matvecs(cs[:, None, :], cs)[:, 0]
        for j in range(r):
            assert np.array_equal(rows[j], ops @ cs[j])
            assert np.array_equal(back[j], ops[picks[j]].T @ gs[j])
            assert np.sqrt(dots[j]) == np.linalg.norm(cs[j])
