"""Fisher–Margulis solves its random restarts only after a missed halving.

Each halving step solves from the current point first and accepts that
solve when it halves; only a miss solves the step's random starts too.
Every step still draws its random starts, so a missed step restarts from
the starts the always-restart loop would have drawn there.  The oracle
below is that always-restart loop, kept here only as a test reference (like
the oracles of ``test_batched_solvers.py``).
"""

import json

import numpy as np

from lplab import LampertiIsometry, LpSpace, Representation, fisher_margulis_iterate, group_from_permutations
from lplab import convex, tasks
from lplab.cli import bundled_scenario_path, main
from lplab.cocycle import coboundary_of
from lplab.convex import _FM_RESTARTS, FisherMargulisResult, FisherMargulisStep, _minimax_value
from lplab.reports import check
from lplab.scenario import parse_scenario
from lplab.spaces import as_vector

from conftest import count_calls


# -- oracle --------------------------------------------------------------------


def always_restart_iterate(cocycle, k_words=None, x0=None, c_mult=1.0, max_iter=60, tol=1e-6, seed=0):
    """Every halving step solves from the current point and from ``_FM_RESTARTS - 1`` random starts."""
    space = cocycle.space
    space.require_smooth()
    words = list(k_words) if k_words is not None else list(cocycle.rep.group.k_set)
    if not words:
        raise ValueError("K must be nonempty")
    if c_mult <= 0:
        raise ValueError("C must be positive")
    x = space.random_vector(np.random.default_rng(seed)) if x0 is None else as_vector(x0, space.dim)

    walks = [cocycle.walk(word) for word in words]
    mats = np.array([np.eye(space.dim)] + [mat for mat, _ in walks])
    shifts = np.array([np.zeros(space.dim)] + [val for _, val in walks])
    i, j = np.triu_indices(len(mats), 1)
    pair_mats, pair_shifts = mats[i] - mats[j], shifts[i] - shifts[j]

    def k_displacement(y):
        return max(space.norm(mat @ y + val - y) for mat, val in walks)

    rng = np.random.default_rng(seed)
    trace = [FisherMargulisStep(point=x.copy(), diameter=_minimax_value(space, pair_mats, pair_shifts, x))]
    contracting = True
    for _ in range(max_iter):
        r_n = trace[-1].diameter
        if k_displacement(x) <= tol:
            break
        ball = (x, c_mult * r_n)
        best_y, best_val = convex._minimize_minimax(space, pair_mats, pair_shifts, x, ball=ball)
        for _ in range(_FM_RESTARTS - 1):
            start = x + (c_mult * r_n) * rng.uniform(-1, 1, space.dim) * 0.7
            off = space.norm(start - x)
            if off > c_mult * r_n:
                start = x + (start - x) * (c_mult * r_n / off)
            cand_y, cand_val = convex._minimize_minimax(space, pair_mats, pair_shifts, start, ball=ball)
            if cand_val < best_val:
                best_y, best_val = cand_y, cand_val
        if best_val < r_n / 2.0:
            x = best_y
            trace.append(FisherMargulisStep(point=x.copy(), diameter=best_val))
        else:
            contracting = False
            break
    disp = k_displacement(x)
    radii = [step.diameter for step in trace]
    checks = [check("halving_step_%d" % i, b, a / 2.0) for i, (a, b) in enumerate(zip(radii, radii[1:]))]
    if contracting:
        checks.append(check("displacement", disp, tol))
    return FisherMargulisResult(tuple(checks), contracting, tuple(trace), x, disp)


# -- problems ------------------------------------------------------------------

PERMUTATIONS = {f"Z{n}": {"a": list(range(1, n)) + [0]} for n in range(2, 6)}
PERMUTATIONS["S3"] = {"t": [1, 0, 2], "c": [1, 2, 0]}
PERMUTATIONS["D4"] = {"r": [1, 2, 3, 0], "s": [0, 3, 2, 1]}


def _problem(name, p, seed):
    """A finite group by permutation matrices on l_p^n, a random coboundary and a random start."""
    perms = PERMUTATIONS[name]
    dim = len(next(iter(perms.values())))
    space = LpSpace(dim, p)
    images = {g: LampertiIsometry(np.argsort(perm), np.ones(dim), space, space) for g, perm in perms.items()}
    rep = Representation(group_from_permutations(perms)[0], space, images)
    rng = np.random.default_rng(seed)
    return coboundary_of(rep, rng.standard_normal(dim)), rng.standard_normal(dim)


def _record_starts(monkeypatch):
    """Record the start point of every minimax solve while the test runs."""
    starts, solve = [], convex._minimize_minimax

    def recording(space, mats, shifts, y0, **kw):
        starts.append(np.array(y0, dtype=float))
        return solve(space, mats, shifts, y0, **kw)

    monkeypatch.setattr(convex, "_minimize_minimax", recording)
    return starts


def _run_cli(name, capsys):
    assert main(["run", str(bundled_scenario_path(name))]) == 0
    return json.loads(capsys.readouterr().out)["payload"]


# -- tests ---------------------------------------------------------------------


def test_swap_cocycle_fm_solves_once_per_step(monkeypatch, capsys):
    payloads = []
    counts = count_calls([convex._minimize_minimax], lambda: payloads.append(_run_cli("swap-cocycle-fm", capsys)))
    assert counts == {"_minimize_minimax": 9}
    monkeypatch.setattr(tasks, "fisher_margulis_iterate", always_restart_iterate)
    counts = count_calls([convex._minimize_minimax], lambda: payloads.append(_run_cli("swap-cocycle-fm", capsys)))
    assert counts == {"_minimize_minimax": 54}
    new, old = payloads
    assert new["outcome"] == old["outcome"] == "fixed"
    assert new["steps"] == old["steps"] == 10
    assert [c["ok"] for c in new["checks"]] == [c["ok"] for c in old["checks"]]
    np.testing.assert_allclose(new["radii"], old["radii"], rtol=1e-10, atol=0.0)


# (group, p, C): the four non-contracting problems stop after 3, 1, 0 and 2 accepted steps, the
# other C = 0.4 ones take 8 to 10; at C = 1 one step suffices
PROBLEMS = [
    ("Z2", 3.0, 0.4), ("Z2", 4.0, 0.4), ("Z4", 4.0, 0.4), ("Z5", 1.5, 0.4), ("Z5", 3.0, 0.4),
    ("D4", 4.0, 0.4), ("S3", 4.0, 0.4),
    ("Z3", 1.5, 1.0), ("Z4", 3.0, 1.0), ("Z5", 4.0, 1.0), ("S3", 3.0, 1.0), ("D4", 1.5, 1.0), ("D4", 3.0, 1.0),
]


def test_status_and_steps_match_the_always_restart_loop():
    statuses = []
    for name, p, c_mult in PROBLEMS:
        cocycle, x0 = _problem(name, p, seed=0)
        kw = dict(x0=x0, c_mult=c_mult, max_iter=40, seed=0)
        new, old = fisher_margulis_iterate(cocycle, **kw), always_restart_iterate(cocycle, **kw)
        assert (new.status, len(new.trace)) == (old.status, len(old.trace)), (name, p, c_mult)
        statuses.append(new.status)
    assert statuses.count("non-contracting") == 4 and statuses.count("fixed") == len(PROBLEMS) - 4


def test_a_first_step_miss_is_the_always_restart_result(monkeypatch):
    cocycle = parse_scenario(json.loads(bundled_scenario_path("swap-cocycle-fm").read_text())).cocycle
    # below C = 1/4 no step can halve: moving y by C * R moves each pair distance by at most 2 C R
    kw = dict(k_words=["s"], x0=[0.0, 0.0], c_mult=0.01, max_iter=40, seed=0)
    starts = _record_starts(monkeypatch)
    new = fisher_margulis_iterate(cocycle, **kw)
    new_starts, starts[:] = starts[:], []
    old = always_restart_iterate(cocycle, **kw)
    assert new.status == "non-contracting" and len(new_starts) == _FM_RESTARTS
    assert new.radii == old.radii
    assert np.array_equal(new.terminal, old.terminal) and new.displacement == old.displacement
    assert new.checks == old.checks
    assert all(np.array_equal(a, b) for a, b in zip(new_starts, starts, strict=True))


def test_a_later_miss_restarts_from_the_draws_of_its_step(monkeypatch):
    cocycle, x0 = _problem("Z4", 4.0, seed=0)
    starts = _record_starts(monkeypatch)
    res = fisher_margulis_iterate(cocycle, x0=x0, c_mult=0.4, max_iter=40, seed=0)
    hits = len(res.trace) - 1
    assert res.status == "non-contracting" and hits == 3
    assert len(starts) == hits + _FM_RESTARTS  # one solve per accepted step, then all of the missed one
    # every step drew its starts, so the missed step's are the fourth step's draws of the stream
    rng = np.random.default_rng(0)
    draws = [rng.uniform(-1, 1, 4) for _ in range((hits + 1) * (_FM_RESTARTS - 1))]
    x, radius = res.terminal, 0.4 * res.radii[-1]
    expected = []
    for u in draws[-(_FM_RESTARTS - 1):]:
        start = x + radius * u * 0.7
        off = cocycle.space.norm(start - x)
        expected.append(start if off <= radius else x + (start - x) * (radius / off))
    assert np.array_equal(starts[hits], x)
    assert all(np.array_equal(a, b) for a, b in zip(starts[hits + 1:], expected, strict=True))
