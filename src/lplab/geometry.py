"""Convexity moduli, quotient norms, and positive-definiteness probes.

The convexity modulus is delta(eps) = inf {1 - ||x+y||/2 : ||x||,||y|| <= 1,
||x-y|| >= eps}.  Every reported value is the objective evaluated at an
explicit feasible witness pair, so it is always an upper bound for the true
modulus.  Where the modulus of weighted l_p^dim is known in closed form the
witness attains it: at eps = 2 an antipodal pair gives delta(2) = 1 for every
p > 1, and for p >= 2 and dim >= 2 Clarkson's pair gives 1 - (1 -
(eps/2)^p)^(1/p).  Elsewhere (1 < p < 2 below eps = 2, dim 1, or a caller's
norm) the estimate is sampled feasible pairs plus a stochastic polish.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import accumulate, repeat
from operator import mul

import numpy as np

from .convex import AffineSubspace, _affine_coefficients
from .reports import check
from .spaces import LpSpace, as_vector, norm_pow, norms

__all__ = [
    "ModulusEstimate",
    "ModulusTable",
    "convexity_modulus",
    "modulus_table",
    "inverse_modulus",
    "QuotientNormResult",
    "quotient_norm",
    "MAX_POINTS",
    "schoenberg_gram",
    "schoenberg_scan",
    "schoenberg_violation_search",
]


@dataclass(frozen=True, eq=False)
class ModulusEstimate:
    eps: float
    delta: float
    witness_x: np.ndarray
    witness_y: np.ndarray


# the midpoint shrink factors 0.7**k, k = 0..79, by repeated multiplication
_KAPPAS = np.array(list(accumulate(repeat(0.7, 79), mul, initial=1.0)))[:, None]
# ||d|| <= (||xs_k|| + ||ys_k||) / 2, so nothing fits once ||d|| passes 1 by more than rounding (~dim * 1e-16)
_NO_FIT = 1.0 + 5e-13
# candidate rows evaluated together; bounds every stack (80 shrink rows per candidate) for any budget
_BLOCK = 256
# the first speculative polish window; it doubles, up to _BLOCK, after each window without an acceptance
_WINDOW = 16
_MAX_ROUNDS = 60  # rounds of inflation and clipping after which _make_feasible gives a candidate up
_NUDGES = 64  # one-ulp steps the closed-form pair may take to be feasible in rounded norms


def _shrink_fits(norm_fn, mid, d):
    """Each row's midpoint shrunk by the first factor that fits: ``(x, y, found)``.

    Row i tries ``mid[i] * 0.7**k +- d[i]`` for k = 0..79 and takes the
    first k with both norms <= 1; ``found[i]`` is False where none fits.
    Factors from k = 4 on are built only for the rows none of k < 4 fits.
    """
    x, y = np.empty_like(mid), np.empty_like(mid)
    found = np.zeros(len(mid), dtype=bool)
    rows = np.arange(len(mid))
    flat = (-1, mid.shape[1])
    for kappas in (_KAPPAS[:4], _KAPPAS[4:]):
        shrunk = mid[rows, None, :] * kappas
        xs, ys = shrunk + d[rows, None, :], shrunk - d[rows, None, :]
        fits = ((norm_fn(xs.reshape(flat)) <= 1.0) & (norm_fn(ys.reshape(flat)) <= 1.0)).reshape(shrunk.shape[:2])
        hit = fits.any(axis=1)
        k = fits[hit].argmax(axis=1)
        x[rows[hit]], y[rows[hit]] = xs[hit, k], ys[hit, k]
        found[rows[hit]] = True
        rows = rows[~hit]
        if not rows.size:
            break
    return x, y, found


def _make_feasible(norm_fn, x, y, eps):
    """Project each candidate pair (x[i], y[i]) into {||x||,||y|| <= 1, ||x-y|| >= eps}.

    The rows advance in lockstep, each with the arithmetic of one pair on
    its own: alternate difference inflation with ball clipping; when the
    alternation stalls, shrink the midpoint by the first factor 0.7**k that
    puts both points back in the ball (which never hurts either
    constraint).  The shrink stack is built only for rows with ||d|| <=
    ``_NO_FIT``; at eps = 2 no row gets one.  A row leaves the lockstep
    feasible, degenerate (gap < 1e-14) or after ``_MAX_ROUNDS`` rounds.
    ``norm_fn`` maps a stack of rows to their norms.  Returns ``(x, y, ok)``:
    the projected rows, and ``ok[i]`` False where row i is degenerate or ran
    out of rounds (its x[i], y[i] are then meaningless).
    """
    out_x, out_y = np.empty_like(x), np.empty_like(y)
    ok = np.zeros(len(x), dtype=bool)
    live = np.arange(len(x))
    x, y = x.copy(), y.copy()

    def settle(gap, degenerate):
        """Record the rows whose gap reaches eps; keep the rest (less the degenerate ones) live."""
        nonlocal live, x, y
        done = gap >= eps
        out_x[live[done]], out_y[live[done]] = x[done], y[done]
        ok[live[done]] = True
        keep = ~(done | degenerate)
        live, x, y = live[keep], x[keep], y[keep]

    for _ in range(_MAX_ROUNDS):
        if not live.size:
            break
        nx, ny = norm_fn(x), norm_fn(y)
        big = nx > 1.0
        x[big] /= nx[big, None]
        big = ny > 1.0
        y[big] /= ny[big, None]
        gap = norm_fn(x - y)
        settle(gap, gap < 1e-14)
        if not live.size:
            break
        mid = (x + y) / 2.0
        d = (x - y) / 2.0
        d *= ((eps / (2.0 * norm_fn(d))) * (1.0 + 1e-12))[:, None]
        x, y = d.copy(), -d
        near = np.flatnonzero(norm_fn(d) <= _NO_FIT)
        if near.size:
            fx, fy, found = _shrink_fits(norm_fn, mid[near], d[near])
            x[near[found]], y[near[found]] = fx[found], fy[found]
        settle(norm_fn(x - y), False)
    return out_x, out_y, ok


def _objective(norm_fn, x, y, ok):
    """1 - ||x + y|| / 2 for each feasible row, inf for the others."""
    vals = np.full(len(x), np.inf)
    if ok.any():
        vals[ok] = 1.0 - norm_fn(x[ok] + y[ok]) / 2.0
    return vals


def convexity_modulus(
    space: LpSpace,
    eps: float,
    budget: int = 400,
    seed: int = 0,
    norm_fn=None,
    polish_iters: int = 300,
) -> ModulusEstimate:
    """The convexity modulus at ``eps``: exact where a closed form applies, else an upper-bound estimate.

    With the space's own norm, eps = 2 at any p > 1 and every eps at p >= 2
    in dim >= 2 take the closed-form pair (``_closed_form_pair``), and
    ``budget``, ``seed`` and ``polish_iters`` are unused.  Otherwise the
    estimate is sampled (``_sample``): ``budget`` feasible pairs from
    ``default_rng(seed)`` and a polish of ``polish_iters`` steps.
    ``norm_fn`` may override the space norm (used for estimating the
    modulus of constructed invariant norms, e.g.
    :meth:`InvariantNorm.norms`); it maps a stack of rows to their norms,
    and always takes the sampler.  p = 1 with the default norm is rejected
    since l1 has no positive modulus.

    Returns the estimate together with the witness pair; the witness is
    feasible (at eps = 2 up to the 1e-12 allowance of ``_make_feasible``),
    hence delta_hat >= delta(eps).
    """
    if not (0.0 < eps <= 2.0):
        raise ValueError("eps must lie in (0, 2]")
    if norm_fn is None:
        space.require_smooth()
        exact = _closed_form_pair(space, eps)
        if exact is not None:
            return exact
    return _sample(space, eps, budget, seed, norm_fn, polish_iters)


def _closed_form_pair(space: LpSpace, eps: float) -> ModulusEstimate | None:
    """The pair that attains the modulus of weighted l_p^dim at ``eps``, or None where no closed form applies.

    With u_i = w_i^(-1/p) e_i, b = eps/2 and a = (1 - b^p)^(1/p), the pair
    is x = b u_0 + a u_1 and y = -b u_0 + a u_1: ||x|| = ||y|| = 1, ||x -
    y|| = eps and delta = 1 - a.  For p >= 2 and dim >= 2 it is Clarkson's
    (1936); at eps = 2, a = 0 and it is the antipodal pair u_0, -u_0, so
    delta(2) = 1 for every p > 1 and dim >= 1.  In rounded norms b is then
    raised to the least value with ||x - y|| >= eps and a lowered until
    ||x|| <= 1, one ulp at a time and at most ``_NUDGES`` steps each.  The
    pair goes through ``_make_feasible``, which leaves a feasible pair as it
    is, and ``_objective``, so the reported delta is the objective evaluated
    at it.  Below eps = 2 the pair comes out feasible and delta within
    about 1e-15 of the closed form.  At eps = 2 the rounded norms can leave
    no float multiple of u_0 with ||x|| <= 1 and ||2x|| >= 2; then
    ``_make_feasible`` scales the difference to (1 + 1e-12) times eps, so
    ||x|| = ||y|| = 1 + 1e-12 up to rounding -- the allowance of every
    eps = 2 pair it settles that way -- and delta is still 1.
    """
    p, dim, w = space.p, space.dim, space.weights
    if eps < 2.0 and (p < 2.0 or dim < 2):
        return None
    norm_fn = partial(norms, w, p)
    b = eps / 2.0
    a = (1.0 - b**p) ** (1.0 / p)
    x = np.zeros(dim)
    x[0] = b * w[0] ** (-1.0 / p)
    if a > 0.0:
        x[1] = a * w[1] ** (-1.0 / p)
    diff = np.zeros((1, dim))  # x - y = 2 x_0 e_0, exactly

    def spread(x0):
        diff[0, 0] = 2.0 * x0
        return norm_fn(diff)[0]

    for _ in range(_NUDGES):
        if spread(x[0]) >= eps:
            break
        x[0] = np.nextafter(x[0], np.inf)
    for _ in range(_NUDGES):
        if spread(np.nextafter(x[0], 0.0)) < eps:
            break
        x[0] = np.nextafter(x[0], 0.0)
    for _ in range(_NUDGES):
        if a == 0.0 or norm_fn(x[None])[0] <= 1.0:
            break
        x[1] = np.nextafter(x[1], 0.0)
    y = x.copy()
    y[0] = -x[0]
    x, y, ok = _make_feasible(norm_fn, x[None], y[None], eps)
    if not ok[0]:
        return None
    return ModulusEstimate(eps=eps, delta=float(_objective(norm_fn, x, y, ok)[0]), witness_x=x[0], witness_y=y[0])


def _sample(space: LpSpace, eps: float, budget: int, seed: int, norm_fn, polish_iters: int) -> ModulusEstimate:
    """The sampled upper-bound estimate of the convexity modulus at ``eps``: ``convexity_modulus``'s search.

    Samples ``budget`` feasible pairs, keeps the best, and polishes it with
    a shrinking-step random search that preserves feasibility.
    ``norm_fn`` maps a stack of rows to their norms; None means the space's.

    The candidates are drawn as one (budget, 2, dim) normal stack, which is
    the stream of per-candidate draws, and evaluated as stacks of rows in
    blocks of ``_BLOCK`` by :func:`_make_feasible`; ``argmin`` keeps the
    first best candidate, as a one-at-a-time loop with a strict ``<`` does.
    The polish draws all its normals up front (the loop drew 2 * dim of
    them every iteration, whatever the outcome) and evaluates the next
    iterations speculatively, as if each were rejected: steps shrink by
    0.93 per iteration and stop at the ``step < 1e-9`` break.  The first
    row that is feasible and strictly better is the loop's next acceptance;
    it is taken and evaluation restarts from the next iteration.  Windows
    start at ``_WINDOW`` rows and double, up to ``_BLOCK``, after each
    window without an acceptance.  The draws and every accepted pair are
    those of the one-at-a-time loop, so the estimate and its witness are
    too.

    Returns the estimate together with its feasible witness pair.
    """
    if norm_fn is None:
        norm_fn = partial(norms, space.weights, space.p)
    rng = np.random.default_rng(seed)
    dim = space.dim

    best = None
    best_val = np.inf
    for start in range(0, budget, _BLOCK):
        pairs = rng.standard_normal((min(_BLOCK, budget - start), 2, dim))
        x, y, ok = _make_feasible(norm_fn, pairs[:, 0], pairs[:, 1], eps)
        vals = _objective(norm_fn, x, y, ok)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best, best_val = (x[i], y[i]), float(vals[i])
    if best is None:
        raise RuntimeError("no feasible pair found; this should not happen for eps <= 2")

    x, y = best
    step = 0.3
    kicks = rng.standard_normal((polish_iters, 2, dim))
    it, window = 0, _WINDOW
    while it < polish_iters:
        # the steps of the next iterations if none is accepted, up to the break
        steps = [step]
        while len(steps) < min(window, polish_iters - it) and steps[-1] * 0.93 >= 1e-9:
            steps.append(steps[-1] * 0.93)
        s = np.array(steps)[:, None]
        ahead = kicks[it:it + len(steps)]
        cx, cy, ok = _make_feasible(norm_fn, x + s * ahead[:, 0], y + s * ahead[:, 1], eps)
        vals = _objective(norm_fn, cx, cy, ok)
        better = np.flatnonzero(vals < best_val)
        if better.size:
            k = int(better[0])
            (x, y), best_val = (cx[k], cy[k]), float(vals[k])
            step, it, window = steps[k], it + k + 1, _WINDOW
            continue
        step, it, window = steps[-1] * 0.93, it + len(steps), min(2 * window, _BLOCK)
        if step < 1e-9:
            break
    return ModulusEstimate(eps=eps, delta=best_val, witness_x=x, witness_y=y)


@dataclass(frozen=True, eq=False)
class ModulusTable:
    """Tabulated non-decreasing modulus estimates on a grid of eps values."""

    eps: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        eps = np.asarray(self.eps, dtype=float)
        delta = np.asarray(self.delta, dtype=float)
        if eps.size == 0:
            raise ValueError("empty modulus table")
        if not np.all(np.diff(eps) > 0):
            raise ValueError("eps grid must be strictly increasing")
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "delta", delta)

    def inverse(self, t: float) -> float:
        """sup { eps : delta_hat(eps) <= t }, with domain sup 2 when all qualify."""
        ok = self.delta <= t
        if np.all(ok):
            return 2.0
        if not np.any(ok):
            return float(self.eps[0])
        return float(self.eps[np.nonzero(ok)[0][-1]])


def modulus_table(space: LpSpace, eps_grid, budget: int = 400, seed: int = 0, norm_fn=None) -> ModulusTable:
    """Estimate the modulus over a grid and apply the monotone envelope.

    The envelope is the running minimum from the right: a feasible pair at a
    larger eps is feasible at every smaller one, so this keeps the
    upper-bound property while making the table non-decreasing.
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    raw = np.array(
        [convexity_modulus(space, e, budget=budget, seed=seed + i, norm_fn=norm_fn).delta for i, e in enumerate(eps_grid)]
    )
    envelope = np.minimum.accumulate(raw[::-1])[::-1]
    return ModulusTable(eps=eps_grid, delta=envelope)


def inverse_modulus(table: ModulusTable, t: float) -> float:
    """Functional form of :meth:`ModulusTable.inverse`."""
    return table.inverse(t)


@dataclass(frozen=True, eq=False)
class QuotientNormResult:
    value: float
    minimizer: np.ndarray  # coefficients of the subspace basis
    point: np.ndarray      # v + W @ coeffs


def quotient_norm(space: LpSpace, basis, v) -> QuotientNormResult:
    """Quotient norm ||v + W|| = inf_{w in span(basis)} ||v + w||.

    ``basis`` holds the spanning vectors as the columns of W, or one vector
    1-d, and must be independent; it is read as an ``AffineSubspace``.  For
    p > 1 the infimum is the distance from 0 to the affine subspace v + W,
    by the Newton steps of ``convex``'s nearest points; at p = 1 it is a
    linear program.
    """
    v = as_vector(v, space.dim)
    flat = AffineSubspace(v, basis)
    if space.p == 1.0:
        return _quotient_norm_l1(space, flat.basis, v)
    coeffs = _affine_coefficients(flat, np.zeros(space.dim), space)
    point = v + flat.basis @ coeffs
    return QuotientNormResult(space.norm(point), coeffs, point)


def _quotient_norm_l1(space: LpSpace, basis: np.ndarray, v: np.ndarray) -> QuotientNormResult:
    from scipy import optimize  # lazy: importing the CLI loads no SciPy
    # min sum_i w_i t_i  s.t.  -t <= v + W c <= t, variables (c, t)
    n, k = basis.shape
    c_obj = np.concatenate([np.zeros(k), space.weights])
    a_ub = np.block([[basis, -np.eye(n)], [-basis, -np.eye(n)]])
    b_ub = np.concatenate([-v, v])
    res = optimize.linprog(c_obj, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * (k + n))
    if not res.success:  # pragma: no cover - small well-posed LPs
        raise RuntimeError(f"l1 quotient norm LP failed: {res.message}")
    coeffs = res.x[:k]
    point = v + basis @ coeffs
    return QuotientNormResult(space.norm(point), coeffs, point)


def _gram_stack(w, p, pts, s_values):
    """Gram matrices exp(-s ||x_i - x_j||**p) and their smallest eigenvalues, for a stack of configurations.

    ``pts`` is a (c, m, dim) stack of m-point configurations and ``s_values``
    a 1-d array; returns the (c, k, m, m) Gram matrices and the (c, k)
    smallest eigenvalues for the k values of s.  The pair distances are
    taken once for every s, and each entry, like each eigenvalue of the
    stacked ``eigvalsh``, equals the one a single configuration gets.
    """
    c, m, _ = pts.shape
    iu, ju = np.triu_indices(m, 1)
    kernel = np.exp(-s_values[:, None] * norm_pow(w, p, pts[:, iu] - pts[:, ju])[:, None, :])
    gram = np.broadcast_to(np.eye(m), (c, len(s_values), m, m)).copy()
    gram[..., iu, ju] = gram[..., ju, iu] = kernel
    return gram, np.linalg.eigvalsh(gram)[..., 0]


def schoenberg_gram(points, s: float, space: LpSpace):
    """Gram matrix G_ij = exp(-s ||x_i - x_j||**p) and its minimum eigenvalue.

    Positive semidefiniteness is a theorem for p <= 2 and generally fails
    for p > 2; this routine just reports, it asserts nothing.  It is one
    configuration of the stacked kernel :func:`schoenberg_scan` and
    :func:`schoenberg_violation_search` use.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    pts = [as_vector(x, space.dim) for x in points]
    if not pts:
        raise ValueError("need at least one point")
    gram, lam = _gram_stack(space.weights, space.p, np.array(pts)[None], np.array([float(s)]))
    return gram[0, 0], float(lam[0, 0])


# the largest configuration schoenberg_scan draws
MAX_POINTS = 256
# Gram entries and pair-difference coordinates per stacked call of schoenberg_scan
_SCAN_ENTRIES = 1 << 20


def schoenberg_scan(space: LpSpace, n_configs: int, n_points: int, s_values, seed: int = 0) -> float:
    """The smallest Gram eigenvalue over random configurations and values of s.

    Configuration c has m = 2..``n_points`` standard normal points in
    ``space`` (m drawn first, then the points, configuration by
    configuration).  The configurations are drawn in that order, in chunks
    that bound the stacked arrays; within a chunk they are grouped by m, and
    each group takes one distance computation, one ``exp`` per s and one
    stacked ``eigvalsh`` (:func:`_gram_stack`).  The value equals the
    minimum of :func:`schoenberg_gram` over every configuration and s.
    """
    if not 2 <= n_points <= MAX_POINTS:
        raise ValueError(f"n_points must lie in [2, {MAX_POINTS}], got {n_points}")
    s_values = np.asarray(s_values, dtype=float)
    rng = np.random.default_rng(seed)
    chunk = max(1, _SCAN_ENTRIES // ((len(s_values) + space.dim) * n_points**2))
    lam_min = np.inf
    for start in range(0, n_configs, chunk):
        configs = []
        for _ in range(min(chunk, n_configs - start)):
            m = int(rng.integers(2, n_points + 1))
            configs.append(rng.standard_normal((m, space.dim)))
        lams = np.empty((len(configs), len(s_values)))
        sizes = np.array([len(pts) for pts in configs])
        for m in np.unique(sizes):
            group = np.flatnonzero(sizes == m)
            lams[group] = _gram_stack(space.weights, space.p, np.array([configs[i] for i in group]), s_values)[1]
        lam_min = min(lam_min, *lams.ravel().tolist())
    return lam_min


def schoenberg_violation_search(
    p: float,
    trials: int = 2000,
    seed: int = 0,
    threshold: float = -1e-6,
):
    """Randomized hunt for a configuration with a negative Gram eigenvalue.

    Each trial draws 3 to 6 points in l_p^dim, dim 1 to 4, and tries
    s = 0.5, 1, 2, 4, taking the pair distances once for all four
    (:func:`_gram_stack`).  A configuration violates when its smallest
    eigenvalue is at most ``threshold``.  Returns a dict with the first
    violating configuration in (trial, s) order (points, s, dim,
    eigenvalue) and its ``violation_eigenvalue`` check, or None if the
    budget is exhausted.  For p <= 2 the search is expected to find nothing.
    """
    rng = np.random.default_rng(seed)
    s_values = np.array([0.5, 1.0, 2.0, 4.0])
    for _ in range(trials):
        dim = int(rng.integers(1, 5))
        m = int(rng.integers(3, 7))
        space = LpSpace(dim, p)
        pts = rng.standard_normal((m, dim)) * rng.uniform(0.3, 2.0)
        _, lams = _gram_stack(space.weights, p, pts[None], s_values)
        for s, lam_min in zip(s_values.tolist(), lams[0].tolist()):
            violation = check("violation_eigenvalue", lam_min, threshold, "le")
            if violation["ok"]:
                return {
                    "p": p,
                    "s": s,
                    "dim": dim,
                    "points": pts.tolist(),
                    "lambda_min": lam_min,
                    "checks": [violation],
                }
    return None
