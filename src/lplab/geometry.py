"""Convexity moduli, quotient norms, and positive-definiteness probes.

The convexity modulus delta(eps) = inf {1 - ||x+y||/2 : ||x||,||y|| <= 1,
||x-y|| >= eps} is estimated from above by sampled feasible pairs plus a
stochastic polish; every reported value is certified by an explicit witness
pair, so the estimate is always an upper bound for the true modulus.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul

import numpy as np

from .reports import check
from .spaces import LpSpace, as_vector, norm_pow, norms, pow_grad, weighted_lstsq

__all__ = [
    "ModulusEstimate",
    "ModulusTable",
    "convexity_modulus",
    "modulus_table",
    "inverse_modulus",
    "QuotientNormResult",
    "quotient_norm",
    "schoenberg_gram",
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


def _make_feasible(norm_fn, first_fit, x, y, eps, max_rounds: int = 60):
    """Project a candidate pair into {||x||,||y|| <= 1, ||x-y|| >= eps}.

    Alternates difference inflation with ball clipping; if the alternation
    stalls, shrinks the midpoint by the first factor 0.7**k that puts both
    points back in the ball (which never hurts either constraint).
    ``first_fit(xs, ys)`` is the first row k with ||xs[k]||, ||ys[k]|| <= 1,
    or None.  Returns None only for degenerate candidates.
    """
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
        fit = None
        if norm_fn(d) <= _NO_FIT:
            shrunk = mid * _KAPPAS
            xs, ys = shrunk + d, shrunk - d
            fit = first_fit(xs, ys)
        x, y = (d, -d) if fit is None else (xs[fit], ys[fit])
        if norm_fn(x - y) >= eps:
            return x, y
    return None


def convexity_modulus(
    space: LpSpace,
    eps: float,
    budget: int = 400,
    seed: int = 0,
    norm_fn=None,
    polish_iters: int = 300,
) -> ModulusEstimate:
    """Upper-bound estimate of the convexity modulus at ``eps``.

    Samples feasible pairs, keeps the best, and polishes it with a
    shrinking-step random search that preserves feasibility.  ``norm_fn``
    may override the space norm (used for estimating the modulus of
    constructed invariant norms); p = 1 with the default norm is rejected
    since l1 has no positive modulus.

    Returns the estimate together with the witness pair; the witness is
    feasible, hence delta_hat >= delta(eps).
    """
    if not (0.0 < eps <= 2.0):
        raise ValueError("eps must lie in (0, 2]")
    if norm_fn is None:
        space.require_smooth()
        norm_fn = space.norm
        w, p = space.weights, space.p

        def first_fit(xs, ys):
            return next(iter(np.flatnonzero((norms(w, p, xs) <= 1.0) & (norms(w, p, ys) <= 1.0))), None)
    else:
        def first_fit(xs, ys):  # a caller's norm, evaluated only up to the first fit
            return next((k for k in range(len(xs)) if norm_fn(xs[k]) <= 1.0 and norm_fn(ys[k]) <= 1.0), None)
    rng = np.random.default_rng(seed)
    dim = space.dim

    def objective(pair):
        return 1.0 - norm_fn(pair[0] + pair[1]) / 2.0

    best = None
    best_val = np.inf
    for _ in range(budget):
        cand = _make_feasible(norm_fn, first_fit, rng.standard_normal(dim), rng.standard_normal(dim), eps)
        if cand is None:
            continue
        val = objective(cand)
        if val < best_val:
            best, best_val = cand, val
    if best is None:
        raise RuntimeError("no feasible pair found; this should not happen for eps <= 2")

    x, y = best
    step = 0.3
    for _ in range(polish_iters):
        cand = _make_feasible(
            norm_fn,
            first_fit,
            x + step * rng.standard_normal(dim),
            y + step * rng.standard_normal(dim),
            eps,
        )
        if cand is not None:
            val = objective(cand)
            if val < best_val:
                (x, y), best_val = cand, val
                continue
        step *= 0.93
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


def quotient_norm(space: LpSpace, basis, v, tol: float = 1e-10) -> QuotientNormResult:
    """Quotient norm ||v + W|| = inf_{w in span(basis)} ||v + w||.

    ``basis`` is a list of spanning vectors (columns of W); independence is
    checked by rank.  The infimum is computed by smooth convex minimization
    of ||v + W c||^p for p > 1 and by linear programming at p = 1.
    """
    from scipy import optimize  # lazy: importing the CLI loads no SciPy
    v = as_vector(v, space.dim)
    basis = np.asarray(basis, dtype=float)
    if basis.size == 0:
        return QuotientNormResult(space.norm(v), np.zeros(0), v)
    if basis.ndim == 1:
        basis = basis[:, None]
    if basis.shape[1] > basis.shape[0]:
        basis = basis.T
    k = basis.shape[1]
    if np.linalg.matrix_rank(basis, tol=1e-10) < k:
        raise ValueError("subspace basis is linearly dependent")

    w = space.weights
    p = space.p
    if p == 1.0:
        return _quotient_norm_l1(space, basis, v)

    def f_and_grad(c):
        # norm squared: better conditioned than norm**p when the optimum
        # residual vanishes (v in the subspace)
        r = v + basis @ c
        pow_sum = norm_pow(w, p, r)
        if pow_sum < 1e-300:
            return 0.0, np.zeros(k)
        nrm = pow_sum ** (1.0 / p)
        grad = 2.0 * (basis.T @ pow_grad(w, p, r)) / nrm ** (p - 2.0)
        return nrm * nrm, grad

    res = optimize.minimize(
        f_and_grad, weighted_lstsq(w, basis, -v), jac=True, method="L-BFGS-B",
        options={"ftol": 1e-18, "gtol": tol * 1e-2, "maxiter": 2000},
    )
    point = v + basis @ res.x
    return QuotientNormResult(space.norm(point), res.x, point)


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


def schoenberg_gram(points, s: float, space: LpSpace):
    """Gram matrix G_ij = exp(-s ||x_i - x_j||**p) and its minimum eigenvalue.

    Positive semidefiniteness is a theorem for p <= 2 and generally fails
    for p > 2; this routine just reports, it asserts nothing.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    pts = [as_vector(x, space.dim) for x in points]
    if not pts:
        raise ValueError("need at least one point")
    m = len(pts)
    gram = np.eye(m)
    for i in range(m):
        for j in range(i + 1, m):
            gram[i, j] = gram[j, i] = np.exp(-s * space.norm_pow(pts[i] - pts[j]))
    lam_min = float(np.linalg.eigvalsh(gram)[0])
    return gram, lam_min


def schoenberg_violation_search(
    p: float,
    trials: int = 2000,
    seed: int = 0,
    threshold: float = -1e-6,
):
    """Randomized hunt for a configuration with a negative Gram eigenvalue.

    Each trial draws 3 to 6 points in l_p^dim, dim 1 to 4, and tries
    s = 0.5, 1, 2, 4.  A configuration violates when its smallest
    eigenvalue is at most ``threshold``.  Returns a dict with the violating
    configuration (points, s, dim, eigenvalue) and its
    ``violation_eigenvalue`` check, or None if the budget is exhausted.
    For p <= 2 the search is expected to find nothing.
    """
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        dim = int(rng.integers(1, 5))
        m = int(rng.integers(3, 7))
        space = LpSpace(dim, p)
        pts = rng.standard_normal((m, dim)) * rng.uniform(0.3, 2.0)
        for s in (0.5, 1.0, 2.0, 4.0):
            _, lam_min = schoenberg_gram(pts, s, space)
            violation = check("violation_eigenvalue", lam_min, threshold, "le")
            if violation["ok"]:
                return {
                    "p": p,
                    "s": float(s),
                    "dim": dim,
                    "points": pts.tolist(),
                    "lambda_min": lam_min,
                    "checks": [violation],
                }
    return None
