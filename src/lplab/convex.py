"""Convex geometry engines for lp spaces, in numpy.

All minimax objectives here are maxima of norms of affine expressions
max_i ||A_i y + b_i||; they are minimized by softmax temperature
continuation (a smooth surrogate, warm-started over a decreasing
temperature schedule, each temperature by a small dense BFGS; Nesterov,
*Smooth minimization of non-smooth functions*, 2005) and polished by SQP
steps for the max of the smooth squared terms: each step solves the dual
QP over the simplex of the near-active terms and the ball, and the best
point evaluated, by its true max, is returned.  The nearest point of a
convex hull or of an affine subspace, and with it ``geometry.quotient_norm``,
comes from one loop of Newton steps on the squared distance: over the
simplex of hull weights each step is an exact QP, over the coefficients of
the subspace basis an unconstrained least-squares solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cocycle import _ORBIT_CAP, Cocycle, OrbitCapExceeded, _orbit_of
from .errors import Refusal
from .groups import k_words_of
from .reports import Checked, check
from .spaces import (
    LpSpace, as_vector, duality_map, norm_hessians, norms, norms_and_grads, weighted_lstsq,
)

__all__ = [
    "AffineSubspace",
    "ConvexHull",
    "Ball",
    "circumcenter",
    "nearest_point",
    "set_distance",
    "optimality_residual",
    "lipschitz_probe",
    "FixedPointResult",
    "fixed_point_circumcenter",
    "FisherMargulisStep",
    "FisherMargulisResult",
    "fisher_margulis_iterate",
    "KleeResult",
    "klee_search",
]

_FM_RESTARTS = 6  # starts per halving step: the current point, then random ones, solved only after a miss


@dataclass(frozen=True, eq=False)
class AffineSubspace:
    base: np.ndarray
    basis: np.ndarray  # dim x k, independent columns

    def __post_init__(self):
        base = np.asarray(self.base, dtype=float)
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim == 1:  # one column, or none
            basis = basis[:, None] if basis.size else basis.reshape(base.size, 0)
        if base.shape != basis.shape[:1]:
            raise ValueError("affine subspace base and basis rows differ in length")
        if basis.size and np.linalg.matrix_rank(basis, tol=1e-10) < basis.shape[1]:
            raise ValueError("affine subspace basis is linearly dependent")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "basis", basis)


@dataclass(frozen=True, eq=False)
class ConvexHull:
    points: np.ndarray  # (m, dim)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[0] == 0:
            raise ValueError("hull needs at least one point")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True, eq=False)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be >= 0")
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))


def _transpose_times(mats: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row k is mats[k].T @ rows[k]: one stacked matmul, bit-identical to the per-term products."""
    return (rows[:, None, :] @ mats)[:, 0]


def _minimax_value(space: LpSpace, mats: np.ndarray, shifts: np.ndarray, y: np.ndarray) -> float:
    """max_i ||A_i y + b_i|| for the stacked terms A = ``mats``, b = ``shifts``."""
    return float(np.max(norms(space.weights, space.p, mats @ y + shifts)))


_TEMPERATURES = (1.0, 0.1, 0.01, 0.001)  # softmax temperatures, as fractions of the starting value
_POLISH_STEPS = 50
_TIE = 1e-14  # maxima this close, relative, are equal: rounding decides between them


def _bfgs(f_grad, y: np.ndarray, gtol: float, reach: float, norm) -> np.ndarray:
    """Minimize a smooth function from ``y`` by dense BFGS with Armijo backtracking.

    No trial step is longer than ``2 * reach`` in ``norm``, about the
    farthest the minimizer can be from a point tried.  Stops when the
    largest gradient entry is at most ``gtol``, when a step lowers the value
    by no more than rounding, when 20 halvings of a step find no lower
    value, or after 500 steps.
    """
    f, g = f_grad(y)
    hinv = None  # the inverse Hessian estimate, from the first curvature pair on
    for _ in range(500):
        if np.max(np.abs(g)) <= gtol:
            break
        d = None if hinv is None else -(hinv @ g)
        if d is None or g @ d >= 0.0:
            hinv, d = None, -g
        length = norm(d)
        if length > 2.0 * reach:
            d = d * (2.0 * reach / length)
        slope, step = g @ d, 1.0
        for _ in range(20):
            y_new = y + step * d
            f_new, g_new = f_grad(y_new)
            if f_new <= f + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            break
        s, dg = y_new - y, g_new - g
        sy = s @ dg
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(g):  # a curvature above the gradient's rounding
            if hinv is None:
                hinv = (sy / (dg @ dg)) * np.eye(len(y))
            hy = hinv @ dg
            hinv = hinv + ((sy + dg @ hy) / sy**2) * np.outer(s, s) - (np.outer(hy, s) + np.outer(s, hy)) / sy
        done = f - f_new <= 1e-15 * max(abs(f), abs(f_new), 1.0)
        y, f, g = y_new, f_new, g_new
        if done:
            break
    return y


def _simplex_qp(q: np.ndarray, c: np.ndarray, k: int) -> np.ndarray:
    """argmin 1/2 z^T q z - c^T z over z >= 0 with z[:k] summing to 1, for q positive semidefinite.

    A primal active-set method: from the best vertex of the simplex, solve
    the KKT system of the free entries; a solution with a negative entry is
    approached until the first entry reaches 0, which is then held there,
    and at a feasible solution the held entry with the most negative
    multiplier is freed, until none is.  A ridge of 1e-15 times q's largest
    diagonal entry keeps every KKT system regular.
    """
    n = len(c)
    q = q + (1e-15 * np.max(np.diag(q)) + 1e-300) * np.eye(n)
    simplex = (np.arange(n) < k).astype(float)
    j = int(np.argmax(c[:k] - 0.5 * np.diag(q)[:k]))
    z, free = np.zeros(n), np.zeros(n, dtype=bool)
    z[j], free[j] = 1.0, True
    for _ in range(4 * n + 4):
        idx = np.flatnonzero(free)
        kkt = np.zeros((len(idx) + 1, len(idx) + 1))
        kkt[:-1, :-1] = q[np.ix_(idx, idx)]
        kkt[:-1, -1] = kkt[-1, :-1] = simplex[idx]
        sol = np.linalg.solve(kkt, np.append(c[idx], 1.0))
        target = sol[:-1]
        if np.all(target >= 0.0):
            z = np.zeros(n)
            z[idx] = target
            price = q @ z - c + sol[-1] * simplex  # the multiplier of z_j >= 0, for each j held at 0
            price[free] = np.inf
            j = int(np.argmin(price))
            if price[j] >= -1e-13 * max(1.0, np.max(np.abs(c))):
                break
            free[j] = True
        else:
            move = target - z[idx]
            down = move < 0.0
            ratios = z[idx][down] / -move[down]
            i = int(np.argmin(ratios))
            z[idx] += ratios[i] * move
            z[idx[down][i]], free[idx[down][i]] = 0.0, False
    return z


def _into_ball(space: LpSpace, y: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """``y``, or its radial projection onto the ball when outside."""
    off = space.norm(y - center)
    return center + (y - center) * (radius / off) if off > radius else y


def _softmax_surrogate(space: LpSpace, mats: np.ndarray, shifts: np.ndarray, t_eff: float, ball, scale: float):
    """y -> (value, gradient) of t log sum_i exp(||A_i y + b_i|| / t) at t = ``t_eff``, plus the ball's penalty.

    The penalty is beta * (||y - center|| - radius)**2 outside the ball, with
    beta = 100 * ``scale`` / radius.  All terms and the ball offset are
    measured in one stacked kernel call.
    """
    w, p = space.weights, space.p
    n_terms = len(mats)
    if ball is not None:
        center, radius = ball
        beta = 100.0 * scale / radius

    def f_grad(yv):
        rows = mats @ yv + shifts
        if ball is not None:  # the ball offset y - center rides along as one more row
            rows = np.concatenate([rows, (yv - center)[None]])
        vals, grads = norms_and_grads(w, p, rows)
        ds = vals[:n_terms]
        mx = ds.max()
        soft = np.exp((ds - mx) / t_eff)
        total = soft.sum()
        val = mx + t_eff * np.log(total)
        terms = (soft / total)[:, None] * _transpose_times(mats, grads[:n_terms])
        terms = np.where((soft > 1e-300)[:, None], terms, 0.0)
        # the kept terms summed one by one in order from 0.0; + 0.0 turns an all -0.0 sum into 0.0
        grad = np.add.accumulate(terms)[-1] + 0.0
        if ball is not None:
            excess = float(vals[n_terms]) - radius
            if excess > 0:
                val += beta * excess**2
                grad += 2.0 * beta * excess * grads[n_terms]
        return val, grad

    return f_grad


def _minimize_minimax(space: LpSpace, mats: np.ndarray, shifts: np.ndarray, y0: np.ndarray, ball=None,
                      gtol: float = 1e-12):
    """Minimize max_i ||A_i y + b_i|| over stacked terms.

    ``mats`` holds the A_i as a (T, dim, dim) array and ``shifts`` the b_i
    as (T, dim); a term's identity matrix is passed like any other.
    ``ball`` is an optional (center, radius) trust constraint.  Softmax
    continuation with warm starts, each temperature minimized by BFGS (one
    term has one surrogate, so one temperature), then SQP steps on the max
    itself; returns the best point found by true objective value, and that
    value.
    """
    y = np.asarray(y0, dtype=float).copy()
    scale = max(_minimax_value(space, mats, shifts, y), 1e-9)
    if ball is not None:
        center, radius = ball
        radius = max(radius, 1e-300)
        ball = (center, radius)

    for temp in _TEMPERATURES if len(mats) > 1 else _TEMPERATURES[-1:]:
        t_eff = temp * scale
        f_grad = _softmax_surrogate(space, mats, shifts, t_eff, ball, scale)
        # the minimizer is within the ball, or within twice the starting value of the barycenter start
        y = _bfgs(f_grad, y, gtol, scale if ball is None else radius, space.norm)

    if ball is not None:
        y = _into_ball(space, y, center, radius)
    return _sqp_polish(space, mats, shifts, y, ball, t_eff)


def _curvature(p: float, rows: np.ndarray, prev):
    """The factor of each entry's diagonal Hessian part for the SQP model, or None for p - 1 everywhere.

    For p < 2 the norm's curvature w |r_i|**(p-2) blows up as r_i -> 0, and
    Newton's model of |r_i|**p overshoots 0 by (2-p)/(p-1) times r_i.  An
    entry that is not settled (same sign as at the last step and within half
    of it; at the first step, not above 1e-3 of its row's largest) takes the
    factor 1 instead of p - 1: the curvature of the quadratic majorizer of
    |r_i|**p (Weiszfeld's), which never overshoots.
    """
    if p >= 2.0:
        return None
    if prev is None:
        settled = np.abs(rows) >= 1e-3 * np.max(np.abs(rows), axis=-1, keepdims=True)
    else:
        settled = (np.sign(rows) == np.sign(prev)) & (np.abs(rows - prev) <= 0.5 * np.abs(prev))
    return np.where(settled, p - 1.0, 1.0)


def _squares(space: LpSpace, mats: np.ndarray, rows: np.ndarray, vals, grads, factor):
    """The gradients and the Hessians, in y, of the squared norms ||A_i y + b_i||**2 of the ``rows``."""
    hess = norm_hessians(space.weights, space.p, rows, vals, grads, factor)
    hess = 2.0 * (grads[:, :, None] * grads[:, None, :] + vals[:, None, None] * hess)
    jac = 2.0 * vals[:, None] * _transpose_times(mats, grads)
    return jac, np.einsum("tki,tkl,tlj->tij", mats, hess, mats)


def _moved(grads: np.ndarray, prev: np.ndarray) -> float:
    """The largest change of a gradient entry since the last step, relative to the largest entry then."""
    top = np.max(np.abs(prev))
    return float(np.max(np.abs(grads - prev)) / top) if top > 0.0 else 0.0


def _sqp_polish(space: LpSpace, mats: np.ndarray, shifts: np.ndarray, y: np.ndarray, ball, t_eff: float):
    """SQP steps for min max_i ||A_i y + b_i||**2 (in the ball) from ``y``: the best (point, max norm) evaluated.

    The squared norms are smooth where a term vanishes, as at a fixed point.
    Each step solves the QP of the terms within half the largest norm and of
    the ball: their linearizations plus the Hessian of the Lagrangian at the
    last multipliers (first the softmax weights at temperature ``t_eff``).
    Its dual is a QP over the simplex of the term multipliers and the ball's
    multiplier >= 0.  While the model's predicted decrease is above rounding
    the step is halved until the max falls by a share of it; below that the
    full step is taken, lower or not.  A point replaces the best one when its
    max is lower, or within 1e-14 of the lowest seen while its gradients
    still move: near an entry that vanishes for p < 2 the max stops
    registering the steps before the multipliers settle.  The steps stop
    after three that replace nothing, when the model predicts nothing and
    the gradients stand still, or after ``_POLISH_STEPS``.
    """
    w, p, dim = space.weights, space.p, space.dim
    rows = mats @ y + shifts
    vals, grads = norms_and_grads(w, p, rows)
    top = float(np.max(vals))
    best_y, best_val, low = y, top, top
    lam, mu = np.exp((vals - top) / t_eff), None
    lam /= lam.sum()
    prev_rows = prev_grads = prev_off = prev_a = None
    stall = 0
    for _ in range(_POLISH_STEPS):
        if top == 0.0:  # every term vanishes: a fixed point
            best_y, best_val = y, top
            break
        if not top < np.inf:  # the norms overflow: nothing to polish
            break
        near = np.flatnonzero(vals >= 0.5 * top)
        weights = lam[near] if lam[near].sum() > 0.0 else np.full(len(near), 1.0 / len(near))
        moved = np.inf if prev_grads is None else _moved(grads[near], prev_grads[near])
        factor = _curvature(p, rows[near], None if prev_rows is None else prev_rows[near])
        jac, hessians = _squares(space, mats[near], rows[near], vals[near], grads[near], factor)
        hess = np.einsum("t,tij->ij", weights, hessians)
        prev_rows, prev_grads = rows, grads
        # curvature along the differences of the term gradients and along the ball's gradient: constant on the
        # steps that keep the active linearizations equal, so it changes no SQP step, but it makes the matrix
        # definite where the terms' Hessians are not
        dev = jac - (weights @ jac) / weights.sum()
        bend = (weights[:, None] * dev).T @ dev
        cons = vals[near] ** 2 - top**2
        if ball is not None:
            center, radius = ball
            off = (y - center)[None]
            bval, bgrad = norms_and_grads(w, p, off)
            a, ball_hess = np.zeros(dim), np.zeros((dim, dim))
            if bval[0] > 0.0:
                a, ball_hess = (arr[0] for arr in _squares(space, np.eye(dim)[None], off, bval, bgrad,
                                                           _curvature(p, off, prev_off)))
            if mu is None:  # first step: the ball multiplier that best cancels the softmax gradient
                mu = max(0.0, -float(a @ (weights @ jac)) / float(a @ a)) if a.any() else 0.0
            if mu > 0.0:
                hess = hess + mu * ball_hess
                bend = bend + np.outer(a, a)
            if prev_a is not None:
                moved = max(moved, _moved(bgrad, prev_a))
            prev_off, prev_a = off, bgrad
            jac = np.vstack([jac, a])
            cons = np.append(cons, bval[0] ** 2 - radius**2)
        unit = np.trace(hess) / dim
        if unit <= 0.0:
            unit = 1.0
        if np.trace(bend) > 0.0:
            hess = hess + (unit * dim / np.trace(bend)) * bend
        # B^-1 = V diag(1/e) V^T from the eigenpairs, with rounding's negative eigenvalues raised to a floor
        evals, evecs = np.linalg.eigh(hess)
        root = np.sqrt(np.maximum(evals, 1e-12 * max(evals[-1], unit)))
        half = (evecs.T @ jac.T) / root[:, None]
        z = _simplex_qp(half.T @ half, cons, len(near))
        hz = half @ z
        gain = 0.5 * (hz @ hz) - z @ cons  # the decrease of the squared max that the QP model predicts
        low = min(low, top)
        if top < best_val * (1.0 - _TIE) or (top <= low * (1.0 + _TIE) and moved > 1e-9):
            best_y, best_val, stall = y, top, 0
        else:
            stall += 1
            if stall == 3:
                break
        if gain <= 1e-15 * top**2 and moved <= 1e-9:
            break
        step = -(evecs @ (hz / root))
        lam = np.zeros(len(vals))
        lam[near] = z[:len(near)]
        if ball is not None:
            mu = float(z[-1])
        t, significant = 1.0, gain > 1e-12 * top**2
        for _ in range(30 if significant else 1):
            y_new = y + t * step
            if ball is not None:
                y_new = _into_ball(space, y_new, center, radius)
            rows_new = mats @ y_new + shifts
            vals_new, grads_new = norms_and_grads(w, p, rows_new)
            top_new = float(np.max(vals_new))
            if not significant or top_new**2 <= top**2 - 1e-4 * t * gain:
                break
            t *= 0.5
        else:
            break
        if np.array_equal(y_new, y):
            break
        y, rows, vals, grads, top = y_new, rows_new, vals_new, grads_new, top_new
        if not top <= 2.0 * best_val:  # diverging, or not finite
            break
    else:
        if top < best_val:
            best_y, best_val = y, top
    return best_y, best_val


def circumcenter(points, space: LpSpace):
    """Chebyshev center: the unique minimizer of max_i ||x - p_i|| (p > 1).

    One point returns itself; two points return the metric midpoint, which
    is exact in any strictly convex norm.  Larger sets go through the
    minimax solver started at the barycenter.
    """
    space.require_smooth()
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 0:
        raise ValueError("circumcenter of an empty set")
    if pts.shape[1] != space.dim:
        raise ValueError("points do not live in the space")
    if pts.shape[0] == 1:
        return pts[0].copy(), 0.0
    if pts.shape[0] == 2:
        mid = (pts[0] + pts[1]) / 2.0
        return mid, space.norm(pts[0] - pts[1]) / 2.0
    mats = np.tile(np.eye(space.dim), (pts.shape[0], 1, 1))
    return _minimize_minimax(space, mats, -pts, pts.mean(axis=0), gtol=1e-11)


def _require_in(cset, space: LpSpace) -> None:
    """Refuse a set whose base, center or points have another length than the space's dimension."""
    if isinstance(cset, AffineSubspace):
        shape = cset.base.shape
    elif isinstance(cset, ConvexHull):
        shape = cset.points.shape[1:]
    elif isinstance(cset, Ball):
        shape = cset.center.shape
    else:
        raise TypeError(f"unsupported convex set {type(cset).__name__}")
    if shape != (space.dim,):
        raise ValueError("points do not live in the space")


def nearest_point(cset, x, space: LpSpace) -> np.ndarray:
    """The unique nearest point of a closed convex set (p > 1)."""
    space.require_smooth()
    x = as_vector(x, space.dim)
    _require_in(cset, space)
    if isinstance(cset, Ball):
        return _into_ball(space, x, cset.center, cset.radius).copy()
    if isinstance(cset, AffineSubspace):
        return cset.base + cset.basis @ _affine_coefficients(cset, x, space)
    return _project_hull(cset, x, space)


def _newton_nearest(space: LpSpace, x: np.ndarray, mat: np.ndarray, lam: np.ndarray, step) -> np.ndarray:
    """Newton steps on ||x + mat @ lam||**2 from ``lam``: the last ``lam``.

    ``step(jac, hess, lam)`` is the move to the minimizer of the quadratic
    model, with the gradient ``jac`` and the Hessian ``hess`` in lam, over
    the admissible lam.  Each move is halved until the squared norm falls by
    a share of the model's slope along it.  The steps stop at a norm that is
    0 or overflows, at a move that is not downhill, when 30 halvings find no
    decrease, when a step leaves lam unchanged, or after 50 steps.
    """
    w, p = space.weights, space.p
    rows = (x + mat @ lam)[None]
    vals, grads = norms_and_grads(w, p, rows)
    prev = None
    for _ in range(50):
        sq = vals[0] ** 2
        if not 0.0 < sq < np.inf:  # x in the set, or the norm overflows
            break
        jac, hess = (arr[0] for arr in _squares(space, mat[None], rows, vals, grads, _curvature(p, rows, prev)))
        move = step(jac, hess, lam)
        slope = jac @ move
        if not slope < 0.0:
            break
        prev, t = rows, 1.0
        for _ in range(30):
            cand = lam + t * move
            cand_rows = (x + mat @ cand)[None]
            cand_vals, cand_grads = norms_and_grads(w, p, cand_rows)
            if cand_vals[0] ** 2 <= sq + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break
        if np.array_equal(cand, lam):
            break
        lam, rows, vals, grads = cand, cand_rows, cand_vals, cand_grads
    return lam


def _affine_coefficients(cset: AffineSubspace, x: np.ndarray, space: LpSpace) -> np.ndarray:
    """The coefficients c of the nearest point base + basis @ c of the affine subspace to ``x``.

    The start is the weighted l2 projection, exact at p = 2.  Each Newton
    step solves the model by least squares: at p > 2 its Hessian is singular
    where residual entries vanish.
    """
    basis = cset.basis
    resid = x - cset.base
    coeffs = weighted_lstsq(space.weights, basis, resid)
    if space.p == 2.0:
        return coeffs
    return _newton_nearest(space, resid, -basis, coeffs,
                           lambda jac, hess, c: -np.linalg.lstsq(hess, jac, rcond=None)[0])


def _project_hull(cset: ConvexHull, x, space: LpSpace) -> np.ndarray:
    """The nearest point P^T lam of the hull: ||x - P^T lam||**2 minimized over the simplex by projected Newton.

    Each step minimizes the quadratic model over the simplex exactly (the
    active-set QP), from the weighted l2 projection on.  A point of the hull
    comes back at distance 0 up to rounding.
    """
    pts = cset.points
    m = pts.shape[0]
    if m == 1:
        return pts[0].copy()
    w = space.weights

    def step(jac, hess, lam):
        hess = hess + 1e-10 * np.trace(hess) / m * np.eye(m)  # definite: P^T lam has only dim coordinates
        return _simplex_qp(hess, hess @ lam - jac, m) - lam

    # start from the weighted l2 projection, an exact QP: zero residual when x lies in the hull
    lam = _simplex_qp(pts @ (w[:, None] * pts.T), pts @ (w * x), m)
    return pts.T @ _newton_nearest(space, x, -pts.T, lam, step)


def set_distance(cset, x, space: LpSpace) -> float:
    return space.norm(as_vector(x, space.dim) - nearest_point(cset, x, space))


def optimality_residual(cset, x, y, space: LpSpace) -> float:
    """First-order optimality of y as the projection of x: duality-map alignment.

    Directional derivative of ||x - .|| at y along any admissible direction
    d into the set is -<d, J(x-y)>; the residual is the worst positive such
    pairing over unit directions.  Zero residual is the normal-cone
    condition.  At p near 1 it cannot certify a converged projection: the
    duality map reads a residual entry left at rounding level (~1e-16) as
    |r_i|^(p-1), about 1e-4 at p = 1.25.
    """
    x = as_vector(x, space.dim)
    y = as_vector(y, space.dim)
    _require_in(cset, space)
    r = x - y
    if space.norm(r) < 1e-12:
        return 0.0
    j = duality_map(space, r)
    worst = 0.0
    if isinstance(cset, AffineSubspace):
        for col in cset.basis.T:
            worst = max(worst, abs(space.pairing(col / space.norm(col), j)))
    elif isinstance(cset, ConvexHull):
        for pt in cset.points:
            d = pt - y
            n = space.norm(d)
            if n > 1e-12:
                worst = max(worst, space.pairing(d / n, j))
    else:
        d = cset.center - y
        n = space.norm(d)
        if n > 1e-12:
            worst = max(worst, space.pairing(d / n, j))
    return worst


def lipschitz_probe(cset, space: LpSpace, pairs) -> float:
    """max |d(x,C) - d(y,C)| / ||x - y|| over sample pairs (1-Lipschitz check)."""
    worst = 0.0
    for x, y in pairs:
        x = as_vector(x, space.dim)
        y = as_vector(y, space.dim)
        sep = space.norm(x - y)
        if sep < 1e-12:
            continue
        dx = set_distance(cset, x, space)
        dy = set_distance(cset, y, space)
        worst = max(worst, abs(dx - dy) / sep)
    return worst


@dataclass(frozen=True, eq=False)
class FixedPointResult(Checked):
    checks: tuple
    applicable: bool  # False when no bounded orbit was found
    point: np.ndarray | None
    displacement: float
    orbit_size: int
    orbit_diameter: float

    @property
    def status(self) -> str:  # the rule's pass | fail | not-applicable, named for this solver
        return {"pass": "fixed", "fail": "not-fixed", "not-applicable": "unbounded"}[super().status]


def fixed_point_circumcenter(
    cocycle: Cocycle,
    x0,
    fix_tol: float = 1e-6,
) -> FixedPointResult:
    """Fixed point as the circumcenter of a bounded orbit.

    Table-backed groups enumerate the full orbit; presented groups grow
    word balls, to at most radius 12 and 100,000 points, until the ball
    closes or its diameter stalls for three consecutive radii
    (stabilization heuristic) and report "unbounded" otherwise.
    """
    space = cocycle.space
    space.require_smooth()
    try:
        orbit, diameter, bounded = _orbit_of(cocycle, as_vector(x0, space.dim))
    except OrbitCapExceeded:
        return FixedPointResult((), False, None, np.nan, _ORBIT_CAP, np.nan)
    if not bounded:
        return FixedPointResult((), False, None, np.nan, len(orbit), diameter)
    center, _ = circumcenter(orbit, space)
    disp = cocycle.max_displacement(center)
    checks = (check("displacement", disp, fix_tol),)
    return FixedPointResult(checks, True, center, disp, len(orbit), diameter)


@dataclass(frozen=True, eq=False)
class FisherMargulisStep:
    point: np.ndarray
    diameter: float


@dataclass(frozen=True, eq=False)
class FisherMargulisResult(Checked):
    checks: tuple     # one per accepted halving step, then the terminal displacement
    applicable: bool  # False when a halving step failed
    trace: tuple
    terminal: np.ndarray
    displacement: float

    @property
    def status(self) -> str:  # the rule's pass | fail | not-applicable, named for this solver
        return {"pass": "fixed", "fail": "max-iter", "not-applicable": "non-contracting"}[super().status]

    @property
    def radii(self):
        return [step.diameter for step in self.trace]

    def trace_csv(self, space: LpSpace) -> str:
        """Solver trace as CSV: iteration, radius, step norm, objective."""
        rows = ["iteration,radius,step_norm,objective"]
        prev = None
        for i, step in enumerate(self.trace):
            step_norm = 0.0 if prev is None else space.norm(step.point - prev.point)
            rows.append(f"{i},{step.diameter:.17g},{step_norm:.17g},{step.diameter:.17g}")
            prev = step
        return "\n".join(rows) + "\n"


def fisher_margulis_iterate(
    cocycle: Cocycle,
    k_words=None,
    x0=None,
    c_mult: float = 1.0,
    max_iter: int = 60,
    tol: float = 1e-6,
    seed: int = 0,
) -> FisherMargulisResult:
    """Diameter-halving iteration toward a fixed point.

    Each step minimizes y -> diam({y} u K.y) over the ball of radius
    c_mult * R_n around the current point, starting from the point itself,
    and accepts only strict halving.  Only when that one solve misses
    halving are the step's ``_FM_RESTARTS - 1`` random starts solved too,
    keeping the best; every step draws its random starts, solved or not, so
    the starts of a missed step do not depend on which earlier steps hit.
    A halving step that still misses stops the run with status
    "non-contracting".
    Otherwise the run ends "fixed" when the terminal K-displacement is at
    most ``tol`` and "max-iter" when it is not.
    The K-orbit diameter includes the point itself so that it always bounds
    the generator displacement.
    """
    space = cocycle.space
    space.require_smooth()
    words = k_words_of(cocycle.rep.group, k_words)
    if c_mult <= 0:
        raise ValueError("C must be positive")
    x = space.random_vector(np.random.default_rng(seed)) if x0 is None else as_vector(x0, space.dim)

    walks = [cocycle.walk(word) for word in words]
    mats = np.array([np.eye(space.dim)] + [mat for mat, _ in walks])
    shifts = np.array([np.zeros(space.dim)] + [val for _, val in walks])
    i, j = np.triu_indices(len(mats), 1)  # every pair i < j, in row order
    pair_mats, pair_shifts = mats[i] - mats[j], shifts[i] - shifts[j]

    def k_displacement(y):  # Cocycle.max_displacement over the walks already made
        return max(space.norm(mat @ y + val - y) for mat, val in walks)

    rng = np.random.default_rng(seed)
    trace = [FisherMargulisStep(point=x.copy(), diameter=_minimax_value(space, pair_mats, pair_shifts, x))]
    contracting = True
    for _ in range(max_iter):
        r_n = trace[-1].diameter
        if k_displacement(x) <= tol:
            break
        radius = c_mult * r_n
        ball = (x, radius)
        starts = [x + radius * rng.uniform(-1, 1, space.dim) * 0.7 for _ in range(_FM_RESTARTS - 1)]
        best_y, best_val = _minimize_minimax(space, pair_mats, pair_shifts, x, ball=ball)
        if best_val >= r_n / 2.0:  # a miss: solve the random starts too and keep the best
            for start in starts:
                start = _into_ball(space, start, x, radius)
                cand_y, cand_val = _minimize_minimax(space, pair_mats, pair_shifts, start, ball=ball)
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


@dataclass(frozen=True, eq=False)
class KleeResult:
    found: bool
    points: np.ndarray | None
    center: np.ndarray | None
    hull_distance: float       # certified lower bound on the distance
    trials_used: int
    checks: tuple              # the certificate exceeding the margin, when found


def hull_separation_certificate(pts: np.ndarray, x: np.ndarray, space: LpSpace) -> float:
    """Certified lower bound for d(x, hull(pts)) via a separating functional.

    Uses the duality map of x minus its (approximate) hull projection; any
    unit functional J gives d(x, hull) >= min_i <x - p_i, J>, so projection
    inaccuracy can only weaken the bound, never fake a separation.
    """
    proj = nearest_point(ConvexHull(pts), x, space)
    gap_vec = x - proj
    if space.norm(gap_vec) < 1e-12:
        return 0.0
    j = duality_map(space, gap_vec)
    return float(min(space.pairing(x - q, j) for q in pts))


def klee_search(
    space: LpSpace,
    trials: int = 500,
    seed: int = 0,
    margin: float = 1e-6,
) -> KleeResult:
    """Random hunt for a point set whose circumcenter escapes its convex hull.

    Each trial draws 4 to 6 Gaussian points.  Needs dim >= 3 and p != 2
    (in Hilbert space the center always lies in the closed hull).  A
    configuration counts as a witness only when the separating-functional
    certificate puts the center at least ``margin`` outside the hull.  Not
    finding one is a legitimate outcome.
    """
    if space.p == 2.0:
        raise Refusal("p = 2 refused: Hilbert circumcenters stay in the closed convex hull")
    if space.dim < 3:
        raise Refusal("Klee configurations require dim >= 3")
    space.require_smooth()
    rng = np.random.default_rng(seed)
    for trial in range(1, trials + 1):
        m = int(rng.integers(4, 7))
        pts = rng.standard_normal((m, space.dim))
        center, _ = circumcenter(pts, space)
        certified = check("certified_hull_distance", hull_separation_certificate(pts, center, space), margin, "gt")
        if certified["ok"]:
            return KleeResult(True, pts, center, certified["value"], trial, (certified,))
    return KleeResult(False, None, None, 0.0, trials, ())
