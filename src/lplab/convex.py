"""Convex geometry engines for lp spaces.

All minimax objectives here are maxima of norms of affine expressions
max_i ||A_i y + b_i||; they are minimized by softmax temperature
continuation (smooth surrogate, warm-started over a decreasing temperature
schedule) and polished on the exact epigraph formulation with an SQP step.
Nearest-point problems are smooth convex minimizations for p > 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cocycle import _ORBIT_CAP, Cocycle, OrbitCapExceeded, _orbit_of
from .errors import Refusal
from .reports import Checked, check
from .spaces import LpSpace, as_vector, duality_map, norm_pow, norms, norms_and_grads, pow_grad, weighted_lstsq

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
        if basis.ndim == 1:
            basis = basis[:, None]
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


def _minimize_minimax(space: LpSpace, mats: np.ndarray, shifts: np.ndarray, y0: np.ndarray, ball=None,
                      gtol: float = 1e-12):
    """Minimize max_i ||A_i y + b_i|| over stacked terms.

    ``mats`` holds the A_i as a (T, dim, dim) array and ``shifts`` the b_i
    as (T, dim); a term's identity matrix is passed like any other.
    ``ball`` is an optional (center, radius) trust constraint.  Softmax
    continuation with warm starts, then an epigraph SQP polish; returns the
    best point found by true objective value.
    """
    from scipy import optimize  # lazy: importing the CLI loads no SciPy
    w, p = space.weights, space.p

    def value(y):
        return _minimax_value(space, mats, shifts, y)

    y = np.asarray(y0, dtype=float).copy()
    scale = max(value(y), 1e-9)
    if ball is not None:
        center, radius = ball
        radius = max(radius, 1e-300)

    n_terms = len(mats)
    for temp in (1.0, 0.1, 0.01, 0.001):
        t_eff = temp * scale

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
                    beta = 100.0 * scale / radius
                    val += beta * excess**2
                    grad += 2.0 * beta * excess * grads[n_terms]
            return val, grad

        res = optimize.minimize(f_grad, y, jac=True, method="L-BFGS-B",
                                options={"ftol": 1e-16, "gtol": gtol, "maxiter": 500})
        y = res.x

    if ball is not None:
        off = space.norm(y - center)
        if off > radius:
            y = center + (y - center) * (radius / off)
    best_y, best_val = y, value(y)

    # epigraph polish: min t  s.t.  t**p >= ||A_i y + b_i||**p  (+ ball)
    def cfun(z):
        yv, t = z[:-1], z[-1]
        return max(t, 1e-300) ** p - norm_pow(w, p, mats @ yv + shifts)

    def cjac(z):
        yv, t = z[:-1], z[-1]
        gy = -p * _transpose_times(mats, pow_grad(w, p, mats @ yv + shifts))
        return np.hstack([gy, np.full((len(gy), 1), p * max(t, 1e-300) ** (p - 1.0))])

    cons = [{"type": "ineq", "fun": cfun, "jac": cjac}]
    if ball is not None:
        def bfun(z):
            return radius**p - norm_pow(w, p, z[:-1] - center)

        def bjac(z):
            return np.concatenate([-p * pow_grad(w, p, z[:-1] - center), [0.0]])

        cons.append({"type": "ineq", "fun": bfun, "jac": bjac})

    z0 = np.concatenate([best_y, [best_val * (1.0 + 1e-10) + 1e-14]])
    try:
        res = optimize.minimize(
            lambda z: z[-1],
            z0,
            jac=lambda z: np.concatenate([np.zeros(space.dim), [1.0]]),
            constraints=cons,
            method="SLSQP",
            options={"ftol": 1e-14, "maxiter": 400},
        )
        if res.x is not None:
            cand = res.x[:-1]
            if ball is not None:
                off = space.norm(cand - center)
                if off > radius:
                    cand = center + (cand - center) * (radius / off)
            cand_val = value(cand)
            if cand_val < best_val:
                best_y, best_val = cand, cand_val
    except (ValueError, OverflowError):  # pragma: no cover - SLSQP edge failures
        pass
    return best_y, best_val


def circumcenter(points, space: LpSpace, tol: float = 1e-9):
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
    return _minimize_minimax(space, mats, -pts, pts.mean(axis=0), gtol=tol * 1e-2)


def nearest_point(cset, x, space: LpSpace, tol: float = 1e-10) -> np.ndarray:
    """The unique nearest point of a closed convex set (p > 1)."""
    space.require_smooth()
    x = as_vector(x, space.dim)
    if isinstance(cset, Ball):
        off = x - cset.center
        n = space.norm(off)
        if n <= cset.radius:
            return x.copy()
        return cset.center + off * (cset.radius / n)
    if isinstance(cset, AffineSubspace):
        return _project_affine(cset, x, space, tol)
    if isinstance(cset, ConvexHull):
        return _project_hull(cset, x, space, tol)
    raise TypeError(f"unsupported convex set {type(cset).__name__}")


def _residual_pow(space: LpSpace, x: np.ndarray, mat: np.ndarray):
    """c -> (||x - mat @ c||**p, its gradient in c): the nearest-point objective."""
    w, p = space.weights, space.p

    def f_grad(c):
        r = x - mat @ c
        return norm_pow(w, p, r), -p * (mat.T @ pow_grad(w, p, r))

    return f_grad


def _project_affine(cset: AffineSubspace, x, space, tol) -> np.ndarray:
    from scipy import optimize  # lazy: importing the CLI loads no SciPy
    basis = cset.basis
    if basis.size == 0:
        return cset.base.copy()
    resid0 = x - cset.base
    c2 = weighted_lstsq(space.weights, basis, resid0)
    if space.p == 2.0:
        return cset.base + basis @ c2
    res = optimize.minimize(_residual_pow(space, resid0, basis), c2, jac=True, method="L-BFGS-B",
                            options={"ftol": 1e-18, "gtol": tol * 1e-2, "maxiter": 2000})
    return cset.base + basis @ res.x


def _hull_contains(pts: np.ndarray, x: np.ndarray, tol: float = 1e-9) -> bool:
    from scipy import optimize  # lazy: importing the CLI loads no SciPy
    m, dim = pts.shape
    a_eq = np.vstack([pts.T, np.ones((1, m))])
    b_eq = np.concatenate([x, [1.0]])
    res = optimize.linprog(np.zeros(m), A_eq=a_eq, b_eq=b_eq, bounds=[(0.0, None)] * m)
    return bool(res.success) and float(np.max(np.abs(a_eq @ res.x - b_eq))) <= tol


def _project_hull(cset: ConvexHull, x, space, tol) -> np.ndarray:
    from scipy import optimize  # lazy: importing the CLI loads no SciPy
    pts = cset.points
    m = pts.shape[0]
    if m == 1:
        return pts[0].copy()
    if _hull_contains(pts, x):
        return x.copy()
    cons = [{"type": "eq", "fun": lambda lam: np.sum(lam) - 1.0, "jac": lambda lam: np.ones(m)}]
    res = optimize.minimize(
        _residual_pow(space, x, pts.T), np.full(m, 1.0 / m), jac=True, method="SLSQP",
        bounds=[(0.0, 1.0)] * m, constraints=cons,
        options={"ftol": 1e-16, "maxiter": 500},
    )
    lam = np.clip(res.x, 0.0, None)
    lam /= lam.sum()
    return pts.T @ lam


def set_distance(cset, x, space: LpSpace, tol: float = 1e-10) -> float:
    return space.norm(as_vector(x, space.dim) - nearest_point(cset, x, space, tol))


def optimality_residual(cset, x, y, space: LpSpace) -> float:
    """First-order optimality of y as the projection of x: duality-map alignment.

    Directional derivative of ||x - .|| at y along any admissible direction
    d into the set is -<d, J(x-y)>; the residual is the worst positive such
    pairing over unit directions.  Zero residual is the normal-cone
    condition.
    """
    x = as_vector(x, space.dim)
    y = as_vector(y, space.dim)
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
    elif isinstance(cset, Ball):
        d = cset.center - y
        n = space.norm(d)
        if n > 1e-12:
            worst = max(worst, space.pairing(d / n, j))
    else:
        raise TypeError(f"unsupported convex set {type(cset).__name__}")
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
    words = list(k_words) if k_words is not None else list(cocycle.rep.group.k_set)
    if not words:
        raise ValueError("K must be nonempty")
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
                off = space.norm(start - x)
                if off > radius:
                    start = x + (start - x) * (radius / off)
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
