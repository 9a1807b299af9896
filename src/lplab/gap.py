"""Kazhdan-type gap estimation on the canonical complement.

The gap of a representation over a generating set K is

    inf { max_{g in K} ||rho(g) v - v|| : v in the unit sphere of B' }.

Each estimate is the displacement ratio evaluated at an explicit witness, so
it is always a true upper bound for the gap.  ``kazhdan_gap`` first tries a
witness that is exact, and returns it only when its own evaluated ratio
proves it optimal:

- In complement dimension 1 the sphere is +-b, so the ratio at the
  normalised start is the gap, for every p.
- At p = 2 the gap squared is min_c max_k c^T Q_k c / c^T G c, with
  A_k = (rho(k) - I)B, Q_k = A_k^T W A_k and G = B^T W B.  For every t in
  the simplex, max_k c^T Q_k c >= sum_k t_k c^T Q_k c >= lambda_min(sum_k
  t_k Q_k, G) c^T G c, so sqrt(lambda*), with lambda* the largest such
  lambda_min, is a lower bound for the gap.  With one word t = 1 and the
  witness is the eigenvector start; with two words a golden section over t
  finds lambda*, and the witness is a vector of the lambda_min eigenspace at
  that t on which neither form exceeds lambda* (Polyak, *Convexity of
  quadratic transformations*, 1998, explains why one exists).  The witness
  is returned when its evaluated ratio is at most sqrt(lambda*) (1 + 1e-12);
  that check, not the theorem, is what the result rests on.

Otherwise -- p != 2, three or more words, a singular G, or a witness that
misses its check -- the estimate is a search over complement coordinates, in
two stages:

- *Seeding.*  Multistart adaptive subgradient descent for 60 iterations,
  from the weighted-l2 eigenvector start, in complement dimension 2 to 4 the
  best three of 2,048 seeded uniform sphere directions (normalised Gaussian
  vectors, Muller 1959), and seeded Gaussian vectors.  The restarts descend
  in lockstep as arrays with one row per restart, every one for all 60
  iterations.  Each iteration moves every row with the same handful of
  array operations, and a row's subgradient is taken when it accepts a
  step, from the rows and norms the evaluation of that step has already
  computed.  Every row does the arithmetic of a one-restart loop, so the
  seeding equals that loop's bit for bit.
- *Polish.*  The best seeded restart is run to convergence by the
  quasi-Newton ``convex._bfgs`` (Lewis and Overton, *Nonsmooth optimization
  via quasi-Newton methods*, 2013): on the ratio itself for one word, and
  for several on softmaxes of the per-word ratios at falling temperatures,
  then on their maximum.  The polished point replaces the seeded one only
  when its evaluated ratio is lower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import k_words_of
from .representation import Representation, canonical_complement
from .spaces import grads_from_roots, norms, norms_and_grads

__all__ = ["MAX_RESTARTS", "GapEstimate", "kazhdan_gap"]

# the restarts descend together, holding (restarts, |K|+1, dim) floats
MAX_RESTARTS = 1024
_SEED_ITERS = 60  # lockstep descent iterations before the best restart is polished
# with several words the polish's first softmax temperature, as a fraction of the seeded ratio
_SOFT_TEMP = 1e-3
_COOLING = 1e-4  # each polish stage divides the temperature and the step cap by this
_GTOL = 1e-13  # a polish stage stops once no gradient entry exceeds this fraction of the seeded ratio
_REACH = 0.5  # the first polish stage takes no step longer than 2 * _REACH; the seeded point has length 1
_LOWER_SLACK = 1e-6  # heuristic_lower is upper minus this, and at least 0
_SWEEP_STREAM = 1959  # keeps the sphere sweep's draws apart from the restarts' default_rng(seed)
# eigenvalues within this much of lambda_min, times max(1, |lambda_max|), are one eigenspace
_CLUSTER_TOL = 1e-9
# an exact p = 2 witness is returned when its ratio is at most sqrt(lambda*) (1 + _ATTAINED)
_ATTAINED = 1e-12
# golden-section probes over t in [0, 1]; the bracket shrinks to 0.618**72 < 1e-15
_GOLDEN_PROBES = 72


@dataclass(frozen=True, eq=False)
class GapEstimate:
    upper: float
    heuristic_lower: float
    witness: np.ndarray | None
    complement_dim: int

    @property
    def infinite(self) -> bool:
        return not np.isfinite(self.upper)


def _sphere_directions(m: int, count: int, seed: int) -> np.ndarray:
    """``count`` directions uniform on the unit sphere of R^m, from the sweep's own stream; +-1 when m = 1."""
    if m == 1:
        return np.array([[1.0], [-1.0]])
    pts = np.random.default_rng([seed, _SWEEP_STREAM]).standard_normal((count, m))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    for x in v:
        if x > 1e-14:
            return v
        if x < -1e-14:
            return -v
    return v


def _matvecs(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """mats[..., :, :] @ vecs[..., :] as a stack of matrix-vector products.

    numpy runs one matrix-vector product per stack entry, with the same
    kernel as a single ``mat @ vec``, so every row is bit-identical to the
    product taken on its own; a matrix-matrix or ``einsum`` form is not.
    """
    return (mats @ vecs[..., None])[..., 0]


def _l2_norms(vecs: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row, by the dot product ``np.linalg.norm`` takes."""
    return np.sqrt(_matvecs(vecs[:, None, :], vecs)[:, 0])


def _generalized_eigh(quad: np.ndarray, gram: np.ndarray):
    """Eigenvalues (ascending) and eigenvectors of quad v = lam gram v, for gram positive definite.

    With gram = L L^T they are those of the symmetric L^-1 quad L^-T, the
    vectors mapped back by L^-T, so that v^T gram v = 1.  Raises
    ``LinAlgError`` when gram is not positive definite.
    """
    chol_inv = np.linalg.inv(np.linalg.cholesky(gram))
    vals, vecs = np.linalg.eigh(chol_inv @ quad @ chol_inv.T)
    return vals, chol_inv.T @ vecs


def _projection(cols: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """A vector of span(cols) that is the same for every gram-orthonormal basis ``cols`` of it.

    It is the gram-orthogonal projection onto the span of the first
    coordinate vector e_j whose projection has gram norm above 1e-8 times
    that of e_j.
    """
    # column j holds the coordinates of e_j's projection, whose gram norm is theirs
    coords = cols.T @ gram
    j = np.flatnonzero(np.linalg.norm(coords, axis=0) > 1e-8 * np.sqrt(np.diag(gram)))[0]
    return cols @ coords[:, j]


def _lowest(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """The columns of ``vecs`` whose ascending ``vals`` are within ``_CLUSTER_TOL * max(1, |max|)`` of the least."""
    return vecs[:, vals - vals[0] <= _CLUSTER_TOL * max(1.0, abs(vals[-1]))]


def _eigen_start(quad: np.ndarray, gram: np.ndarray):
    """lambda_min of quad v = lam gram v, and an eigenvector for it that does not depend on the eigensolver's choice.

    The eigenvalues ``_lowest`` keeps are taken as one eigenspace.  When it
    is a line the start is the solver's vector for lambda_min; otherwise it
    is the eigenspace's ``_projection``.  Raises ``LinAlgError`` as
    ``_generalized_eigh``.
    """
    vals, vecs = _generalized_eigh(quad, gram)
    cluster = _lowest(vals, vecs)
    return float(vals[0]), cluster[:, 0] if cluster.shape[1] == 1 else _projection(cluster, gram)


def _two_word_point(forms, gram: np.ndarray):
    """(lambda*, c): the maximum over t in [0, 1] of lambda_min(t Q_0 + (1 - t) Q_1, G), and a witness for it.

    lambda_min of the pencil is concave in t.  A golden section keeps the
    largest value it finds, with both ends probed too; G is factored once,
    and each probe takes one ``eigvalsh``.  On gram-unit vectors of the
    lambda_min eigenspace E at that t, Q_0 = lambda + (1 - t) D and Q_1 =
    lambda - t D with D = Q_0 - Q_1, so neither form exceeds lambda where D
    is 0 (or, at t = 1, >= 0; at t = 0, <= 0).  The witness is E's
    ``_projection`` when D there is right; otherwise it is combined with
    the ``_projection`` of E's D-eigenspace for the extreme eigenvalue of
    the other sign, so that D vanishes.  Neither depends on the basis the
    eigensolver returns.  Where E holds no such vector, E's projection is
    returned, and the caller's check refuses it.
    """
    chol_inv = np.linalg.inv(np.linalg.cholesky(gram))
    m0, m1 = (chol_inv @ q @ chol_inv.T for q in forms)

    def lam_min(t):
        return float(np.linalg.eigvalsh(t * m0 + (1.0 - t) * m1)[0])

    gold = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, 1.0
    a, b = hi - gold, gold
    fa, fb = lam_min(a), lam_min(b)
    best = max((lam_min(0.0), 0.0), (lam_min(1.0), 1.0), (fa, a), (fb, b))
    for _ in range(_GOLDEN_PROBES):
        if fa < fb:
            lo, a, fa = a, b, fb
            b = lo + gold * (hi - lo)
            fb = lam_min(b)
            best = max(best, (fb, b))
        else:
            hi, b, fb = b, a, fa
            a = hi - gold * (hi - lo)
            fa = lam_min(a)
            best = max(best, (fa, a))
    lam, t = best

    diff = forms[0] - forms[1]
    vals, vecs = _generalized_eigh(t * forms[0] + (1.0 - t) * forms[1], gram)
    eig = _lowest(vals, vecs)

    def unit(v):
        v = _projection(v, gram)
        return v / math.sqrt(v @ gram @ v), v @ diff @ v / (v @ gram @ v)

    x, d = unit(eig)
    tol = 1e-13 * abs(lam)
    if abs(d) <= tol or (t == 1.0 and d > 0.0) or (t == 0.0 and d < 0.0):
        return lam, x
    mus, rot = np.linalg.eigh(eig.T @ diff @ eig)
    other = _lowest(mus, rot) if d > 0.0 else _lowest(-mus[::-1], rot[:, ::-1])
    y, e = unit(eig @ other)
    if d * e >= 0.0:
        return lam, x
    # D(x + s y) = d + 2 s cross + s^2 e = 0 has one root of each sign; take the positive one
    cross = x @ diff @ y
    s = (-cross + math.copysign(math.sqrt(cross * cross - d * e), e)) / e
    return lam, x + s * y


def _evaluate(ops: np.ndarray, w, p, cs: np.ndarray):
    """The rows ops @ c, their norms and the displacement ratio, for each row c of ``cs``."""
    rows = _matvecs(ops, cs[:, None, :])
    vals = norms(w, p, rows.reshape(-1, ops.shape[1])).reshape(rows.shape[:2])
    return rows, vals, np.maximum.reduce(vals[:, :-1], axis=1) / vals[:, -1]


def _setup(rep: Representation, words, basis: np.ndarray):
    """What both paths read: ``ops``, the forms Q_k, G, and lambda_min and the eigenvector start.

    ``ops`` stacks the displacement operators (rho(k) - I)B of the words
    and then the basis B, so that rows 0..K-1 of ops @ c are the K
    displacements and the last row is the vector itself.  lambda_min and the
    start are those of sum_k Q_k against G (``_eigen_start``), both None
    when G is singular.
    """
    w = rep.space.weights
    eye = np.eye(rep.space.dim)
    ops = np.array([(rep.operator(word) - eye) @ basis for word in words] + [basis])
    # weighted-l2 forms A^T W A of the displacements, then G
    forms = [a.T @ (w[:, None] * a) for a in ops]
    gram = forms.pop()
    try:
        lam, start = _eigen_start(sum(forms), gram)
    except np.linalg.LinAlgError:  # a rank-deficient basis: gram is singular, the random starts remain
        lam, start = None, None
    return ops, forms, gram, lam, start


def _exact(space, ops: np.ndarray, forms, gram: np.ndarray, lam: float, start: np.ndarray):
    """The estimate at an exact witness, or None where there is none or it misses its check.

    Complement dimension 1 takes the start at any p; p = 2 takes the start
    for one word and ``_two_word_point`` for two.
    """
    m = ops.shape[2]
    if m == 1:
        c, bound = start, None
    elif space.p != 2.0 or len(forms) > 2:
        return None
    elif len(forms) == 1:
        c, bound = start, lam
    else:
        bound, c = _two_word_point(forms, gram)
    c = c[None] / _l2_norms(c[None])[:, None]
    upper = _evaluate(ops, space.weights, space.p, c)[2].tolist()[0]
    if bound is not None and not (bound > 0.0 and upper <= math.sqrt(bound) * (1.0 + _ATTAINED)):
        return None
    return _result(space, ops, c[0], upper)


def kazhdan_gap(
    rep: Representation,
    k_words=None,
    basis: np.ndarray | None = None,
    restarts: int = 64,
    seed: int = 0,
) -> GapEstimate:
    """Estimate the gap of ``rep`` over the word set K on the canonical complement.

    ``basis`` overrides the complement basis.  Returns an upper bound (the
    ratio at the witness), a heuristic lower bound, and the witness itself.
    An empty complement yields the +inf sentinel.

    In complement dimension 1, and at p = 2 with one or two words, the
    witness is exact (see the module docstring): it is returned when its
    ratio passes its check, and ``restarts`` and ``seed`` are unused.
    Otherwise, and where the check fails, the estimate is the search's
    (``_descent``), whose result is the same as if no exact witness had been
    tried.  ``restarts`` must be an integer from 1 to ``MAX_RESTARTS``, on
    either path.

    The heuristic lower bound is max(0, upper - 1e-6) on every path.  It
    never exceeds the upper bound, nothing checks it, and no verdict reads it.
    """
    if isinstance(restarts, bool) or not isinstance(restarts, (int, np.integer)) or not 1 <= restarts <= MAX_RESTARTS:
        raise ValueError(f"restarts must be an integer between 1 and {MAX_RESTARTS}, got {restarts!r}")
    words = k_words_of(rep.group, k_words)
    if basis is None:
        basis = canonical_complement(rep).complement_basis
    basis = np.ascontiguousarray(basis)  # the products below then depend on its values only, not its strides
    if basis.shape[1] == 0:
        return GapEstimate(np.inf, np.inf, None, 0)
    ops, forms, gram, lam, start = _setup(rep, words, basis)
    exact = None if start is None else _exact(rep.space, ops, forms, gram, lam, start)
    return exact if exact is not None else _descent(rep.space, ops, start, restarts, seed)


def _descent(space, ops: np.ndarray, start: np.ndarray | None, restarts: int, seed: int) -> GapEstimate:
    """The search: ``_lockstep``'s seeding, then ``_polish`` of its best restart.

    ``ops`` and ``start`` are ``_setup``'s.  The polished point replaces the
    seeded one only when its evaluated ratio is lower, so the upper bound is
    always the ratio at the returned witness.
    """
    c, upper = _lockstep(space, ops, start, restarts, seed)
    if upper > 0.0:  # a ratio of 0 is already the least
        polished = _polish(space, ops, c, upper)[None]  # may be c itself, so not normalised in place
        polished = polished / _l2_norms(polished)[:, None]
        val = _evaluate(ops, space.weights, space.p, polished)[2].tolist()[0]
        if val < upper:
            c, upper = polished[0], val
    return _result(space, ops, c, upper)


def _lockstep(space, ops: np.ndarray, start: np.ndarray | None, restarts: int, seed: int):
    """The seeding: ``_SEED_ITERS`` iterations of multistart adaptive subgradient descent on the ratio.

    ``ops`` and ``start`` are ``_setup``'s; the starts are ``start`` (when
    not None), the sphere sweep's best three in complement dimension 2 to
    4, and standard normal vectors from ``default_rng(seed)`` up to
    ``restarts``.  They descend in lockstep, each with its own step size,
    which grows by 1.25 (up to 1) on an accepted step and shrinks by 0.6 on
    a rejected one.  The final points are reduced in index order, so the
    result is deterministic for a fixed seed; ties between witnesses break
    toward the lexicographically smaller vector.

    Returns the best restart's unit coordinates and its ratio.
    """
    w, p, n = space.weights, space.p, space.dim
    basis = ops[-1]
    m = basis.shape[1]

    def subgrad(rows, vals, at):
        """Subgradient of the ratio at the points ``at``, through the first largest displacement.

        It is taken from the rows and norms that ``_evaluate`` returned for them.
        """
        top = vals[at, :-1].argmax(axis=1)
        picked = np.stack([top, np.full_like(top, len(ops) - 1)], axis=1)  # its largest displacement, then itself
        at = at[:, None]
        pair = vals[at, picked]  # (num, den) per point
        grads = grads_from_roots(w, p, rows[at, picked].reshape(-1, n), pair.ravel().tolist())
        g_num, g_den = _matvecs(ops[top].transpose(0, 2, 1), grads[0::2]), _matvecs(basis.T, grads[1::2])
        den_sq = np.array([d**2 for d in pair[:, 1].tolist()])  # the scalar power, as for one point
        return (g_num * pair[:, 1:] - pair[:, :1] * g_den) / den_sq[:, None]

    rng = np.random.default_rng(seed)
    starts = [] if start is None else [start]
    if m <= 4:
        dense = _sphere_directions(m, 1 << 11, seed)
        for idx in np.argsort(_evaluate(ops, w, p, dense)[2])[:3]:
            starts.append(dense[idx])
    while len(starts) < restarts:
        starts.append(rng.standard_normal(m))

    # one row per restart: point, ratio, subgradient and step size
    c = np.array(starts)
    c /= _l2_norms(c)[:, None]
    rows, vals, val = _evaluate(ops, w, p, c)
    grad = subgrad(rows, vals, np.arange(len(c)))
    step = np.full(len(c), 0.2)
    for _ in range(_SEED_ITERS):
        cand = c - step[:, None] * grad
        cand /= _l2_norms(cand)[:, None]  # at least 1 up to rounding: the subgradient is orthogonal to c
        cand_rows, cand_vals, cand_val = _evaluate(ops, w, p, cand)
        better = cand_val < val
        acc = np.flatnonzero(better)
        if acc.size:
            grad[acc] = subgrad(cand_rows, cand_vals, acc)
            c = np.where(better[:, None], cand, c)
            val = np.where(better, cand_val, val)
        # a step never exceeds 1, so only a grown one can reach the cap
        step = np.minimum(step * np.where(better, 1.25, 0.6), 1.0)

    best_val, best = np.inf, None
    for i, (witness_vec, v) in enumerate(zip(_matvecs(basis, c), val.tolist())):
        witness_vec = _canonical_sign(witness_vec / space.norm(witness_vec))
        if best is None or v < best_val - 1e-12 or (abs(v - best_val) <= 1e-12 and tuple(witness_vec) < tuple(best)):
            best_val, best, best_i = v, witness_vec, i
    return c[best_i], best_val


def _polish(space, ops: np.ndarray, c: np.ndarray, val: float) -> np.ndarray:
    """The seeded point ``c``, of ratio ``val``, polished by ``convex._bfgs``: the point its last stage ends at.

    With f_k(c) = ||A_k c|| / ||B c|| for the rows of ``ops``, f_k has the
    gradient (A_k^T g_k - f_k B^T g) / ||B c||, for g_k and g the norm
    gradients of A_k c and B c.  With one word BFGS minimizes f_0.  With
    several, the minimum is often a kink of max_k f_k, where steepest
    descent from a nearby point rises for every step that 20 halvings
    reach.  So BFGS minimizes the softmax T log sum_k exp(f_k / T) at
    T = 1e-3, 1e-7 and 1e-11 times ``val`` in turn, each stage from the
    last one's point, and then max_k f_k itself through its first largest
    term (BFGS on a nonsmooth max: Lewis and Overton 2013).  A later stage
    starts within about the earlier temperature of its minimizer, so stage j
    takes no step longer than 2 * ``_REACH`` * ``_COOLING``**j.  Every f_k
    is unchanged by scaling c, whose seeded length is 1.
    """
    from .convex import _bfgs  # convex imports cocycle, which imports this module

    w, p = space.weights, space.p

    def objective(temp):
        def f_grad(x):
            vals, grads = norms_and_grads(w, p, ops @ x)
            if vals[-1] == 0.0:  # only a rank-deficient basis maps c != 0 to 0; no point there is better
                return np.inf, np.zeros_like(x)
            back = (grads[:, None, :] @ ops)[:, 0]
            f = vals[:-1] / vals[-1]
            df = (back[:-1] - f[:, None] * back[-1]) / vals[-1]
            top = int(np.argmax(f))
            if temp is None:
                return float(f[top]), df[top]
            soft = np.exp((f - f[top]) / temp)
            return float(f[top] + temp * np.log(soft.sum())), (soft / soft.sum()) @ df

        return f_grad

    # one word: the ratio itself; several: softmax temperatures 1e-3, 1e-7 and 1e-11 of val, then the max
    temps = [None] if len(ops) == 2 else [_SOFT_TEMP * _COOLING**j * val for j in range(3)] + [None]
    for j, temp in enumerate(temps):
        c = _bfgs(objective(temp), c, _GTOL * val, _REACH * _COOLING**j, np.linalg.norm)
    return c


def _result(space, ops: np.ndarray, c: np.ndarray, upper: float) -> GapEstimate:
    """The estimate whose upper bound ``upper`` is the ratio at the unit coordinates ``c``."""
    witness = _matvecs(ops[-1], c[None])[0]
    return GapEstimate(upper, max(0.0, upper - _LOWER_SLACK), _canonical_sign(witness / space.norm(witness)),
                       ops.shape[2])
