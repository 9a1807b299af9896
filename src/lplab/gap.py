"""Kazhdan-type gap estimation on the canonical complement.

The gap of a representation over a generating set K is

    inf { max_{g in K} ||rho(g) v - v|| : v in the unit sphere of B' }.

The estimator minimizes the (scale-invariant) displacement ratio by
multistart adaptive subgradient descent over complement coordinates, seeded
with the weighted-l2 eigenvector heuristic and, in complement dimension
2 to 4, the best three of 2,048 seeded uniform sphere directions
(normalised Gaussian vectors, Muller 1959).  The value at the best witness
found is always a true upper bound for the gap.

The restarts descend in lockstep as arrays with one row per live restart.
Each iteration moves every row with the same handful of array operations,
and a row's subgradient is taken when it accepts a step, from the rows and
norms the evaluation of that step has already computed.  A restart that
stops writes its point, ratio and mark to the output and its row is
dropped, so the work of an iteration follows the restarts still descending.
Every row does the arithmetic of a one-restart loop, so the estimate equals
that loop's bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .representation import Representation, canonical_complement
from .spaces import grads_from_roots, norms

__all__ = ["MAX_RESTARTS", "GapEstimate", "kazhdan_gap"]

# the restarts descend together, holding (restarts, |K|+1, dim) floats
MAX_RESTARTS = 1024
_ITERS = 400  # descent iterations per restart
_MARK_AT = int(0.8 * _ITERS)  # the ratio after this iteration sets the heuristic lower bound
_SWEEP_STREAM = 1959  # keeps the sphere sweep's draws apart from the restarts' default_rng(seed)
# eigenvalues within this much of lambda_min, times max(1, |lambda_max|), are one eigenspace for the start
_CLUSTER_TOL = 1e-9


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


def _eigen_start(quad: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """A lambda_min eigenvector of quad v = lam gram v that does not depend on the eigensolver's choice.

    The eigenvalues within ``_CLUSTER_TOL * max(1, |lambda_max|)`` of
    lambda_min are taken as one eigenspace.  When it is a line the start is
    the solver's vector for lambda_min; otherwise it is the gram-orthogonal
    projection onto the eigenspace of the first coordinate vector e_j whose
    projection has gram norm above 1e-8 times that of e_j, which is the same
    for every gram-orthonormal basis of the eigenspace.  Raises
    ``LinAlgError`` as ``_generalized_eigh``.
    """
    vals, vecs = _generalized_eigh(quad, gram)
    cluster = vecs[:, vals - vals[0] <= _CLUSTER_TOL * max(1.0, abs(vals[-1]))]
    if cluster.shape[1] == 1:
        return cluster[:, 0]
    # column j holds the eigenspace coordinates of e_j's projection, whose gram norm is theirs
    coords = cluster.T @ gram
    j = np.flatnonzero(np.linalg.norm(coords, axis=0) > 1e-8 * np.sqrt(np.diag(gram)))[0]
    return cluster @ coords[:, j]


def kazhdan_gap(
    rep: Representation,
    k_words=None,
    basis: np.ndarray | None = None,
    restarts: int = 64,
    seed: int = 0,
) -> GapEstimate:
    """Estimate the gap of ``rep`` over the word set K on the canonical complement.

    ``basis`` overrides the complement basis.
    Returns an upper bound (value at the best witness), a heuristic lower
    bound (upper minus the observed descent slack), and the witness itself.
    An empty complement yields the +inf sentinel.  At most
    ``MAX_RESTARTS`` restarts are allowed; they descend in lockstep, each
    with its own step size, for at most 400 iterations.  A restart stops
    once a rejected step leaves its step size below 1e-14, and its row is
    then removed from the live arrays.  The stopped and final points are
    reduced in index order, so the result is deterministic for a fixed seed;
    ties between witnesses break toward the lexicographically smaller vector.
    """
    if restarts > MAX_RESTARTS:
        raise ValueError(f"restarts must be at most {MAX_RESTARTS}, got {restarts}")
    words = list(k_words) if k_words is not None else list(rep.group.k_set)
    if not words:
        raise ValueError("K must be nonempty")
    if basis is None:
        basis = canonical_complement(rep).complement_basis
    basis = np.ascontiguousarray(basis)  # the products below then depend on its values only, not its strides
    m = basis.shape[1]
    if m == 0:
        return GapEstimate(np.inf, np.inf, None, 0)

    space = rep.space
    w, p, n = space.weights, space.p, space.dim
    eye = np.eye(n)
    disp_ops = [(rep.operator(word) - eye) @ basis for word in words]
    # rows 0..K-1 of ops @ c are the K displacements, the last row is the vector itself
    ops = np.array(disp_ops + [basis])

    def evaluate(cs):
        """The rows ops @ c, their norms and the displacement ratio, for each row c of ``cs``."""
        rows = _matvecs(ops, cs[:, None, :])
        vals = norms(w, p, rows.reshape(-1, n)).reshape(rows.shape[:2])
        return rows, vals, np.maximum.reduce(vals[:, :-1], axis=1) / vals[:, -1]

    def subgrad(rows, vals, at):
        """Subgradient of the ratio at the points ``at``, through the first largest displacement.

        It is taken from the rows and norms that ``evaluate`` returned for them.
        """
        picked = pick[: len(at)]
        picked[:, 0] = vals[at, :-1].argmax(axis=1)
        at = at[:, None]
        pair = vals[at, picked]  # (num, den) per point
        grads = grads_from_roots(w, p, rows[at, picked].reshape(-1, n), pair.ravel().tolist())
        g_num, g_den = _matvecs(ops[picked[:, 0]].transpose(0, 2, 1), grads[0::2]), _matvecs(basis.T, grads[1::2])
        den_sq = np.array([d**2 for d in pair[:, 1].tolist()])  # the scalar power, as for one point
        return (g_num * pair[:, 1:] - pair[:, :1] * g_den) / den_sq[:, None]

    rng = np.random.default_rng(seed)
    starts = []
    # weighted-l2 displacement quadratic form: exact at p = 2 for one word
    quad = sum(a.T @ (w[:, None] * a) for a in disp_ops)
    gram = basis.T @ (w[:, None] * basis)
    try:
        starts.append(_eigen_start(quad, gram))
    except np.linalg.LinAlgError:  # a rank-deficient basis: gram is singular, the random starts remain
        pass
    if m <= 4:
        dense = _sphere_directions(m, 1 << 11, seed)
        for idx in np.argsort(evaluate(dense)[2])[:3]:
            starts.append(dense[idx])
    while len(starts) < restarts:
        starts.append(rng.standard_normal(m))

    # one row per live restart: point, ratio, subgradient, step size, mark and index
    c = np.array(starts)
    c /= _l2_norms(c)[:, None]
    pick = np.full((len(c), 2), len(words))  # per point: its largest displacement, then the vector itself
    rows, vals, val = evaluate(c)
    grad = subgrad(rows, vals, np.arange(len(c)))
    step = np.full(len(c), 0.2)
    mark = val.copy()
    live = np.arange(len(c))
    out_c, out_val, out_mark = np.empty_like(c), np.empty_like(val), np.empty_like(val)
    for t in range(_ITERS):
        cand = c - step[:, None] * grad
        norm = _l2_norms(cand)
        tiny = None
        if norm.min() < 1e-14:
            # these skip the iteration: they evaluate their own point, which is no better
            tiny = norm < 1e-14
            cand[tiny], norm[tiny] = c[tiny], 1.0
        cand /= norm[:, None]
        cand_rows, cand_vals, cand_val = evaluate(cand)
        better = cand_val < val
        acc = np.flatnonzero(better)
        if acc.size:
            grad[acc] = subgrad(cand_rows, cand_vals, acc)
            c = np.where(better[:, None], cand, c)
            val = np.where(better, cand_val, val)
        # a step never exceeds 1, so only a grown one can reach the cap
        factor = np.where(better, 1.25, 0.6)
        if tiny is not None:
            factor[tiny] = 0.5
        step = np.minimum(step * factor, 1.0)
        stop = None
        if step.min() < 1e-14:
            stop = (step < 1e-14) & ~better
            if tiny is not None:
                stop &= ~tiny
        if t == _MARK_AT:
            moved = np.ones(len(c), dtype=bool) if tiny is None else ~tiny
            if stop is not None:
                moved &= ~stop
            mark = np.where(moved, val, mark)
        if stop is not None and stop.any():
            done, keep = live[stop], ~stop
            out_c[done], out_val[done], out_mark[done] = c[stop], val[stop], mark[stop]
            c, val, grad, step, mark, live = c[keep], val[keep], grad[keep], step[keep], mark[keep], live[keep]
            if not live.size:
                break
    out_c[live], out_val[live], out_mark[live] = c, val, mark

    best_val, best_witness = np.inf, None
    witnesses = _matvecs(basis, out_c)
    for witness_vec, v, mark in zip(witnesses, out_val.tolist(), out_mark.tolist()):
        witness_vec = _canonical_sign(witness_vec / space.norm(witness_vec))
        if best_witness is None or v < best_val - 1e-12:
            best_val, best_witness = v, (witness_vec, mark - v)
        elif abs(v - best_val) <= 1e-12 and tuple(witness_vec) < tuple(best_witness[0]):
            best_val, best_witness = v, (witness_vec, mark - v)

    witness, last_gain = best_witness
    slack = max(1e-6, 10.0 * last_gain)
    return GapEstimate(
        upper=best_val,
        heuristic_lower=max(0.0, best_val - slack),
        witness=witness,
        complement_dim=m,
    )
