"""Kazhdan-type gap estimation on the canonical complement.

The gap of a representation over a generating set K is

    inf { max_{g in K} ||rho(g) v - v|| : v in the unit sphere of B' }.

The estimator minimizes the (scale-invariant) displacement ratio by
multistart adaptive subgradient descent over complement coordinates, seeded
with the weighted-l2 eigenvector heuristic and, in low complement
dimensions, a dense low-discrepancy sphere sweep.  The value at the best
witness found is always a true upper bound for the gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .representation import Representation, canonical_complement
from .spaces import norms, norms_and_grads

__all__ = ["MAX_RESTARTS", "GapEstimate", "kazhdan_gap"]

# the restarts descend together, holding (restarts, |K|+1, dim) floats
MAX_RESTARTS = 1024
_ITERS = 400  # descent iterations per restart


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
    if m == 1:
        return np.array([[1.0], [-1.0]])
    from scipy import stats  # about a third of the CLI import time; only this sweep uses it

    sob = stats.qmc.Sobol(d=m, scramble=True, seed=seed)
    raw = sob.random(count)
    pts = stats.norm.ppf(np.clip(raw, 1e-12, 1 - 1e-12))
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    return pts / np.maximum(norms, 1e-12)


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
    with its own step size, and are reduced in index order, so the result
    is deterministic for a fixed seed; ties between witnesses break toward
    the lexicographically smaller vector.
    """
    from scipy import linalg  # lazy: importing the CLI loads no SciPy
    if restarts > MAX_RESTARTS:
        raise ValueError(f"restarts must be at most {MAX_RESTARTS}, got {restarts}")
    words = list(k_words) if k_words is not None else list(rep.group.k_set)
    if not words:
        raise ValueError("K must be nonempty")
    if basis is None:
        basis = canonical_complement(rep).complement_basis
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
        return rows, vals, np.max(vals[:, :-1], axis=1) / vals[:, -1]

    def subgrad(rows, vals):
        """Subgradient of the ratio at each point, through its first largest displacement."""
        at = np.arange(len(rows))
        i = np.argmax(vals[:, :-1], axis=1)
        num, den = vals[at, i], vals[:, -1]
        _, grads = norms_and_grads(w, p, np.stack([rows[at, i], rows[:, -1]], axis=1).reshape(-1, n))
        grad_num, grad_den = grads[0::2], grads[1::2]
        g_num, g_den = _matvecs(ops[i].transpose(0, 2, 1), grad_num), _matvecs(basis.T, grad_den)
        den_sq = np.array([d**2 for d in den.tolist()])  # the scalar power, as for one point
        return (g_num * den[:, None] - num[:, None] * g_den) / den_sq[:, None]

    rng = np.random.default_rng(seed)
    starts = []
    # weighted-l2 displacement quadratic form: exact at p = 2 for one word
    quad = sum(a.T @ (w[:, None] * a) for a in disp_ops)
    gram = basis.T @ (w[:, None] * basis)
    try:
        _, vecs = linalg.eigh(quad, gram)
        starts.append(vecs[:, 0])
    except linalg.LinAlgError:  # pragma: no cover - gram is PD by construction
        pass
    if m <= 4:
        dense = _sphere_directions(m, 1 << 11, seed)
        for idx in np.argsort(evaluate(dense)[2])[:3]:
            starts.append(dense[idx])
    while len(starts) < restarts:
        starts.append(rng.standard_normal(m))

    # every restart descends at once: its point, rows, norms, ratio and step
    # size; its subgradient is kept until it accepts a step
    c = np.array(starts)
    c /= _l2_norms(c)[:, None]
    rows, vals, val = evaluate(c)
    grad = np.zeros_like(c)
    stale = np.ones(len(c), dtype=bool)
    active = np.ones(len(c), dtype=bool)
    step = np.full(len(c), 0.2)
    trace_mark = val.copy()
    for t in range(_ITERS):
        live = np.flatnonzero(active)
        if live.size == 0:
            break
        fresh = live[stale[live]]
        if fresh.size:
            grad[fresh] = subgrad(rows[fresh], vals[fresh])
            stale[fresh] = False
        cand = c[live] - step[live, None] * grad[live]
        norm = _l2_norms(cand)
        tiny = norm < 1e-14
        step[live[tiny]] *= 0.5  # these skip the rest of the iteration
        moved = live[~tiny]
        cand = cand[~tiny] / norm[~tiny, None]
        cand_rows, cand_vals, cand_val = evaluate(cand)
        better = cand_val < val[moved]
        acc = moved[better]
        c[acc], rows[acc], vals[acc], val[acc] = cand[better], cand_rows[better], cand_vals[better], cand_val[better]
        stale[acc] = True
        step[acc] = np.minimum(step[acc] * 1.25, 1.0)
        rej = moved[~better]
        step[rej] *= 0.6
        active[rej[step[rej] < 1e-14]] = False
        if t == int(0.8 * _ITERS):
            marked = moved[active[moved]]
            trace_mark[marked] = val[marked]

    best_val, best_witness = np.inf, None
    witnesses = _matvecs(basis, c)
    for witness_vec, v, mark in zip(witnesses, val.tolist(), trace_mark.tolist()):
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
