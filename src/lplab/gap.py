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
from scipy import linalg

from .representation import Representation, canonical_complement
from .spaces import norm_grad, norms

__all__ = ["GapEstimate", "kazhdan_gap"]


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


def kazhdan_gap(
    rep: Representation,
    k_words=None,
    generator_names=None,
    basis: np.ndarray | None = None,
    restarts: int = 64,
    iters: int = 400,
    seed: int = 0,
) -> GapEstimate:
    """Estimate the gap of ``rep`` over the word set K on the canonical complement.

    ``generator_names`` restricts the acting subgroup (the complement is
    taken for that family); ``basis`` overrides the complement basis.
    Returns an upper bound (value at the best witness), a heuristic lower
    bound (upper minus the observed descent slack), and the witness itself.
    An empty complement yields the +inf sentinel.  Restarts are reduced in
    index order, so the result is deterministic for a fixed seed; ties
    between witnesses break toward the lexicographically smaller vector.
    """
    words = list(k_words) if k_words is not None else list(rep.group.k_set)
    if not words:
        raise ValueError("K must be nonempty")
    if basis is None:
        basis = canonical_complement(rep, generator_names).complement_basis
    m = basis.shape[1]
    if m == 0:
        return GapEstimate(np.inf, np.inf, None, 0)

    space = rep.space
    w, p = space.weights, space.p
    eye = np.eye(space.dim)
    disp_ops = [(rep.operator(word) - eye) @ basis for word in words]
    # rows 0..K-1 of ops @ c are the K displacements, the last row is the vector itself
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
        vals = np.array([evaluate(c)[2] for c in dense])
        for idx in np.argsort(vals)[:3]:
            starts.append(dense[idx])
    while len(starts) < restarts:
        starts.append(rng.standard_normal(m))

    best_val, best_witness = np.inf, None
    for c0 in starts:
        c = c0 / np.linalg.norm(c0)
        rows, vals, val = evaluate(c)
        grad = None  # subgradient at c, kept until a step is accepted
        step = 0.2
        trace_mark = val
        for t in range(iters):
            if grad is None:
                grad = subgrad(rows, vals)
            cand = c - step * grad
            n = np.linalg.norm(cand)
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
    slack = max(1e-6, 10.0 * last_gain)
    return GapEstimate(
        upper=best_val,
        heuristic_lower=max(0.0, best_val - slack),
        witness=witness,
        complement_dim=m,
    )
