"""Finite-dimensional weighted lp spaces.

An ``LpSpace`` is R^dim equipped with the norm

    ||v|| = (sum_i w_i |v_i|**p) ** (1/p)

for an exponent 1 <= p < infinity and strictly positive atom weights w.
Vectors are plain numpy arrays; a vector is "dual" simply by being measured
in ``space.dual()``, the lq space with the same weights (q = p/(p-1)).
The primal/dual pairing is the weighted bilinear form

    <x, lam> = sum_i w_i x_i lam_i

so that primal and dual vectors share coordinates.

This module is the only place that evaluates the lp formula.  The bare
kernel functions ``norm_pow``, ``norms``, ``pow_grad``, ``norm_grad``,
``norms_and_grads``, ``grads_from_roots`` and ``norm_hessians`` take the
weights, the exponent and trusted arrays, and check nothing.  They work on
a stack of vectors, one per row, so that a solver evaluates all of its terms
in one call; ``norm_pow``, ``pow_grad`` and ``norm_grad`` also take a single
vector.  Roots, and the powers of roots that scale a gradient, are taken
one value at a time with the scalar ``**``: numpy's vectorised power rounds
a few percent of them differently in the last place, which would move
reported values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import Refusal

__all__ = [
    "LpSpace",
    "as_vector",
    "duality_map",
    "grads_from_roots",
    "mazur_map",
    "norm_grad",
    "norm_hessians",
    "norm_pow",
    "norms",
    "norms_and_grads",
    "pow_grad",
    "weighted_lstsq",
]


def norm_pow(w, p, r):
    """sum_i w_i |r_i|**p, the p-th power of the norm of ``r``, or of each row of a stack."""
    # np.add.reduce is np.sum without its Python-level dispatch, which
    # costs more than the sum itself on these short rows
    return np.add.reduce(w * np.abs(r) ** p, axis=-1)


def _roots(w, p, rows) -> list:
    e = 1.0 / p
    return [s ** e for s in norm_pow(w, p, rows).tolist()]


def norms(w, p, rows) -> np.ndarray:
    """The norm of each row of the 2-d array ``rows``."""
    return np.array(_roots(w, p, rows))


def pow_grad(w, p, r) -> np.ndarray:
    """w * sign(r) |r|**(p-1): the gradient of ``norm_pow`` divided by p, row by row."""
    return w * np.sign(r) * np.abs(r) ** (p - 1.0)


def grads_from_roots(w, p, rows, roots) -> np.ndarray:
    """The norm gradient of each row of the 2-d array ``rows``, given its norm in the list ``roots``.

    ``roots`` holds the Python floats that ``norms`` returns for these rows,
    so a solver that has already measured them takes no second ``norm_pow``.
    A gradient row is zero where its norm is 0 (p > 1).
    """
    # dividing by inf zeroes the rows with norm 0, where pow_grad is 0 already
    scale = np.array([n ** (p - 1.0) if n > 0.0 else np.inf for n in roots])
    return pow_grad(w, p, rows) / scale[:, None]


def norms_and_grads(w, p, rows) -> tuple:
    """The norm and the norm gradient of each row of the 2-d array ``rows``, from one ``norm_pow``.

    A gradient row is zero where its row is 0 (p > 1).
    """
    roots = _roots(w, p, rows)
    return np.array(roots), grads_from_roots(w, p, rows, roots)


def norm_grad(w, p, r) -> np.ndarray:
    """Gradient of the norm at ``r``, or at each row of a stack; zero where the row is 0 (p > 1)."""
    return norms_and_grads(w, p, r.reshape(-1, r.shape[-1]))[1].reshape(r.shape)


def norm_hessians(w, p, rows, vals, grads, factor=None) -> np.ndarray:
    """The Hessian of the norm at each nonzero row of ``rows``, given its norm and gradient.

    factor * diag(w |r|**(p-2)) / N**(p-1) - (p-1) g g^T / N for the norm N
    and the gradient g of the row r, where ``factor`` (an array like
    ``rows``) is p - 1 by default.  For p < 2 the entry w |r_i|**(p-2) is
    infinite where r_i = 0; there it takes its value at |r_i| = 1e-12 N.
    """
    n = vals[:, None]
    mag = np.abs(rows) / n
    if p < 2.0:
        mag = np.maximum(mag, 1e-12)
    diag = (p - 1.0 if factor is None else factor) * w * mag ** (p - 2.0) / n
    outer = grads[:, :, None] * (grads / n)[:, None, :]
    return diag[:, :, None] * np.eye(rows.shape[1]) - (p - 1.0) * outer


def weighted_lstsq(w, mat, rhs) -> np.ndarray:
    """Least-squares solution of mat @ c = rhs in the weighted l2 norm."""
    sq = np.sqrt(w)
    sol, *_ = np.linalg.lstsq(mat * sq[:, None], rhs * sq, rcond=None)
    return sol


def as_vector(v, dim: int | None = None) -> np.ndarray:
    """Coerce input to a 1-d float array, optionally checking its length."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"dimension mismatch: vector has length {arr.shape[0]}, space has dim {dim}")
    return arr


@dataclass(frozen=True, eq=False)
class LpSpace:
    """A finite-dimensional weighted lp space.

    Parameters
    ----------
    dim : int
        Number of atoms, at least 1.
    p : float
        Exponent in [1, infinity).  Operations that need uniform convexity
        or smoothness (duality map, convexity modulus, projections) reject
        p = 1 themselves.
    weights : array_like, optional
        Strictly positive atom weights; defaults to all ones.
    """

    dim: int
    p: float
    weights: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not (1.0 <= self.p < np.inf):
            raise ValueError(f"exponent p must lie in [1, inf), got {self.p}")
        w = np.ones(self.dim) if self.weights is None else np.asarray(self.weights, dtype=float)
        if w.shape != (self.dim,):
            raise ValueError("weights must have length dim")
        if not np.all(w > 0):
            raise ValueError("all weights must be strictly positive")
        object.__setattr__(self, "weights", w)

    # -- basic norm and pairing -------------------------------------------

    def norm_pow(self, v) -> float:
        """sum_i w_i |v_i|**p  (the p-th power of the norm)."""
        return float(norm_pow(self.weights, self.p, as_vector(v, self.dim)))

    def norm(self, v) -> float:
        """Weighted p-norm of ``v``."""
        return float(norm_pow(self.weights, self.p, as_vector(v, self.dim))) ** (1.0 / self.p)

    def distance(self, x, y) -> float:
        return self.norm(as_vector(x, self.dim) - as_vector(y, self.dim))

    def pairing(self, x, lam) -> float:
        """Weighted bilinear pairing <x, lam> = sum_i w_i x_i lam_i."""
        x = as_vector(x, self.dim)
        lam = as_vector(lam, self.dim)
        return float(np.sum(self.weights * x * lam))

    def norm_gradient(self, v) -> np.ndarray:
        """Gradient of v -> ||v|| at a nonzero point (p > 1)."""
        self.require_smooth()
        v = as_vector(v, self.dim)
        if not np.any(v):
            raise ValueError("norm gradient undefined at 0")
        return norm_grad(self.weights, self.p, v)

    # -- structure ---------------------------------------------------------

    @property
    def q(self) -> float:
        """Dual exponent p/(p-1); infinity when p = 1."""
        if self.p == 1.0:
            return np.inf
        return self.p / (self.p - 1.0)

    def dual(self) -> "LpSpace":
        """The dual space: same weights, conjugate exponent (p > 1 only)."""
        self.require_smooth()
        return LpSpace(self.dim, self.q, self.weights)

    def with_exponent(self, p: float) -> "LpSpace":
        return LpSpace(self.dim, p, self.weights)

    def require_smooth(self):
        if self.p == 1.0:
            raise Refusal("operation requires p > 1 (l1 is not strictly convex/smooth)")

    # -- sampling ----------------------------------------------------------

    def random_vector(self, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(self.dim)

    def random_unit(self, rng: np.random.Generator) -> np.ndarray:
        v = rng.standard_normal(self.dim)
        n = self.norm(v)
        while n < 1e-12:  # pragma: no cover - essentially impossible
            v = rng.standard_normal(self.dim)
            n = self.norm(v)
        return v / n


def duality_map(space: LpSpace, v) -> np.ndarray:
    """Supporting functional of ``v``: the unique norming unit dual vector.

    Coordinates are sign(v_i) |v_i|**(p-1) / ||v||**(p-1).  The output
    satisfies <v/||v||, v*> = 1 and has unit norm in ``space.dual()``.
    Rejects the zero vector and p = 1.
    """
    space.require_smooth()
    v = as_vector(v, space.dim)
    n = space.norm(v)
    if n == 0.0:
        raise ValueError("duality map undefined at the zero vector")
    return pow_grad(1.0, space.p, v) / n ** (space.p - 1.0)


def mazur_map(space: LpSpace, v, q: float) -> np.ndarray:
    """Coordinatewise sign-preserving power map from lp to lq, sign(v)|v|^(p/q).

    Maps the unit sphere of ``space`` onto the unit sphere of the lq space
    with the same weights and inverts exactly: composing with the map back
    (exponent q -> p) is the identity.
    """
    if not (1.0 <= q < np.inf):
        raise ValueError(f"target exponent q must lie in [1, inf), got {q}")
    v = as_vector(v, space.dim)
    return np.sign(v) * np.abs(v) ** (space.p / q)
