"""Signed weighted permutations: the linear isometries of finite lp spaces.

Every linear isometry of a purely atomic lp space (p != 2) is a signed
rearrangement of atoms corrected by the p-th root of the weight ratio:

    (U v)_i = signs_i * (w_src[perm[i]] / w_tgt[i]) ** (1/p) * v[perm[i]]

This module implements that algebra (apply/compose/invert), the nonlinear
Mazur conjugation onto l2, and the invariant-norm construction for finite
uniformly bounded matrix groups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import LpSpace, as_vector, mazur_map, norms

__all__ = [
    "LampertiIsometry",
    "identity_isometry",
    "random_lamperti",
    "as_isometry",
    "mazur_conjugate",
    "mazur_composition",
    "mazur_conjugation_residual",
    "InvariantNorm",
    "invariant_norm",
]

_CLOSURE_TOL = 1e-9  # the largest entry by which a product may miss every map and still count as in the list


@dataclass(frozen=True, eq=False)
class LampertiIsometry:
    """A linear isometry ``source -> target`` in signed-weighted-permutation form.

    ``perm`` and ``signs`` have length dim; ``perm`` is read as
    "coordinate i of the output pulls from coordinate perm[i] of the input".
    Source and target must share dim and exponent; weights may differ.
    """

    perm: np.ndarray
    signs: np.ndarray
    source: LpSpace
    target: LpSpace

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=int)
        signs = np.asarray(self.signs, dtype=float)
        n = self.source.dim
        if self.target.dim != n:
            raise ValueError("source and target dimensions differ")
        if self.target.p != self.source.p:
            raise ValueError("source and target exponents differ")
        if sorted(perm.tolist()) != list(range(n)):
            raise ValueError("perm is not a permutation of 0..dim-1")
        if signs.shape != (n,) or not np.all(np.abs(signs) == 1.0):
            raise ValueError("signs must be a vector of +-1 of length dim")
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "signs", signs)

    @property
    def density(self) -> np.ndarray:
        """(w_src[perm] / w_tgt) ** (1/p), the Radon-Nikodym correction."""
        return (self.source.weights[self.perm] / self.target.weights) ** (1.0 / self.source.p)

    def apply(self, v) -> np.ndarray:
        v = as_vector(v, self.source.dim)
        return self.signs * self.density * v[self.perm]

    def __call__(self, v) -> np.ndarray:
        return self.apply(v)

    def matrix(self) -> np.ndarray:
        n = self.source.dim
        m = np.zeros((n, n))
        m[np.arange(n), self.perm] = self.signs * self.density
        return m

    def compose(self, other: "LampertiIsometry") -> "LampertiIsometry":
        """self after other: (self.compose(other))(v) == self(other(v))."""
        if other.target.dim != self.source.dim or other.target.p != self.source.p:
            raise ValueError("incompatible spaces for composition")
        if not np.allclose(other.target.weights, self.source.weights, rtol=0, atol=1e-14):
            raise ValueError("incompatible spaces for composition (weights differ)")
        perm = other.perm[self.perm]
        signs = self.signs * other.signs[self.perm]
        return LampertiIsometry(perm, signs, other.source, self.target)

    def inverse(self) -> "LampertiIsometry":
        inv = np.argsort(self.perm)
        return LampertiIsometry(inv, self.signs[inv], self.target, self.source)

    def __matmul__(self, other: "LampertiIsometry") -> "LampertiIsometry":
        return self.compose(other)

    def same_permutation(self, other: "LampertiIsometry") -> bool:
        return bool(np.array_equal(self.perm, other.perm) and np.array_equal(self.signs, other.signs))


def identity_isometry(space: LpSpace) -> LampertiIsometry:
    return LampertiIsometry(np.arange(space.dim), np.ones(space.dim), space, space)


def random_lamperti(space: LpSpace, rng: np.random.Generator, target: LpSpace | None = None) -> LampertiIsometry:
    """Random signed weighted permutation between the given spaces."""
    tgt = space if target is None else target
    perm = rng.permutation(space.dim)
    signs = rng.choice([-1.0, 1.0], size=space.dim)
    return LampertiIsometry(perm, signs, space, tgt)


def as_isometry(mat: np.ndarray, space: LpSpace):
    """The matrix ``mat`` as the isometry of ``space`` it is, or None when it is none (Lamperti's theorem).

    A signed weighted permutation is its LampertiIsometry, at any p, when |‖Av‖ - 1| <= 1e-10 on the unit
    sphere, whose extremes are ‖A e_j‖ / ‖e_j‖ = |a_ij| (w_i / w_j)^(1/p).  At p = 2 any other matrix
    stays a matrix when sup |‖Av‖² - 1| = ‖W^-1/2 (AᵀWA - W) W^-1/2‖₂ <= 2e-10.
    """
    rows, cols = np.nonzero(mat)
    w = space.weights
    if np.array_equal(rows, np.arange(space.dim)) and np.array_equal(np.sort(cols), rows):
        if np.all(np.abs(np.abs(mat[rows, cols]) * (w / w[cols]) ** (1.0 / space.p) - 1.0) <= 1e-10):
            return LampertiIsometry(cols, np.sign(mat[rows, cols]), space, space)
    if space.p != 2.0:
        return None
    deviation = (mat.T @ (w[:, None] * mat) - np.diag(w)) / np.sqrt(np.outer(w, w))
    return mat if np.linalg.norm(deviation, 2) <= 2e-10 else None


def mazur_conjugate(iso: LampertiIsometry) -> LampertiIsometry:
    """Conjugate a lp isometry by the Mazur map into an l2 isometry.

    The nonlinear composition (sphere map to lp) -> U -> (sphere map to l2)
    collapses to the *linear* isometry with the same permutation and signs
    and density power 1/2; this closed form is returned.  Use
    :func:`mazur_conjugation_residual` to validate it against the actual
    nonlinear composition.
    """
    src2 = iso.source.with_exponent(2.0)
    tgt2 = iso.target.with_exponent(2.0)
    return LampertiIsometry(iso.perm, iso.signs, src2, tgt2)


def mazur_composition(iso: LampertiIsometry, v) -> np.ndarray:
    """The nonlinear conjugation M_{p,2}(U(M_{2,p}(v))) of ``iso`` at a vector v of the l2 space."""
    return mazur_map(iso.target, iso.apply(mazur_map(iso.source.with_exponent(2.0), v, iso.source.p)), 2.0)


def mazur_conjugation_residual(iso: LampertiIsometry, n_samples: int = 50, seed: int = 0) -> float:
    """Max deviation between the predicted l2 isometry and the nonlinear conjugation.

    Samples unit vectors v in l2 and compares the closed form against
    :func:`mazur_composition` coordinatewise.
    """
    rng = np.random.default_rng(seed)
    predicted = mazur_conjugate(iso)
    worst = 0.0
    for _ in range(n_samples):
        v = predicted.source.random_unit(rng)
        via_mazur = mazur_composition(iso, v)
        worst = max(worst, float(np.max(np.abs(via_mazur - predicted.apply(v)))))
    return worst


class InvariantNorm:
    """Group-invariant norm ||x||' = max_g ||g x|| for a finite matrix group.

    The constructor checks that the map list is closed under composition and
    consists of invertible matrices; the resulting norm satisfies
    ||x|| <= ||x||' <= C ||x|| with C the largest operator norm in the group.
    """

    def __init__(self, maps, space: LpSpace):
        self.space = space
        mats = [np.asarray(m, dtype=float) for m in maps]
        n = space.dim
        for m in mats:
            if m.shape != (n, n):
                raise ValueError("all maps must be dim x dim matrices")
            if abs(np.linalg.det(m)) < 1e-12:
                raise ValueError("maps must be invertible")
        for a in mats:
            for b in mats:
                prod = a @ b
                if not any(np.max(np.abs(prod - c)) <= _CLOSURE_TOL for c in mats):
                    raise ValueError("map list is not closed under composition")
        if not any(np.max(np.abs(m - np.eye(n))) <= _CLOSURE_TOL for m in mats):
            raise ValueError("map list does not contain the identity")
        self.maps = mats
        self._stack = np.array(mats)

    def norm(self, v) -> float:
        v = as_vector(v, self.space.dim)
        return max(self.space.norm(m @ v) for m in self.maps)

    def norms(self, rows) -> np.ndarray:
        """The norm of each row of the 2-d array ``rows``, equal to :meth:`norm` row by row.

        Each ``g @ row`` is one matrix-vector product of a stack, which numpy
        takes with the kernel of the single product, so the images are those
        :meth:`norm` measures.
        """
        images = (self._stack @ rows[:, None, :, None])[..., 0]
        vals = norms(self.space.weights, self.space.p, images.reshape(-1, self.space.dim))
        return vals.reshape(images.shape[:2]).max(axis=1)

    def __call__(self, v) -> float:
        return self.norm(v)

    def bound(self, n_samples: int = 200, seed: int = 0) -> float:
        """Sampled estimate of the equivalence constant C = sup ||x||'/||x||."""
        rng = np.random.default_rng(seed)
        worst = 1.0
        for _ in range(n_samples):
            v = self.space.random_unit(rng)
            worst = max(worst, self.norm(v))
        return worst


def invariant_norm(maps, space: LpSpace) -> InvariantNorm:
    """Build the invariant norm for a finite group of invertible matrices."""
    return InvariantNorm(maps, space)
