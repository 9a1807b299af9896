"""Linear isometric representations on lp spaces and their canonical splittings.

A representation assigns to each generator a linear isometry (a
:class:`~lplab.lamperti.LampertiIsometry` or a plain matrix).  Central here
is the canonical complement construction: the fixed subspace always splits
off via the annihilator of the dual-representation fixed vectors,

    B = Fix(G) + B',   B' = { v : <v, lam> = 0 for all dual-fixed lam },

with projections that commute with the whole representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import Refusal
from .groups import TableGroup, group_from_permutations, k_words_of
from .lamperti import LampertiIsometry, as_isometry
from .spaces import LpSpace, as_vector

__all__ = [
    "Representation",
    "fixed_subspace",
    "dual_rep",
    "ComplementResult",
    "canonical_complement",
    "functoriality_check",
    "ProductDecomposition",
    "product_decomposition",
    "zero_mean_rep",
    "null_space",
    "indicator_vector",
    "indicator_displacement",
]

_RELATION_TOL = 1e-9
_INTERTWINE_TOL = 1e-9  # the 2-norm of phi rho1(s) - rho2(s) phi that functoriality_check accepts
_COMMUTE_TOL = 1e-10  # the largest entry of a generator commutator that counts as commuting


def letter_steps(table: dict, word: str) -> list:
    """The ``table`` entry of each letter of ``word``; a letter with no entry is refused."""
    try:
        return [table[letter] for letter in word]
    except KeyError as exc:
        raise ValueError(f"unknown generator symbol {exc.args[0].lower()!r}") from None


def _identity(n: int, monomial: bool):
    """The identity operator: the pair (0..n-1, ones) for ``monomial`` letters, else the matrix."""
    return (np.arange(n), np.ones(n)) if monomial else np.eye(n)


def _compose(a, b):
    """The operator a @ b.

    A signed weighted permutation is the pair (perm, vals): row i of its
    matrix holds vals[i] in column perm[i].  Each entry of the dense product
    of two such matrices has one nonzero term, vals_a[i] * vals_b[perm_a[i]],
    so the pair (perm_b[perm_a], vals_a * vals_b[perm_a]) holds the values of
    that product bit for bit.  ``a`` may be a stack of pairs, one per row.
    """
    if isinstance(a, tuple):
        return b[0][a[0]], a[1] * b[1][a[0]]
    return a @ b


def _act(op, v) -> np.ndarray:
    """op @ v; for a pair (perm, vals), vals * v[perm].

    Adding 0.0 turns a -0.0 into the +0.0 that the dense product's sum gives,
    so the result equals the matrix-vector product bit for bit.
    """
    if isinstance(op, tuple):
        return op[1] * v[op[0]] + 0.0
    return op @ v


def _dense(op) -> np.ndarray:
    """The matrix of a pair (perm, vals)."""
    perm, vals = op
    n = perm.shape[0]
    mat = np.zeros((n, n))
    mat[np.arange(n), perm] = vals
    return mat


class Representation:
    """Generator-indexed linear representation on an :class:`LpSpace`.

    Parameters
    ----------
    group : TableGroup or PresentedGroup
    space : LpSpace
    images : dict
        Generator name -> LampertiIsometry or dim x dim array.
    require_isometric : bool
        Read each image by the one isometry rule, :func:`lplab.lamperti.as_isometry`
        (default).  It is exact for p != 2, where the isometries are the signed
        weighted permutations and each is kept as its LampertiIsometry (a monomial
        isometric matrix becomes one); at p = 2 it also keeps any matrix with
        AᵀWA = W.  Any other image is refused.  Matrix-group scenarios (e.g.
        Mautner probes) and images isometric by construction (induced, dual and
        split-factor representations) disable this.
    validate : bool
        Verify the group relations hold; on failure raise ValueError.
        Unvalidated, ``relation_residual`` is computed only if it is read.

    ``letters`` maps each generator and its uppercase inverse to how it acts:
    when every image is a LampertiIsometry (``monomial``) as the pair
    (perm, vals) of its matrix, and words compose as such pairs; otherwise as
    its matrix.  ``element_table`` holds every element of a table group in the
    same form: the arrays (perms, vals), or one stack of matrices.
    :meth:`operator` is the one dense form of a word (a generator is the
    one-letter word, its inverse the uppercase letter), built on each call;
    :meth:`apply` acts on a vector through the letter table.
    """

    def __init__(self, group, space: LpSpace, images: dict, require_isometric: bool = True, validate: bool = True):
        self.group = group
        self.space = space
        names = set(self.generator_names)
        if set(images) != names:
            raise ValueError(f"images must be given exactly for generators {sorted(names)}")
        # the letter table: each generator name, then its uppercase inverse letter
        self.images, self.letters = {}, {}
        for name in self.generator_names:
            op = images[name]
            mat = op.matrix() if isinstance(op, LampertiIsometry) else np.asarray(op, dtype=float)
            if mat.shape != (space.dim, space.dim):
                raise ValueError(f"generator image must be {space.dim}x{space.dim}")
            if require_isometric:
                op = as_isometry(mat, space)
                if op is None:
                    raise ValueError(f"image of generator {name!r} is not isometric")
            if isinstance(op, LampertiIsometry):
                inv = op.inverse()
                pair = (op.perm, op.signs * op.density), (inv.perm, inv.signs * inv.density)
            else:
                pair = mat, np.linalg.inv(mat)
            self.images[name] = op
            self.letters[name], self.letters[name.upper()] = pair
        # every image a signed weighted permutation: letters, words and elements act as (perm, vals) pairs;
        # otherwise every letter acts as its matrix
        self.monomial = all(isinstance(op, tuple) for op in self.letters.values())
        if not self.monomial:
            self.letters = {letter: _dense(op) if isinstance(op, tuple) else op for letter, op in self.letters.items()}
        if validate and self.relation_residual > _RELATION_TOL:
            bound = "at least " if self._relation_defect[1] else ""
            raise ValueError(
                f"group relations violated: residual {bound}{self.relation_residual:.3e} > {_RELATION_TOL:.0e}"
            )

    # -- structure ----------------------------------------------------------

    @property
    def generator_names(self):
        return self.group.generator_names

    def _word_op(self, word: str):
        """The image of a word (uppercase = inverse), as the letters act: a (perm, vals) pair or a matrix.

        The pairs compose as the dense products would, entry for entry (:func:`_compose`).
        """
        op = _identity(self.space.dim, self.monomial)
        for step in letter_steps(self.letters, word):
            op = _compose(op, step)
        return op

    def operator(self, word: str) -> np.ndarray:
        """Matrix of the image of a word over generators (uppercase = inverse), densified once: the one dense form."""
        op = self._word_op(word)
        return _dense(op) if self.monomial else op

    def apply(self, word: str, v) -> np.ndarray:
        return _act(self._word_op(word), as_vector(v, self.space.dim))

    @cached_property
    def element_table(self):
        """The operator of each element of a table-backed group, that of its BFS word, read-only: for ``monomial``
        images the arrays (perms, vals), row g the pair of element g, else the (order, n, n) stack of matrices.

        Built along the BFS tree as phi(g x) = phi(g) rho(x), the products :meth:`operator` forms, in the same order.
        """
        group = self.group
        if not isinstance(group, TableGroup):
            raise ValueError("element enumeration needs a table-backed group")
        n, order, e = self.space.dim, group.order, group.identity
        if self.monomial:
            perms, vals = np.empty((order, n), dtype=int), np.empty((order, n))
            perms[e], vals[e] = _identity(n, True)
            for g, letter, gx in group.bfs_tree():
                perms[gx], vals[gx] = _compose((perms[g], vals[g]), self.letters[letter])
            table = perms, vals
        else:
            table = np.empty((order, n, n))
            table[e] = np.eye(n)
            for g, letter, gx in group.bfs_tree():
                table[gx] = table[g] @ self.letters[letter]
        for arr in table if self.monomial else (table,):
            arr.setflags(write=False)
        return table

    def element_apply(self, elements, vectors) -> np.ndarray:
        """Row i is phi(elements[i]) @ vectors[i], for elements of a table-backed group (one vector serves all).

        The element operators are those of :attr:`element_table`: for ``monomial`` images each row is the
        gather-multiply of the element's pair, equal to the matrix-vector product bit for bit (:func:`_act`);
        otherwise one stacked product, which numpy takes with the kernel of the single product.
        """
        table = self.element_table
        elements = np.asarray(elements, dtype=int)
        vectors = np.broadcast_to(vectors, (elements.size, self.space.dim))
        if self.monomial:
            perms, vals = table
            return vals[elements] * np.take_along_axis(vectors, perms[elements], axis=1) + 0.0
        return (table[elements] @ vectors[:, :, None])[:, :, 0]

    # -- validation ---------------------------------------------------------

    @cached_property
    def relation_residual(self) -> float:
        """Worst deviation from the group relations, computed when first read (at construction if validated).

        The largest 2-norm of phi(g) rho(s) - phi(gs) over the Cayley-graph
        edges, or, where the two sides of a monomial edge are different
        permutations, the largest column norm of its deviation: a lower bound
        on that edge's 2-norm, enough to refuse it.
        """
        return self._relation_defect[0]

    @cached_property
    def _relation_defect(self):
        """(``relation_residual``, whether it is only a lower bound because some edge's permutations differ)."""
        if isinstance(self.group, TableGroup):
            # every Cayley-graph edge g -> gs: phi(g) rho(s) = phi(gs) for all g
            # and generators s makes phi a homomorphism (induction on word length)
            group, names = self.group, self.generator_names
            worst, mismatch = 0.0, False
            if self.monomial:
                perms, vals = self.element_table
                for name in names:
                    prod_perms, prod_vals = _compose((perms, vals), self.letters[name])
                    gs = group.table[:, group.generators[name]]
                    # equal permutations: the deviation is monomial, its 2-norm the largest |entry|
                    same = np.all(prod_perms == perms[gs], axis=1)
                    if same.any():
                        worst = max(worst, float(np.max(np.abs(prod_vals[same] - vals[gs[same]]))))
                    if not same.all():
                        # column j of a mismatched edge's deviation holds a, the entry of phi(g) rho(s) in the
                        # row whose permutation entry is j, and -b, the entry of phi(gs) in its own such row:
                        # from two rows its norm is (a**2 + b**2)**(1/2), from one row |a - b|
                        mismatch = True
                        rows_a, rows_b = np.argsort(prod_perms[~same], axis=1), np.argsort(perms[gs[~same]], axis=1)
                        a = np.take_along_axis(prod_vals[~same], rows_a, axis=1)
                        b = np.take_along_axis(vals[gs[~same]], rows_b, axis=1)
                        cols = np.where(rows_a == rows_b, np.abs(a - b), np.hypot(a, b))
                        worst = max(worst, float(np.max(cols)))
                return worst, mismatch
            stack = self.element_table
            for name in names:
                devs = stack @ self.letters[name] - stack[group.table[:, group.generators[name]]]
                devs = devs[devs.any(axis=(1, 2))]  # the SVD of an exactly-zero deviation would give 0
                worst = max(worst, float(np.max(np.linalg.norm(devs, 2, axis=(1, 2)), initial=0.0)))
            return worst, False
        worst = 0.0
        eye = np.eye(self.space.dim)
        for rel in self.group.relators:
            worst = max(worst, float(np.linalg.norm(self.operator(rel) - eye, 2)))
        return worst, False


def null_space(a: np.ndarray, rcond: float) -> np.ndarray:
    """Orthonormal basis, as columns, of the null space of ``a``, by SciPy's ``null_space`` rule.

    The right singular vectors of the full SVD whose singular value is not
    above ``rcond * max(s)`` (no singular value: all of them), transposed.
    """
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(s > rcond * np.max(s, initial=0.0)))
    return vh[rank:].T


def _fixed_basis(mats, dim: int) -> np.ndarray:
    """Orthonormal basis, as columns, of the vectors every matrix of ``mats`` fixes (the whole space for none)."""
    if not mats:
        return np.eye(dim)
    eye = np.eye(dim)
    return null_space(np.vstack([mat - eye for mat in mats]), rcond=1e-9)


def fixed_subspace(rep: Representation, generator_names=None) -> np.ndarray:
    """Orthonormal (Euclidean) basis, as columns, of the common fixed subspace of the named generators (all)."""
    names = rep.generator_names if generator_names is None else list(generator_names)
    return _fixed_basis([rep.operator(name) for name in names], rep.space.dim)


def _dual_matrix(inv_mat: np.ndarray, space: LpSpace) -> np.ndarray:
    """Matrix of g under the dual representation: the pairing-adjoint of rho(g^-1), from its matrix ``inv_mat``."""
    w = space.weights
    return (inv_mat.T * w[None, :]) / w[:, None]


def dual_rep(rep: Representation) -> Representation:
    """Dual representation on the lq space, <x, rho*(g) y> = <rho(g^-1) x, y>."""
    dual_space = rep.space.dual()
    images = {}
    for name in rep.generator_names:
        op = rep.images[name]
        if isinstance(op, LampertiIsometry):
            # closed form: same permutation and signs, density power 1/q
            images[name] = LampertiIsometry(op.perm, op.signs, op.source.dual(), op.target.dual())
        else:
            # a matrix image makes every letter a matrix, so the inverse letter is one where the formula needs it
            images[name] = _dual_matrix(rep.letters[name.upper()], rep.space)
    return Representation(rep.group, dual_space, images, require_isometric=False)  # isometric by construction


@dataclass(frozen=True, eq=False)
class ComplementResult:
    fixed_basis: np.ndarray        # dim x k, columns span Fix
    complement_basis: np.ndarray   # dim x (dim - k), columns span B'
    proj_fixed: np.ndarray         # projection onto Fix along B'
    proj_complement: np.ndarray

    @property
    def fixed_dim(self) -> int:
        return self.fixed_basis.shape[1]

    @property
    def complement_dim(self) -> int:
        return self.complement_basis.shape[1]


def canonical_complement(rep: Representation, generator_names=None) -> ComplementResult:
    """Canonical splitting B = Fix + B' for the (sub)family of generators.

    B' is the annihilator of the dual-fixed vectors under the weighted
    pairing; the projections commute with every generator image.  Requires
    p > 1.
    """
    space = rep.space
    space.require_smooth()
    dim = space.dim
    names = rep.generator_names if generator_names is None else list(generator_names)
    fixed = _fixed_basis([rep.operator(name) for name in names], dim)
    dual_fixed = _fixed_basis([_dual_matrix(rep.operator(name.upper()), space) for name in names], dim)
    if dual_fixed.shape[1] != fixed.shape[1]:
        raise RuntimeError(
            f"fixed-space dimensions disagree between primal ({fixed.shape[1]}) and dual ({dual_fixed.shape[1]})"
        )
    if dual_fixed.shape[1] == 0:
        comp = np.eye(dim)
    else:
        comp = null_space(dual_fixed.T * space.weights[None, :], rcond=1e-9)
    if fixed.shape[1] + comp.shape[1] != dim:
        raise RuntimeError("canonical complement dimension mismatch")
    basis = np.hstack([fixed, comp])
    sel = np.zeros((dim, dim))
    sel[: fixed.shape[1], : fixed.shape[1]] = np.eye(fixed.shape[1])
    proj_fixed = basis @ sel @ np.linalg.inv(basis)
    return ComplementResult(fixed, comp, proj_fixed, np.eye(dim) - proj_fixed)


def functoriality_check(phi, rep1: Representation, rep2: Representation):
    """Residuals of the two commuting squares of the canonical projections.

    ``phi`` must intertwine the representations on generators (checked to
    ``_INTERTWINE_TOL``); returns (fixed-square residual, complement-square
    residual) in the matrix 2-norm.
    """
    phi = np.asarray(phi, dtype=float)
    if sorted(rep1.generator_names) != sorted(rep2.generator_names):
        raise ValueError("representations must share generator names")
    for name in rep1.generator_names:
        dev = phi @ rep1.operator(name) - rep2.operator(name) @ phi
        if np.linalg.norm(dev, 2) > _INTERTWINE_TOL:
            raise ValueError(f"phi is not an intertwiner on generator {name!r}")
    c1 = canonical_complement(rep1)
    c2 = canonical_complement(rep2)
    res_fixed = float(np.linalg.norm(phi @ c1.proj_fixed - c2.proj_fixed @ phi, 2))
    res_comp = float(np.linalg.norm(phi @ c1.proj_complement - c2.proj_complement @ phi, 2))
    return res_fixed, res_comp


@dataclass(frozen=True, eq=False)
class ProductDecomposition:
    """Canonical four-way splitting for a product action G1 x G2."""

    fixed: np.ndarray    # Fix(G)
    b0: np.ndarray       # complement piece where neither factor has fixed vectors
    b1: np.ndarray       # Fix(G1) modulo Fix(G): the G1-fixed complement piece
    b2: np.ndarray
    fix1: np.ndarray     # Fix(G1), the basis its canonical complement found
    fix2: np.ndarray

    def dims(self):
        return (self.fixed.shape[1], self.b0.shape[1], self.b1.shape[1], self.b2.shape[1])


def _range_basis(mat: np.ndarray, expected_rank: int) -> np.ndarray:
    if expected_rank == 0:
        return np.zeros((mat.shape[0], 0))
    u, s, _ = np.linalg.svd(mat)
    if expected_rank < s.size and s[expected_rank] > 1e-8:
        raise RuntimeError("projection range rank exceeds the expected dimension")
    if s[expected_rank - 1] < 1e-8:
        raise RuntimeError("projection range rank below the expected dimension")
    return u[:, :expected_rank]


def product_decomposition(rep: Representation, gens1, gens2) -> ProductDecomposition:
    """Split B into Fix(G) + B0 + B1 + B2 for two commuting generator families.

    Fix(G_i) = Fix(G) + B_i holds by construction: the canonical projections
    of the two factors commute, and the four pieces are the ranges of their
    products.  Refuses families that fail to commute to ``_COMMUTE_TOL``.
    """
    for a in gens1:
        for b in gens2:
            ma, mb = rep.operator(a), rep.operator(b)
            if np.max(np.abs(ma @ mb - mb @ ma)) > _COMMUTE_TOL:
                raise Refusal(f"generator families do not commute: [{a!r}, {b!r}]")
    dim = rep.space.dim
    c1 = canonical_complement(rep, gens1)
    c2 = canonical_complement(rep, gens2)
    c_full = canonical_complement(rep, list(gens1) + list(gens2))
    p1, p2 = c1.proj_fixed, c2.proj_fixed
    dim_f = c_full.fixed_dim
    dim_f1 = c1.fixed_dim
    dim_f2 = c2.fixed_dim
    eye = np.eye(dim)
    fixed = _range_basis(p1 @ p2, dim_f)
    b1 = _range_basis(p1 @ (eye - p2), dim_f1 - dim_f)
    b2 = _range_basis(p2 @ (eye - p1), dim_f2 - dim_f)
    b0 = _range_basis((eye - p1) @ (eye - p2), dim - dim_f1 - dim_f2 + dim_f)
    return ProductDecomposition(fixed=fixed, b0=b0, b1=b1, b2=b2, fix1=c1.fixed_basis, fix2=c2.fixed_basis)


def indicator_vector(subset, dim: int) -> np.ndarray:
    """The probe f_E = 2 * 1_E - 1 for a proper nonempty subset of atoms."""
    subset = sorted(set(int(i) for i in subset))
    if not subset:
        raise ValueError("subset must be nonempty")
    if any(i < 0 or i >= dim for i in subset):
        raise ValueError("subset indices out of range")
    if len(subset) == dim:
        raise ValueError("subset must be proper (f_E would be constant)")
    f = -np.ones(dim)
    f[subset] = 1.0
    return f


def zero_mean_rep(perms: dict, weights, p: float, k_set=None):
    """Quasi-regular representation of a permutation action, with its zero-mean complement.

    ``perms`` maps generator names to permutations of the atoms (the action
    maps); the representation acts by (rho(g) f)(x) = f(g^-1 x) twisted by
    the p-th root of the weight ratio, which is exactly the Lamperti form.
    Returns (rep, zero_mean_basis) where the basis columns span
    { f : sum_i w_i f_i = 0 }.
    """
    arrays = {name: np.asarray(perm, dtype=int) for name, perm in perms.items()}
    dims = {arr.shape[0] for arr in arrays.values()}
    if len(dims) != 1:
        raise ValueError("all permutations must act on the same atom set")
    n = dims.pop()
    for name, arr in arrays.items():
        if sorted(arr.tolist()) != list(range(n)):
            raise ValueError(f"action map for {name!r} is not invertible")
    weights = np.asarray(weights, dtype=float)
    space = LpSpace(n, p, weights)
    group, _ = group_from_permutations(arrays, k_set=k_set)
    images = {}
    for name in group.generator_names:
        sigma = np.argsort(arrays[name])  # coordinates pull back along g^-1
        images[name] = LampertiIsometry(sigma, np.ones(n), space, space)
    rep = Representation(group, space, images)
    zero_mean_basis = null_space(weights[None, :], rcond=1e-12)
    return rep, zero_mean_basis


def indicator_displacement(rep: Representation, subset, k_words=None) -> float:
    """max_g ||rho(g) f_E - f_E|| / ||f_E|| over the designated generating set."""
    f = indicator_vector(subset, rep.space.dim)
    words = k_words_of(rep.group, k_words)
    norm_f = rep.space.norm(f)
    return max(rep.space.norm(rep.apply(w, f) - f) for w in words) / norm_f
