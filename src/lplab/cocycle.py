"""Cocycles, coboundaries, and affine actions g.x = rho(g) x + c(g).

A cocycle is stored by its values on generators only; every other value is
derived through the extension rule c(uv) = rho(u) c(v) + c(u), with the
inverse convention c(g^-1) = -rho(g^-1) c(g) forced by that rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Refusal
from .groups import TableGroup
from .reports import Checked, check
from .representation import Representation, canonical_complement, letter_steps
from .spaces import as_vector

__all__ = [
    "Cocycle",
    "AffineAction",
    "CoboundaryResult",
    "coboundary_solve",
    "coboundary_of",
    "OrbitBall",
    "OrbitCapExceeded",
    "orbit_ball",
    "DisplacementReport",
    "displacement_bound_check",
    "MautnerReport",
    "mautner_check",
]

_COCYCLE_TOL = 1e-9


class Cocycle:
    """Generator values of a cocycle for a representation.

    ``values`` maps generator names to vectors.  On construction the
    extension is checked to vanish along every relator (presented groups)
    or to define a consistent function on the whole group (table groups);
    the worst deviation is stored as ``relator_residual``.
    """

    def __init__(self, rep: Representation, values: dict, validate: bool = True):
        self.rep = rep
        dim = rep.space.dim
        names = set(rep.generator_names)
        if set(values) != names:
            raise ValueError(f"cocycle values must be given exactly for generators {sorted(names)}")
        self.values = {name: as_vector(v, dim) for name, v in values.items()}
        # the letter table, in the order of rep.letter_matrices: c(s), and c(s^-1) = -rho(s)^-1 c(s)
        self.letter_values = {}
        for name in rep.generator_names:
            val = self.values[name]
            self.letter_values[name], self.letter_values[name.upper()] = val, -rep.letter_matrices[name.upper()] @ val
        self.relator_residual = self._relator_residual()
        if validate and self.relator_residual > _COCYCLE_TOL:
            raise ValueError(
                f"cocycle identity violated: residual {self.relator_residual:.3e} > {_COCYCLE_TOL:.0e}"
            )

    @property
    def space(self):
        return self.rep.space

    def walk(self, word: str) -> tuple:
        """(rho(w), c(w)) for a word (uppercase letters = inverses), from one pass over its letters.

        c(w) sums rho(prefix) c(letter) over the letters; the prefix products
        are the ones :meth:`Representation.operator` forms, in the same order.
        """
        mats = self.rep.letter_matrices
        out = np.zeros(self.space.dim)
        prefix = np.eye(self.space.dim)
        for letter, val in zip(word, letter_steps(self.letter_values, word)):
            out = out + prefix @ val
            prefix = prefix @ mats[letter]
        return prefix, out

    def value(self, word: str) -> np.ndarray:
        """Extension of the cocycle along a word (uppercase letters = inverses)."""
        return self.walk(word)[1]

    def element_values(self) -> dict:
        """Value at every element of a table-backed group, the extension along its BFS word.

        Built once along the BFS tree as c(g x) = c(g) + rho(g) c(x), the
        same sums in the same order as :meth:`value`.
        """
        rep = self.rep
        if not isinstance(rep.group, TableGroup):
            raise ValueError("element enumeration needs a table-backed group")
        mats = rep.element_matrices()
        vals = {rep.group.identity: np.zeros(rep.space.dim)}
        for g, letter, gx in rep.group.bfs_tree():
            vals[gx] = vals[g] + mats[g] @ self.letter_values[letter]
        return vals

    def seminorm(self, k_words=None) -> float:
        """max_{w in K} ||c(w)||, the K-seminorm of the cocycle."""
        words = list(k_words) if k_words is not None else list(self.rep.group.k_set)
        if not words:
            raise ValueError("K must be nonempty")
        return max(self.space.norm(self.value(w)) for w in words)

    def _relator_residual(self) -> float:
        rep = self.rep
        if isinstance(rep.group, TableGroup):
            # consistency of the extension over the whole Cayley graph
            vals = self.element_values()
            mats = rep.element_matrices()
            worst = 0.0
            for g in range(rep.group.order):
                for name in rep.generator_names:
                    h = rep.group.generators[name]
                    gh = rep.group.mult(g, h)
                    dev = mats[g] @ self.values[name] + vals[g] - vals[gh]
                    worst = max(worst, self.space.norm(dev))
            return worst
        worst = 0.0
        for rel in rep.group.relators:
            worst = max(worst, self.space.norm(self.value(rel)))
        return worst


def coboundary_of(rep: Representation, v) -> Cocycle:
    """The coboundary cocycle c(g) = v - rho(g) v."""
    v = as_vector(v, rep.space.dim)
    values = {name: v - rep.generator_matrix(name) @ v for name in rep.generator_names}
    return Cocycle(rep, values)


class AffineAction:
    """Affine action with the given linear part and translation cocycle."""

    def __init__(self, cocycle: Cocycle):
        self.cocycle = cocycle
        self.rep = cocycle.rep
        self.space = cocycle.rep.space

    def apply(self, word: str, x) -> np.ndarray:
        x = as_vector(x, self.space.dim)
        mat, val = self.cocycle.walk(word)
        return mat @ x + val

    def displacement(self, word: str, x) -> float:
        x = as_vector(x, self.space.dim)
        return self.space.norm(self.apply(word, x) - x)

    def max_displacement(self, x, k_words=None) -> float:
        words = list(k_words) if k_words is not None else list(self.rep.group.k_set)
        return max(self.displacement(w, x) for w in words)


@dataclass(frozen=True, eq=False)
class CoboundaryResult(Checked):
    vector: np.ndarray
    residual: float
    checks: tuple

    @property
    def is_coboundary(self) -> bool:
        return self.status == "pass"


def coboundary_solve(cocycle: Cocycle, tol: float = 1e-8) -> CoboundaryResult:
    """Least-squares solve of c(g) = v - rho(g) v over the generators.

    The stacked linear system is solved for v; the returned residual is the
    worst generator deviation in the space norm.  When the residual is at
    most ``tol`` the cocycle is classified as a coboundary and v is a fixed
    point of the affine action.
    """
    rep = cocycle.rep
    dim = rep.space.dim
    eye = np.eye(dim)
    blocks = []
    rhs = []
    for name in rep.generator_names:
        blocks.append(eye - rep.generator_matrix(name))
        rhs.append(cocycle.values[name])
    system = np.vstack(blocks)
    target = np.concatenate(rhs)
    v, *_ = np.linalg.lstsq(system, target, rcond=None)
    residual = max(
        rep.space.norm(cocycle.values[name] - (v - rep.generator_matrix(name) @ v))
        for name in rep.generator_names
    )
    return CoboundaryResult(v, residual, (check("residual_classifies_coboundary", residual, tol),))


class OrbitCapExceeded(RuntimeError):
    """Raised when orbit enumeration exceeds the configured point cap."""


@dataclass(frozen=True, eq=False)
class OrbitBall:
    points: np.ndarray          # (count, dim)
    diameter: float
    radius: int
    diameters_by_radius: tuple  # diameter after each radius step


def orbit_ball(action: AffineAction, x0, radius: int, cap: int = 100_000, merge_tol: float = 1e-12) -> OrbitBall:
    """Points {w . x0 : |w| <= radius} over generators and inverses, with diameter.

    Points closer than ``merge_tol`` are identified; enumeration raises
    :class:`OrbitCapExceeded` beyond ``cap`` points.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    space = action.space
    x0 = as_vector(x0, space.dim)
    values = action.cocycle.letter_values
    steps = [(mat, values[letter]) for letter, mat in action.rep.letter_matrices.items()]

    points = [x0]
    frontier = [x0]
    diams = []
    for _ in range(radius):
        new_frontier = []
        for x in frontier:
            for mat, shift in steps:
                y = mat @ x + shift
                if all(np.max(np.abs(y - q)) > merge_tol for q in points + new_frontier):
                    new_frontier.append(y)
        points.extend(new_frontier)
        if len(points) > cap:
            raise OrbitCapExceeded(f"orbit enumeration exceeded {cap} points")
        frontier = new_frontier
        diams.append(_diameter(points, space))
        if not frontier:
            break
    pts = np.array(points)
    diameter = diams[-1] if diams else 0.0
    return OrbitBall(points=pts, diameter=diameter, radius=radius, diameters_by_radius=tuple(diams))


def _diameter(points, space) -> float:
    worst = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            worst = max(worst, space.norm(points[i] - points[j]))
    return worst


@dataclass(frozen=True, eq=False)
class DisplacementReport(Checked):
    checks: tuple
    applicable: bool             # False when the H-restriction has no complement
    commutator_residual: float
    identity_residual: float     # worst deviation of (I - rho(h)) c(a) = (I - rho(a)) c(h)
    gap: float
    seminorm: float              # R = max_{h in K_H} ||c(h)||
    bound: float                 # 2 R / gap
    worst_a_norm: float
    worst_a_complement_norm: float
    checked_words: int


def displacement_bound_check(
    action: AffineAction,
    gens_a,
    gens_h,
    k_h=None,
    tol: float = 1e-8,
    a_radius: int = 6,
    seed: int = 0,
) -> DisplacementReport:
    """Commuting-factor displacement bound: sup_a ||c(a)|| <= 2R/eps.

    Verifies that the two generator families commute and satisfy the
    exchange identity (I - rho(h)) c(a) = (I - rho(a)) c(h), estimates the
    gap eps of the H-restriction on its canonical complement, and checks
    the bound on all A-words up to ``a_radius``.  The bound genuinely
    controls only the complement component of c(a); both norms are
    reported, the pass criterion uses the full norm.
    """
    rep = action.rep
    c = action.cocycle
    space = rep.space
    k_h = list(k_h) if k_h is not None else list(gens_h)

    comm = 0.0
    for a in gens_a:
        for h in gens_h:
            ma, mh = rep.generator_matrix(a), rep.generator_matrix(h)
            comm = max(comm, float(np.max(np.abs(ma @ mh - mh @ ma))))
    if comm > 1e-10:
        raise Refusal(f"A and H generator images do not commute (residual {comm:.3e})")

    eye = np.eye(space.dim)
    ident = 0.0
    for a in gens_a:
        for h in gens_h:
            lhs = (eye - rep.generator_matrix(h)) @ c.values[a]
            rhs = (eye - rep.generator_matrix(a)) @ c.values[h]
            ident = max(ident, space.norm(lhs - rhs))
    ident_check = check("exchange_identity_residual", ident, tol)
    if not ident_check["ok"]:
        nan = np.nan
        checks = (ident_check, check("a_norm_within_bound", nan, nan))
        return DisplacementReport(checks, True, comm, ident, nan, nan, nan, nan, nan, 0)

    complement = canonical_complement(rep, gens_h)
    from .gap import kazhdan_gap  # local import to avoid a cycle

    est = kazhdan_gap(rep, k_words=k_h, basis=complement.complement_basis, restarts=16, seed=seed)
    if est.infinite:
        return DisplacementReport((), False, comm, ident, np.inf, 0.0, np.inf, 0.0, 0.0, 0)
    eps = est.upper
    if eps < 1e-6:
        raise Refusal(f"H-restriction gap {eps:.3e} below threshold 1e-6; bound uninformative")

    r = c.seminorm(k_h)
    bound = 2.0 * r / eps

    words = [""]
    frontier = [""]
    letters = [g for g in gens_a] + [g.upper() for g in gens_a]
    for _ in range(a_radius):
        frontier = [w + letter for w in frontier for letter in letters]
        words.extend(frontier)
    proj = complement.proj_complement
    worst = 0.0
    worst_comp = 0.0
    for word in words:
        val = c.value(word)
        worst = max(worst, space.norm(val))
        worst_comp = max(worst_comp, space.norm(proj @ val))
    return DisplacementReport(
        checks=(ident_check, check("a_norm_within_bound", worst, bound + tol)),
        applicable=True,
        commutator_residual=comm,
        identity_residual=ident,
        gap=eps,
        seminorm=r,
        bound=bound,
        worst_a_norm=worst,
        worst_a_complement_norm=worst_comp,
        checked_words=len(words),
    )


@dataclass(frozen=True, eq=False)
class MautnerReport(Checked):
    checks: tuple
    applicable: bool             # False unless the conjugates contract and a g-fixed point exists
    contraction: tuple           # operator distances ||rho(g^-n h g^n) - I||
    contracting: bool
    fixed_point: np.ndarray | None
    fixed_residual: float
    h_displacement: float


def mautner_check(action: AffineAction, g_word: str, h_word: str, n_max: int = 12, tol: float = 1e-6) -> MautnerReport:
    """Fixed-point propagation along contracted conjugates.

    Computes the conjugates g^-n h g^n for n <= n_max; if their operator
    distance to the identity contracts (monotone trend ending below 0.1 of
    its start), finds a g-fixed point of the affine action and asserts the
    h-displacement there is at most ``tol``.  A non-contracting sequence is
    reported as not-applicable with no assertion.
    """
    rep = action.rep
    g_mat, cg = action.cocycle.walk(g_word)
    h_mat = rep.operator(h_word)
    g_inv = np.linalg.inv(g_mat)
    eye = np.eye(rep.space.dim)
    dists = []
    conj = h_mat.copy()
    for _ in range(n_max + 1):
        dists.append(float(np.linalg.norm(conj - eye, 2)))
        conj = g_inv @ conj @ g_mat
    start = max(dists[0], 1e-30)
    non_increasing = all(dists[i + 1] <= dists[i] + 1e-12 for i in range(len(dists) - 1))
    contracting = non_increasing and dists[-1] < 0.1 * start

    if not contracting:
        return MautnerReport((), False, tuple(dists), False, None, np.nan, np.nan)

    # g-fixed point of the affine action: (I - rho(g)) x = c(g)
    x, *_ = np.linalg.lstsq(eye - g_mat, cg, rcond=None)
    fixed_residual = rep.space.norm((eye - g_mat) @ x - cg)
    if fixed_residual > tol:
        return MautnerReport((), False, tuple(dists), True, None, fixed_residual, np.nan)
    h_disp = action.displacement(h_word, x)
    checks = (check("h_displacement", h_disp, tol),)
    return MautnerReport(checks, True, tuple(dists), True, x, fixed_residual, h_disp)
