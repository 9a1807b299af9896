"""Cocycles, coboundaries, and affine actions g.x = rho(g) x + c(g).

A cocycle is stored by its values on generators only; every other value is
derived through the extension rule c(uv) = rho(u) c(v) + c(u), with the
inverse convention c(g^-1) = -rho(g^-1) c(g) forced by that rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .errors import Refusal
from .gap import kazhdan_gap
from .groups import TableGroup, k_words_of
from .reports import Checked, check
from .representation import (_COMMUTE_TOL, Representation, _act, _compose, _dense, _identity, canonical_complement,
                             letter_steps)
from .spaces import as_vector, norms

__all__ = [
    "Cocycle",
    "CoboundaryResult",
    "coboundary_solve",
    "coboundary_of",
    "OrbitBall",
    "OrbitCapExceeded",
    "orbit_ball",
    "DisplacementReport",
    "MAX_A_WORDS",
    "displacement_bound_check",
    "MautnerReport",
    "mautner_check",
]

_COCYCLE_TOL = 1e-9
_MERGE_TOL = 1e-12  # two orbit points are one when they agree to this in every coordinate
MAX_A_WORDS = 100_000  # radius 15 with one A generator (65,535 words), not 16
_ORBIT_CAP = 100_000  # orbit points before enumeration gives up
_ORBIT_RADIUS = 12  # radii a presented group's orbit ball may grow to in _orbit_of


class Cocycle:
    """Generator values of a cocycle for a representation, and the affine action g.x = rho(g) x + c(g).

    ``values`` maps generator names to vectors.  ``relator_residual`` is
    the worst deviation of the extension from vanishing along every relator
    (presented groups) or from a consistent function on the whole group
    (table groups); with ``validate`` it is computed and checked on
    construction, otherwise only if it is read.
    """

    def __init__(self, rep: Representation, values: dict, validate: bool = True):
        self.rep = rep
        dim = rep.space.dim
        names = set(rep.generator_names)
        if set(values) != names:
            raise ValueError(f"cocycle values must be given exactly for generators {sorted(names)}")
        self.values = {name: as_vector(v, dim) for name, v in values.items()}
        # the letter table, in the order of rep.letters: c(s), and c(s^-1) = -rho(s)^-1 c(s), where 0.0 - x is
        # the product (-rho(s)^-1) c(s) bit for bit (no -0.0)
        self.letter_values = {}
        for name in rep.generator_names:
            val = self.values[name]
            self.letter_values[name], self.letter_values[name.upper()] = val, 0.0 - _act(rep.letters[name.upper()], val)
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
        are the ones :meth:`Representation.operator` forms, in the same order,
        and rho(w) is densified once.
        """
        letters = self.rep.letters
        out = np.zeros(self.space.dim)
        prefix = _identity(self.space.dim, self.rep.monomial)
        for letter, val in zip(word, letter_steps(self.letter_values, word)):
            out = out + _act(prefix, val)
            prefix = _compose(prefix, letters[letter])
        return (_dense(prefix) if self.rep.monomial else prefix), out

    def value(self, word: str) -> np.ndarray:
        """Extension of the cocycle along a word (uppercase letters = inverses)."""
        return self.walk(word)[1]

    def apply(self, word: str, x) -> np.ndarray:
        """The affine action w.x = rho(w) x + c(w), from one walk over the word."""
        mat, val = self.walk(word)
        return mat @ as_vector(x, self.space.dim) + val

    def max_displacement(self, x, k_words=None) -> float:
        """max_{w in K} ||w.x - x||, with K the group's ``k_set`` unless ``k_words`` is given."""
        words = k_words_of(self.rep.group, k_words)
        x = as_vector(x, self.space.dim)
        return max(self.space.norm(self.apply(w, x) - x) for w in words)

    def element_values(self) -> dict:
        """Value at every element of a table-backed group, the extension along its BFS word.

        Built once along the BFS tree as c(g x) = c(g) + rho(g) c(x), the
        same sums in the same order as :meth:`value`.
        """
        rep = self.rep
        if not isinstance(rep.group, TableGroup):
            raise ValueError("element enumeration needs a table-backed group")
        tree = rep.group.bfs_tree()
        # rho(g) c(x) for every tree edge (g, x, gx) at once; the sums then run down the tree
        steps = rep.element_apply([g for g, _, _ in tree],
                                  np.array([self.letter_values[x] for _, x, _ in tree]).reshape(len(tree), -1))
        vals = {rep.group.identity: np.zeros(rep.space.dim)}
        for (g, _, gx), step in zip(tree, steps):
            vals[gx] = vals[g] + step
        return vals

    def seminorm(self, k_words=None) -> float:
        """max_{w in K} ||c(w)||, the K-seminorm of the cocycle: the K-displacement of 0."""
        return self.max_displacement(np.zeros(self.space.dim), k_words)

    @cached_property
    def relator_residual(self) -> float:
        """Worst deviation from the cocycle identity, computed when first read (at construction if validated)."""
        rep = self.rep
        if isinstance(rep.group, TableGroup):
            # consistency of the extension over the whole Cayley graph: every edge g -> gh, one row each, measured
            # by one stacked norms call (equal to LpSpace.norm row by row)
            group, every = rep.group, np.arange(rep.group.order)
            vals = self.element_values()
            stacked = np.array([vals[g] for g in every])
            devs = [rep.element_apply(every, self.values[s]) + stacked - stacked[group.table[:, group.generators[s]]]
                    for s in rep.generator_names]
            return float(np.max(norms(self.space.weights, self.space.p, np.concatenate(devs))))
        worst = 0.0
        for rel in rep.group.relators:
            worst = max(worst, self.space.norm(self.value(rel)))
        return worst


def coboundary_of(rep: Representation, v) -> Cocycle:
    """The coboundary cocycle c(g) = v - rho(g) v."""
    v = as_vector(v, rep.space.dim)
    values = {name: v - _act(rep.letters[name], v) for name in rep.generator_names}
    return Cocycle(rep, values)


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
        blocks.append(eye - rep.operator(name))
        rhs.append(cocycle.values[name])
    system = np.vstack(blocks)
    target = np.concatenate(rhs)
    v, *_ = np.linalg.lstsq(system, target, rcond=None)
    residual = max(
        rep.space.norm(cocycle.values[name] - (v - rep.apply(name, v)))
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


def orbit_ball(cocycle: Cocycle, x0, radius: int, cap: int = _ORBIT_CAP) -> OrbitBall:
    """Points {w . x0 : |w| <= radius} over generators and inverses, with diameter.

    Points that agree to 1e-12 in every coordinate are identified;
    enumeration raises :class:`OrbitCapExceeded` beyond ``cap`` points.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    points, diams = [as_vector(x0, cocycle.space.dim)], [0.0]
    for points, diams, _ in islice(_orbit_growth(cocycle, points[0], cap), radius):
        pass
    return OrbitBall(np.array(points), diams[-1], radius, tuple(diams[1:]))


def _orbit_growth(cocycle: Cocycle, x0: np.ndarray, cap: int):
    """Yields (points, diameters from radius 0, closed) after each radius step of the word ball around x0.

    A step with no new point closes the ball, which is then the whole orbit, and ends the growth.
    """
    steps = [(op, cocycle.letter_values[letter]) for letter, op in cocycle.rep.letters.items()]
    points, frontier, diams = [x0], [x0], [0.0]
    while frontier:
        start = len(points)
        for x in frontier:
            for op, shift in steps:
                y = _act(op, x) + shift
                if _is_new(y, points):
                    points.append(y)
        if len(points) > cap:
            raise OrbitCapExceeded(f"orbit enumeration exceeded {cap} points")
        frontier = points[start:]
        diams.append(_diameter(points, cocycle.space, start, diams[-1]))
        yield points, diams, not frontier


def _orbit_of(cocycle: Cocycle, x0: np.ndarray) -> tuple:
    """(points, diameter, bounded): a table-backed group's orbit from its element tables, else the word ball
    by ``_ORBIT_RADIUS``, bounded when it closes or its diameter stalls for three radii (a heuristic)."""
    rep = cocycle.rep
    if isinstance(rep.group, TableGroup):
        images, vals = rep.element_apply(np.arange(rep.group.order), x0), cocycle.element_values()
        points = []
        for g in range(rep.group.order):
            y = images[g] + vals[g]
            if _is_new(y, points):
                points.append(y)
        return np.array(points), _diameter(points, cocycle.space), True
    for points, ds, closed in islice(_orbit_growth(cocycle, x0, _ORBIT_CAP), _ORBIT_RADIUS):
        if closed or len(ds) >= 4 and abs(ds[-1] - ds[-2]) < 1e-12 and abs(ds[-2] - ds[-3]) < 1e-12:
            return np.array(points), ds[-1], True
    return np.array(points), ds[-1], False


def _is_new(y: np.ndarray, points) -> bool:
    """The merge rule: y is a new orbit point unless some point agrees with it to 1e-12 in every coordinate."""
    return all(np.max(np.abs(y - q)) > _MERGE_TOL for q in points)


def _diameter(points, space, start: int = 1, worst: float = 0.0) -> float:
    """max(worst, ||p_i - p_j||) over the pairs i < j with j >= ``start``: the diameter, or from the first
    appended point and the old diameter the new one (``max`` is exact, so the pair order does not matter)."""
    for j in range(start, len(points)):
        for i in range(j):
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


def _a_word_count(n_gens: int, radius: int) -> int:
    """The number of words of length <= ``radius`` over ``n_gens`` generators and inverses, at most MAX_A_WORDS."""
    count = level = 1
    for _ in range(radius if n_gens else 0):
        level *= 2 * n_gens
        count += level
        if count > MAX_A_WORDS:
            raise ValueError(f"the A-words of length <= {radius} number more than MAX_A_WORDS = {MAX_A_WORDS}")
    return count


def displacement_bound_check(
    cocycle: Cocycle,
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
    the bound on all A-words up to ``a_radius``, at most :data:`MAX_A_WORDS`
    of them.  The bound genuinely controls only the complement component of
    c(a); both norms are reported, the pass criterion uses the full norm.
    """
    n_words = _a_word_count(len(gens_a), a_radius)
    rep = cocycle.rep
    space = rep.space
    k_h = list(k_h) if k_h is not None else list(gens_h)

    eye = np.eye(space.dim)
    comm = ident = 0.0
    for a in gens_a:
        for h in gens_h:
            ma, mh = rep.operator(a), rep.operator(h)
            comm = max(comm, float(np.max(np.abs(ma @ mh - mh @ ma))))
            ident = max(ident, space.norm((eye - mh) @ cocycle.values[a] - (eye - ma) @ cocycle.values[h]))
    if comm > _COMMUTE_TOL:
        raise Refusal(f"A and H generator images do not commute (residual {comm:.3e})")
    ident_check = check("exchange_identity_residual", ident, tol)
    if not ident_check["ok"]:
        nan = np.nan
        checks = (ident_check, check("a_norm_within_bound", nan, nan))
        return DisplacementReport(checks, True, comm, ident, nan, nan, nan, nan, nan, 0)

    complement = canonical_complement(rep, gens_h)

    est = kazhdan_gap(rep, k_words=k_h, basis=complement.complement_basis, restarts=16, seed=seed)
    if est.infinite:
        return DisplacementReport((), False, comm, ident, np.inf, 0.0, np.inf, 0.0, 0.0, 0)
    eps = est.upper
    if eps < 1e-6:
        raise Refusal(f"H-restriction gap {eps:.3e} below threshold 1e-6; bound uninformative")

    r = cocycle.seminorm(k_h)
    bound = 2.0 * r / eps

    # the A-words depth first along their tree, (rho(wx), c(wx)) = (rho(w) rho(x), c(w) + rho(w) c(x)) for a
    # letter x: the products Cocycle.walk forms
    steps = [(rep.letters[x], cocycle.letter_values[x]) for x in list(gens_a) + [g.upper() for g in gens_a]]
    proj = complement.proj_complement
    worst = worst_comp = 0.0
    stack = [(0, _identity(space.dim, rep.monomial), np.zeros(space.dim))]
    while stack:
        depth, op, val = stack.pop()
        worst = max(worst, space.norm(val))
        worst_comp = max(worst_comp, space.norm(proj @ val))
        if depth < a_radius:
            stack.extend((depth + 1, _compose(op, step), val + _act(op, shift)) for step, shift in steps)
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
        checked_words=n_words,
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


def mautner_check(cocycle: Cocycle, g_word: str, h_word: str, n_max: int = 12, tol: float = 1e-6) -> MautnerReport:
    """Fixed-point propagation along contracted conjugates.

    Computes the conjugates g^-n h g^n for n <= n_max; if their operator
    distance to the identity contracts (monotone trend ending below 0.1 of
    its start), finds a g-fixed point of the affine action and asserts the
    h-displacement there is at most ``tol``.  A non-contracting sequence is
    reported as not-applicable with no assertion.
    """
    space = cocycle.space
    g_mat, cg = cocycle.walk(g_word)
    h_mat, ch = cocycle.walk(h_word)
    g_inv = np.linalg.inv(g_mat)
    eye = np.eye(space.dim)
    dists = []
    conj = h_mat
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
    fixed_residual = space.norm((eye - g_mat) @ x - cg)
    if fixed_residual > tol:
        return MautnerReport((), False, tuple(dists), True, None, fixed_residual, np.nan)
    h_disp = space.norm(h_mat @ x + ch - x)
    checks = (check("h_displacement", h_disp, tol),)
    return MautnerReport(checks, True, tuple(dists), True, x, fixed_residual, h_disp)
