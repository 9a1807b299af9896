"""Induction across finite-index subgroups, product splitting, superrigidity.

For a subgroup S of a finite group G with fundamental domain D (one
representative per left coset gS) and return map chi: G -> S determined by
chi^-1(e) = D and chi(g s^-1) = s chi(g), the induced space is the lp sum
of one copy of the base space per coset, and

    (h f)(block of d) = rho(chi(h^-1 d)) f(block of d'),
    b_ind(h)(block of d) = b(chi(h^-1 d)),

with d' = h^-1 d chi(h^-1 d) back in D.  Splitting decomposes a cocycle of
a product group along the canonical four-way invariant decomposition and
solves the mixing part as a coboundary; the superrigidity pipeline chains
induction, splitting, and the base-block pullback.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cocycle import Cocycle, _diameter, coboundary_solve
from .errors import Refusal
from .gap import kazhdan_gap
from .groups import ProductGroup, TableGroup
from .lamperti import LampertiIsometry
from .reports import Checked, check
from .representation import ProductDecomposition, Representation, product_decomposition
from .spaces import LpSpace

__all__ = [
    "CosetStructure",
    "InducedSpace",
    "induce_rep",
    "induce_cocycle",
    "TransferReport",
    "fixed_point_transfer",
    "SplitReport",
    "split_action",
    "PipelineReport",
    "superrigidity_pipeline",
]


@dataclass(frozen=True, eq=False)
class CosetStructure:
    """Left-coset bookkeeping for a subgroup of a table-backed group, from one lookup of the products gS.

    The fundamental domain takes the smallest-index representative of each
    coset, but the identity for its own coset, whatever its index:
    membership of e in D keeps the base-block pullback untwisted.
    ``routing[name]`` lists, for each target block d of the generator h,
    the subgroup index of chi(h^-1 d) and the source block (the coset of
    h^-1 d).
    """

    group: TableGroup
    subgroup_elements: tuple
    subgroup_generators: dict          # name -> element index in G
    domain: tuple = field(init=False)  # coset representatives, G indices
    chi: np.ndarray = field(init=False)
    coset_of: np.ndarray = field(init=False)
    subgroup: TableGroup = field(init=False)
    sub_index_of: dict = field(init=False)
    routing: dict = field(init=False)  # generator name of G -> ((subgroup index, source block), ...) per block

    def __init__(self, group: TableGroup, subgroup_elements, subgroup_generators: dict):
        object.__setattr__(self, "group", group)
        elems = tuple(sorted(set(int(i) for i in subgroup_elements)))
        if not group.is_subgroup(elems):
            raise ValueError("subgroup_elements is not closed under the table")
        object.__setattr__(self, "subgroup_elements", elems)
        object.__setattr__(self, "subgroup_generators", dict(subgroup_generators))
        m, k = group.order, len(elems)
        if m % k != 0:
            raise AssertionError("Lagrange violated; table corrupt")

        sub = np.array(elems)
        coset = group.table[:, sub]  # row g is the left coset gS
        least = np.where((coset == group.identity).any(axis=1), group.identity, coset.min(axis=1))
        domain = np.unique(least)  # each coset's representative, in increasing order
        coset_of = np.searchsorted(domain, least)
        if domain.size * k != m or np.any(least[coset] != least[:, None]):
            raise ValueError("cosets do not partition the group")

        # chi(g): the unique s in S with g s in D
        hits = np.isin(coset, domain)
        if np.any(hits.sum(axis=1) != 1):
            raise ValueError("return map chi is not well defined; cosets broken")
        chi_pos = hits.argmax(axis=1)
        chi = sub[chi_pos]
        # equivariance chi(g s^-1) = s chi(g), exhaustive; rows S of the lookup are the products inside S
        inv_pos = (coset[sub] == group.identity).argmax(axis=1)  # s_j^-1 = s_inv_pos[j]
        if np.any(chi[coset[:, inv_pos]] != coset[sub[None, :], chi_pos[:, None]]):
            raise ValueError("chi equivariance fails; invalid coset structure")

        subgroup, sub_index_of = group.subgroup(elems, self.subgroup_generators)
        routing = {}
        for name in group.generator_names:
            g = group.table[group.inv(group.generators[name]), domain]  # h^-1 d for each target block d
            routing[name] = tuple(zip(chi_pos[g].tolist(), coset_of[g].tolist()))
        object.__setattr__(self, "domain", tuple(domain.tolist()))
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "coset_of", coset_of)
        object.__setattr__(self, "subgroup", subgroup)
        object.__setattr__(self, "sub_index_of", sub_index_of)
        object.__setattr__(self, "routing", routing)

    @property
    def index(self) -> int:
        return len(self.domain)


@dataclass(frozen=True, eq=False)
class InducedSpace:
    """lp sum of [G:S] copies of the base space (counting measure on cosets)."""

    base: LpSpace
    index: int
    ambient: LpSpace = field(init=False)

    def __init__(self, base: LpSpace, index: int):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "index", index)
        weights = np.tile(base.weights, index)
        object.__setattr__(self, "ambient", LpSpace(base.dim * index, base.p, weights))

    def norm_pow_by_blocks(self, section) -> float:
        return float(sum(self.base.norm_pow(b) for b in np.split(np.asarray(section, dtype=float), self.index)))


def _over_subgroup(cs: CosetStructure, group) -> bool:
    """Whether ``group`` is the subgroup of ``cs``: that object, or a table group with its table and generators."""
    sub = cs.subgroup
    equal = isinstance(group, TableGroup) and group.generators == sub.generators
    return group is sub or equal and np.array_equal(group.table, sub.table)


def induce_rep(cs: CosetStructure, rep_sub: Representation) -> tuple:
    """Induce a subgroup representation to the whole group.

    Returns (induced_space, induced_representation).  The image of h puts the element table's operator of
    s = chi(h^-1 d) in block (d, d'): for ``monomial`` images as the LampertiIsometry of the tiled weights with
    permutation d' * dim + perm[s] and the signs of vals[s], otherwise as a dense block matrix.  Validated on
    construction.
    """
    if not _over_subgroup(cs, rep_sub.group):
        raise ValueError("representation is not over the coset structure's subgroup")
    ind = InducedSpace(rep_sub.space, cs.index)
    d, k, table = rep_sub.space.dim, cs.index, rep_sub.element_table
    images = {}
    for name in cs.group.generator_names:
        s_idx, src = np.array(cs.routing[name]).T
        if rep_sub.monomial:
            perms, vals = table
            perm = (src[:, None] * d + perms[s_idx]).ravel()
            images[name] = LampertiIsometry(perm, np.sign(vals[s_idx]).ravel(), ind.ambient, ind.ambient)
        else:
            big = np.zeros((k, d, k, d))
            big[np.arange(k), :, src, :] = table[s_idx]
            images[name] = big.reshape(k * d, k * d)
    rep = Representation(cs.group, ind.ambient, images, require_isometric=False)  # block copies of rep_sub's images
    return ind, rep


def induce_cocycle(cs: CosetStructure, cocycle_sub: Cocycle, induced_rep: Representation, validate: bool = True) -> Cocycle:
    """Induce a subgroup cocycle to ``induced_rep`` (:func:`induce_rep`): block at d of b_ind(h) is b(chi(h^-1 d))."""
    if not _over_subgroup(cs, cocycle_sub.rep.group):
        raise ValueError("cocycle is not over the coset structure's subgroup")
    if induced_rep.group is not cs.group or induced_rep.space.dim != cs.index * cocycle_sub.space.dim:
        raise ValueError("induced representation is not over the coset structure's group")
    sub_values = cocycle_sub.element_values()
    values = {name: np.concatenate([sub_values[s_idx] for s_idx, _src in cs.routing[name]])
              for name in cs.group.generator_names}
    return Cocycle(induced_rep, values, validate=validate)


@dataclass(frozen=True, eq=False)
class TransferReport(Checked):
    checks: tuple
    sub_residual: float
    induced_residual: float
    classification_agrees: bool
    block_constancy: float      # worst pairwise block deviation of the G-fixed section
    block_value_displacement: float  # affine S-displacement of the block value
    constant_section_displacement: float  # G-displacement of the lifted constant section


def fixed_point_transfer(cs: CosetStructure, cocycle_sub: Cocycle, coc_g: Cocycle, tol: float = 1e-8) -> TransferReport:
    """Fixed points transfer both ways between a subgroup action and its induction.

    ``coc_g`` is the induction of ``cocycle_sub`` (:func:`induce_cocycle`),
    validated or not by whoever built it.  A G-fixed section must be
    block-constant with S-fixed value; an S-fixed point lifts to a G-fixed
    constant section.  When neither side has a fixed point the two
    coboundary residuals must agree in classification.
    """
    if coc_g.rep.group is not cs.group or coc_g.space.dim != cs.index * cocycle_sub.space.dim:
        raise ValueError("induced cocycle is not over the coset structure's group")
    sol_sub = coboundary_solve(cocycle_sub, tol)
    sol_g = coboundary_solve(coc_g, tol)
    agrees = sol_sub.is_coboundary == sol_g.is_coboundary

    block_constancy = block_disp = const_disp = np.nan
    if sol_g.is_coboundary:
        blocks = np.split(sol_g.vector, cs.index)
        block_constancy = _diameter(blocks, cocycle_sub.space)
        base_idx = cs.domain.index(cs.group.identity)
        block_disp = cocycle_sub.max_displacement(blocks[base_idx])
    if sol_sub.is_coboundary:
        section = np.tile(sol_sub.vector, cs.index)
        const_disp = coc_g.max_displacement(section)

    checks = [check("classification_agrees", sol_sub.is_coboundary, sol_g.is_coboundary, "eq")]
    if sol_g.is_coboundary:
        checks.append(check("block_constancy", block_constancy, 10 * tol))
        checks.append(check("block_value_displacement", block_disp, 10 * tol))
    if sol_sub.is_coboundary:
        checks.append(check("constant_section_displacement", const_disp, 10 * tol))
    return TransferReport(
        checks=tuple(checks),
        sub_residual=sol_sub.residual,
        induced_residual=sol_g.residual,
        classification_agrees=agrees,
        block_constancy=block_constancy,
        block_value_displacement=block_disp,
        constant_section_displacement=const_disp,
    )


@dataclass(frozen=True, eq=False)
class SplitReport(Checked):
    checks: tuple                # the gap hypothesis, then reconstruction, support, factor relators
    dims: dict                   # fixed, b0, carrier1, carrier2
    gap_b0: float
    fixed_cocycle_norm: float    # size of the dropped invariant-direction component
    component1: dict             # generator name -> vector (list) of the factor-1 cocycle
    component2: dict
    coboundary_vector: np.ndarray
    reconstruction_residual: float
    support_residual: float
    factor_validation: dict      # per factor: relator residual of the component cocycle
    cross_leak: float            # worst component value on the other factor's generators
    decomposition: ProductDecomposition


def split_action(
    rep: Representation,
    cocycle: Cocycle,
    gens1,
    gens2,
    gap_threshold: float = 0.01,
    tol: float = 1e-8,
    seed: int = 0,
) -> SplitReport:
    """Split a product-group cocycle as b = b1 + b2 + coboundary.

    Carrier of b_i is the part fixed by the *other* factor, where the
    action factors through G_i.  Hypotheses enforced: commuting factors,
    no invariant-direction translation part (finite desk groups force the
    dropped component to vanish), and a gap above ``gap_threshold`` for the
    full product on the mixing piece B0 (else the op refuses).
    """
    if not isinstance(rep.group, TableGroup):
        raise Refusal("split_action needs a table-backed product group")
    gens1, gens2 = list(gens1), list(gens2)
    pd = product_decomposition(rep, gens1, gens2)
    dim = rep.space.dim
    space = rep.space

    # invariant-vector reduction: drop the Fix(G) component of the cocycle
    fixed_norm = 0.0
    values = {}
    if pd.fixed.shape[1] > 0:
        basis = np.hstack([pd.fixed, pd.b1, pd.b2, pd.b0])
        coords = np.linalg.solve(basis, np.column_stack([cocycle.values[n] for n in rep.generator_names]))
        k = pd.fixed.shape[1]
        fixed_norm = max(
            space.norm(pd.fixed @ coords[:k, i]) for i in range(len(rep.generator_names))
        )
        if fixed_norm > 10 * tol:
            raise Refusal(
                f"cocycle has a translation part of size {fixed_norm:.3e} along invariant vectors"
            )
        for i, name in enumerate(rep.generator_names):
            values[name] = cocycle.values[name] - pd.fixed @ coords[:k, i]
    else:
        values = {name: cocycle.values[name].copy() for name in rep.generator_names}

    gap = kazhdan_gap(
        rep,
        k_words=[*gens1, *gens2],
        basis=pd.b0,
        restarts=16,
        seed=seed,
    ) if pd.b0.shape[1] else None
    gap_value = np.inf if gap is None else gap.upper
    gap_check = check("gap_b0_above_threshold", gap_value, gap_threshold, "gt")
    if not gap_check["ok"]:
        raise Refusal(
            f"gap {gap_value:.4f} on the mixing piece is not above threshold {gap_threshold}"
        )

    # commuting projections onto the three carriers
    carrier1 = pd.b2  # fixed by G2: the action there factors through G1
    carrier2 = pd.b1
    basis_all = np.hstack([pd.fixed, carrier1, carrier2, pd.b0])
    inv_all = np.linalg.inv(basis_all)
    kf, k1, k2, k0 = pd.fixed.shape[1], carrier1.shape[1], carrier2.shape[1], pd.b0.shape[1]

    def split_vec(v):
        coords = inv_all @ v
        return (
            carrier1 @ coords[kf : kf + k1],
            carrier2 @ coords[kf + k1 : kf + k1 + k2],
            pd.b0 @ coords[kf + k1 + k2 :],
        )

    comp1, comp2, comp0 = {}, {}, {}
    for name in rep.generator_names:
        c1, c2, c0 = split_vec(values[name])
        comp1[name], comp2[name], comp0[name] = c1, c2, c0

    # the mixing component must be a coboundary of a vector in B0
    if k0 > 0:
        blocks = []
        rhs = []
        for name in rep.generator_names:
            blocks.append((np.eye(dim) - rep.operator(name)) @ pd.b0)
            rhs.append(comp0[name])
        z, *_ = np.linalg.lstsq(np.vstack(blocks), np.concatenate(rhs), rcond=None)
        v0 = pd.b0 @ z
    else:
        v0 = np.zeros(dim)

    recon = 0.0
    support = 0.0
    for name in rep.generator_names:
        boundary = v0 - rep.apply(name, v0)
        recon = max(
            recon,
            space.norm(values[name] - comp1[name] - comp2[name] - boundary),
        )
        # support: components stay in their carriers
        for comp, kdim, lo in ((comp1[name], k1, kf), (comp2[name], k2, kf + k1)):
            coords = inv_all @ comp
            mask = np.ones(dim, dtype=bool)
            mask[lo : lo + kdim] = False
            support = max(support, float(np.max(np.abs(coords[mask]), initial=0.0)))

    factor_validation = {}
    cross_leak = 0.0
    for label, gens, own_comp, other_comp in (
        ("factor1", gens1, comp1, comp2),
        ("factor2", gens2, comp2, comp1),
    ):
        sub_elems = rep.group.subgroup_closure([rep.group.generators[g] for g in gens])
        sub_group, _ = rep.group.subgroup(sub_elems, {g: rep.group.generators[g] for g in gens})
        # the images were checked when ``rep`` was built; checking them again proves nothing new
        sub_rep = Representation(sub_group, space, {g: rep.images[g] for g in gens},
                                 require_isometric=False, validate=False)
        sub_coc = Cocycle(sub_rep, {g: own_comp[g] for g in gens}, validate=False)
        factor_validation[label] = sub_coc.relator_residual
        for g in gens:
            cross_leak = max(cross_leak, space.norm(other_comp[g]))

    checks = (
        gap_check,
        check("reconstruction_residual", recon, tol),
        check("support_residual", support, tol),
        check("factor_relator_residual", max(factor_validation.values()), 10 * tol),
    )
    return SplitReport(
        checks=checks,
        dims={"fixed": kf, "b0": k0, "carrier1": k1, "carrier2": k2},
        gap_b0=gap_value,
        fixed_cocycle_norm=fixed_norm,
        component1={k: v.copy() for k, v in comp1.items()},
        component2={k: v.copy() for k, v in comp2.items()},
        coboundary_vector=v0,
        reconstruction_residual=recon,
        support_residual=support,
        factor_validation=factor_validation,
        cross_leak=cross_leak,
        decomposition=pd,
    )


@dataclass(frozen=True, eq=False)
class PipelineReport(Checked):
    checks: tuple                # the split's residual checks, then the pullback reconstruction
    index: int
    split: SplitReport | None
    base_dims: dict              # dims of the pulled-back carriers and their overlap
    sub_reconstruction_residual: float
    component1: dict | None      # subgroup generator name -> pulled-back value
    component2: dict | None


def superrigidity_pipeline(
    cs: CosetStructure,
    cocycle_sub: Cocycle,
    gap_threshold: float = 0.01,
    tol: float = 1e-8,
    seed: int = 0,
) -> PipelineReport:
    """Induce, split, and pull back a lattice cocycle over a finite product group.

    ``cs`` is the coset structure of the lattice in a
    :class:`lplab.groups.ProductGroup`.  Stages: dense-projection check,
    induction of the representation and cocycle, product splitting on the
    induced space, and the base-block pullback of each component (evaluating
    sections at the identity coset, which inverts the orbit-map embedding of
    carrier vectors).  Errors carry their stage in the message.
    """
    group = cs.group
    if not isinstance(group, ProductGroup):
        raise Refusal("superrigid requires a product group")
    stage = "projections"
    try:
        firsts, seconds = group.project(np.asarray(cs.subgroup_elements))
        if (len(set(firsts)), len(set(seconds))) != group.factor_orders:
            raise Refusal("subgroup projections are not dense (do not surject onto the factors)")

        stage = "induction"
        _, rep_g = induce_rep(cs, cocycle_sub.rep)
        coc_g = induce_cocycle(cs, cocycle_sub, rep_g)

        stage = "split"
        split = split_action(rep_g, coc_g, *group.factor_generators, gap_threshold=gap_threshold, tol=tol,
                             seed=seed)

        stage = "pullback"
        base_idx = cs.domain.index(group.identity)
        d = cocycle_sub.space.dim

        def base_block(vec):
            return vec[base_idx * d : (base_idx + 1) * d]

        # the element tables form the sums and products of the BFS words, as a walk along each would
        values1 = Cocycle(rep_g, split.component1, validate=False).element_values()
        values2 = Cocycle(rep_g, split.component2, validate=False).element_values()
        sub_names = sorted(cs.subgroup.generators)
        pulled = [{}, {}]
        boundary = {}
        v0 = split.coboundary_vector
        images = rep_g.element_apply([cs.subgroup_generators[name] for name in sub_names], v0)
        for name, image in zip(sub_names, images):
            g = cs.subgroup_generators[name]
            pulled[0][name] = base_block(values1[g])
            pulled[1][name] = base_block(values2[g])
            boundary[name] = base_block(v0 - image)

        recon = 0.0
        for name in sub_names:
            recon = max(
                recon,
                cocycle_sub.space.norm(
                    cocycle_sub.values[name] - pulled[0][name] - pulled[1][name] - boundary[name]
                ),
            )

        # pulled-back carriers: base blocks of the sections fixed by the other factor, as the split found them
        b1_base = base_block(split.decomposition.fix2)  # carrier of the factor-1 component
        b2_base = base_block(split.decomposition.fix1)
        r1 = int(np.linalg.matrix_rank(b1_base, tol=1e-9)) if b1_base.size else 0
        r2 = int(np.linalg.matrix_rank(b2_base, tol=1e-9)) if b2_base.size else 0
        both = np.hstack([b1_base, b2_base])
        r_sum = int(np.linalg.matrix_rank(both, tol=1e-9)) if both.size else 0
        base_dims = {"b1": r1, "b2": r2, "overlap": r1 + r2 - r_sum}

        # a split that returned has passed its gap hypothesis; its other checks decide
        checks = [{**c, "name": "split_" + c["name"]} for c in split.checks[1:]]
        checks.append(check("pullback_reconstruction_residual", recon, 10 * tol))
        return PipelineReport(
            checks=tuple(checks),
            index=cs.index,
            split=split,
            base_dims=base_dims,
            sub_reconstruction_residual=recon,
            component1=pulled[0],
            component2=pulled[1],
        )
    except Refusal as exc:
        raise Refusal(f"[stage {stage}] {exc}") from exc
