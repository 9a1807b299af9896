import numpy as np
import pytest

from lplab import (
    Cocycle,
    CosetStructure,
    InducedSpace,
    LampertiIsometry,
    LpSpace,
    Refusal,
    Representation,
    TableGroup,
    coboundary_of,
    coboundary_solve,
    cyclic_group,
    dihedral_group,
    fixed_point_transfer,
    induce_cocycle,
    induce_rep,
    product_group,
    split_action,
    superrigidity_pipeline,
    symmetric_group_3,
)


def sign_z2_in_z4(p=3.0):
    group = cyclic_group(4)
    cs = CosetStructure(group, [0, 2], {"s": 2})
    space = LpSpace(1, p)
    rep = Representation(cs.subgroup, space, {"s": -np.eye(1)})
    return cs, rep


class TestCosetStructure:
    def test_partition_and_chi(self):
        cs, _ = sign_z2_in_z4()
        assert cs.index == 2
        assert cs.domain == (0, 1)
        group = cs.group
        # g * chi(g) lands in the domain for every g
        for g in range(group.order):
            assert group.mult(g, cs.chi[g]) in cs.domain

    def test_rejects_non_subgroup(self):
        group = cyclic_group(4)
        with pytest.raises(ValueError, match="closed"):
            CosetStructure(group, [0, 1], {"s": 1})

    def test_rejects_generator_outside_subgroup(self):
        group = cyclic_group(4)
        with pytest.raises(ValueError, match="not in the subgroup"):
            CosetStructure(group, [0, 2], {"s": 1})

    def test_whole_group_is_index_one(self):
        group = cyclic_group(3)
        cs = CosetStructure(group, [0, 1, 2], {"a": 1})
        assert cs.index == 1


class TestInducedSpace:
    def test_norm_identity_by_blocks(self, rng):
        base = LpSpace(3, 2.5, [1.0, 2.0, 0.5])
        ind = InducedSpace(base, 4)
        assert ind.ambient.dim == 12
        f = rng.standard_normal(12)
        # block identity holds to floating rounding
        assert ind.ambient.norm_pow(f) == pytest.approx(ind.norm_pow_by_blocks(f), rel=1e-14)


class TestInduceRep:
    def test_index_one_recovers_the_rep(self):
        group = cyclic_group(3)
        cs = CosetStructure(group, [0, 1, 2], {"a": 1})
        space = LpSpace(3, 2)
        image = LampertiIsometry(np.argsort([1, 2, 0]), np.ones(3), space, space)
        rep = Representation(cs.subgroup, space, {"a": image})
        ind, rep_g = induce_rep(cs, rep)
        assert ind.index == 1
        assert np.allclose(rep_g.operator("a"), rep.operator("a"), atol=1e-14)

    def test_trivial_subgroup_gives_regular_representation(self):
        group = cyclic_group(2, "s")
        cs = CosetStructure(group, [0], {})
        space = LpSpace(1, 3)
        rep = Representation(cs.subgroup, space, {})
        ind, rep_g = induce_rep(cs, rep)
        assert ind.ambient.dim == 2
        assert np.allclose(rep_g.operator("s"), [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)

    def test_sign_rep_induces_rotation(self):
        cs, rep = sign_z2_in_z4()
        _, rep_g = induce_rep(cs, rep)
        assert np.allclose(rep_g.operator("a"), [[0.0, -1.0], [1.0, 0.0]], atol=1e-14)
        assert np.allclose(rep_g.operator("aaaa"), np.eye(2), atol=1e-12)
        assert rep_g.relation_residual <= 1e-10

    def test_induced_rep_is_isometric(self, rng):
        group = symmetric_group_3()
        sub = group.subgroup_closure([group.generators["c"]])  # A3
        cs = CosetStructure(group, sub, {"c": group.generators["c"]})
        space = LpSpace(2, 3, [1.0, 2.0])
        rep = Representation(cs.subgroup, space, {"c": np.eye(2)})
        ind, rep_g = induce_rep(cs, rep)
        v = rng.standard_normal(ind.ambient.dim)
        for name in rep_g.generator_names:
            assert abs(ind.ambient.norm(rep_g.operator(name) @ v) - ind.ambient.norm(v)) <= 1e-10


class TestInduceCocycle:
    def test_zero_induces_zero(self):
        cs, rep = sign_z2_in_z4()
        _, rep_g = induce_rep(cs, rep)
        coc = Cocycle(rep, {"s": [0.0]})
        coc_g = induce_cocycle(cs, coc, rep_g)
        assert all(np.max(np.abs(v)) == 0.0 for v in coc_g.values.values())

    def test_coboundary_induces_coboundary_of_constant_section(self):
        cs, rep = sign_z2_in_z4()
        _, rep_g = induce_rep(cs, rep)
        v = np.array([1.7])
        coc = coboundary_of(rep, v)
        coc_g = induce_cocycle(cs, coc, rep_g)
        section = np.tile(v, cs.index)
        expected = {name: section - rep_g.operator(name) @ section for name in rep_g.generator_names}
        for name in rep_g.generator_names:
            assert np.max(np.abs(coc_g.values[name] - expected[name])) <= 1e-10

    def test_h1_classification_agrees_for_coboundaries(self):
        cs, rep = sign_z2_in_z4()
        _, rep_g = induce_rep(cs, rep)
        coc = Cocycle(rep, {"s": [3.0]})  # coboundary of 1.5 in the sign rep
        coc_g = induce_cocycle(cs, coc, rep_g)
        assert coc_g.relator_residual <= 1e-10
        assert coboundary_solve(coc).is_coboundary
        assert coboundary_solve(coc_g).is_coboundary

    def test_h1_classification_agrees_for_pseudo_cocycles(self):
        # genuine non-coboundaries cannot exist over a finite group; an
        # intentionally invalid pair still classifies consistently
        group = cyclic_group(4)
        cs = CosetStructure(group, [0, 2], {"s": 2})
        space = LpSpace(1, 2)
        rep = Representation(cs.subgroup, space, {"s": np.eye(1)})
        _, rep_g = induce_rep(cs, rep)
        coc = Cocycle(rep, {"s": [1.0]}, validate=False)
        coc_g = induce_cocycle(cs, coc, rep_g, validate=False)
        sol_sub = coboundary_solve(coc)
        sol_g = coboundary_solve(coc_g)
        assert not sol_sub.is_coboundary and not sol_g.is_coboundary
        assert sol_sub.residual > 0.1 and sol_g.residual > 0.1


def induced_cocycle(cs, coc, validate=True):
    _, rep_g = induce_rep(cs, coc.rep)
    return induce_cocycle(cs, coc, rep_g, validate=validate)


class TestFixedPointTransfer:
    def test_coboundary_transfers_both_ways(self):
        cs, rep = sign_z2_in_z4()
        coc = coboundary_of(rep, [2.5])
        report = fixed_point_transfer(cs, coc, induced_cocycle(cs, coc))
        assert report.status == "pass"
        assert report.classification_agrees
        assert report.block_constancy <= 1e-10
        assert report.block_value_displacement <= 1e-10
        assert report.constant_section_displacement <= 1e-10

    def test_no_fixed_point_case_agrees(self):
        group = cyclic_group(4)
        cs = CosetStructure(group, [0, 2], {"s": 2})
        space = LpSpace(1, 2)
        rep = Representation(cs.subgroup, space, {"s": np.eye(1)})
        coc = Cocycle(rep, {"s": [1.0]}, validate=False)
        report = fixed_point_transfer(cs, coc, induced_cocycle(cs, coc, validate=False))
        assert report.status == "pass"
        assert report.classification_agrees
        assert report.sub_residual > 0.1 and report.induced_residual > 0.1


def grid_setup(p=3.0):
    space = LpSpace(4, p)
    info = product_group(cyclic_group(2, "a"), cyclic_group(2, "b"))
    ua = LampertiIsometry([2, 3, 0, 1], np.ones(4), space, space)
    ub = LampertiIsometry([1, 0, 3, 2], np.ones(4), space, space)
    rep = Representation(info, space, {"a": ua, "b": ub})
    return space, info, rep


class TestSplitAction:
    def engineered_cocycle(self, rep, t=0.8, u=-0.6, mix=0.5):
        a_mat, b_mat = rep.operator("a"), rep.operator("b")
        b1a = t * np.array([1.0, 1.0, -1.0, -1.0])
        b2b = u * np.array([1.0, -1.0, 1.0, -1.0])
        v0 = mix * np.array([1.0, -1.0, -1.0, 1.0])
        return Cocycle(rep, {"a": b1a + v0 - a_mat @ v0, "b": b2b + v0 - b_mat @ v0}), b1a, b2b, v0

    def test_grid_reconstruction(self):
        _, _, rep = grid_setup()
        coc, b1a, b2b, v0 = self.engineered_cocycle(rep)
        report = split_action(rep, coc, ["a"], ["b"])
        assert report.status == "pass"
        assert report.reconstruction_residual <= 1e-8
        assert report.support_residual <= 1e-8
        assert np.max(np.abs(report.component1["a"] - b1a)) <= 1e-10
        assert np.max(np.abs(report.component2["b"] - b2b)) <= 1e-10
        assert np.max(np.abs(report.coboundary_vector - v0)) <= 1e-10
        assert report.cross_leak <= 1e-10
        assert max(report.factor_validation.values()) <= 1e-10

    def test_pure_coboundary_gives_zero_components(self, rng):
        _, _, rep = grid_setup()
        v = rng.standard_normal(4)
        report = split_action(rep, coboundary_of(rep, v), ["a"], ["b"])
        assert report.status == "pass"
        # components vanish up to the coboundary of the carrier parts of v
        assert report.reconstruction_residual <= 1e-8

    def test_component_supported_in_one_factor(self):
        _, _, rep = grid_setup()
        coc, b1a, _, _ = self.engineered_cocycle(rep, u=0.0, mix=0.0)
        report = split_action(rep, coc, ["a"], ["b"])
        assert report.status == "pass"
        assert all(np.max(np.abs(v)) <= 1e-10 for v in report.component2.values())
        assert np.max(np.abs(report.coboundary_vector)) <= 1e-10

    def test_gap_threshold_refusal(self):
        _, _, rep = grid_setup()
        coc, *_ = self.engineered_cocycle(rep)
        with pytest.raises(Refusal, match="threshold"):
            split_action(rep, coc, ["a"], ["b"], gap_threshold=2.5)


class TestSuperrigidity:
    def diagonal_s3(self, p=2.5):
        s3 = symmetric_group_3()
        info = product_group(s3, s3, rename2={"t": "u", "c": "d"})
        diag = sorted(g * 6 + g for g in range(6))
        sub_gens = {name: idx * 6 + idx for name, idx in s3.generators.items()}
        cs = CosetStructure(info, diag, sub_gens)
        space = LpSpace(3, p)
        images = {
            "t": LampertiIsometry(np.argsort([1, 0, 2]), np.ones(3), space, space),
            "c": LampertiIsometry(np.argsort([1, 2, 0]), np.ones(3), space, space),
        }
        rep_sub = Representation(cs.subgroup, space, images)
        return info, cs, rep_sub

    def test_factor_one_cocycle_recovered(self):
        info, cs, rep_sub = self.diagonal_s3()
        coc = coboundary_of(rep_sub, [1.0, -1.0, 0.0])
        report = superrigidity_pipeline(cs, coc)
        assert report.status == "pass"
        assert report.index == 6
        assert report.sub_reconstruction_residual <= 1e-8
        # the representation extends through either factor on all of B
        assert report.base_dims == {"b1": 3, "b2": 3, "overlap": 3}
        for name in coc.values:
            assert np.max(np.abs(report.component2[name])) <= 1e-8
            recon = report.component1[name] + (coc.values[name] - report.component1[name])
            assert np.max(np.abs(recon - coc.values[name])) <= 1e-12

    def test_overlap_scenario_reports_dimension_one(self):
        d3 = dihedral_group(3)
        info = product_group(d3, d3)
        rot = set(d3.subgroup_closure([d3.generators["r"]]))
        eps = {g: (1 if g in rot else -1) for g in range(d3.order)}
        gamma = sorted(
            i * d3.order + j for i in range(d3.order) for j in range(d3.order) if eps[i] == eps[j]
        )
        sub_gens = {
            "x": d3.generators["r"] * d3.order,
            "y": d3.generators["r"],
            "z": d3.generators["s"] * d3.order + d3.generators["s"],
        }
        cs = CosetStructure(info, gamma, sub_gens)
        space = LpSpace(1, 3)
        rep_sub = Representation(
            cs.subgroup, space, {"x": np.eye(1), "y": np.eye(1), "z": -np.eye(1)}
        )
        coc = coboundary_of(rep_sub, [0.5])
        report = superrigidity_pipeline(cs, coc)
        assert report.status == "pass"
        assert report.index == 2
        assert report.base_dims["b1"] == 1
        assert report.base_dims["b2"] == 1
        assert report.base_dims["overlap"] == 1

    def test_non_dense_projections_refused(self):
        s3 = symmetric_group_3()
        info = product_group(s3, s3, rename2={"t": "u", "c": "d"})
        # Gamma = A3 x A3: projections miss the odd permutations
        a3 = s3.subgroup_closure([s3.generators["c"]])
        gamma = sorted(i * 6 + j for i in a3 for j in a3)
        sub_gens = {"c": s3.generators["c"] * 6, "d": s3.generators["c"]}
        space = LpSpace(1, 2.5)
        cs = CosetStructure(info, gamma, sub_gens)
        rep_sub = Representation(cs.subgroup, space, {"c": np.eye(1), "d": np.eye(1)})
        coc = Cocycle(rep_sub, {"c": [0.0], "d": [0.0]})
        with pytest.raises(Refusal, match="dense"):
            superrigidity_pipeline(cs, coc)

    def test_non_product_group_refused(self):
        # Z/4 has the index-2 subgroup {0, 2} but is no product group
        cs, rep_sub = sign_z2_in_z4()
        coc = coboundary_of(rep_sub, [1.0])
        with pytest.raises(Refusal) as err:
            superrigidity_pipeline(cs, coc)
        assert str(err.value) == "superrigid requires a product group"

    def test_whole_group_reduces_to_split(self):
        space, info, rep = grid_setup(p=2.5)
        everything = list(range(4))
        sub_gens = {"a": info.generators["a"], "b": info.generators["b"]}
        cs = CosetStructure(info, everything, sub_gens)
        rep_sub = Representation(
            cs.subgroup,
            space,
            {"a": rep.images["a"], "b": rep.images["b"]},
        )
        coc = coboundary_of(rep_sub, np.array([0.4, -0.2, 0.1, -0.3]))
        report = superrigidity_pipeline(cs, coc)
        assert report.status == "pass"
        assert report.index == 1


class TestInduceCocycleInputs:
    def test_cocycle_over_a_foreign_group_refused(self):
        cs, rep = sign_z2_in_z4()
        _, rep_g = induce_rep(cs, rep)
        # same order as cs.subgroup, other generator name; then another table of order 4 in Z/8
        foreign = Representation(cyclic_group(2, "t"), rep.space, {"t": -np.eye(1)})
        with pytest.raises(ValueError, match="not over the coset structure's subgroup"):
            induce_cocycle(cs, Cocycle(foreign, {"t": [3.0]}), rep_g)
        cs8 = CosetStructure(cyclic_group(8), [0, 2, 4, 6], {"s": 2})
        _, rep8 = induce_rep(cs8, Representation(cs8.subgroup, rep.space, {"s": -np.eye(1)}))
        klein = product_group(cyclic_group(2, "s"), cyclic_group(2, "u"))
        rep_k = Representation(klein, rep.space, {"s": -np.eye(1), "u": np.eye(1)})
        with pytest.raises(ValueError, match="not over the coset structure's subgroup"):
            induce_cocycle(cs8, Cocycle(rep_k, {"s": [3.0], "u": [0.0]}, validate=False), rep8, validate=False)

    def test_induced_rep_of_the_wrong_dimension_refused(self):
        cs, rep = sign_z2_in_z4()
        coc = Cocycle(rep, {"s": [3.0]})
        space = LpSpace(3, 3.0)
        wrong = Representation(cs.group, space, {"a": LampertiIsometry([2, 0, 1], np.ones(3), space, space)},
                               validate=False)
        with pytest.raises(ValueError, match="induced representation is not over"):
            induce_cocycle(cs, coc, wrong, validate=False)
        _, rep_g = induce_rep(cs, rep)
        other_z4 = Representation(cyclic_group(4), rep_g.space, dict(rep_g.images))
        with pytest.raises(ValueError, match="induced representation is not over"):
            induce_cocycle(cs, coc, other_z4)


def rotation_a3_in_s3():
    group = symmetric_group_3()
    c = group.generators["c"]
    cs = CosetStructure(group, group.subgroup_closure([c]), {"c": c})
    t = 2 * np.pi / 3
    rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    return cs, Representation(cs.subgroup, LpSpace(2, 2.0), {"c": rot})


def hand_blocks(cs, block_of):
    """Each generator h of G as the block matrix with block_of(s) at (d, d'), s = chi(h^-1 d) in S, from the group
    table itself."""
    group, words = cs.group, cs.subgroup.element_words()
    blocks = {}
    for name, h in group.generators.items():
        rows = []
        for d in cs.domain:
            x = group.mult(group.inv(h), d)
            row = [np.zeros_like(block_of(words[0]))] * cs.index
            row[int(cs.coset_of[x])] = block_of(words[cs.sub_index_of[int(cs.chi[x])]])
            rows.append(row)
        blocks[name] = np.block(rows)
    return blocks


class TestInducedOperators:
    def test_dense_base_keeps_dense_blocks(self):
        cs, rep = rotation_a3_in_s3()
        assert not rep.monomial
        ind, rep_g = induce_rep(cs, rep)  # validated on construction
        assert not rep_g.monomial
        assert rep_g.relation_residual <= 1e-10
        for name, big in hand_blocks(cs, rep.operator).items():
            assert np.array_equal(rep_g.operator(name), big), name
        coc_g = induce_cocycle(cs, coboundary_of(rep, [0.3, -1.2]), rep_g)
        assert coc_g.relator_residual <= 1e-10

    @pytest.mark.parametrize("case", ["z4-in-z8", "c-in-s3", "t-in-s3"])
    def test_weighted_monomial_base_induces_lamperti_blocks(self, case):
        # a weighted signed n-cycle for a subgroup generator of order n: index 2 (normal) and index 3 (not normal)
        if case == "z4-in-z8":
            # generated by 1 and 5: the blocks of 5 are the elements s^-1 and s^2, whose vals are products
            group, gens = TableGroup(cyclic_group(8).table, 0, {"a": 1, "b": 5}), {"s": 2}
        else:
            group = symmetric_group_3()
            gens = {case[0]: group.generators[case[0]]}
        cs = CosetStructure(group, group.subgroup_closure(list(gens.values())), gens)
        n = cs.subgroup.order
        rng = np.random.default_rng(n)
        space = LpSpace(n, 3.0, rng.uniform(0.5, 2.0, n))
        signs = rng.choice([-1.0, 1.0], n)
        signs[0] = np.prod(signs[1:])  # rho^n = prod(signs) * I
        (name,) = gens
        rep = Representation(cs.subgroup, space, {name: LampertiIsometry(np.roll(np.arange(n), 1), signs, space, space)})
        _, rep_g = induce_rep(cs, rep)
        assert rep_g.monomial and all(isinstance(op, LampertiIsometry) for op in rep_g.images.values())
        assert rep_g.relation_residual <= 1e-12
        # the densities come from the tiled weights, not from the element table's products: equal to rounding
        for name, big in hand_blocks(cs, rep.operator).items():
            mat = rep_g.operator(name)
            assert np.array_equal(mat != 0, big != 0), (case, name)
            assert np.all(np.abs(mat - big) <= 4 * np.finfo(float).eps * np.abs(big)), (case, name)
