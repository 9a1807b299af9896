import numpy as np
import pytest

from lplab import (
    LampertiIsometry,
    LpSpace,
    PresentedGroup,
    Representation,
    canonical_complement,
    cyclic_group,
    dihedral_group,
    dual_rep,
    duality_map,
    fixed_subspace,
    functoriality_check,
    indicator_displacement,
    indicator_vector,
    product_decomposition,
    product_group,
    symmetric_group_3,
    zero_mean_rep,
)
from conftest import hilbert_projection, table_matrices


def swap_rep(p=3.0, weights=None):
    space = LpSpace(2, p, weights)
    group = cyclic_group(2, "s")
    image = LampertiIsometry([1, 0], [1.0, 1.0], space, space)
    return Representation(group, space, {"s": image})


def regular_z3(p=2.0):
    space = LpSpace(3, p)
    group = cyclic_group(3)
    image = LampertiIsometry(np.argsort([1, 2, 0]), np.ones(3), space, space)
    return Representation(group, space, {"a": image})


def grid_rep(p=2.0):
    info = product_group(cyclic_group(2, "a"), cyclic_group(2, "b"))
    space = LpSpace(4, p)
    ua = LampertiIsometry([2, 3, 0, 1], np.ones(4), space, space)
    ub = LampertiIsometry([1, 0, 3, 2], np.ones(4), space, space)
    return Representation(info, space, {"a": ua, "b": ub})


def rotation_z6():
    # rotation by 60 degrees on l_2^2: floating-point products, not exact ones
    t = np.pi / 3
    rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    return Representation(cyclic_group(6), LpSpace(2, 2.0), {"a": rot})


def rotation_a3():
    # A3 in S3 acting on l_2^2 by 120 degrees
    group = symmetric_group_3()
    c = group.generators["c"]
    sub, _ = group.subgroup(group.subgroup_closure([c]), {"c": c})
    t = 2 * np.pi / 3
    return Representation(sub, LpSpace(2, 2.0), {"c": np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])})


def rotation_d4():
    # the symmetries of the square on l_2^2, rotated by 30 degrees off the axes: no image is monomial
    t, u = np.pi / 6, np.pi / 2
    rot = np.array([[np.cos(u), -np.sin(u)], [np.sin(u), np.cos(u)]])
    refl = np.array([[np.cos(2 * t), np.sin(2 * t)], [np.sin(2 * t), -np.cos(2 * t)]])
    return Representation(dihedral_group(4), LpSpace(2, 2.0), {"r": rot, "s": refl})


def weighted_perm_rep(perms, p, seed=0):
    n = len(next(iter(perms.values())))
    rep, _ = zero_mean_rep(perms, np.random.default_rng(seed).uniform(0.5, 2.0, n), p)
    return rep


TREE_REPS = {
    "z6": rotation_z6,
    "d4": lambda: weighted_perm_rep({"r": np.roll(np.arange(4), -1), "s": (-np.arange(4)) % 4}, 3.0),
    "s3": lambda: weighted_perm_rep({"t": [1, 0, 2], "c": [1, 2, 0]}, 1.5, seed=1),
    "grid": lambda: grid_rep(3.0),
}


def pair_residual(rep):
    """Brute-force oracle: max over all m^2 pairs of ||phi(i) phi(j) - phi(ij)||_2."""
    mats = table_matrices(rep)
    m = rep.group.order
    return max(
        float(np.linalg.norm(mats[i] @ mats[j] - mats[rep.group.mult(i, j)], 2))
        for i in range(m)
        for j in range(m)
    )


def signed_shift_z6(sign_product):
    # rho(a)^6 = (product of the signs) * I
    signs = np.ones(6)
    signs[0] = sign_product
    space = LpSpace(6, 3.0)
    image = LampertiIsometry(np.roll(np.arange(6), 1), signs, space, space)
    return Representation(cyclic_group(6), space, {"a": image}, validate=False)


class TestElementOperators:
    @pytest.mark.parametrize("name", sorted(TREE_REPS))
    def test_tree_matrices_equal_word_operators(self, name):
        rep = TREE_REPS[name]()
        mats = table_matrices(rep)
        words = rep.group.element_words()
        assert len(mats) == rep.group.order and sorted(words) == list(range(rep.group.order))
        for g, word in words.items():
            assert np.array_equal(mats[g], rep.operator(word))

    def test_element_table_is_cached_and_read_only(self):
        rep = rotation_z6()
        table = rep.element_table
        assert rep.element_table is table
        assert table.shape == (6, 2, 2)
        with pytest.raises(ValueError):
            table[1][0, 0] = 0.0
        perms, vals = TREE_REPS["d4"]().element_table
        for arr in (perms, vals):
            with pytest.raises(ValueError):
                arr[1, 0] = 0

    @pytest.mark.parametrize("rep", [rotation_z6, rotation_a3, rotation_d4])
    def test_stacked_products_equal_the_per_element_loops(self, rep):
        # element_apply and the edge check take one stacked product each; the loops they replace, bit for bit
        rep = rep()
        table, group = rep.element_table, rep.group
        vectors = np.random.default_rng(3).standard_normal((group.order, rep.space.dim))
        images = rep.element_apply(np.arange(group.order), vectors)
        loop = np.array([table[g] @ v for g, v in enumerate(vectors)])
        assert images.tobytes() == loop.tobytes()
        worst = 0.0
        for g in range(group.order):
            for name in rep.generator_names:
                dev = table[g] @ rep.letters[name] - table[group.mult(g, group.generators[name])]
                if dev.any():
                    worst = max(worst, float(np.linalg.norm(dev, 2)))
        assert rep.relation_residual == worst

    @pytest.mark.parametrize("name", sorted(TREE_REPS))
    def test_edge_and_pair_residuals_of_valid_representations(self, name):
        rep = TREE_REPS[name]()
        assert rep.relation_residual <= 1e-12
        assert pair_residual(rep) <= 1e-12

    def test_relation_broken_off_the_tree_is_refused(self):
        rep = signed_shift_z6(-1.0)  # rho(a)^6 = -I
        tree = rep.group.bfs_tree()
        mats = table_matrices(rep)
        # every tree edge holds by construction; the defect sits on a non-tree edge
        for g, letter, gx in tree:
            assert np.array_equal(mats[g] @ rep.operator(letter), mats[gx])
        assert rep.relation_residual > 1e-9
        assert pair_residual(rep) > 1e-9
        assert signed_shift_z6(1.0).relation_residual == 0.0
        with pytest.raises(ValueError, match="relations violated"):
            Representation(rep.group, rep.space, rep.images)


class TestRepresentation:
    def test_rejects_non_isometric_images(self):
        space = LpSpace(2, 2)
        with pytest.raises(ValueError, match="not isometric"):
            Representation(cyclic_group(2, "s"), space, {"s": np.diag([2.0, 0.5])})

    def test_relaxed_mode_accepts_matrix_groups(self):
        group = PresentedGroup(["g", "h"], ["ghGHHHH"])
        rep = Representation(
            group,
            LpSpace(2, 2),
            {"g": np.diag([2.0, 0.5]), "h": np.array([[1.0, 1.0], [0.0, 1.0]])},
            require_isometric=False,
        )
        assert rep.relation_residual <= 1e-12

    def test_relation_violation_raises(self):
        group = cyclic_group(3)
        space = LpSpace(2, 2)
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])  # order 4, not 3
        with pytest.raises(ValueError, match="relations violated"):
            Representation(group, space, {"a": rot})

    def test_word_operator(self):
        rep = regular_z3()
        a = rep.operator("a")
        assert np.allclose(rep.operator("aa"), a @ a, atol=1e-15)
        assert np.allclose(rep.operator("aA"), np.eye(3), atol=1e-15)


class TestFixedSubspace:
    def test_trivial_rep_fixes_everything(self):
        space = LpSpace(3, 2)
        rep = Representation(cyclic_group(2, "s"), space, {"s": np.eye(3)})
        assert fixed_subspace(rep).shape == (3, 3)

    def test_swap_fixes_diagonal(self):
        basis = fixed_subspace(swap_rep())
        assert basis.shape == (2, 1)
        direction = basis[:, 0] / basis[0, 0]
        assert np.allclose(direction, [1.0, 1.0], atol=1e-12)

    def test_regular_z3_fixes_constants(self):
        basis = fixed_subspace(regular_z3())
        assert basis.shape == (3, 1)
        assert np.allclose(basis[:, 0] / basis[0, 0], np.ones(3), atol=1e-12)
        rep = regular_z3()
        for vec in basis.T:
            assert np.max(np.abs(rep.operator("a") @ vec - vec)) <= 1e-10


class TestDualRep:
    def test_pairing_identity(self, rng):
        rep = swap_rep(p=3.0, weights=[1.0, 2.0])
        dual = dual_rep(rep)
        space = rep.space
        for _ in range(20):
            x, y = rng.standard_normal(2), rng.standard_normal(2)
            lhs = space.pairing(x, dual.operator("s") @ y)
            rhs = space.pairing(rep.operator("S") @ x, y)
            assert abs(lhs - rhs) <= 1e-12

    def test_dual_of_lamperti_stays_lamperti_on_lq(self):
        rep = swap_rep(p=3.0, weights=[1.0, 2.0])
        dual = dual_rep(rep)
        assert dual.space.p == pytest.approx(1.5)
        assert isinstance(dual.images["s"], LampertiIsometry)

    def test_identity_and_orthogonal_cases(self, rng):
        space = LpSpace(3, 2)
        group = cyclic_group(4)
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        rep = Representation(group, space, {"a": rot})
        dual = dual_rep(rep)
        # rho*(g) is the transpose of rho(g^-1); orthogonal images are self-dual
        assert np.allclose(dual.operator("a"), rep.operator("A").T, atol=1e-12)
        assert np.allclose(dual.operator("a"), rot, atol=1e-12)
        ident_rep = Representation(cyclic_group(2, "s"), space, {"s": np.eye(3)})
        assert np.allclose(dual_rep(ident_rep).operator("s"), np.eye(3), atol=1e-15)

    def test_p1_rejected(self):
        with pytest.raises(ValueError, match="p > 1"):
            dual_rep(swap_rep(p=1.0))

    def test_duality_map_transfers_fixed_vectors(self, rng):
        # the duality map intertwines rep and dual rep on fixed unit vectors
        rep = regular_z3(p=3.0)
        dual = dual_rep(rep)
        basis = fixed_subspace(rep)
        for vec in basis.T:
            unit = vec / rep.space.norm(vec)
            image = duality_map(rep.space, unit)
            for name in dual.generator_names:
                assert np.max(np.abs(dual.operator(name) @ image - image)) <= 1e-10


class TestCanonicalComplement:
    def test_trivial_rep_has_zero_complement(self):
        space = LpSpace(3, 2.5)
        rep = Representation(cyclic_group(2, "s"), space, {"s": np.eye(3)})
        cc = canonical_complement(rep)
        assert cc.fixed_dim == 3 and cc.complement_dim == 0

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_swap_unit_weights(self, p):
        cc = canonical_complement(swap_rep(p=p))
        assert cc.fixed_dim == 1 and cc.complement_dim == 1
        direction = cc.complement_basis[:, 0]
        assert abs(direction[0] + direction[1]) <= 1e-12  # span{(1,-1)}

    def test_swap_weighted_annihilator(self):
        # dual image of the weighted swap maps y to ((w2/w1)^(1/q) y2, (w1/w2)^(1/q) y1),
        # so its fixed line is lam = ((w2/w1)^(1/q), 1); B' must annihilate it
        w1, w2 = 1.0, 3.0
        p = 3.0
        q = p / (p - 1.0)
        rep = swap_rep(p=p, weights=[w1, w2])
        lam = np.array([(w2 / w1) ** (1.0 / q), 1.0])
        dual_fixed = fixed_subspace(dual_rep(rep))
        assert dual_fixed.shape == (2, 1)
        assert np.max(np.abs(dual_fixed[:, 0] - dual_fixed[1, 0] * lam)) <= 1e-12
        cc = canonical_complement(rep)
        v = cc.complement_basis[:, 0]
        assert abs(rep.space.pairing(v, lam)) <= 1e-12
        # B' is invariant under the swap
        image = rep.operator("s") @ v
        assert abs(rep.space.pairing(image, lam)) <= 1e-12

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_dimension_completeness_random_perm_reps(self, p, rng):
        space = LpSpace(5, p)
        group = cyclic_group(5)
        image = LampertiIsometry(np.argsort(np.roll(np.arange(5), -1)), np.ones(5), space, space)
        rep = Representation(group, space, {"a": image})
        cc = canonical_complement(rep)
        assert cc.fixed_dim + cc.complement_dim == 5

    def test_projections_idempotent_and_commuting(self):
        rep = grid_rep(p=3.0)
        cc = canonical_complement(rep)
        p_f, p_c = cc.proj_fixed, cc.proj_complement
        assert np.max(np.abs(p_f @ p_f - p_f)) <= 1e-10
        assert np.max(np.abs(p_c @ p_c - p_c)) <= 1e-10
        for name in rep.generator_names:
            mat = rep.operator(name)
            assert np.max(np.abs(mat @ p_f - p_f @ mat)) <= 1e-10

    def test_hilbert_case_matches_orthogonal_complement(self, rng):
        rep = grid_rep(p=2.0)
        cc = canonical_complement(rep)
        fixed = cc.fixed_basis
        # weighted-orthogonal complement oracle: residual of projecting B' onto Fix
        for vec in cc.complement_basis.T:
            proj = hilbert_projection(rep.space, fixed, vec)
            assert np.max(np.abs(proj)) <= 1e-8

    def test_p1_rejected(self):
        with pytest.raises(ValueError, match="p > 1"):
            canonical_complement(swap_rep(p=1.0))


class TestFunctoriality:
    def test_identity_intertwiner(self):
        rep = regular_z3(p=2.5)
        res_fixed, res_comp = functoriality_check(np.eye(3), rep, rep)
        assert res_fixed <= 1e-10 and res_comp <= 1e-10

    def test_zero_map(self):
        rep = regular_z3(p=2.5)
        res_fixed, res_comp = functoriality_check(np.zeros((3, 3)), rep, rep)
        assert res_fixed == 0.0 and res_comp == 0.0

    def test_block_inclusion(self):
        # inclusion of an invariant summand into a direct-sum representation
        space1 = LpSpace(2, 3)
        group = cyclic_group(2, "s")
        swap2 = LampertiIsometry([1, 0], [1.0, 1.0], space1, space1)
        rep1 = Representation(group, space1, {"s": swap2})
        space2 = LpSpace(4, 3)
        big = LampertiIsometry([1, 0, 3, 2], [1.0, 1.0, 1.0, 1.0], space2, space2)
        rep2 = Representation(group, space2, {"s": big})
        phi = np.zeros((4, 2))
        phi[:2, :] = np.eye(2)
        res_fixed, res_comp = functoriality_check(phi, rep1, rep2)
        assert res_fixed <= 1e-10 and res_comp <= 1e-10

    def test_non_intertwiner_rejected(self, rng):
        rep = regular_z3(p=2.5)
        with pytest.raises(ValueError, match="intertwiner"):
            functoriality_check(rng.standard_normal((3, 3)), rep, rep)


class TestProductDecomposition:
    def test_grid_all_summands_one_dimensional(self):
        pd = product_decomposition(grid_rep(p=3.0), ["a"], ["b"])
        assert pd.dims() == (1, 1, 1, 1)

    def test_fixed_of_each_factor_splits(self):
        rep = grid_rep(p=2.5)
        pd = product_decomposition(rep, ["a"], ["b"])
        f1 = fixed_subspace(rep, ["a"])
        span = np.hstack([pd.fixed, pd.b1])
        # span equality via rank
        assert np.linalg.matrix_rank(np.hstack([f1, span]), tol=1e-8) == span.shape[1] == f1.shape[1]

    def test_trivial_second_factor(self):
        # per the canonical construction, Fix(G2) = B puts the whole
        # complement of Fix(G1) into B2 and empties B0
        info = product_group(cyclic_group(2, "a"), cyclic_group(1, "b"))
        space = LpSpace(2, 3)
        ua = LampertiIsometry([1, 0], [1.0, 1.0], space, space)
        ub = LampertiIsometry([0, 1], [1.0, 1.0], space, space)
        rep = Representation(info, space, {"a": ua, "b": ub})
        pd = product_decomposition(rep, ["a"], ["b"])
        assert pd.dims() == (1, 0, 0, 1)

    def test_both_factors_trivial(self):
        info = product_group(cyclic_group(1, "a"), cyclic_group(1, "b"))
        space = LpSpace(2, 3)
        ident = LampertiIsometry([0, 1], [1.0, 1.0], space, space)
        rep = Representation(info, space, {"a": ident, "b": ident})
        pd = product_decomposition(rep, ["a"], ["b"])
        assert pd.dims() == (2, 0, 0, 0)

    def test_non_commuting_rejected(self):
        space = LpSpace(3, 2)
        group, _ = __import__("lplab").groups.group_from_permutations(
            {"t": [1, 0, 2], "c": [1, 2, 0]}
        )
        ut = LampertiIsometry(np.argsort([1, 0, 2]), np.ones(3), space, space)
        uc = LampertiIsometry(np.argsort([1, 2, 0]), np.ones(3), space, space)
        rep = Representation(group, space, {"t": ut, "c": uc})
        with pytest.raises(ValueError, match="commute"):
            product_decomposition(rep, ["t"], ["c"])


class TestZeroMean:
    # displacement ratios for the 4-cycle with E = {0, 1}: 2 * 2^(-1/p)
    RATIOS = {1.5: 1.2599210498948732, 2.0: 1.4142135623730951, 3.0: 1.5874010519681996}

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_cyclic_shift_displacement_fixture(self, p):
        rep, _ = zero_mean_rep({"a": np.roll(np.arange(4), -1)}, np.ones(4), p)
        assert indicator_displacement(rep, [0, 1]) == pytest.approx(self.RATIOS[p], abs=1e-12)

    def test_measure_preserving_swap(self):
        rep, _ = zero_mean_rep({"s": [1, 0]}, np.ones(2), 2.0)
        assert indicator_displacement(rep, [0]) == pytest.approx(2.0, abs=1e-14)

    def test_zero_mean_basis(self):
        weights = np.array([1.0, 2.0, 3.0])
        rep, basis = zero_mean_rep({"s": [1, 0, 2]}, weights, 2.0)
        assert basis.shape == (3, 2)
        assert np.max(np.abs(weights @ basis)) <= 1e-12

    def test_non_measure_preserving_action_is_twisted_isometric(self, rng):
        weights = np.array([1.0, 3.0])
        rep, _ = zero_mean_rep({"s": [1, 0]}, weights, 3.0)
        v = rng.standard_normal(2)
        assert abs(rep.space.norm(rep.apply("s", v)) - rep.space.norm(v)) <= 1e-12

    def test_whole_set_rejected(self):
        with pytest.raises(ValueError, match="proper"):
            indicator_vector([0, 1, 2], 3)
        with pytest.raises(ValueError, match="nonempty"):
            indicator_vector([], 3)

    def test_non_invertible_action_rejected(self):
        with pytest.raises(ValueError, match="not invertible"):
            zero_mean_rep({"s": [0, 0]}, np.ones(2), 2.0)
