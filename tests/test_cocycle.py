import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lplab import (
    Cocycle,
    LampertiIsometry,
    LpSpace,
    OrbitCapExceeded,
    PresentedGroup,
    Representation,
    coboundary_of,
    coboundary_solve,
    cyclic_group,
    displacement_bound_check,
    mautner_check,
    orbit_ball,
    product_group,
)


def swap_action(p=3.0, value=(1.0, -1.0)):
    space = LpSpace(2, p)
    group = cyclic_group(2, "s")
    image = LampertiIsometry([1, 0], [1.0, 1.0], space, space)
    rep = Representation(group, space, {"s": image})
    return Cocycle(rep, {"s": list(value)})


def free_rep(dim=3, p=2.0, seed=0, letters=("a", "b")):
    rng = np.random.default_rng(seed)
    space = LpSpace(dim, p, rng.uniform(0.5, 2.0, dim))
    group = PresentedGroup(list(letters), [], k_set=list(letters))
    images = {}
    for letter in letters:
        perm = rng.permutation(dim)
        signs = rng.choice([-1.0, 1.0], dim)
        images[letter] = LampertiIsometry(perm, signs, space, space)
    return Representation(group, space, images)


class TestCocycleExtension:
    def test_empty_word_is_zero(self):
        act = swap_action()
        assert np.array_equal(act.value(""), np.zeros(2))

    def test_relator_residual_blocks_invalid_values(self):
        space = LpSpace(2, 2)
        rep = Representation(cyclic_group(2, "s"), space, {"s": np.eye(2)})
        with pytest.raises(ValueError, match="cocycle identity"):
            Cocycle(rep, {"s": [1.0, 0.0]})  # c(s^2) = 2 c(s) != 0
        coc = Cocycle(rep, {"s": [1.0, 0.0]}, validate=False)
        assert coc.relator_residual > 0.1

    def test_coboundary_telescopes(self, rng):
        rep = free_rep(seed=3)
        v = rng.standard_normal(3)
        coc = coboundary_of(rep, v)
        for word in ("a", "ab", "aBBa", "bAbA"):
            expected = v - rep.operator(word) @ v
            assert np.max(np.abs(coc.value(word) - expected)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 5000), st.integers(1, 6), st.integers(1, 6))
    def test_extension_identity_on_word_pairs(self, seed, len1, len2):
        rng = np.random.default_rng(seed)
        rep = free_rep(seed=seed % 17)
        values = {name: rng.standard_normal(3) for name in rep.generator_names}
        coc = Cocycle(rep, values)  # free group: any values form a cocycle
        letters = list("abAB")
        w1 = "".join(rng.choice(letters, len1))
        w2 = "".join(rng.choice(letters, len2))
        lhs = coc.value(w1 + w2)
        rhs = rep.operator(w1) @ coc.value(w2) + coc.value(w1)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    @pytest.mark.parametrize("valid", [True, False])
    def test_tree_values_equal_word_values(self, rng, valid):
        # Z/2 x Z/3 on six weighted atoms: the densities make every product inexact
        info = product_group(cyclic_group(2, "a"), cyclic_group(3, "b"))
        n = 6
        space = LpSpace(n, 3.0, rng.uniform(0.5, 2.0, n))
        images = {
            "a": LampertiIsometry([3, 4, 5, 0, 1, 2], np.ones(n), space, space),
            "b": LampertiIsometry([1, 2, 0, 4, 5, 3], np.ones(n), space, space),
        }
        rep = Representation(info, space, images)
        if valid:
            coc = coboundary_of(rep, rng.standard_normal(n))
        else:
            coc = Cocycle(rep, {name: rng.standard_normal(n) for name in "ab"}, validate=False)
        vals = coc.element_values()
        words = rep.group.element_words()
        assert sorted(vals) == sorted(words)
        for g, word in words.items():
            assert np.array_equal(vals[g], coc.value(word))
        assert (coc.relator_residual <= 1e-12) == valid

    def test_unknown_symbol(self):
        act = swap_action()
        with pytest.raises(ValueError, match="unknown generator"):
            act.value("sz")


class TestCoboundarySolve:
    def test_zero_cocycle(self):
        act = swap_action(value=(0.0, 0.0))
        sol = coboundary_solve(act)
        assert sol.is_coboundary
        assert np.max(np.abs(sol.vector)) <= 1e-12

    def test_swap_example_fixed_line(self):
        act = swap_action(p=2.5)
        sol = coboundary_solve(act)
        assert sol.is_coboundary and sol.residual <= 1e-10
        # returned v is a fixed point: s.v = v and lies on {x1 - x2 = 1}
        assert np.max(np.abs(act.apply("s", sol.vector) - sol.vector)) <= 1e-12
        assert sol.vector[0] - sol.vector[1] == pytest.approx(1.0, abs=1e-12)

    def test_translation_cocycle_not_coboundary(self):
        space = LpSpace(2, 3)
        group = PresentedGroup(["t"], [], k_set=["t"])
        rep = Representation(group, space, {"t": np.eye(2)})
        coc = Cocycle(rep, {"t": [1.0, 1.0]})
        sol = coboundary_solve(coc)
        assert not sol.is_coboundary
        assert sol.residual == pytest.approx(space.norm([1.0, 1.0]), abs=1e-12)

    def test_every_coboundary_solves_exactly(self, rng):
        rep = free_rep(seed=9)
        for _ in range(10):
            coc = coboundary_of(rep, rng.standard_normal(3))
            sol = coboundary_solve(coc)
            assert sol.residual <= 1e-10
            act = coc
            assert act.max_displacement(sol.vector) <= 1e-10


class TestSeminorm:
    def test_zero_cocycle(self):
        act = swap_action(value=(0.0, 0.0))
        assert act.seminorm(["s", "ss"]) == 0.0

    def test_single_generator(self):
        act = swap_action(p=2.0)
        assert act.seminorm(["s"]) == pytest.approx(np.sqrt(2.0), abs=1e-14)

    def test_coboundary_over_whole_table(self, rng):
        space = LpSpace(3, 2)
        group = cyclic_group(3)
        image = LampertiIsometry(np.argsort([1, 2, 0]), np.ones(3), space, space)
        rep = Representation(group, space, {"a": image})
        v = rng.standard_normal(3)
        coc = coboundary_of(rep, v)
        words = list(rep.group.element_words().values())
        assert coc.seminorm(words) <= 2.0 * space.norm(v) + 1e-12

    def test_empty_k(self):
        with pytest.raises(ValueError, match="nonempty"):
            swap_action().seminorm([])


class TestOrbitBall:
    def test_fixed_point_is_singleton(self):
        act = swap_action(p=2.0)
        sol = coboundary_solve(act)
        ball = orbit_ball(act, sol.vector, 3)
        assert len(ball.points) == 1 and ball.diameter == 0.0

    def test_translation_diameter(self):
        space = LpSpace(1, 2)
        group = PresentedGroup(["t"], [], k_set=["t"])
        rep = Representation(group, space, {"t": np.eye(1)})
        act = Cocycle(rep, {"t": [2.0]})
        for radius in (1, 2, 3):
            ball = orbit_ball(act, [5.0], radius)
            assert ball.diameter == pytest.approx(2.0 * radius * 2.0, abs=1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_swap_cocycle_orbit(self, p):
        act = swap_action(p=p)
        ball = orbit_ball(act, [0.0, 0.0], 1)
        assert len(ball.points) == 2
        assert ball.diameter == pytest.approx(2.0 ** (1.0 / p), abs=1e-12)

    def test_cap_guard(self):
        rep = free_rep(seed=5)
        rng = np.random.default_rng(0)
        values = {name: rng.standard_normal(3) for name in rep.generator_names}
        act = Cocycle(rep, values)
        with pytest.raises(OrbitCapExceeded):
            orbit_ball(act, np.zeros(3), 12, cap=50)


class TestDisplacementBound:
    def make_action(self, c_a, c_h, p=2.5):
        space = LpSpace(4, p)
        info = product_group(cyclic_group(2, "a"), cyclic_group(2, "h"))
        ua = LampertiIsometry([2, 3, 0, 1], np.ones(4), space, space)
        uh = LampertiIsometry([1, 0, 3, 2], np.ones(4), space, space)
        rep = Representation(info, space, {"a": ua, "h": uh})
        return Cocycle(rep, {"a": c_a, "h": c_h})

    def test_corpus_scenario_passes(self):
        act = self.make_action([0.2, -0.3, -0.2, 0.3], [1.0, -1.0, 0.5, -0.5])
        report = displacement_bound_check(act, ["a"], ["h"], k_h=["h"])
        assert report.status == "pass"
        assert report.identity_residual <= 1e-10
        assert report.gap == pytest.approx(2.0, abs=1e-10)
        assert report.worst_a_norm <= report.bound + 1e-6

    def test_zero_a_cocycle_trivially_bounded(self):
        # c(a) = 0 forces c(h) to be fixed by rho(a) (commutation relator)
        act = self.make_action([0.0, 0.0, 0.0, 0.0], [1.0, -1.0, 1.0, -1.0])
        report = displacement_bound_check(act, ["a"], ["h"])
        assert report.status == "pass" and report.worst_a_norm == 0.0

    def test_vacuous_when_h_has_no_complement(self):
        space = LpSpace(2, 2)
        info = product_group(cyclic_group(2, "a"), cyclic_group(1, "h"))
        ua = LampertiIsometry([1, 0], [1.0, 1.0], space, space)
        rep = Representation(info, space, {"a": ua, "h": np.eye(2)})
        act = Cocycle(rep, {"a": [1.0, -1.0], "h": [0.0, 0.0]})
        report = displacement_bound_check(act, ["a"], ["h"])
        assert report.status == "not-applicable"
        assert np.isinf(report.gap)

    def test_non_commuting_rejected(self):
        space = LpSpace(3, 2)
        group, _ = __import__("lplab").groups.group_from_permutations({"t": [1, 0, 2], "c": [1, 2, 0]})
        ut = LampertiIsometry(np.argsort([1, 0, 2]), np.ones(3), space, space)
        uc = LampertiIsometry(np.argsort([1, 2, 0]), np.ones(3), space, space)
        rep = Representation(group, space, {"t": ut, "c": uc})
        act = coboundary_of(rep, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="commute"):
            displacement_bound_check(act, ["t"], ["c"])


class TestMautner:
    def bs_action(self):
        group = PresentedGroup(["g", "h"], ["ghGHHHH"], k_set=["g", "h"])
        space = LpSpace(2, 2)
        rep = Representation(
            group,
            space,
            {"g": np.diag([2.0, 0.5]), "h": np.array([[1.0, 1.0], [0.0, 1.0]])},
            require_isometric=False,
        )
        return coboundary_of(rep, np.array([1.0, 2.0]))

    def test_identity_h_always_fixed(self):
        act = self.bs_action()
        report = mautner_check(act, "g", "", n_max=6)
        assert report.status == "pass"
        assert report.h_displacement <= 1e-12

    def test_contracting_conjugates_propagate_fixed_point(self):
        act = self.bs_action()
        report = mautner_check(act, "g", "h", n_max=15)
        assert report.status == "pass" and report.contracting
        assert report.contraction[-1] < 1e-8
        assert np.allclose(report.fixed_point, [1.0, 2.0], atol=1e-9)
        assert report.h_displacement <= 1e-6

    def test_finite_order_not_contracting(self):
        space = LpSpace(2, 2)
        group = cyclic_group(4)
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        rep = Representation(group, space, {"a": rot})
        act = coboundary_of(rep, np.array([0.3, -0.7]))
        report = mautner_check(act, "a", "a", n_max=8)
        assert report.status == "not-applicable"
        assert not report.contracting


class TestGuichardetGrowth:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_almost_invariant_family_breaks_coboundary_bound(self, p):
        # zero-mean indicators over growing cycles: ||v_n|| / ||tau(v_n)||_K
        # grows without bound, so the coboundary map has no bounded inverse
        from lplab import indicator_vector, zero_mean_rep

        ratios = []
        for n in (4, 8, 16, 32):
            rep, _ = zero_mean_rep({"a": np.roll(np.arange(n), -1)}, np.ones(n), p)
            probe = indicator_vector(range(n // 2), n)
            displacement = max(
                rep.space.norm(rep.apply(w, probe) - probe) for w in rep.group.k_set
            )
            ratios.append(rep.space.norm(probe) / displacement)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        # closed form: ratio = n^(1/p) / (2 * 2^(1/p))
        for n, ratio in zip((4, 8, 16, 32), ratios):
            assert ratio == pytest.approx(n ** (1 / p) / (2 * 2 ** (1 / p)), abs=1e-12)


class TestAffineIsometry:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_action_preserves_distances(self, p, rng):
        rep = free_rep(dim=4, p=p, seed=11, letters=("a", "b"))
        values = {name: rng.standard_normal(4) for name in rep.generator_names}
        act = Cocycle(rep, values)
        for word in ("a", "bA", "abb", "BaBa"):
            for _ in range(5):
                x, y = rng.standard_normal(4), rng.standard_normal(4)
                lhs = act.space.norm(act.apply(word, x) - act.apply(word, y))
                rhs = act.space.norm(x - y)
                assert abs(lhs - rhs) <= 1e-12
