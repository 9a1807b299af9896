import numpy as np
import pytest

from lplab import (
    AffineSubspace,
    Ball,
    Cocycle,
    ConvexHull,
    LampertiIsometry,
    LpSpace,
    PresentedGroup,
    Representation,
    circumcenter,
    coboundary_solve,
    cyclic_group,
    fisher_margulis_iterate,
    fixed_point_circumcenter,
    klee_search,
    lipschitz_probe,
    nearest_point,
    optimality_residual,
    random_lamperti,
    set_distance,
)
from lplab.convex import hull_separation_certificate
from conftest import grid_circumcenter, hilbert_projection, load_fixture


class TestCircumcenter:
    def test_single_point(self):
        space = LpSpace(3, 2.5)
        c, r = circumcenter([[1.0, 2.0, 3.0]], space)
        assert np.array_equal(c, [1.0, 2.0, 3.0]) and r == 0.0

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_symmetric_pair_is_exact(self, p):
        space = LpSpace(2, p)
        c, r = circumcenter([[1.0, 0.0], [-1.0, 0.0]], space)
        assert np.max(np.abs(c)) <= 1e-9
        assert r == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_matches_grid_oracle_dim3(self, p):
        rng = np.random.default_rng(7)
        space = LpSpace(3, p)
        grid_kw = {"rounds": 16, "n": 45} if p == 1.5 else {}
        for _ in range(5):
            pts = rng.standard_normal((5, 3))
            _, radius = circumcenter(pts, space)
            _, oracle = grid_circumcenter(pts, space, **grid_kw)
            assert radius <= oracle + 1e-9  # solver at least as good as the grid
            assert abs(radius - oracle) <= 1e-3

    def test_equivariance_under_lamperti(self, rng):
        space = LpSpace(3, 3)
        pts = rng.standard_normal((5, 3))
        u = random_lamperti(space, rng)
        c1, r1 = circumcenter(pts, space)
        c2, r2 = circumcenter(np.array([u.apply(q) for q in pts]), space)
        assert np.max(np.abs(c2 - u.apply(c1))) <= 1e-6
        assert abs(r1 - r2) <= 1e-8

    def test_rejections(self):
        with pytest.raises(ValueError, match="empty"):
            circumcenter(np.zeros((0, 2)), LpSpace(2, 2))
        with pytest.raises(ValueError, match="p > 1"):
            circumcenter([[0.0, 0.0]], LpSpace(2, 1))


class TestNearestPoint:
    def test_point_inside_set_is_fixed(self):
        space = LpSpace(2, 3)
        ball = Ball([0.0, 0.0], 2.0)
        x = np.array([0.5, -0.3])
        assert np.array_equal(nearest_point(ball, x, space), x)
        hull = ConvexHull([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        inside = np.array([0.25, 0.25])
        assert np.max(np.abs(nearest_point(hull, inside, space) - inside)) <= 1e-7

    def test_hilbert_affine_matches_oracle(self, rng):
        space = LpSpace(4, 2, rng.uniform(0.5, 2.0, 4))
        basis = rng.standard_normal((4, 2))
        base = rng.standard_normal(4)
        x = rng.standard_normal(4)
        got = nearest_point(AffineSubspace(base, basis), x, space)
        expected = base + hilbert_projection(space, basis, x - base)
        assert np.max(np.abs(got - expected)) <= 1e-10

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_ball_projection_is_radial(self, p):
        space = LpSpace(3, p)
        x = np.array([2.0, -1.0, 0.5])
        got = nearest_point(Ball([0.0, 0.0, 0.0], 1.0), x, space)
        assert np.max(np.abs(got - x / space.norm(x))) <= 1e-12

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_first_order_optimality_affine_and_hull(self, p, rng):
        space = LpSpace(3, p)
        basis = rng.standard_normal((3, 1))
        cset = AffineSubspace(rng.standard_normal(3), basis)
        x = rng.standard_normal(3)
        y = nearest_point(cset, x, space)
        assert optimality_residual(cset, x, y, space) <= 1e-6
        hull = ConvexHull(rng.standard_normal((4, 3)) + 3.0)
        y = nearest_point(hull, x, space)
        assert optimality_residual(hull, x, y, space) <= 1e-6

    def test_p1_rejected(self):
        with pytest.raises(ValueError, match="p > 1"):
            nearest_point(Ball([0.0], 1.0), [2.0], LpSpace(1, 1))

    @pytest.mark.parametrize("cset", [AffineSubspace([5.0], np.eye(1)), Ball([5.0], 1.0), Ball(5.0, 1.0),
                                      ConvexHull([[5.0], [6.0]])], ids=["affine", "ball", "ball-scalar", "hull"])
    def test_set_of_another_dimension_is_refused(self, cset):
        # a 1-entry base, center or hull would broadcast against a vector of l_3^3
        space = LpSpace(3, 3)
        for call in (nearest_point, set_distance):
            with pytest.raises(ValueError, match="do not live in the space"):
                call(cset, [1.0, 2.0, 3.0], space)
        with pytest.raises(ValueError, match="do not live in the space"):
            optimality_residual(cset, [1.0, 2.0, 3.0], [1.0, 5.0, 5.0], space)

    def test_affine_base_of_another_length_than_the_basis_rows_is_refused(self):
        with pytest.raises(ValueError, match="differ in length"):
            AffineSubspace([5.0], np.eye(3)[:, :1])


class TestLipschitz:
    def test_points_inside_give_zero(self):
        space = LpSpace(2, 3)
        hull = ConvexHull([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        pairs = [([0.2, 0.2], [0.3, 0.3])]
        assert lipschitz_probe(hull, space, pairs) <= 1e-9

    def test_coincident_points_skipped(self):
        space = LpSpace(2, 2)
        hull = ConvexHull([[0.0, 0.0]])
        assert lipschitz_probe(hull, space, [([1.0, 1.0], [1.0, 1.0])]) == 0.0

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_random_pairs_stay_one_lipschitz(self, p, rng):
        space = LpSpace(3, p)
        hull = ConvexHull(rng.standard_normal((5, 3)))
        pairs = [(rng.standard_normal(3) * 2, rng.standard_normal(3) * 2) for _ in range(40)]
        assert lipschitz_probe(hull, space, pairs) <= 1.0 + 1e-6


def swap_cocycle_action(p=3.0):
    space = LpSpace(2, p)
    group = cyclic_group(2, "s")
    image = LampertiIsometry([1, 0], [1.0, 1.0], space, space)
    rep = Representation(group, space, {"s": image})
    return Cocycle(rep, {"s": [1.0, -1.0]})


def translation_action():
    space = LpSpace(1, 2)
    group = PresentedGroup(["t"], [], k_set=["t"])
    rep = Representation(group, space, {"t": np.eye(1)})
    return Cocycle(rep, {"t": [1.0]})


class TestFixedPointCircumcenter:
    def test_already_fixed_point(self):
        act = swap_cocycle_action()
        sol = coboundary_solve(act)
        res = fixed_point_circumcenter(act, sol.vector)
        assert res.status == "fixed"
        assert np.max(np.abs(res.point - sol.vector)) <= 1e-9

    def test_swap_orbit_center(self):
        act = swap_cocycle_action(p=2.0)
        res = fixed_point_circumcenter(act, [0.0, 0.0])
        assert res.status == "fixed"
        assert np.allclose(res.point, [0.5, -0.5], atol=1e-9)
        assert res.displacement <= 1e-6

    def test_translation_reports_unbounded(self):
        res = fixed_point_circumcenter(translation_action(), [0.0])
        assert res.status == "unbounded"


class TestFisherMargulis:
    def test_already_fixed_terminates_immediately(self):
        act = swap_cocycle_action()
        sol = coboundary_solve(act)
        res = fisher_margulis_iterate(act, x0=sol.vector, c_mult=0.4, seed=0)
        assert res.status == "fixed"
        assert len(res.trace) == 1

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_swap_scenario_halves_and_converges(self, p):
        act = swap_cocycle_action(p=p)
        res = fisher_margulis_iterate(act, x0=[0.0, 0.0], c_mult=0.4, max_iter=40, tol=1e-6, seed=0)
        assert res.status == "fixed"
        radii = res.radii
        for a, b in zip(radii, radii[1:]):
            assert b < a / 2.0
        assert res.displacement <= 1e-6
        # terminal point lies on the fixed line within tolerance
        assert res.terminal[0] - res.terminal[1] == pytest.approx(1.0, abs=1e-5)
        # step jumps stay inside the search balls
        for prev, nxt in zip(res.trace, res.trace[1:]):
            assert act.space.norm(nxt.point - prev.point) <= 0.4 * prev.diameter + 1e-9

    def test_translation_first_step_fails(self):
        res = fisher_margulis_iterate(translation_action(), x0=[0.0], c_mult=1.0, seed=0)
        assert res.status == "non-contracting"
        assert len(res.trace) == 1

    def test_rejects_bad_inputs(self):
        act = swap_cocycle_action()
        with pytest.raises(ValueError, match="nonempty"):
            fisher_margulis_iterate(act, k_words=[], x0=[0.0, 0.0])
        with pytest.raises(ValueError, match="positive"):
            fisher_margulis_iterate(act, x0=[0.0, 0.0], c_mult=0.0)


class TestKlee:
    def test_hilbert_refused(self):
        with pytest.raises(ValueError, match="p = 2"):
            klee_search(LpSpace(3, 2), trials=1)

    def test_low_dimension_refused(self):
        with pytest.raises(ValueError, match="dim >= 3"):
            klee_search(LpSpace(2, 4), trials=1)

    def test_search_outcome_fixture(self):
        # once a witness is recorded it must keep escaping; a none-found
        # record is a legitimate outcome and must not fail here
        fx = load_fixture("klee_search_outcome.json")
        if not fx["found"]:
            pytest.skip("recorded outcome is none-found")
        space = LpSpace(fx["dim"], fx["p"])
        pts = np.array(fx["points"])
        center, _ = circumcenter(pts, space)
        certified = hull_separation_certificate(pts, center, space)
        assert certified > 1e-6
        assert certified == pytest.approx(fx["hull_distance"], abs=1e-6)
        assert set_distance(ConvexHull(pts), center, space) >= certified - 1e-9


def test_fisher_margulis_trace_csv_format():
    act = swap_cocycle_action(p=2.0)
    res = fisher_margulis_iterate(act, x0=[0.0, 0.0], c_mult=0.4, max_iter=10, tol=1e-6, seed=0)
    lines = res.trace_csv(act.space).splitlines()
    assert lines[0] == "iteration,radius,step_norm,objective"
    assert len(lines) == len(res.trace) + 1
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[2]) == 0.0
