import numpy as np
import pytest

from lplab import (
    LpSpace,
    ModulusTable,
    convexity_modulus,
    inverse_modulus,
    modulus_table,
    quotient_norm,
    schoenberg_gram,
    schoenberg_violation_search,
)
from conftest import hilbert_projection, load_fixture


class TestConvexityModulus:
    def test_antipodal_at_eps_two(self):
        est = convexity_modulus(LpSpace(2, 2), 2.0, budget=200, seed=0)
        assert est.delta == pytest.approx(1.0, abs=1e-6)

    def test_hilbert_eps_one(self):
        # parallelogram law: delta(1) = 1 - sqrt(3)/2
        est = convexity_modulus(LpSpace(2, 2), 1.0, budget=300, seed=0)
        assert est.delta == pytest.approx(1.0 - np.sqrt(3.0) / 2.0, abs=1e-3)

    def test_witness_is_feasible_and_certifies(self):
        space = LpSpace(3, 3, [1.0, 0.5, 2.0])
        est = convexity_modulus(space, 0.8, budget=200, seed=3)
        assert space.norm(est.witness_x) <= 1.0 + 1e-12
        assert space.norm(est.witness_y) <= 1.0 + 1e-12
        assert space.norm(est.witness_x - est.witness_y) >= 0.8 - 1e-12
        assert est.delta == pytest.approx(1.0 - space.norm(est.witness_x + est.witness_y) / 2.0, abs=1e-14)

    def test_rejects_bad_eps_and_p1(self):
        with pytest.raises(ValueError, match="eps"):
            convexity_modulus(LpSpace(2, 2), 0.0)
        with pytest.raises(ValueError, match="eps"):
            convexity_modulus(LpSpace(2, 2), 2.5)
        with pytest.raises(ValueError, match="p > 1"):
            convexity_modulus(LpSpace(2, 1), 1.0)

    def test_envelope_monotone(self):
        table = modulus_table(LpSpace(2, 3), [0.25, 0.5, 1.0, 1.5, 2.0], budget=120, seed=0)
        assert np.all(np.diff(table.delta) >= 0.0)


class TestInverseModulus:
    def table(self):
        return ModulusTable(np.array([0.25, 0.5, 1.0, 1.5, 2.0]), np.array([0.01, 0.03, 0.13, 0.34, 1.0]))

    def test_large_t_gives_domain_sup(self):
        assert self.table().inverse(1.0) == 2.0
        assert self.table().inverse(5.0) == 2.0

    def test_small_t_gives_smallest_eps(self):
        assert self.table().inverse(0.001) == 0.25

    def test_interior(self):
        assert self.table().inverse(0.2) == 1.0
        assert inverse_modulus(self.table(), 0.05) == 0.5

    def test_inverse_of_value_bounds_eps(self):
        table = self.table()
        for eps, delta in zip(table.eps, table.delta):
            assert table.inverse(delta) >= eps

    def test_empty_table(self):
        with pytest.raises(ValueError, match="empty"):
            ModulusTable(np.array([]), np.array([]))


class TestQuotientNorm:
    def test_zero_subspace(self):
        space = LpSpace(3, 2.5)
        v = np.array([1.0, 2.0, -1.0])
        res = quotient_norm(space, np.zeros((3, 0)), v)
        assert res.value == pytest.approx(space.norm(v), abs=1e-14)

    def test_vector_in_subspace(self):
        space = LpSpace(3, 3)
        basis = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        res = quotient_norm(space, basis, [2.0, -1.0, 0.0])
        assert res.value == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hilbert_case_matches_projection_oracle(self, seed):
        rng = np.random.default_rng(seed)
        space = LpSpace(4, 2, rng.uniform(0.5, 2.0, 4))
        basis = rng.standard_normal((4, 2))
        v = rng.standard_normal(4)
        res = quotient_norm(space, basis, v)
        proj = hilbert_projection(space, basis, v)
        assert res.value == pytest.approx(space.norm(v - proj), abs=1e-9)

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_never_exceeds_norm(self, p, rng):
        space = LpSpace(4, p)
        basis = rng.standard_normal((4, 2))
        for _ in range(5):
            v = rng.standard_normal(4)
            res = quotient_norm(space, basis, v)
            assert res.value <= space.norm(v) + 1e-10

    def test_dependent_basis_rejected(self):
        space = LpSpace(3, 2)
        basis = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match="dependent"):
            quotient_norm(space, basis, [1.0, 0.0, 0.0])

    def test_basis_given_as_rows_is_refused(self):
        # the columns of W are the spanning vectors; one row of length 3 is not a basis of l^3
        with pytest.raises(ValueError, match="differ in length"):
            quotient_norm(LpSpace(3, 1.5), [[1.0, 0.0, 0.0]], [1.0, 0.0, 0.0])


class TestSchoenberg:
    def test_single_point(self):
        gram, lam = schoenberg_gram([[0.0, 0.0]], 1.0, LpSpace(2, 1.5))
        assert gram.shape == (1, 1) and gram[0, 0] == 1.0 and lam == pytest.approx(1.0)

    def test_two_points(self):
        space = LpSpace(2, 3)
        pts = [[0.0, 0.0], [1.0, 1.0]]
        gram, lam = schoenberg_gram(pts, 2.0, space)
        d_pow = space.norm_pow(np.array([1.0, 1.0]))
        assert gram[0, 1] == pytest.approx(np.exp(-2.0 * d_pow), abs=1e-15)
        assert lam == pytest.approx(1.0 - np.exp(-2.0 * d_pow), abs=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("s", [0.1, 1.0, 10.0])
    def test_positive_definite_up_to_two(self, p, s, rng):
        for _ in range(30):
            dim = int(rng.integers(1, 7))
            m = int(rng.integers(2, 9))
            space = LpSpace(dim, p, rng.uniform(0.3, 2.0, dim))
            pts = rng.standard_normal((m, dim))
            _, lam = schoenberg_gram(pts, s, space)
            assert lam >= -1e-9

    def test_violation_fixture_keeps_violating(self):
        fx = load_fixture("schoenberg_p3_violation.json")
        space = LpSpace(fx["dim"], fx["p"])
        _, lam = schoenberg_gram(fx["points"], fx["s"], space)
        assert lam < -1e-6
        assert lam == pytest.approx(fx["lambda_min"], abs=1e-9)

    def test_search_finds_nothing_at_p2(self):
        assert schoenberg_violation_search(2.0, trials=150, seed=5) is None

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="positive"):
            schoenberg_gram([[0.0]], -1.0, LpSpace(1, 2))
        with pytest.raises(ValueError, match="one point"):
            schoenberg_gram([], 1.0, LpSpace(1, 2))
