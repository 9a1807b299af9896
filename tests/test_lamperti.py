import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lplab import (
    LampertiIsometry,
    LpSpace,
    identity_isometry,
    invariant_norm,
    mazur_conjugate,
    mazur_conjugation_residual,
    random_lamperti,
)
from lplab.geometry import convexity_modulus
from lplab.spaces import mazur_map


def _random_spaces(rng, dim, p):
    src = LpSpace(dim, p, rng.uniform(0.3, 2.5, dim))
    tgt = LpSpace(dim, p, rng.uniform(0.3, 2.5, dim))
    return src, tgt


def test_identity_and_swap():
    space = LpSpace(2, 3)
    ident = identity_isometry(space)
    v = np.array([1.0, 2.0])
    assert np.array_equal(ident.apply(v), v)
    swap = LampertiIsometry([1, 0], [1.0, 1.0], space, space)
    assert np.array_equal(swap.apply(v), [2.0, 1.0])
    assert space.norm(swap.apply(v)) == space.norm(v)


def test_weighted_apply_is_isometric():
    src = LpSpace(2, 2)
    tgt = LpSpace(2, 2, [2.0, 1.0])
    u = LampertiIsometry([0, 1], [1.0, 1.0], src, tgt)
    v = np.array([0.7, -1.9])
    assert abs(tgt.norm(u.apply(v)) - src.norm(v)) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0]), st.integers(0, 100_000))
def test_isometry_property(dim, p, seed):
    rng = np.random.default_rng(seed)
    src, tgt = _random_spaces(rng, dim, p)
    u = random_lamperti(src, rng, tgt)
    v = rng.standard_normal(dim)
    assert abs(tgt.norm(u.apply(v)) - src.norm(v)) <= 1e-10


def test_compose_and_inverse(rng):
    space = LpSpace(5, 3, rng.uniform(0.5, 2.0, 5))
    for _ in range(20):
        u = random_lamperti(space, rng)
        w = random_lamperti(space, rng)
        v = rng.standard_normal(5)
        assert np.max(np.abs(u.compose(w).apply(v) - u.apply(w.apply(v)))) <= 1e-12
        assert np.max(np.abs(u.inverse().apply(u.apply(v)) - v)) <= 1e-12
    u = random_lamperti(space, rng)
    assert u.inverse().compose(u).same_permutation(identity_isometry(space))


def test_two_swaps_compose_to_identity():
    space = LpSpace(2, 1.5)
    swap = LampertiIsometry([1, 0], [1.0, 1.0], space, space)
    assert swap.compose(swap).same_permutation(identity_isometry(space))


def test_incompatible_composition_rejected():
    a = LpSpace(2, 2)
    b = LpSpace(3, 2)
    with pytest.raises(ValueError, match="incompatible|dimensions"):
        identity_isometry(a).compose(identity_isometry(b))


class TestMazurConjugation:
    def test_identity_conjugates_to_identity(self):
        space = LpSpace(3, 4)
        conj = mazur_conjugate(identity_isometry(space))
        assert conj.same_permutation(identity_isometry(space.with_exponent(2.0)))
        assert conj.source.p == 2.0

    def test_negation_conjugates_to_negation(self):
        space = LpSpace(3, 3)
        neg = LampertiIsometry([0, 1, 2], [-1.0, -1.0, -1.0], space, space)
        conj = mazur_conjugate(neg)
        v = np.array([0.2, -0.7, 1.1])
        assert np.allclose(conj.apply(v), -v, atol=1e-14)

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_nonlinear_composition_matches_prediction(self, p, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 9))
            src = LpSpace(dim, p, rng.uniform(0.3, 2.5, dim))
            tgt = LpSpace(dim, p, rng.uniform(0.3, 2.5, dim))
            u = random_lamperti(src, rng, tgt)
            assert mazur_conjugation_residual(u, n_samples=50, seed=7) <= 1e-10

    def test_conjugate_is_linear(self, rng):
        # not automatic: the Mazur map itself is nonlinear
        p = 4.0
        src = LpSpace(4, p, rng.uniform(0.5, 2.0, 4))
        u = random_lamperti(src, rng)
        src2 = src.with_exponent(2.0)

        def nonlinear(v):
            return mazur_map(u.target, u.apply(mazur_map(src2, v, p)), 2.0)

        for _ in range(20):
            a, b = rng.standard_normal(2)
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            dev = nonlinear(a * x + b * y) - a * nonlinear(x) - b * nonlinear(y)
            assert np.max(np.abs(dev)) <= 1e-10

    def test_conjugation_respects_composition(self, rng):
        space = LpSpace(6, 3)
        u = random_lamperti(space, rng)
        w = random_lamperti(space, rng)
        lhs = mazur_conjugate(u.compose(w))
        rhs = mazur_conjugate(u).compose(mazur_conjugate(w))
        assert lhs.same_permutation(rhs)


class TestInvariantNorm:
    def test_lamperti_group_already_invariant(self, rng):
        space = LpSpace(3, 3)
        swap = LampertiIsometry([1, 0, 2], [1.0, 1.0, 1.0], space, space)
        norm = invariant_norm([np.eye(3), swap.matrix()], space)
        for _ in range(10):
            v = rng.standard_normal(3)
            assert norm(v) == pytest.approx(space.norm(v), abs=1e-12)

    def test_trivial_group(self, rng):
        space = LpSpace(4, 2.5)
        norm = invariant_norm([np.eye(4)], space)
        v = rng.standard_normal(4)
        assert norm(v) == pytest.approx(space.norm(v), abs=1e-14)

    def test_closure_failure_raises(self):
        space = LpSpace(2, 2)
        with pytest.raises(ValueError, match="closed"):
            invariant_norm([np.eye(2), np.diag([2.0, 0.5])], space)

    def test_scaled_swap_involution(self, rng):
        # A = diag-scaled swap with A^2 = I; not an isometry, so the max-norm
        # construction genuinely changes the norm while staying invariant
        space = LpSpace(2, 2)
        a = np.array([[0.0, 2.0], [0.5, 0.0]])
        norm = invariant_norm([np.eye(2), a], space)
        for _ in range(20):
            v = rng.standard_normal(2)
            assert norm(a @ v) == pytest.approx(norm(v), rel=1e-12)
            assert space.norm(v) <= norm(v) + 1e-12
        c = norm.bound(n_samples=200, seed=2)
        v = rng.standard_normal(2)
        assert norm(v) <= c * space.norm(v) * (1.0 + 1e-9)

    def test_modulus_transfer_bound(self):
        # delta'(eps) >= delta_hat(eps / C) - sampling slack
        space = LpSpace(2, 2)
        a = np.array([[0.0, 1.25], [0.8, 0.0]])
        norm = invariant_norm([np.eye(2), a], space)
        c = norm.bound(n_samples=400, seed=0)
        eps = 1.0
        base = convexity_modulus(space, eps / c, budget=250, seed=1)
        primed = convexity_modulus(space, eps, budget=250, seed=2, norm_fn=norm.norms)
        assert primed.delta >= base.delta - 2e-2
