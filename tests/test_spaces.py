import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lplab import LpSpace, duality_map, mazur_map
from lplab.spaces import norm_grad, norm_pow, norms, pow_grad

KERNEL_EXPONENTS = [1.25, 1.5, 3.0, 4.0, 6.0]


def test_norm_euclidean_345():
    space = LpSpace(2, 2)
    assert space.norm([3.0, 4.0]) == pytest.approx(5.0, abs=1e-15)


def test_norm_zero_vector():
    for p in (1.0, 1.5, 2.0, 3.7):
        assert LpSpace(3, p).norm(np.zeros(3)) == 0.0


def test_norm_weighted_p3():
    # (1*1 + 2*1)^(1/3)
    space = LpSpace(2, 3, [1.0, 2.0])
    assert space.norm([1.0, 1.0]) == pytest.approx(3.0 ** (1 / 3), abs=1e-15)


def test_norm_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        LpSpace(3, 2).norm([1.0, 2.0])


def test_space_validation():
    with pytest.raises(ValueError, match="strictly positive"):
        LpSpace(2, 2, [1.0, 0.0])
    with pytest.raises(ValueError, match="dim"):
        LpSpace(0, 2)
    with pytest.raises(ValueError, match="exponent"):
        LpSpace(2, 0.5)
    with pytest.raises(ValueError, match="exponent"):
        LpSpace(2, np.inf)


def test_duality_map_basis_vector():
    space = LpSpace(3, 3)
    out = duality_map(space, [1.0, 0.0, 0.0])
    assert np.allclose(out, [1.0, 0.0, 0.0], atol=1e-15)


def test_duality_map_hilbert_is_normalization():
    space = LpSpace(4, 2)
    v = np.array([1.0, -2.0, 0.5, 3.0])
    assert np.allclose(duality_map(space, v), v / space.norm(v), atol=1e-14)


def test_duality_map_p4_example():
    space = LpSpace(2, 4)
    out = duality_map(space, [1.0, 1.0])
    assert np.allclose(out, 2.0 ** (-3 / 4), atol=1e-12)
    assert space.pairing(np.array([1.0, 1.0]) / space.norm([1.0, 1.0]), out) == pytest.approx(1.0, abs=1e-12)


def test_duality_map_rejections():
    with pytest.raises(ValueError, match="zero vector"):
        duality_map(LpSpace(2, 3), [0.0, 0.0])
    with pytest.raises(ValueError, match="p > 1"):
        duality_map(LpSpace(2, 1), [1.0, 0.0])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6),
    st.sampled_from([1.5, 2.0, 3.0, 4.0]),
    st.integers(0, 10_000),
)
def test_duality_contract_random(dim, p, seed):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.2, 3.0, dim)
    space = LpSpace(dim, p, weights)
    v = rng.standard_normal(dim)
    if space.norm(v) < 1e-8:
        return
    vstar = duality_map(space, v)
    assert abs(space.pairing(v / space.norm(v), vstar) - 1.0) <= 1e-10
    assert abs(space.dual().norm(vstar) - 1.0) <= 1e-10


def test_mazur_fixes_indicators():
    for p, q in [(1.0, 2.0), (2.0, 4.0), (3.0, 1.5)]:
        space = LpSpace(3, p)
        e1 = np.array([1.0, 0.0, 0.0])
        assert np.allclose(mazur_map(space, e1, q), e1, atol=1e-15)


def test_mazur_identity_when_p_equals_q():
    space = LpSpace(3, 2.5)
    v = np.array([0.3, -1.2, 2.0])
    assert np.allclose(mazur_map(space, v, 2.5), v, atol=1e-15)


def test_mazur_p4_to_p2_example():
    space = LpSpace(2, 4)
    v = np.array([2.0 ** (-1 / 4), 2.0 ** (-1 / 4)])
    out = mazur_map(space, v, 2.0)
    assert np.allclose(out, 2.0 ** (-1 / 2), atol=1e-14)
    assert space.norm(v) == pytest.approx(1.0, abs=1e-14)
    assert LpSpace(2, 2).norm(out) == pytest.approx(1.0, abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6),
    st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    st.sampled_from([1.0, 2.0, 2.5, 4.0]),
    st.integers(0, 10_000),
)
def test_mazur_sphere_and_inverse(dim, p, q, seed):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.2, 3.0, dim)
    space_p = LpSpace(dim, p, weights)
    space_q = LpSpace(dim, q, weights)
    v = space_p.random_unit(rng)
    image = mazur_map(space_p, v, q)
    assert abs(space_q.norm(image) - 1.0) <= 1e-10
    back = mazur_map(space_q, image, p)
    assert np.max(np.abs(back - v)) <= 1e-10


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_mazur_to_conjugate_exponent_is_duality_map(p, rng):
    space = LpSpace(5, p, rng.uniform(0.5, 2.0, 5))
    v = space.random_unit(rng)
    q = p / (p - 1.0)
    assert np.max(np.abs(mazur_map(space, v, q) - duality_map(space, v))) <= 1e-10


@pytest.mark.parametrize("p", KERNEL_EXPONENTS)
def test_kernel_norms_equal_space_norm_exactly(p, rng):
    # roots are taken per value with the scalar power, so a stacked
    # evaluation reproduces LpSpace.norm bit for bit
    space = LpSpace(7, p, rng.uniform(0.2, 3.0, 7))
    rows = rng.standard_normal((200, 7)) * rng.uniform(0.01, 100.0, (200, 1))
    stacked = norms(space.weights, p, rows)
    assert all(stacked[i] == space.norm(row) for i, row in enumerate(rows))
    assert all(norm_pow(space.weights, p, rows)[i] == space.norm_pow(row) for i, row in enumerate(rows))


def _central_difference(f, x, h=1e-6):
    out = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        out[i] = (f(x + step) - f(x - step)) / (2.0 * h)
    return out


@pytest.mark.parametrize("p", KERNEL_EXPONENTS)
def test_kernel_gradients_match_finite_differences(p, rng):
    w = rng.uniform(0.2, 3.0, 5)
    for _ in range(10):
        r = rng.standard_normal(5)
        fd_pow = _central_difference(lambda x: norm_pow(w, p, x), r)
        assert np.max(np.abs(p * pow_grad(w, p, r) - fd_pow)) <= 1e-6 * max(1.0, np.max(np.abs(fd_pow)))
        fd_norm = _central_difference(lambda x: float(norms(w, p, x[None, :])[0]), r)
        assert np.max(np.abs(norm_grad(w, p, r) - fd_norm)) <= 1e-6


@pytest.mark.parametrize("p", KERNEL_EXPONENTS)
def test_kernel_norm_grad_stack_matches_rows(p, rng):
    w = rng.uniform(0.2, 3.0, 4)
    rows = rng.standard_normal((6, 4))
    rows[2] = 0.0
    stacked = norm_grad(w, p, rows)
    for row, grad in zip(rows, stacked):
        assert np.array_equal(grad, norm_grad(w, p, row))
    assert np.array_equal(stacked[2], np.zeros(4))


@pytest.mark.parametrize("p", KERNEL_EXPONENTS)
def test_kernel_norm_grad_is_zero_at_origin(p):
    w = np.array([0.5, 1.0, 2.0])
    assert np.array_equal(norm_grad(w, p, np.zeros(3)), np.zeros(3))


@pytest.mark.parametrize("p", KERNEL_EXPONENTS)
def test_duality_map_norms_its_vector(p, rng):
    space = LpSpace(6, p, rng.uniform(0.2, 3.0, 6))
    for _ in range(20):
        v = rng.standard_normal(6) * rng.uniform(0.01, 100.0)
        assert abs(space.pairing(v / space.norm(v), duality_map(space, v)) - 1.0) <= 1e-12
