"""The Newton nearest points of affine subspaces against the SciPy solvers they replaced.

``lbfgs_affine_projection`` keeps the L-BFGS-B minimization of
||x - base - W c||**p that ``convex.nearest_point`` ran for an
``AffineSubspace``, and ``lbfgs_quotient_norm`` the L-BFGS-B minimization
of ||v + W c||**2 that ``geometry.quotient_norm`` ran for p > 1.  Both are
test references only.  On seeded random problems (p in {1.25, 1.5, 3, 6},
dim 2 to 8, k < dim basis vectors, every seventh point in the subspace)
the Newton distance or quotient value is at most the reference's plus
1e-12 max(1, reference), and its optimality residual is at most
max(1e-6, the reference's).
"""

import numpy as np
import pytest
from scipy import optimize

from lplab import AffineSubspace, LpSpace, nearest_point, optimality_residual, quotient_norm, set_distance
from lplab.spaces import norm_pow, pow_grad, weighted_lstsq

# -- references ----------------------------------------------------------------


def lbfgs_affine_projection(cset, x, space, tol=1e-10):
    """The SciPy affine projection: L-BFGS-B on ||x - base - W c||**p from the weighted l2 projection."""
    w, p, basis = space.weights, space.p, cset.basis
    resid0 = x - cset.base
    c2 = weighted_lstsq(w, basis, resid0)
    if p == 2.0:
        return cset.base + basis @ c2

    def f_grad(c):
        r = resid0 - basis @ c
        return norm_pow(w, p, r), -p * (basis.T @ pow_grad(w, p, r))

    res = optimize.minimize(f_grad, c2, jac=True, method="L-BFGS-B",
                            options={"ftol": 1e-18, "gtol": tol * 1e-2, "maxiter": 2000})
    return cset.base + basis @ res.x


def lbfgs_quotient_norm(space, basis, v, tol=1e-10):
    """The SciPy quotient norm for p > 1: L-BFGS-B on ||v + W c||**2; (value, point)."""
    w, p, k = space.weights, space.p, basis.shape[1]

    def f_and_grad(c):
        r = v + basis @ c
        pow_sum = norm_pow(w, p, r)
        if pow_sum < 1e-300:
            return 0.0, np.zeros(k)
        nrm = pow_sum ** (1.0 / p)
        return nrm * nrm, 2.0 * (basis.T @ pow_grad(w, p, r)) / nrm ** (p - 2.0)

    res = optimize.minimize(f_and_grad, weighted_lstsq(w, basis, -v), jac=True, method="L-BFGS-B",
                            options={"ftol": 1e-18, "gtol": tol * 1e-2, "maxiter": 2000})
    point = v + basis @ res.x
    return space.norm(point), point


def random_problems(n, seed):
    """(space, basis, base, x): k < dim independent columns, x in base + span(basis) for every seventh."""
    rng = np.random.default_rng(seed)
    problems = []
    for i in range(n):
        dim = int(rng.integers(2, 9))
        k = int(rng.integers(1, dim))
        space = LpSpace(dim, float(rng.choice([1.25, 1.5, 3.0, 6.0])), rng.uniform(0.5, 2.0, dim))
        basis = rng.standard_normal((dim, k))
        base = rng.standard_normal(dim)
        x = base + basis @ rng.standard_normal(k) if i % 7 == 0 else rng.standard_normal(dim) * rng.uniform(0.1, 3.0)
        problems.append((space, basis, base, x))
    return problems


@pytest.mark.parametrize("seed", range(4))
def test_affine_projection_is_no_worse_than_lbfgs(seed):
    for space, basis, base, x in random_problems(50, seed):
        cset = AffineSubspace(base, basis)
        ref = lbfgs_affine_projection(cset, x, space)
        ref_dist = space.norm(x - ref)
        y = nearest_point(cset, x, space)
        assert set_distance(cset, x, space) == space.norm(x - y)
        assert space.norm(x - y) <= ref_dist + 1e-12 * max(1.0, ref_dist)
        assert optimality_residual(cset, x, y, space) <= max(1e-6, optimality_residual(cset, x, ref, space))


@pytest.mark.parametrize("seed", range(4))
def test_quotient_norm_is_no_worse_than_lbfgs(seed):
    for space, basis, base, x in random_problems(50, 100 + seed):
        v = x - base  # in the span for every seventh
        ref_value, ref_point = lbfgs_quotient_norm(space, basis, v)
        res = quotient_norm(space, basis, v)
        assert res.value == space.norm(res.point)
        assert np.array_equal(res.point, v + basis @ res.minimizer)
        assert res.value <= ref_value + 1e-12 * max(1.0, ref_value)
        flat, zero = AffineSubspace(v, basis), np.zeros(space.dim)
        assert optimality_residual(flat, zero, res.point, space) <= max(
            1e-6, optimality_residual(flat, zero, ref_point, space))
