import json
import sys
from pathlib import Path

import numpy as np
import pytest

from lplab import LpSpace
from lplab.representation import Representation

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture(name):
    with open(FIXTURES / name) as fh:
        return json.load(fh)


def count_calls(functions, run):
    """Calls of each function while ``run()`` runs, by code object (whatever name a module imports it under)."""
    codes = {fn.__code__: fn.__qualname__ for fn in functions}
    counts = dict.fromkeys(codes.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


def element_tables_built(run) -> list:
    """The ``monomial`` flag of each representation whose element table is built while ``run()`` runs.

    A False is a dense (order, n, n) stack.  Profiled as :func:`count_calls` does, by code object.
    """
    code, flags = Representation.element_table.func.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            flags.append(frame.f_locals["self"].monomial)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return flags


def table_matrices(rep) -> np.ndarray:
    """The (order, n, n) element matrices of ``rep``'s element table: the stack, or each pair (perms, vals) densified."""
    if not rep.monomial:
        return rep.element_table
    perms, vals = rep.element_table
    mats = np.zeros((*perms.shape, perms.shape[1]))
    np.put_along_axis(mats, perms[:, :, None], vals[:, :, None], axis=2)
    return mats


def hilbert_projection(space: LpSpace, basis: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Weighted-l2 orthogonal projection of v onto span(basis), by normal equations."""
    w = space.weights
    gram = basis.T @ (w[:, None] * basis)
    rhs = basis.T @ (w * v)
    return basis @ np.linalg.solve(gram, rhs)


def grid_circumcenter(points: np.ndarray, space: LpSpace, rounds: int = 14, n: int = 27):
    """Brute-force grid-refinement Chebyshev center (dim <= 3).

    Each round keeps the bounding box of every grid point within half a
    cell diameter of the incumbent value (the objective is 1-Lipschitz, so
    a grid neighbor of the true minimizer always survives), padded by half
    a cell per axis.  The objective is built one axis at a time: the n x m
    table of w_i |axis_i[k] - p_ji|**p of each axis, added in axis order by
    broadcasting, which sums every grid value as the whole (grid, point,
    axis) stack summed it.
    """
    pts = np.asarray(points, dtype=float)
    dim, m = pts.shape[1], pts.shape[0]
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    w, p = space.weights, space.p
    shape = (n,) * dim
    best = None
    for _ in range(rounds):
        axes = [np.linspace(lo[i], hi[i], n) for i in range(dim)]
        total = None
        for i, axis in enumerate(axes):
            table = (np.abs(axis[:, None] - pts[None, :, i]) ** p) * w[i]  # (n, m), broadcast along axis i
            table = table.reshape((1,) * i + (n,) + (1,) * (dim - 1 - i) + (m,))
            total = table if total is None else total + table
        vals = (total ** (1.0 / p)).reshape(-1, m).max(axis=1)
        k = int(np.argmin(vals))
        best = np.array([axis[idx] for axis, idx in zip(axes, np.unravel_index(k, shape))])
        cell = (hi - lo) / (n - 1)
        keep = np.unravel_index(np.flatnonzero(vals <= vals[k] + 0.5 * space.norm(cell)), shape)
        lo = np.array([axis[idx].min() for axis, idx in zip(axes, keep)]) - 0.5 * cell
        hi = np.array([axis[idx].max() for axis, idx in zip(axes, keep)]) + 0.5 * cell
    return best, float(vals[k])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
