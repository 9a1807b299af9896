"""The one isometry rule: a matrix is an isometry exactly when Lamperti's theorem says so.

For p != 2 the isometries of weighted l_p^n are the signed weighted
permutations, parsed into the LampertiIsometry they are; at p = 2 any other
matrix with A^T W A = W (to rounding) is kept as a matrix.
"""

import json

import numpy as np
import pytest

from lplab import LampertiIsometry, LpSpace
from lplab.cli import bundled_scenario_path, main
from lplab.groups import cyclic_group
from lplab.lamperti import as_isometry, random_lamperti
from lplab.representation import Representation

EXPONENTS = (1.0, 1.5, 3.0, 4.0)


def _random_case(p, seed, dim=5):
    rng = np.random.default_rng(seed)
    space = LpSpace(dim, p, rng.uniform(0.2, 5.0, dim))
    return space, random_lamperti(space, rng).matrix(), rng


@pytest.mark.parametrize("p", EXPONENTS)
@pytest.mark.parametrize("seed", range(10))
def test_signed_weighted_permutation_parses_into_its_isometry(p, seed):
    space, mat, _ = _random_case(p, seed)
    iso = as_isometry(mat, space)
    assert isinstance(iso, LampertiIsometry)
    assert np.max(np.abs(iso.matrix() - mat)) <= 1e-10
    assert iso.source is space and iso.target is space


@pytest.mark.parametrize("p", EXPONENTS)
@pytest.mark.parametrize("seed", range(5))
def test_near_isometries_are_refused(p, seed):
    space, mat, rng = _random_case(p, seed)
    rows, cols = np.nonzero(mat)
    i = int(rng.integers(space.dim))
    off = mat.copy()
    off[rows[i], cols[i]] *= 1.0 + 1e-6  # one entry off by 1e-6 relative
    extra = mat.copy()
    extra[rows[i], cols[(i + 1) % space.dim]] = 1e-3  # a second nonzero in row i
    zero_row = mat.copy()
    zero_row[rows[i]] = 0.0
    repeated = mat.copy()
    repeated[rows[i]] = 0.0
    repeated[rows[i], cols[(i + 1) % space.dim]] = mat[rows[i], cols[i]]  # column used twice
    for bad in (off, extra, zero_row, repeated):
        assert as_isometry(bad, space) is None


def _weighted_rotation(weights, angle=0.7):
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    root = np.sqrt(np.asarray(weights))
    return rot * root[None, :] / root[:, None]  # W^-1/2 R W^1/2


def test_p2_keeps_a_weighted_rotation_as_a_matrix():
    space = LpSpace(2, 2.0, [1.0, 3.0])
    mat = _weighted_rotation(space.weights)
    kept = as_isometry(mat, space)
    assert kept is mat
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = space.random_unit(rng)
        assert abs(space.norm(mat @ v) - 1.0) <= 1e-12


def test_p2_refuses_a_scaling():
    assert as_isometry(np.diag([2.0, 0.5]), LpSpace(2, 2.0)) is None


def test_p3_refuses_the_rotation():
    space = LpSpace(2, 3.0, [1.0, 3.0])
    assert as_isometry(_weighted_rotation(space.weights), space) is None


def test_p2_parses_a_monomial_isometry_into_lamperti():
    space, mat, _ = _random_case(2.0, 3)
    assert isinstance(as_isometry(mat, space), LampertiIsometry)


def test_stray_entry_the_probe_let_through_is_refused_away_from_p2():
    # |‖Av‖ - 1| stays near 1e-13 on every unit vector, but A has two nonzeros in a row
    mat = np.array([[0.0, 1.0], [1.0, 1e-13]])
    assert as_isometry(mat, LpSpace(2, 3.0)) is None
    assert as_isometry(mat, LpSpace(2, 2.0)) is mat


class TestRepresentation:
    def test_monomial_matrix_image_is_read_as_lamperti(self):
        space = LpSpace(3, 3.0, [1.0, 2.0, 0.5])
        iso = LampertiIsometry([1, 2, 0], [1.0, -1.0, -1.0], space, space)
        rep = Representation(cyclic_group(3), space, {"a": iso.matrix()})
        image = rep.images["a"]
        assert isinstance(image, LampertiIsometry) and image.same_permutation(iso)
        assert np.array_equal(rep.operator("a"), iso.matrix())
        assert np.array_equal(rep.operator("A"), iso.inverse().matrix())

    def test_unchecked_images_are_kept_as_given(self):
        space = LpSpace(2, 3.0)
        mat = np.array([[0.0, 1.0], [1.0, 0.0]])
        rep = Representation(cyclic_group(2, "s"), space, {"s": mat}, require_isometric=False)
        assert rep.images["s"] is mat

    def test_refusal_text_is_unchanged(self):
        with pytest.raises(ValueError, match="image of generator 's' is not isometric"):
            Representation(cyclic_group(2, "s"), LpSpace(2, 3.0), {"s": np.array([[0.0, 1.0], [1.0, 1e-13]])})


def test_mazur_accepts_matrix_images_of_lamperti_isometries(tmp_path, capsys):
    raw = json.loads(bundled_scenario_path("mazur-z4").read_text())
    assert main(["run", "mazur-z4"]) == 0
    expected = capsys.readouterr().out
    space = LpSpace(raw["space"]["dim"], raw["space"]["p"], raw["space"]["weights"])
    spec = raw["representation"]["images"]["a"]
    iso = LampertiIsometry(spec["perm"], spec["signs"], space, space)
    raw["representation"]["images"]["a"] = {"kind": "matrix", "entries": iso.matrix().tolist()}
    path = tmp_path / "mazur-z4.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path)]) == 0
    assert capsys.readouterr().out == expected
