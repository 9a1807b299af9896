"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance here is pinned; the oracles (closed forms, grid refinement,
normal equations, separation certificates) are independent of the code
paths they check.
"""

import time
from contextlib import contextmanager

import numpy as np

from lplab import (
    AffineSubspace,
    ConvexHull,
    LampertiIsometry,
    LpSpace,
    canonical_complement,
    circumcenter,
    coboundary_solve,
    dual_rep,
    fisher_margulis_iterate,
    fixed_subspace,
    kazhdan_gap,
    lipschitz_probe,
    mazur_conjugate,
    mazur_conjugation_residual,
    nearest_point,
    optimality_residual,
    quotient_norm,
    random_lamperti,
    schoenberg_gram,
)
from lplab.cli import bundled_scenario_path
from lplab.scenario import load_scenario
from lplab.spaces import mazur_map
from lplab.tasks import execute
from conftest import grid_circumcenter, hilbert_projection, load_fixture


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label}")


def bundled(name):
    return load_scenario(bundled_scenario_path(name))


# representation-bearing corpus entries used by criteria 2-4
REP_CORPUS = [
    "swap-gap",
    "cyclic3-gap",
    "cyclic5-gap",
    "dihedral4-gap",
    "grid-z2xz2-gap",
    "mazur-z4",
    "commuting-pair-displacement",
]
PERM_CORPUS = ["swap-gap", "cyclic3-gap", "cyclic5-gap", "dihedral4-gap", "grid-z2xz2-gap"]


def corpus_rep(name, p):
    return bundled(name).with_exponent(p).representation


def test_criterion_01_mazur_conjugation():
    with criterion(1, "Mazur conjugation: nonlinear conjugate is the predicted l2 isometry, linear, < 10 s"):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        exponents = [1.5, 3.0, 4.0]
        for i in range(100):
            p = exponents[i % 3]
            dim = int(rng.integers(1, 9))
            src = LpSpace(dim, p, rng.uniform(0.3, 2.5, dim))
            tgt = LpSpace(dim, p, rng.uniform(0.3, 2.5, dim))
            iso = random_lamperti(src, rng, tgt)
            assert mazur_conjugation_residual(iso, n_samples=50, seed=i) <= 1e-10
            conj = mazur_conjugate(iso)
            src2 = conj.source

            def nonlinear(v):
                return mazur_map(iso.target, iso.apply(mazur_map(src2, v, p)), 2.0)

            a, b = rng.standard_normal(2)
            x, y = rng.standard_normal(dim), rng.standard_normal(dim)
            dev = nonlinear(a * x + b * y) - a * nonlinear(x) - b * nonlinear(y)
            assert np.max(np.abs(dev)) <= 1e-10
        assert time.perf_counter() - start < 10.0


def test_criterion_02_canonical_complement():
    with criterion(2, "canonical complement: dims sum, projections commute to 1e-10, Hilbert oracle angle <= 1e-8"):
        for name in REP_CORPUS:
            for p in (1.5, 2.0, 3.0):
                rep = corpus_rep(name, p)
                cc = canonical_complement(rep)
                assert cc.fixed_dim + cc.complement_dim == rep.space.dim
                assert np.max(np.abs(cc.proj_fixed @ cc.proj_fixed - cc.proj_fixed)) <= 1e-10
                for gen in rep.generator_names:
                    mat = rep.operator(gen)
                    assert np.max(np.abs(mat @ cc.proj_fixed - cc.proj_fixed @ mat)) <= 1e-10
            rep2 = corpus_rep(name, 2.0)
            cc2 = canonical_complement(rep2)
            # subspace angle against the weighted-orthogonal complement oracle
            for vec in cc2.complement_basis.T:
                onto_fixed = hilbert_projection(rep2.space, cc2.fixed_basis, vec)
                sin_angle = rep2.space.norm(onto_fixed) / rep2.space.norm(vec)
                assert sin_angle <= 1e-8


def test_criterion_03_quotient_norm_isometry():
    with criterion(3, "quotient norm of unit fixed vectors is 1 +- 1e-6 across p in {1.5, 2, 3}"):
        for name in REP_CORPUS:
            for p in (1.5, 2.0, 3.0):
                rep = corpus_rep(name, p)
                cc = canonical_complement(rep)
                if cc.fixed_dim == 0 or cc.complement_dim == 0:
                    continue
                for vec in cc.fixed_basis.T:
                    unit = vec / rep.space.norm(vec)
                    res = quotient_norm(rep.space, cc.complement_basis, unit)
                    assert abs(res.value - 1.0) <= 1e-6


def test_criterion_04_gap_transfer():
    with criterion(4, "gap > 0.01 simultaneously for p in {1.5, 2, 3, 4}; p = 2 matches eigenvalue oracle to 1e-4"):
        for name in PERM_CORPUS:
            upper_by_p = {}
            for p in (1.5, 2.0, 3.0, 4.0):
                rep = corpus_rep(name, p)
                est = kazhdan_gap(rep, seed=0)
                upper_by_p[p] = est.upper
            if upper_by_p[2.0] > 0.01:
                assert all(v > 0.01 for v in upper_by_p.values())
        # eigenvalue oracle: cyclic shift gap is 2 sin(pi / n) at p = 2
        oracle = {"swap-gap": 2.0, "cyclic3-gap": np.sqrt(3.0), "cyclic5-gap": 2.0 * np.sin(np.pi / 5.0)}
        for name, expected in oracle.items():
            est = kazhdan_gap(corpus_rep(name, 2.0), seed=0)
            assert abs(est.upper - expected) <= 1e-4


def test_criterion_05_schoenberg():
    with criterion(5, "Schoenberg kernels PSD for p <= 2 on 200 configs each; recorded p = 3 violation persists"):
        rng = np.random.default_rng(17)
        for p in (1.0, 1.5, 2.0):
            for _ in range(200):
                dim = int(rng.integers(1, 7))
                m = int(rng.integers(2, 9))
                space = LpSpace(dim, p, rng.uniform(0.3, 2.0, dim))
                pts = rng.standard_normal((m, dim))
                s = float(rng.choice([0.1, 1.0, 10.0]))
                _, lam = schoenberg_gram(pts, s, space)
                assert lam >= -1e-9
        fx = load_fixture("schoenberg_p3_violation.json")
        _, lam = schoenberg_gram(fx["points"], fx["s"], LpSpace(fx["dim"], fx["p"]))
        assert lam < -1e-6


def test_criterion_06_fisher_margulis():
    with criterion(6, "Fisher-Margulis: accepted steps halve, terminal displacement <= 1e-6, hits the fixed set to 1e-5"):
        scenario = bundled("swap-cocycle-fm")
        action = scenario.cocycle
        res = fisher_margulis_iterate(action, k_words=["s"], x0=[0.0, 0.0], c_mult=0.4, max_iter=40, tol=1e-6, seed=0)
        assert res.status == "fixed"
        radii = res.radii
        for a, b in zip(radii, radii[1:]):
            assert b < a / 2.0
        assert res.displacement <= 1e-6
        sol = coboundary_solve(scenario.cocycle)
        fixed = fixed_subspace(scenario.representation)
        fixed_set = AffineSubspace(sol.vector, fixed) if fixed.size else AffineSubspace(sol.vector, np.zeros((2, 0)))
        nearest = nearest_point(fixed_set, res.terminal, action.space)
        assert action.space.norm(res.terminal - nearest) <= 1e-5
        translation = bundled("translation-fm")
        res_t = fisher_margulis_iterate(translation.cocycle, k_words=["t"], x0=[0.0], c_mult=1.0, seed=0)
        assert res_t.status == "non-contracting" and len(res_t.trace) == 1


def test_criterion_07_circumcenter():
    with criterion(7, "circumcenter: symmetric pairs to 1e-9, grid oracle to 1e-3 (20 x dim-3 per p), equivariance to 1e-6"):
        for p in (1.5, 3.0, 4.0):
            space = LpSpace(2, p)
            c, r = circumcenter([[1.0, 0.0], [-1.0, 0.0]], space)
            assert np.max(np.abs(c)) <= 1e-9 and abs(r - 1.0) <= 1e-9
        rng = np.random.default_rng(3)
        for p in (1.5, 3.0):
            space = LpSpace(3, p)
            # p = 1.5 has flat valleys; the oracle needs a finer grid there
            grid_kw = {"rounds": 16, "n": 45} if p == 1.5 else {}
            for _ in range(20):
                pts = rng.standard_normal((5, 3))
                _, radius = circumcenter(pts, space)
                _, oracle = grid_circumcenter(pts, space, **grid_kw)
                assert abs(radius - oracle) <= 1e-3
        space = LpSpace(3, 3.0)
        for _ in range(5):
            pts = rng.standard_normal((5, 3))
            iso = random_lamperti(space, rng)
            c1, _ = circumcenter(pts, space)
            c2, _ = circumcenter(np.array([iso.apply(q) for q in pts]), space)
            assert np.max(np.abs(c2 - iso.apply(c1))) <= 1e-6


def test_criterion_08_displacement_bound():
    with criterion(8, "displacement bound: exchange identity to 1e-10 and ||c(a)|| <= 2R/eps + 1e-6 on A-words"):
        report = execute(bundled("commuting-pair-displacement"), tol=1e-6)
        assert report.status == "pass"
        assert report.payload["identity_residual"] <= 1e-10
        assert report.payload["worst_a_norm"] <= report.payload["bound"] + 1e-6


def test_criterion_09_induction():
    with criterion(9, "induction: G-relators to 1e-10, block norm identity, two-way fixed-point transfer, H1 agreement"):
        report = execute(bundled("induce-sign-z4"))
        assert report.status == "pass"
        assert report.payload["relation_residual"] <= 1e-10
        assert report.payload["norm_identity_deviation"] <= 1e-12 * 10
        assert report.payload["transfer_status"] == "pass"
        assert report.payload["classification_agrees"]
        # classification also agrees on the deliberately non-solvable pair
        from lplab import (Cocycle, CosetStructure, Representation, cyclic_group, fixed_point_transfer,
                           induce_cocycle, induce_rep)

        group = cyclic_group(4)
        cs = CosetStructure(group, [0, 2], {"s": 2})
        rep = Representation(cs.subgroup, LpSpace(1, 2), {"s": np.eye(1)})
        pseudo = Cocycle(rep, {"s": [1.0]}, validate=False)
        _, rep_g = induce_rep(cs, rep)
        transfer = fixed_point_transfer(cs, pseudo, induce_cocycle(cs, pseudo, rep_g, validate=False))
        assert transfer.classification_agrees and transfer.status == "pass"


def test_criterion_10_splitting_superrigidity():
    with criterion(10, "splitting reconstructs b = b1 + b2 + dv to 1e-8; overlap dim 1; low gap refused"):
        split = execute(bundled("grid-z2xz2-split"))
        assert split.status == "pass"
        assert split.payload["reconstruction_residual"] <= 1e-8
        assert split.payload["support_residual"] <= 1e-8
        overlap = execute(bundled("superrigid-overlap-d3"))
        assert overlap.status == "pass"
        assert overlap.payload["overlap_dim"] == 1
        diag = execute(bundled("superrigid-diagonal-s3"))
        assert diag.status == "pass"
        assert diag.payload["reconstruction_residual"] <= 1e-8
        from lplab.cli import main

        assert main(["run", "grid-split-refused"]) == 2


def test_criterion_11_projection_geometry():
    with criterion(11, "projections: 1-Lipschitz over 200 pairs, optimality residual <= 1e-6, Hilbert oracle to 1e-10"):
        rng = np.random.default_rng(5)
        space = LpSpace(3, 3.0)
        hull = ConvexHull(rng.standard_normal((5, 3)))
        pairs = [(rng.standard_normal(3) * 2.0, rng.standard_normal(3) * 2.0) for _ in range(200)]
        assert lipschitz_probe(hull, space, pairs) <= 1.0 + 1e-6
        for p in (1.5, 3.0):
            space_p = LpSpace(3, p)
            cset = AffineSubspace(rng.standard_normal(3), rng.standard_normal((3, 2)))
            for _ in range(10):
                x = rng.standard_normal(3)
                y = nearest_point(cset, x, space_p)
                assert optimality_residual(cset, x, y, space_p) <= 1e-6
        space2 = LpSpace(4, 2, rng.uniform(0.5, 2.0, 4))
        basis = rng.standard_normal((4, 2))
        base = rng.standard_normal(4)
        for _ in range(10):
            x = rng.standard_normal(4)
            got = nearest_point(AffineSubspace(base, basis), x, space2)
            oracle = base + hilbert_projection(space2, basis, x - base)
            assert np.max(np.abs(got - oracle)) <= 1e-10


def test_criterion_12_determinism():
    with criterion(12, "determinism: identical (scenario, seed) produces byte-identical reports"):
        for name in ["cyclic3-gap", "grid-z2xz2-split", "swap-cocycle-fm", "schoenberg-p3-search", "modulus-p2"]:
            first = execute(bundled(name), seed=3).to_json()
            second = execute(bundled(name), seed=3).to_json()
            assert first == second
