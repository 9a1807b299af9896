"""Checks of lplab reports made apart from lplab, in plain numpy.

Every quantity is rebuilt from the scenario's raw JSON: the weighted p-norm,
the generator matrices, word operators, cocycle values along words, fixed
spaces and the canonical complement.  Nothing here imports lplab, and
nothing compares against a stored copy of earlier output.
"""

from __future__ import annotations

import math
import re

import numpy as np

RTOL = 1e-9       # recomputed value against the reported one
NULL_TOL = 1e-9   # relative singular-value cut for null spaces


def _null_space(a: np.ndarray) -> np.ndarray:
    if a.shape[0] == 0:
        return np.eye(a.shape[1])
    _, s, vt = np.linalg.svd(a)
    cut = NULL_TOL * max(1.0, s[0] if s.size else 0.0)
    rank = int(np.sum(s > cut))
    return vt[rank:].T


def _close(a: float, b: float, rtol: float = RTOL, atol: float = 1e-12) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def _group_order(spec: dict) -> int:
    kind = spec["kind"]
    if kind == "table":
        return len(spec["table"])
    if kind == "product":
        return _group_order(spec["factor1"]) * _group_order(spec["factor2"])
    if kind == "permutations":
        gens = [tuple(g) for g in spec["generators"].values()]
        seen = {tuple(range(len(gens[0])))}
        frontier = list(seen)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = tuple(x[i] for i in g)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return len(seen)
    raise ValueError(f"group kind {kind!r} has no finite order here")


class Model:
    """The space, generator matrices and cocycle of a raw scenario."""

    def __init__(self, raw: dict):
        self.raw = raw
        space = raw["space"]
        self.dim = int(space["dim"])
        self.p = float(space["p"])
        self.w = np.asarray(space.get("weights") or [1.0] * self.dim, dtype=float)
        images = raw.get("representation", {}).get("images", {})
        self.gen = {name: self._image(spec) for name, spec in images.items()}
        self.inv = {name: np.linalg.inv(mat) for name, mat in self.gen.items()}
        values = raw.get("cocycle", {}).get("values", {})
        self.coc = {name: np.asarray(v, dtype=float) for name, v in values.items()}

    def _image(self, spec: dict) -> np.ndarray:
        n = self.dim
        if spec["kind"] == "matrix":
            return np.asarray(spec["entries"], dtype=float)
        if spec["kind"] == "lamperti":
            src = np.asarray(spec["perm"], dtype=int)
        else:  # permutation_action: coordinates pull back along g^-1
            src = np.argsort(np.asarray(spec["map"], dtype=int))
        signs = np.asarray(spec.get("signs") or [1.0] * n, dtype=float)
        mat = np.zeros((n, n))
        mat[np.arange(n), src] = signs * (self.w[src] / self.w) ** (1.0 / self.p)
        return mat

    def norm(self, v) -> float:
        return float(np.sum(self.w * np.abs(v) ** self.p) ** (1.0 / self.p))

    def group_k(self) -> list:
        spec = self.raw["group"]
        if spec["kind"] != "product" and spec.get("k"):
            return list(spec["k"])
        if spec["kind"] == "presentation":
            return list(spec["generators"])
        return sorted(self.gen)

    def operator(self, word: str) -> np.ndarray:
        mat = np.eye(self.dim)
        for ch in word:
            mat = mat @ (self.inv[ch.lower()] if ch.isupper() else self.gen[ch])
        return mat

    def cocycle_value(self, word: str) -> np.ndarray:
        """c along a word by c(uv) = c(u) + rho(u) c(v), with c(s^-1) = -rho(s)^-1 c(s)."""
        out = np.zeros(self.dim)
        prefix = np.eye(self.dim)
        for ch in word:
            s = ch.lower()
            if ch.isupper():
                val, mat = -self.inv[s] @ self.coc[s], self.inv[s]
            else:
                val, mat = self.coc[s], self.gen[s]
            out = out + prefix @ val
            prefix = prefix @ mat
        return out

    def fixed_basis(self, names=None) -> np.ndarray:
        names = sorted(self.gen) if names is None else names
        eye = np.eye(self.dim)
        return _null_space(np.vstack([self.gen[s] - eye for s in names]) if names else np.zeros((0, self.dim)))

    def dual_fixed_basis(self, names=None) -> np.ndarray:
        """Fixed vectors of the pairing-adjoint of rho(g^-1): W^-1 rho(g^-1)^T W."""
        names = sorted(self.gen) if names is None else names
        eye = np.eye(self.dim)
        blocks = [(self.inv[s].T * self.w[None, :]) / self.w[:, None] - eye for s in names]
        return _null_space(np.vstack(blocks) if blocks else np.zeros((0, self.dim)))

    def complement_basis(self, names=None) -> np.ndarray:
        """Canonical complement: the annihilator of the dual-fixed vectors."""
        dual_fixed = self.dual_fixed_basis(names)
        if dual_fixed.shape[1] == 0:
            return np.eye(self.dim)
        return _null_space(dual_fixed.T * self.w[None, :])

    def displacement_ratio(self, words, v) -> float:
        return max(self.norm(self.operator(wd) @ v - v) for wd in words) / self.norm(v)

    def l2_gap_lower(self, words) -> float:
        """Certified p = 2 bound: sqrt of lambda_min of mean_k A_k^T W A_k on the complement."""
        q = self.complement_basis()
        eye = np.eye(self.dim)
        form = sum((self.operator(wd) - eye).T @ (self.w[:, None] * (self.operator(wd) - eye)) for wd in words)
        form = q.T @ (form / len(words)) @ q
        gram = q.T @ (self.w[:, None] * q)
        chol_inv = np.linalg.inv(np.linalg.cholesky(gram))
        lam = np.linalg.eigvalsh(chol_inv @ form @ chol_inv.T)[0]
        return math.sqrt(max(lam, 0.0))

    def affine(self, word: str, x) -> np.ndarray:
        return self.operator(word) @ x + self.cocycle_value(word)

    def lstsq_coboundary_residual(self) -> float:
        """Best residual of c(s) = v - rho(s) v over the generators, by numpy least squares."""
        names = sorted(self.gen)
        eye = np.eye(self.dim)
        system = np.vstack([eye - self.gen[s] for s in names])
        target = np.concatenate([self.coc[s] for s in names])
        v = np.linalg.lstsq(system, target, rcond=None)[0]
        return max(self.norm(self.coc[s] - (v - self.gen[s] @ v)) for s in names)


# -- the checks --------------------------------------------------------------

EXIT_CODES = {"pass": 0, "not-applicable": 0, "fail": 1, "refused": 2}


def check(raw: dict, report: dict, expect: dict | None = None) -> list:
    """Problems found in one report; an empty list means the report is correct."""
    problems = []
    status = report.get("status")
    payload = report.get("payload", {})
    if status not in EXIT_CODES:
        return [f"unknown status {status!r}"]
    for c in payload.get("checks", []):
        value, bound = float(c["value"]), float(c["bound"])
        holds = {"le": value <= bound, "ge": value >= bound, "gt": value > bound, "eq": value == bound}[c["kind"]]
        if holds != c["ok"]:
            problems.append(f"check {c['name']} records ok={c['ok']} but {value} {c['kind']} {bound} is {holds}")
        if status == "pass" and not c["ok"]:
            problems.append(f"pass report with failing check {c['name']}")
    command = raw["task"]["command"]
    handler = _COMMANDS.get(command)
    if handler is not None and status != "refused":
        problems += handler(Model(raw), raw["task"], status, payload)
    elif command == "split" and status == "refused":
        problems += _refused_split(Model(raw), raw["task"], payload)
    for key, want in (expect or {}).items():
        if not _close(float(payload[key]), want, rtol=1e-8):
            problems.append(f"{key} = {payload[key]} but the closed form gives {want}")
    return problems


def _gap(m: Model, task, status, payload):
    out = []
    upper = float(payload["gap_upper"])
    words = task.get("k") or m.group_k()
    comp_dim = m.complement_basis().shape[1]
    if payload["complement_dim"] != comp_dim:
        out.append(f"complement_dim {payload['complement_dim']} but numpy gives {comp_dim}")
    if comp_dim == 0:
        return out if math.isinf(upper) else out + [f"empty complement with finite gap {upper}"]
    if not upper > 0:
        out.append(f"gap_upper {upper} is not positive")
    v = np.asarray(payload["witness"], dtype=float)
    ratio = m.displacement_ratio(words, v)
    if not _close(ratio, upper):
        out.append(f"witness ratio {ratio!r} differs from gap_upper {upper!r}")
    leak = np.abs(m.dual_fixed_basis().T @ (m.w * v)).max(initial=0.0)
    if leak > 1e-8:
        out.append(f"witness is not in the canonical complement (dual pairing {leak:.2e})")
    if m.p == 2.0:
        lower = m.l2_gap_lower(words)
        if upper < lower * (1 - 1e-9) - 1e-12:
            out.append(f"gap_upper {upper!r} below the certified l2 bound {lower!r}")
        if len(words) == 1 and not _close(upper, lower, rtol=1e-8):
            out.append(f"single-word l2 gap {upper!r} differs from its exact value {lower!r}")
    return out


def _decompose(m: Model, task, status, payload):
    fixed = m.fixed_basis().shape[1]
    if payload["fixed_dim"] != fixed or payload["complement_dim"] != m.dim - fixed:
        return [f"dims {payload['fixed_dim']}+{payload['complement_dim']} but numpy nullity is {fixed} of {m.dim}"]
    return []


def _cobound(m: Model, task, status, payload):
    out = []
    tol = float(task.get("tol", 1e-8))
    v = np.asarray(payload["vector"], dtype=float)
    names = sorted(m.gen)
    residual = max(m.norm(m.coc[s] - (v - m.gen[s] @ v)) for s in names)
    if not _close(residual, float(payload["residual"]), rtol=1e-6, atol=1e-13):
        out.append(f"residual {payload['residual']} but the vector reproduces c to {residual!r}")
    is_cob = m.lstsq_coboundary_residual() <= tol
    if payload["is_coboundary"] != is_cob:
        out.append(f"is_coboundary {payload['is_coboundary']} but numpy least squares says {is_cob}")
    return out


def _fixpoint(m: Model, task, status, payload):
    out = []
    tol = float(task.get("tol", m.raw.get("tolerances", {}).get("solver", 1e-6)))
    if status == "pass" and m.lstsq_coboundary_residual() > 1e-6:
        out.append("fixed point claimed for a cocycle that is not a coboundary")
    if task.get("method", "circumcenter") == "circumcenter":
        words, point = m.group_k(), payload["point"]
    else:
        words, point = task.get("k") or m.group_k(), payload["terminal"]
        radii = [float(r) for r in payload["radii"]]
        for i, (a, b) in enumerate(zip(radii, radii[1:])):
            if not b < a / 2:
                out.append(f"radius {i + 1} = {b!r} is not below half of {a!r}")
        x = np.asarray(point, dtype=float)
        orbit = [x] + [m.affine(wd, x) for wd in words]
        diam = max(m.norm(a - b) for a in orbit for b in orbit)
        if not _close(diam, radii[-1]):
            out.append(f"terminal orbit diameter {diam!r} but last radius {radii[-1]!r}")
    if len(point):
        x = np.asarray(point, dtype=float)
        disp = max(m.norm(m.affine(wd, x) - x) for wd in words)
        if not _close(disp, float(payload["displacement"])):
            out.append(f"displacement {payload['displacement']} but recomputed {disp!r}")
        if status == "pass" and disp > tol:
            out.append(f"pass with displacement {disp!r} above {tol}")
    return out


def _schoenberg(m: Model, task, status, payload):
    if "points" in payload:
        pts = np.asarray(payload["points"], dtype=float)
        s, p = float(payload["s"]), float(payload["p"])
        dist = np.sum(np.abs(pts[:, None, :] - pts[None, :, :]) ** p, axis=2)
        lam = float(np.linalg.eigvalsh(np.exp(-s * dist))[0])
        if not _close(lam, float(payload["lambda_min"]), rtol=1e-7, atol=1e-12) or lam >= -1e-6:
            return [f"reported violation {payload['lambda_min']} but the Gram matrix gives {lam!r}"]
        return []
    if m.p <= 2.0 and float(payload["lambda_min"]) < -1e-9:
        return [f"lambda_min {payload['lambda_min']} negative for p <= 2"]
    return []


def _modulus(m: Model, task, status, payload):
    out = []
    eps = [float(e) for e in payload["eps"]]
    delta = [float(d) for d in payload["delta"]]
    if any(b < a for a, b in zip(delta, delta[1:])):
        out.append("modulus envelope is not monotone")
    if m.p == 2.0:
        for e, d in zip(eps, delta):
            # the bound has infinite slope at eps = 2, so allow for rounding in ||x - y||
            e_low = e * (1.0 - 1e-12)
            exact = 1.0 - math.sqrt(max(0.0, 1.0 - e_low * e_low / 4.0))
            if d < exact - 1e-9:
                out.append(f"delta({e}) = {d!r} below the Hilbert modulus {exact!r}")
    return out


def _klee(m: Model, task, status, payload):
    if not payload["found"]:
        return []
    pts = np.asarray(payload["points"], dtype=float)
    x = np.asarray(payload["center"], dtype=float)
    bound = hull_distance_lower(pts, x, m.p, m.w)
    if not (bound > 0 and float(payload["hull_distance"]) > 0):
        return [f"center not certified outside the hull (numpy bound {bound!r})"]
    return []


def hull_distance_lower(pts: np.ndarray, x: np.ndarray, p: float, w: np.ndarray, iters: int = 2000) -> float:
    """Certified lower bound on d_p(x, hull(pts)) by Frank-Wolfe and a separating functional.

    For the unit dual functional J of x - y (y the approximate projection),
    d(x, hull) >= min_i <x - p_i, J>, however rough y is.
    """
    lam = np.full(len(pts), 1.0 / len(pts))
    for t in range(iters):
        r = lam @ pts - x
        grad_y = w * np.sign(r) * np.abs(r) ** (p - 1)
        i = int(np.argmin(pts @ grad_y))
        step = 2.0 / (t + 2.0)
        lam = (1 - step) * lam
        lam[i] += step
    gap_vec = x - lam @ pts
    n = np.sum(w * np.abs(gap_vec) ** p) ** (1.0 / p)
    if n == 0:
        return 0.0
    j = np.sign(gap_vec) * (np.abs(gap_vec) / n) ** (p - 1)
    return float(min(np.sum(w * (x - q) * j) for q in pts))


def _index(m: Model, task, status, payload):
    order = _group_order(m.raw["group"])
    index = order // len(task["subgroup"])
    if payload["index"] != index:
        return [f"index {payload['index']} but |G|/|H| = {index}"]
    return []


def _induce(m: Model, task, status, payload):
    out = _index(m, task, status, payload)
    if payload["induced_dim"] != payload["index"] * m.dim:
        out.append(f"induced_dim {payload['induced_dim']} is not index * dim")
    return out


def _refused_split(m: Model, task, payload):
    """A refused split must have a mixing-piece gap at most its threshold; certify one."""
    threshold = float(task.get("gap_threshold", 0.01))
    found = re.search(r"gap ([0-9.eE+-]+|inf) on the mixing piece", payload.get("error", ""))
    if found is None:
        return [f"refusal without a gap: {payload.get('error')!r}"]
    f1, f2 = task.get("factor1"), task.get("factor2")
    dual = np.hstack([m.dual_fixed_basis(f1), m.dual_fixed_basis(f2)])
    b0 = _null_space(dual.T * m.w[None, :])
    if b0.shape[1] == 0:
        return []
    words = [*f1, *f2]
    rng = np.random.default_rng(0)
    trials = [b0[:, i] for i in range(b0.shape[1])] + [b0 @ rng.standard_normal(b0.shape[1]) for _ in range(32)]
    certified = min(m.displacement_ratio(words, v) for v in trials)
    out = []
    if float(found.group(1)) > threshold:
        out.append(f"refused with gap {found.group(1)} above threshold {threshold}")
    if certified > threshold:
        out.append(f"no vector of B0 certifies a gap below {threshold} (best {certified!r})")
    return out


_COMMANDS = {
    "gap": _gap,
    "decompose": _decompose,
    "cobound": _cobound,
    "fixpoint": _fixpoint,
    "schoenberg": _schoenberg,
    "modulus": _modulus,
    "klee": _klee,
    "induce": _induce,
    "superrigid": _index,
}
