"""Workload definitions: the fixed operation lists and the seeded input generators.

An operation is one call of ``lplab.cli.main``.  Each operation carries the
raw scenario JSON of every report it produces, so that the oracle can check
the report from the scenario alone.  The seed changes only what the
workload says it changes (see README.md): the order of the operations for
``corpus`` and ``sweep``, and the generated scenarios for ``scale``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

import oracle

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "src" / "lplab" / "scenarios"
OUT_DIR = Path(__file__).resolve().parent / "out"

# The bundled corpus as of the benchmark's definition.  Fixed here, so that a
# scenario added to the package later does not change the workload.
CORPUS = (
    "commuting-pair-displacement",
    "cyclic3-gap",
    "cyclic5-gap",
    "dihedral4-gap",
    "grid-split-refused",
    "grid-z2xz2-gap",
    "grid-z2xz2-split",
    "induce-sign-z4",
    "klee-p4",
    "mautner-matrix",
    "mazur-z4",
    "modulus-p2",
    "schoenberg-p15",
    "schoenberg-p3-search",
    "superrigid-diagonal-s3",
    "superrigid-overlap-d3",
    "swap-cocycle-cobound",
    "swap-cocycle-fixpoint",
    "swap-cocycle-fm",
    "swap-decompose",
    "swap-gap",
    "translation-fixpoint",
    "translation-fm",
)

# The translation cocycle of Z on R^1 is not a coboundary, yet ``cobound``
# reports it as "pass" with a failing check.  Kept in ``corpus`` as the one
# counted failure, so that a fix of the status rule has something to move.
TRANSLATION_COBOUND = {
    "name": "translation-cobound",
    "space": {"dim": 1, "p": 2.0},
    "group": {"kind": "presentation", "generators": ["t"], "relators": [], "k": ["t"]},
    "representation": {"images": {"t": {"kind": "matrix", "entries": [[1.0]]}}},
    "cocycle": {"values": {"t": [1.0]}},
    "task": {"command": "cobound"},
    "seed": 0,
}

SWEEP_SCENARIOS = ("swap-gap", "cyclic3-gap", "cyclic5-gap", "dihedral4-gap", "grid-z2xz2-gap")
SWEEP_EXPONENTS = (1.25, 1.5, 2.0, 3.0, 4.0, 6.0)

# scale: (kind, size, p, task).  Fixed sizes, so that one pass is the same
# amount of work on every seed; the seed draws weights, signs and cocycles.
SCALE_PLAN = (
    ("cyclic", 32, 3.0, "cobound"),
    ("cyclic", 48, 3.0, "decompose"),
    ("cyclic", 64, 3.0, "cobound"),
    ("cyclic", 96, 3.0, "decompose"),
    ("dihedral", 16, 1.5, "cobound"),
    ("dihedral", 32, 1.5, "decompose"),
    ("dihedral", 48, 1.5, "cobound"),
    ("cyclic-uniform", 24, 2.0, "gap"),
    ("cyclic", 24, 3.0, "gap"),
    ("dihedral", 12, 1.5, "gap"),
)
SCALE_GAP_RESTARTS = 4

WORKLOADS = ("corpus", "sweep", "scale")


def _op(name, argv, raws, known_fault=False, expect=None):
    return {"name": name, "argv": argv, "raws": raws, "known_fault": known_fault, "expect": expect or {}}


def _write(path: Path, raw: dict) -> str:
    path.write_text(json.dumps(raw, indent=1, sort_keys=True) + "\n")
    return str(path)


def _bundled_raw(name: str) -> dict:
    return json.loads((SCENARIO_DIR / f"{name}.json").read_text())


def build(workload: str, seed: int) -> list:
    """Operation list of one pass; generated scenario files go under ``out/``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(seed)
    work_dir = OUT_DIR / "inputs" / f"{workload}-{seed}"
    work_dir.mkdir(parents=True, exist_ok=True)
    if workload == "corpus":
        ops = [_op(name, ["run", name], [_bundled_raw(name)]) for name in CORPUS]
        path = _write(work_dir / "translation-cobound.json", TRANSLATION_COBOUND)
        ops.append(_op("translation-cobound", ["run", path], [TRANSLATION_COBOUND], known_fault=True))
        rng.shuffle(ops)
        return ops
    if workload == "sweep":
        ops = []
        for name in SWEEP_SCENARIOS:
            exponents = list(SWEEP_EXPONENTS)
            rng.shuffle(exponents)
            base = _bundled_raw(name)
            raws = []
            for p in exponents:
                raw = json.loads(json.dumps(base))
                raw["space"]["p"] = p
                raws.append(raw)
            ops.append(_op(name, ["sweep", name, "--p", ",".join(repr(p) for p in exponents)], raws))
        rng.shuffle(ops)
        return ops
    return _build_scale(np.random.default_rng(seed), work_dir)


def _cyclic_raw(n, p, weights, signs):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    shift = [(i - 1) % n for i in range(n)]  # output i pulls from input i-1
    return {
        "space": {"dim": n, "p": p, "weights": weights},
        "group": {"kind": "table", "table": table, "identity": 0, "generators": {"a": 1}},
        "representation": {"images": {"a": {"kind": "lamperti", "perm": shift, "signs": signs}}},
    }


def _dihedral_raw(m, p, weights):
    rot = [(i + 1) % m for i in range(m)]
    refl = [(-i) % m for i in range(m)]
    return {
        "space": {"dim": m, "p": p, "weights": weights},
        "group": {"kind": "permutations", "generators": {"r": rot, "s": refl}},
        "representation": {
            "images": {"r": {"kind": "permutation_action", "map": rot}, "s": {"kind": "permutation_action", "map": refl}}
        },
    }


def _build_scale(rng: np.random.Generator, work_dir: Path) -> list:
    ops = []
    for kind, size, p, task in SCALE_PLAN:
        expect = {}
        if kind == "cyclic-uniform":
            raw = _cyclic_raw(size, p, [1.0] * size, [1.0] * size)
            expect["gap_upper"] = 2.0 * np.sin(np.pi / size)
        elif kind == "cyclic":
            signs = np.where(rng.random(size) < 0.5, -1.0, 1.0)
            if np.prod(signs) < 0:  # rho(a)^n = prod(signs) * I must be the identity
                signs[0] = -signs[0]
            raw = _cyclic_raw(size, p, rng.uniform(0.5, 2.0, size).tolist(), signs.tolist())
        else:
            raw = _dihedral_raw(size, p, rng.uniform(0.5, 2.0, size).tolist())
        name = f"{kind}{size}-{task}"
        raw.update(name=name, seed=0, task={"command": task})
        if task == "gap":
            raw["task"]["restarts"] = SCALE_GAP_RESTARTS
        if task == "cobound":
            model = oracle.Model(raw)
            v = rng.standard_normal(size)
            raw["cocycle"] = {"values": {s: (v - model.gen[s] @ v).tolist() for s in sorted(model.gen)}}
        ops.append(_op(name, ["run", _write(work_dir / f"{name}.json", raw)], [raw], expect=expect))
    return ops
