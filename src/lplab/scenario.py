"""Scenario files: the JSON schema and its translation into lab objects.

A scenario is a JSON object with the fields

    name            str
    space           {"dim": int, "p": float, "weights": [float, ...]?}
    group           {"kind": "table" | "presentation" | "permutations" | "product", ...}
    representation  {"images": {gen: image-spec, ...}, "require_isometric": bool?}
    cocycle         {"values": {gen: [float, ...]}}   (optional)
    task            {"command": str, "tol": float?, ...task parameters}
    seed            int >= 0?

``task.tol`` is the task tolerance (the --tol flag beats it; without either the
command's default applies).  A top-level ``tolerances`` object is refused, and
so are ``representation.validate`` and ``cocycle.validate``: the group
relations and the cocycle identity are always checked.

Image specs: {"kind": "lamperti", "perm": [...], "signs": [...]?},
{"kind": "matrix", "entries": [[...]]}, or
{"kind": "permutation_action", "map": [...], "signs": [...]?} (the
quasi-regular isometry of an atom permutation, weight-twisted).  ``perm`` and
``map`` are permutations of 0..dim-1 given as integers; ``signs`` and
``entries`` are finite numbers, not booleans.  Unless ``require_isometric`` is
false, every image is read by the one isometry rule
(:func:`lplab.lamperti.as_isometry`): exact for p != 2, where only signed
weighted permutations are isometries; at p = 2 also any matrix with
AᵀWA = W.  A monomial isometric ``matrix`` is read as the Lamperti image it
is, so the ``mazur`` task accepts it.  Group specs:

    table          {"table": [[int]], "identity": int, "generators": {name: int}, "k": [word]?}
    presentation   {"generators": [name], "relators": [word]?, "k": [word]?}
    permutations   {"generators": {name: [int]}, "k": [word]?}
    product        {"factor1": <table|permutations spec>, "factor2": ..., "rename2": {name: name}?}

A table is square with entries in 0..m-1, and the identity and generator
indices lie in that range; permutation generators permute the same atoms.
A product's K is its generators; a ``k`` of its own or of a factor is
refused (give other words as ``task.k``).

Validation failures raise :class:`ScenarioError` carrying the offending
field path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .cocycle import Cocycle
from .groups import PresentedGroup, TableGroup, group_from_permutations, product_group
from .lamperti import LampertiIsometry
from .representation import Representation
from .spaces import LpSpace

__all__ = ["ScenarioError", "Scenario", "load_scenario", "parse_scenario"]

_COMMANDS = (
    "decompose",
    "gap",
    "fixpoint",
    "cobound",
    "induce",
    "split",
    "superrigid",
    "mazur",
    "schoenberg",
    "modulus",
    "klee",
    "displacement",
    "mautner",
)


class ScenarioError(ValueError):
    """Schema violation; ``path`` locates the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _object(value, path: str) -> dict:
    """``value`` if it is a JSON object; anything else is refused at ``path``."""
    if not isinstance(value, dict):
        raise ScenarioError(path, f"expected an object, got {value!r}")
    return value


def _need(obj: dict, key: str, path: str):
    if key not in _object(obj, path):
        raise ScenarioError(f"{path}.{key}", "missing required field")
    return obj[key]


def _finite(value, path: str) -> np.ndarray:
    """``value`` as a float array; non-numeric (booleans too) or non-finite entries are refused at ``path``."""
    items = [value]
    while items:
        item = items.pop()
        if isinstance(item, bool):
            raise ScenarioError(path, f"expected numbers, got {item!r}")
        if isinstance(item, list):
            items.extend(item)
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(path, f"expected numbers: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise ScenarioError(path, "non-finite number")
    return arr


def _integer(value, path: str, lo: int, hi: int | None = None) -> int:
    """``value`` as an integer in [lo, hi] (an integral float counts); anything else is refused at ``path``."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(path, f"expected an integer, got {value!r}")
    if value < lo or (hi is not None and value > hi):
        bound = f"between {lo} and {hi}" if hi is not None else f"at least {lo}"
        raise ScenarioError(path, f"must be {bound}, got {value}")
    return value


def _words(value, path: str, nonempty: bool = False) -> list:
    """``value`` if it is a (nonempty, if asked) list of strings; anything else is refused at ``path``."""
    if not (isinstance(value, list) and (value or not nonempty) and all(isinstance(w, str) for w in value)):
        raise ScenarioError(path, f"expected a {'nonempty ' if nonempty else ''}list of words, got {value!r}")
    return value


def _table(value, path: str) -> np.ndarray:
    """``value``, a square list of integer lists with entries in 0..m-1, as an array; refused at ``path``."""
    m = len(value) if isinstance(value, list) else 0
    if not (m and all(isinstance(row, list) and len(row) == m for row in value)):
        raise ScenarioError(path, "expected a square list of integer lists")
    return np.array([[_integer(entry, path, 0, m - 1) for entry in row] for row in value])


@dataclass(eq=False)
class Scenario:
    name: str
    space: LpSpace
    group: object
    representation: Representation | None
    cocycle: Cocycle | None
    task: dict
    seed: int
    raw: dict

    def with_exponent(self, p: float) -> "Scenario":
        raw = json.loads(json.dumps(self.raw))
        raw["space"]["p"] = p
        raw["name"] = f"{self.name}@p={p:g}"
        return parse_scenario(raw)


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError("$", f"not valid JSON: {exc}") from exc
    return parse_scenario(raw)


def parse_scenario(raw: dict) -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioError("$", "scenario must be a JSON object")
    name = _need(raw, "name", "$")
    space = _build_space(_need(raw, "space", "$"))
    group = _build_group(_need(raw, "group", "$"))
    task = _need(raw, "task", "$")
    command = _need(task, "command", "$.task")
    if command not in _COMMANDS:
        raise ScenarioError("$.task.command", f"unknown command {command!r}; expected one of {_COMMANDS}")
    seed = _integer(raw.get("seed", 0), "$.seed", 0)
    if "tolerances" in raw:
        raise ScenarioError("$.tolerances", "no longer read; give the task tolerance as task.tol")

    rep = None
    cocycle = None
    if command not in ("induce", "superrigid"):
        # induction tasks interpret the representation/cocycle over the
        # subgroup named in the task parameters; built in the task layer
        if "representation" in raw:
            rep = _build_representation(raw["representation"], space, group)
        if "cocycle" in raw:
            if rep is None:
                raise ScenarioError("$.cocycle", "cocycle requires a representation")
            cocycle = _build_cocycle(raw["cocycle"], rep)
    return Scenario(
        name=name,
        space=space,
        group=group,
        representation=rep,
        cocycle=cocycle,
        task=task,
        seed=seed,
        raw=raw,
    )


def _build_space(spec: dict) -> LpSpace:
    dim = _integer(_need(spec, "dim", "$.space"), "$.space.dim", 1)
    p = _need(spec, "p", "$.space")
    if isinstance(p, bool) or not isinstance(p, (int, float)) or not 1.0 <= p < np.inf:
        raise ScenarioError("$.space.p", f"exponent p must be a number in [1, inf), got {p!r}")
    weights = spec.get("weights")
    if weights is not None:
        weights = _finite(weights, "$.space.weights")
    try:
        return LpSpace(dim, float(p), weights)
    except ValueError as exc:  # dim and p hold here: the weights are at fault
        raise ScenarioError("$.space.weights", str(exc)) from exc


def _build_plain_group(spec: dict, path: str):
    kind = _need(spec, "kind", path)
    if kind not in ("table", "permutations", "presentation"):
        raise ScenarioError(f"{path}.kind", f"unknown group kind {kind!r}")
    k_set = spec.get("k")
    if k_set is not None:
        _words(k_set, f"{path}.k", nonempty=True)
    try:
        if kind == "presentation":
            gens = _words(_need(spec, "generators", path), f"{path}.generators")
            return PresentedGroup(gens, _words(spec.get("relators", []), f"{path}.relators"), k_set=k_set)
        gens = _object(_need(spec, "generators", path), f"{path}.generators")
        if kind == "table":
            table = _table(_need(spec, "table", path), f"{path}.table")
            identity = _integer(_need(spec, "identity", path), f"{path}.identity", 0, len(table) - 1)
            gens = {name: _integer(g, f"{path}.generators.{name}", 0, len(table) - 1) for name, g in gens.items()}
            return TableGroup(table, identity, gens, k_set=k_set)
        if not gens:
            raise ScenarioError(f"{path}.generators", "expected at least one generator")
        first = next(iter(gens.values()))
        degree = len(first) if isinstance(first, list) and first else 1  # a wrong first entry is refused below
        gens = {name: _permutation(gens, name, f"{path}.generators", degree) for name in gens}
        return group_from_permutations(gens, k_set=k_set)[0]
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from exc


_PRODUCT_K = "a product's K is its generators; give other words as task.k"


def _build_group(spec: dict):
    kind = _need(spec, "kind", "$.group")
    if kind == "product":
        if "k" in spec:
            raise ScenarioError("$.group.k", _PRODUCT_K)
        factors = []
        for key in ("factor1", "factor2"):
            path = f"$.group.{key}"
            factor = _need(spec, key, "$.group")
            if "k" in _object(factor, path):
                raise ScenarioError(f"{path}.k", _PRODUCT_K)
            factors.append(_build_plain_group(factor, path))
        g1, g2 = factors
        if not isinstance(g1, TableGroup) or not isinstance(g2, TableGroup):
            raise ScenarioError("$.group", "product factors must be table-backed groups")
        try:
            return product_group(g1, g2, rename2=spec.get("rename2"))
        except ValueError as exc:
            raise ScenarioError("$.group", str(exc)) from exc
    return _build_plain_group(spec, "$.group")


def _permutation(spec: dict, key: str, path: str, dim: int) -> np.ndarray:
    """``spec[key]``, a permutation of 0..dim-1 given as a list of integers; refused at ``path.key``."""
    perm = _need(spec, key, path)
    path = f"{path}.{key}"
    if not isinstance(perm, list):
        raise ScenarioError(path, f"expected a list of integers, got {perm!r}")
    perm = [_integer(i, path, 0, dim - 1) for i in perm]
    if sorted(perm) != list(range(dim)):
        raise ScenarioError(path, f"not a permutation of 0..{dim - 1}: {perm}")
    return np.array(perm)


def _build_image(spec: dict, space: LpSpace, path: str):
    kind = _need(spec, "kind", path)
    if kind == "matrix":
        return _finite(_need(spec, "entries", path), f"{path}.entries")
    if kind == "lamperti":
        perm = _permutation(spec, "perm", path, space.dim)
    elif kind == "permutation_action":
        perm = np.argsort(_permutation(spec, "map", path, space.dim))  # coordinates pull back along the map
    else:
        raise ScenarioError(f"{path}.kind", f"unknown image kind {kind!r}")
    signs = _finite(spec.get("signs", np.ones(space.dim)), f"{path}.signs")
    try:
        return LampertiIsometry(perm, signs, space, space)
    except ValueError as exc:  # the permutation holds: the signs are at fault
        raise ScenarioError(f"{path}.signs", str(exc)) from exc


def _build_representation(spec: dict, space: LpSpace, group) -> Representation:
    if "validate" in _object(spec, "$.representation"):
        raise ScenarioError("$.representation.validate", "no longer read; the group relations are always checked")
    images_spec = _object(_need(spec, "images", "$.representation"), "$.representation.images")
    images = {
        name: _build_image(img, space, f"$.representation.images.{name}")
        for name, img in images_spec.items()
    }
    isometric = spec.get("require_isometric", True)
    if not isinstance(isometric, bool):
        raise ScenarioError("$.representation.require_isometric", f"expected true or false, got {isometric!r}")
    try:
        return Representation(group, space, images, require_isometric=isometric)
    except ValueError as exc:
        raise ScenarioError("$.representation", str(exc)) from exc


def _build_cocycle(spec: dict, rep: Representation) -> Cocycle:
    if "validate" in _object(spec, "$.cocycle"):
        raise ScenarioError("$.cocycle.validate", "no longer read; the cocycle identity is always checked")
    values = _need(spec, "values", "$.cocycle")
    if not isinstance(values, dict):
        raise ScenarioError("$.cocycle.values", "expected an object mapping generators to vectors")
    values = {gen: _finite(vec, f"$.cocycle.values.{gen}") for gen, vec in values.items()}
    try:
        return Cocycle(rep, values)
    except ValueError as exc:
        raise ScenarioError("$.cocycle", str(exc)) from exc
