"""Scenario files: the JSON schema and its translation into lab objects.

The schema is one table per object: ``_SCENARIO`` for the top level
(``name``, ``space``, ``group``, ``task``, ``seed``, ``representation``,
``cocycle``), ``_SPACE``, ``_GROUPS`` by ``kind`` (``_FACTORS`` for the two
factors of a ``product``), ``_REPRESENTATION``, ``_IMAGES`` by ``kind``,
``_COCYCLE``, and one per task command in ``_COMMANDS``, which also names the
objects the command needs and the field the --budget flag replaces.  A table
maps each field to its reader, its default and the reader's bounds
(:func:`_read`).  :func:`parse_scenario` reads every field once, in table
order, before any task runs.  A key that its object's table does not name is
refused at its path (exit 2), so a misspelled field never runs on its
default.  ``tolerances``, ``representation.validate``, ``cocycle.validate``
and the ``k`` of a product or of its factors (a product's K is its
generators; give other words as ``task.k``) are refused where given.  The
size fields are capped (``space.dim`` at MAX_DIM, ``space.p`` at MAX_P, the
sample and search budgets at MAX_SAMPLES, a group table's rows, a permutation
closure and a product at MAX_ORDER elements, every word list, ``eps_grid``
and ``s`` at MAX_LIST entries) and refused before anything is allocated.
``task.tol`` is the task tolerance (the --tol flag beats it; without either
the command's default applies).  Unless ``require_isometric``
is false, every image is read by the one isometry rule
(:func:`lplab.lamperti.as_isometry`).

Validation failures raise :class:`ScenarioError` carrying the offending
field path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from collections import namedtuple
from functools import partial
from types import FunctionType

import numpy as np

from .cocycle import Cocycle, _a_word_count
from .gap import MAX_RESTARTS
from .geometry import MAX_POINTS
from .groups import (MAX_ORDER, GroupTooLarge, PresentedGroup, ProductGroup, TableGroup, check_word,
                     group_from_permutations, product_group)
from .lamperti import LampertiIsometry
from .representation import Representation
from .spaces import LpSpace

__all__ = ["MAX_DIM", "MAX_LIST", "MAX_ORDER", "MAX_P", "MAX_SAMPLES", "ScenarioError", "Scenario", "load_scenario",
           "parse_scenario"]

# size caps: each bundled scenario with a field at its cap runs in under 10 s (BENCH_scenario_schema.json)
MAX_DIM = 1024
MAX_P = 256.0  # the lp kernels sum w_i |x_i|^p unscaled, which over- or underflows at p of a few hundred
MAX_SAMPLES = 100_000  # the sample and search budgets
MAX_LIST = 256  # entries of a word list, eps_grid or s: each entry costs one scan (a modulus eps up to 8 ms)


class ScenarioError(ValueError):
    """Schema violation; ``path`` locates the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# -- readers: reader(value, path, *bounds) returns the typed value or raises ScenarioError at path ----------------


def _object(value, path: str) -> dict:
    """``value`` if it is a JSON object; anything else is refused at ``path``."""
    if not isinstance(value, dict):
        raise ScenarioError(path, f"expected an object, got {value!r}")
    return value


def _need(obj: dict, key: str, path: str):
    if key not in _object(obj, path):
        raise ScenarioError(f"{path}.{key}", "missing required field")
    return obj[key]


def _optional(read):
    """``read``, except that null stands for the absent field."""
    return lambda value, path, *bounds: None if value is None else read(value, path, *bounds)


def _refused(value, path: str, message: str):
    """A field that is no longer read: any value is refused at ``path`` with ``message``."""
    raise ScenarioError(path, message)


def _typed(value, path: str, kind: type):
    if not isinstance(value, kind):
        raise ScenarioError(path, f"expected {'a string' if kind is str else 'true or false'}, got {value!r}")
    return value


def _choice(value, path: str, *options) -> str:
    if not (isinstance(value, str) and value in options):
        raise ScenarioError(path, f"unknown value {value!r}; expected one of {options}")
    return value


def _finite(value, path: str, shape: tuple | None = None) -> np.ndarray:
    """``value`` as a float array (of ``shape``, if given); non-numeric (booleans too) or non-finite entries are
    refused at ``path``."""
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
    if shape is not None and arr.shape != shape:
        raise ScenarioError(path, f"expected {shape[0]} numbers, got shape {arr.shape}")
    return arr


def _positive(value, path: str) -> float:
    """``value`` as a finite positive number; anything else is refused at ``path``."""
    number = _finite(value, path)
    if number.ndim != 0 or not number > 0.0:
        raise ScenarioError(path, f"expected a positive number, got {value!r}")
    return float(number)


def _exponent(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 1.0 <= value <= MAX_P:
        raise ScenarioError(path, f"exponent p must be a number in [1, {MAX_P:g}], got {value!r}")
    return float(value)


def _length(value, path: str):
    """Refuse a list ``value`` of more than MAX_LIST entries at ``path``."""
    if isinstance(value, list) and len(value) > MAX_LIST:
        raise ScenarioError(path, f"a list of {len(value)} entries; at most MAX_LIST = {MAX_LIST} are read")


def _grid(value, path: str, hi: float = np.inf, increasing: bool = False) -> np.ndarray:
    """``value``, a nonempty list of at most MAX_LIST numbers in (0, hi] (strictly increasing, if asked), as an
    array."""
    _length(value, path)
    arr = _finite(value, path)
    if arr.ndim != 1 or arr.size == 0 or np.any(arr <= 0.0) or np.any(arr > hi):
        raise ScenarioError(path, f"expected a nonempty list of numbers in (0, {hi:g}]")
    if increasing and np.any(np.diff(arr) <= 0.0):
        raise ScenarioError(path, "values must be strictly increasing")
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


def _indices(value, path: str, hi: int | None = None) -> list:
    """``value``, a list of integers in [0, hi]; refused at ``path``."""
    if not isinstance(value, list):
        raise ScenarioError(path, f"expected a list of integers, got {value!r}")
    return [_integer(i, path, 0, hi) for i in value]


def _map(value, path: str, *bounds, item) -> dict:
    """``value``, an object whose every entry is read as item(entry, path.<name>, *bounds)."""
    return {name: item(entry, f"{path}.{name}", *bounds) for name, entry in _object(value, path).items()}


def _permutation(value, path: str, n: int) -> np.ndarray:
    """``value``, a permutation of 0..n-1 given as a list of integers; refused at ``path``."""
    perm = _indices(value, path, n - 1)
    if sorted(perm) != list(range(n)):
        raise ScenarioError(path, f"not a permutation of 0..{n - 1}: {perm}")
    return np.array(perm)


def _permutations(value, path: str) -> dict:
    """``value``, a nonempty object mapping names to permutations of the same atoms."""
    if not _object(value, path):
        raise ScenarioError(path, "expected at least one generator")
    first = next(iter(value.values()))
    degree = len(first) if isinstance(first, list) and first else 1  # a wrong first entry is refused below
    return _map(value, path, degree, item=_permutation)


def _table(value, path: str) -> np.ndarray:
    """``value``, a square list of at most MAX_ORDER integer lists with entries in 0..m-1, as an array; refused at
    ``path``.

    The entries are checked as one array: integers, or integral floats, in range.  Booleans are refused, although
    ``np.array`` would read them as 0 and 1.  Only a refused table is read again entry by entry, by
    :func:`_integer`, to word the refusal of its first bad entry.
    """
    m = len(value) if isinstance(value, list) else 0
    if m > MAX_ORDER:
        raise ScenarioError(path, f"a table of {m} rows; groups of at most MAX_ORDER = {MAX_ORDER} elements are read")
    if not (m and all(isinstance(row, list) and len(row) == m for row in value)):
        raise ScenarioError(path, "expected a square list of integer lists")
    if set().union(*(map(type, row) for row in value)) <= {int, float}:
        try:
            arr = np.array(value, dtype=float)
            if np.all((arr >= 0.0) & (arr <= m - 1) & (arr == np.floor(arr))):
                return arr.astype(int)
        except OverflowError:  # an integer beyond the float range, refused below
            pass
    return np.array([[_integer(entry, path, 0, m - 1) for entry in row] for row in value])


def _words(value, path: str, generators=None, nonempty: bool = False, names: bool = False) -> list:
    """``value`` if it is a list of words (nonempty, or of generator names, if asked) over ``generators``, if
    given; anything else is refused at ``path``."""
    kind = "list of generator names" if names else f"{'nonempty ' if nonempty else ''}list of words"
    _length(value, path)
    if not (isinstance(value, list) and (value or not nonempty) and all(
            isinstance(w, str) and (not names or len(w) == 1 and w.islower()) for w in value)):
        raise ScenarioError(path, f"expected a {kind}, got {value!r}")
    for word in value if generators is not None else ():
        _built(path, check_word, generators, word)
    return value


def _word(value, path: str, generators) -> str:
    return _words([value], path, generators, True)[0]


def _radius(value, path: str, n_gens: int) -> int:
    """An A-word radius: an integer >= 1 whose ball over ``n_gens`` generators holds at most MAX_A_WORDS words."""
    radius = _integer(value, path, 1)
    _built(path, _a_word_count, n_gens, radius)
    return radius


def _built(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a ValueError it raises is refused at ``path``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from exc


# -- the tables -------------------------------------------------------------------------------------------------


def _read(obj, path: str, table: dict, ctx: dict | None = None) -> dict:
    """The fields of the object ``obj`` that ``table`` names, each read once, in table order.

    Each entry is (reader, default, *bounds).  A key of ``obj`` that the table does not name is refused at its
    path before any field is read.  A field's value, or its default when it is absent (``...``: the field is
    required), is read as reader(value, path, *bounds); an absent field whose default is None stays None.  A
    default or bound that is a function is first called with ``ctx`` updated by the fields read so far.
    """
    for key in _object(obj, path):
        if key not in table:
            known = [name for name, entry in table.items() if entry[0] is not _refused]
            raise ScenarioError(f"{path}.{key}", f"unknown field; expected one of {known}")
    ctx = dict(ctx or {})
    for key, entry in table.items():
        default = entry[1]
        value = obj[key] if key in obj else default(ctx) if isinstance(default, FunctionType) else default
        if value is ...:
            raise ScenarioError(f"{path}.{key}", "missing required field")
        ctx[key] = value if key not in obj and value is None else _field(entry, value, f"{path}.{key}", ctx)
    return {key: ctx[key] for key in table}


def _field(entry: tuple, value, path: str, ctx: dict):
    """``value`` read by the table entry ``entry`` at ``path``."""
    read, _, *bounds = entry
    return read(value, path, *(b(ctx) if isinstance(b, FunctionType) else b for b in bounds))


def _kind(obj, path: str, tables: dict, ctx: dict | None = None) -> dict:
    """:func:`_read` with the table of ``tables`` that ``obj["kind"]`` names."""
    return _read(obj, path, tables[_choice(_need(obj, "kind", path), f"{path}.kind", *tables)], ctx)


def _dim(ctx):
    return ctx["space"].dim


def _gens(ctx):
    return ctx["group"].generators


def _space(value, path: str) -> LpSpace:
    space = _read(value, path, _SPACE)
    # dim and p hold here: the weights are at fault
    return _built(f"{path}.weights", LpSpace, space["dim"], space["p"], space["weights"])


def _group(value, path: str, factor: bool = False):
    spec = _kind(value, path, _FACTORS if factor else _GROUPS)
    kind = spec["kind"]
    try:
        if kind == "table":
            return TableGroup(spec["table"], spec["identity"], spec["generators"], k_set=spec["k"])
        if kind == "presentation":
            return PresentedGroup(spec["generators"], spec["relators"], k_set=spec["k"])
        if kind == "permutations":
            return group_from_permutations(spec["generators"], k_set=spec["k"])[0]
        if not isinstance(spec["factor1"], TableGroup) or not isinstance(spec["factor2"], TableGroup):
            raise ValueError("product factors must be table-backed groups")
        return product_group(spec["factor1"], spec["factor2"], rename2=spec["rename2"])
    except GroupTooLarge as exc:  # permutations: their closure is too large; a product: its two factors
        raise ScenarioError(f"{path}.generators" if kind == "permutations" else path, str(exc)) from exc
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from exc


def _image(value, path: str, ctx: dict):
    spec = _kind(value, path, _IMAGES, ctx)
    if spec["kind"] == "matrix":
        return spec["entries"]
    # a map moves atoms; coordinates pull back along it
    perm = spec["perm"] if spec["kind"] == "lamperti" else np.argsort(spec["map"])
    # the permutation holds: the signs are at fault
    return _built(f"{path}.signs", LampertiIsometry, perm, spec["signs"], ctx["space"], ctx["space"])


def _command(value, path: str) -> str:
    """The task's command; its other fields are read last, by :func:`parse_scenario`."""
    return _choice(_need(value, "command", path), f"{path}.command", *_COMMANDS)


def _factor(i: int) -> tuple:
    """A list of generator names; by default a product group's i-th factor generators, required on other groups."""
    return (_words, lambda ctx: list(ctx["group"].factor_generators[i]) if isinstance(ctx["group"], ProductGroup)
            else ..., _gens, False, True)


_KIND = (_typed, ..., str)  # a kind or command, already checked by _kind or _command
_PRODUCT_K = "a product's K is its generators; give other words as task.k"

_SPACE = {"dim": (_integer, ..., 1, MAX_DIM), "p": (_exponent, ...), "weights": (_optional(_finite), None)}
_GROUPS = {
    "table": {"kind": _KIND, "k": (_optional(_words), None, None, True), "table": (_table, ...),
              "identity": (_integer, ..., 0, lambda ctx: len(ctx["table"]) - 1),
              "generators": (partial(_map, item=_integer), ..., 0, lambda ctx: len(ctx["table"]) - 1)},
    "permutations": {"kind": _KIND, "k": (_optional(_words), None, None, True), "generators": (_permutations, ...)},
    "presentation": {"kind": _KIND, "k": (_optional(_words), None, None, True), "generators": (_words, ...),
                     "relators": (_words, [])},
}
_FACTORS = {kind: {**fields, "k": (_refused, None, _PRODUCT_K)} for kind, fields in _GROUPS.items()}
_GROUPS["product"] = {"kind": _KIND, "k": (_refused, None, _PRODUCT_K), "factor1": (_group, ..., True),
                      "factor2": (_group, ..., True), "rename2": (lambda value, path: value, None)}
_SIGNS = (_finite, lambda ctx: np.ones(_dim(ctx)))
_IMAGES = {
    "lamperti": {"kind": _KIND, "perm": (_permutation, ..., _dim), "signs": _SIGNS},
    "permutation_action": {"kind": _KIND, "map": (_permutation, ..., _dim), "signs": _SIGNS},
    "matrix": {"kind": _KIND, "entries": (_finite, ...)},
}
_REPRESENTATION = {"validate": (_refused, None, "no longer read; the group relations are always checked"),
                   "images": (partial(_map, item=_image), ..., lambda ctx: ctx),
                   "require_isometric": (_typed, True, bool)}
_COCYCLE = {"validate": (_refused, None, "no longer read; the cocycle identity is always checked"),
            "values": (partial(_map, item=_finite), ...)}
_SCENARIO = {
    "name": (_typed, ..., str),
    "space": (_space, ...),
    "group": (_group, ...),
    "task": (_command, ...),
    "seed": (_integer, 0, 0),
    "tolerances": (_refused, None, "no longer read; give the task tolerance as task.tol"),
    "representation": (_read, None, _REPRESENTATION, lambda ctx: ctx),
    "cocycle": (_read, None, _COCYCLE),
}


# a command's task fields, the objects it needs, and (task, B) -> (field, value) for the --budget flag B
_Command = namedtuple("_Command", "fields needs budget")


def _task(tol, needs, by_budget=None, **fields) -> _Command:
    """A command's table; ``tol`` is its default tolerance (None: it checks against none)."""
    return _Command({"command": _KIND, "tol": (_positive, tol), **fields}, needs, by_budget)


_K = (_optional(_words), None, _gens, True)  # task words; absent or null: the group's K
_SUBGROUP = {"subgroup": (_indices, ..., lambda ctx: ctx["group"].order - 1 if isinstance(ctx["group"], TableGroup)
                          else None), "subgroup_generators": (partial(_map, item=_integer), ..., 0)}
_COMMANDS = {
    "decompose": _task(None, ("representation",)),
    "gap": _task(None, ("representation",), lambda task, b: ("restarts", min(MAX_RESTARTS, max(4, b // 25))),
                 restarts=(_integer, 16, 1, MAX_RESTARTS), k=_K),
    "fixpoint": _task(1e-6, ("cocycle",), method=(_choice, "circumcenter", "circumcenter", "fisher-margulis"),
                      x0=(_finite, lambda ctx: np.zeros(_dim(ctx)), lambda ctx: (_dim(ctx),)), k=_K,
                      c=(_positive, 1.0), max_iter=(_integer, 60, 0)),
    "cobound": _task(1e-8, ("cocycle",)),
    "induce": _task(1e-8, ("representation",), **_SUBGROUP),
    "split": _task(1e-8, ("representation", "cocycle"), factor1=_factor(0), factor2=_factor(1),
                   gap_threshold=(_positive, 0.01)),
    "superrigid": _task(1e-8, ("representation", "cocycle"), **_SUBGROUP, gap_threshold=(_positive, 0.01)),
    "mazur": _task(None, ("representation",), n_samples=(_integer, 50, 1, MAX_SAMPLES)),
    "schoenberg": _task(None, (), lambda task, b: ("n_configs" if task["mode"] == "random" else "trials", b),
                        mode=(_choice, lambda ctx: "random" if ctx["space"].p <= 2.0 else "search", "random", "search"),
                        n_configs=(_integer, 200, 1, MAX_SAMPLES), n_points=(_integer, 6, 2, MAX_POINTS),
                        s=(_grid, [0.1, 1.0, 10.0]), trials=(_integer, 2000, 1, MAX_SAMPLES)),
    "modulus": _task(None, (), lambda task, b: ("budget", b), eps_grid=(_grid, [0.25, 0.5, 1.0, 1.5, 2.0], 2.0, True),
                     budget=(_integer, 300, 1, MAX_SAMPLES)),
    "klee": _task(None, (), lambda task, b: ("trials", b), trials=(_integer, 200, 1, MAX_SAMPLES)),
    "displacement": _task(1e-6, ("cocycle",), factor_a=_factor(0), factor_h=_factor(1),
                          radius=(_radius, 6, lambda ctx: len(ctx["factor_a"])), k_h=_K),
    "mautner": _task(1e-6, ("cocycle",), g=(_word, "g", _gens), h=(_word, "h", _gens),
                     n_max=(_integer, 12, 0, MAX_SAMPLES)),
}


@dataclass(eq=False)
class Scenario:
    name: str
    space: LpSpace
    group: object
    representation: Representation | None  # over ``group``; None for an induction task, which builds its own
    cocycle: Cocycle | None
    task: dict  # every field of the command's table, typed, with its default where the file gives none
    seed: int
    raw: dict
    specs: tuple  # the read ``representation`` and ``cocycle`` objects, None where absent

    def action(self, group) -> tuple:
        """The representation and cocycle the file gives, built over ``group`` (None where absent)."""
        rep_spec, coc_spec = self.specs
        if coc_spec is not None and rep_spec is None:
            raise ScenarioError("$.cocycle", "cocycle requires a representation")
        rep = None if rep_spec is None else _built("$.representation", Representation, group, self.space,
                                                   rep_spec["images"], require_isometric=rep_spec["require_isometric"])
        return rep, None if coc_spec is None else _built("$.cocycle", Cocycle, rep, coc_spec["values"])

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
    """Read every field of ``raw`` in the order of the tables: the top level (building the space and the group),
    the representation and cocycle (built here unless the task is an induction), the objects the command needs,
    and last the task fields."""
    if not isinstance(raw, dict):
        raise ScenarioError("$", "scenario must be a JSON object")
    top = _read(raw, "$", _SCENARIO)
    scenario = Scenario(top["name"], top["space"], top["group"], None, None, {}, top["seed"], raw,
                        (top["representation"], top["cocycle"]))
    if top["task"] not in ("induce", "superrigid"):  # these build theirs over the subgroup the task names
        scenario.representation, scenario.cocycle = scenario.action(scenario.group)
    command = _COMMANDS[top["task"]]
    for field in command.needs:
        if top[field] is None:
            raise ScenarioError(f"$.{field}", f"this task requires a {field}")
    scenario.task = _read(raw["task"], "$.task", command.fields, top)
    return scenario
