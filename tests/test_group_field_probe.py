"""Hostile values in the group fields of every bundled scenario end in an exit code, never a traceback.

For each bundled scenario, each probed leaf (``group.k`` and its first word,
each product factor's ``k``, ``group.rename2`` and each of its entries, and in
the group and each factor the ``table``, ``identity``, ``generators`` and each
generator, and ``relators``, as its kind has them) is set to each of ten
hostile values and the file is run through
``lplab.cli.main`` in this process.  The run must return 0, 1 or 2; an exit 2
for invalid input must name the probed field or a field that holds it, and any
other exit 2 must be a refused report.
"""

import json
import re

import pytest

from lplab.cli import bundled_scenario_path, bundled_scenarios, main

PROBE_VALUES = (None, "abc", -1, 0, 10**7, float("nan"), [], {}, True, 2.5)
SHAPE_FIELDS = {"table": ("table", "identity", "generators"), "permutations": ("generators",),
                "presentation": ("generators", "relators")}


def _leaves(raw):
    """Key paths of the probed group fields of one scenario (``group.k`` is probed even where absent)."""
    group = raw["group"]
    specs = {("group",): group}
    if group["kind"] == "product":
        specs.update({("group", f): group[f] for f in ("factor1", "factor2")})
        yield ("group", "rename2")
        yield from (("group", "rename2", name) for name in group.get("rename2") or {})
    for prefix, spec in specs.items():
        yield prefix + ("k",)
        if spec.get("k"):
            yield prefix + ("k", 0)
        yield from (prefix + (key,) for key in SHAPE_FIELDS.get(spec["kind"], ()))
        if isinstance(spec.get("generators"), dict):
            yield from (prefix + ("generators", name) for name in spec["generators"])


def _set(raw, keys, value):
    node = raw
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value


@pytest.mark.parametrize("name", [n.removesuffix(".json") for n in bundled_scenarios()])
def test_group_field_probe(name, tmp_path, capsys):
    text = bundled_scenario_path(name).read_text()
    path = tmp_path / "probe.json"
    for keys in _leaves(json.loads(text)):
        field = "$." + ".".join(map(str, keys))
        for value in PROBE_VALUES:
            raw = json.loads(text)
            _set(raw, keys, value)
            path.write_text(json.dumps(raw))
            code = main(["run", str(path)])
            out, err = capsys.readouterr()
            assert code in (0, 1, 2), (field, value, code)
            if code == 2 and err:
                named = re.match(r"invalid input: (\$[^:\s]*)", err)
                assert named and field.startswith(named.group(1)), (field, value, err)
            elif code == 2:
                assert json.loads(out)["status"] == "refused", (field, value, out)
