"""Hostile values in the image fields of every bundled scenario end in an exit code, never a traceback.

For each bundled scenario with a representation, each image's ``kind``, its
``perm`` (``lamperti``) or ``map`` (``permutation_action``), its ``signs``
(both, probed even where absent) and its ``entries`` (``matrix``) are set to
each of ten hostile values and the file is run through ``lplab.cli.main`` in
this process.  The run must return 0, 1 or 2; an exit 2 for invalid input
must name the probed field or a field that holds it, and any other exit 2
must be a refused report.
"""

import json
import re

import pytest

from lplab.cli import bundled_scenario_path, bundled_scenarios, main

PROBE_VALUES = (None, "abc", -1, 0, 10**7, float("nan"), [], {}, True, 2.5)
FIELDS = {"lamperti": ("perm", "signs"), "permutation_action": ("map", "signs"), "matrix": ("entries",)}


def _leaves(raw):
    """Key paths of the probed image fields of one scenario."""
    for name, image in raw.get("representation", {}).get("images", {}).items():
        prefix = ("representation", "images", name)
        yield prefix + ("kind",)
        yield from (prefix + (key,) for key in FIELDS[image["kind"]])


def _set(raw, keys, value):
    node = raw
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value


@pytest.mark.parametrize("name", [n.removesuffix(".json") for n in bundled_scenarios()])
def test_image_field_probe(name, tmp_path, capsys):
    text = bundled_scenario_path(name).read_text()
    path = tmp_path / "probe.json"
    for keys in _leaves(json.loads(text)):
        field = "$." + ".".join(keys)
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


@pytest.mark.parametrize(("kind", "key", "value"), [
    ("lamperti", "perm", [1.5, 0]),
    ("lamperti", "perm", [True, False]),
    ("lamperti", "perm", [0, 0]),
    ("lamperti", "signs", [True, True]),
    ("permutation_action", "map", [True, False]),
    ("permutation_action", "map", [1, 1]),
    ("matrix", "entries", [[False, True], [True, False]]),
])
def test_wrong_image_values_are_refused_at_their_field(kind, key, value, tmp_path, capsys):
    raw = json.loads(bundled_scenario_path("swap-decompose").read_text())
    image = {"kind": kind, key: value}
    if kind != "matrix" and key == "signs":
        image["perm"] = [1, 0]
    raw["representation"]["images"]["s"] = image
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"$.representation.images.s.{key}:" in err
