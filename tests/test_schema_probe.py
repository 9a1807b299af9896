"""Hostile input drawn from the scenario schema ends in an exit code, never a traceback.

Each example picks a bundled scenario and one of its objects that the schema
has a table for (the top level, ``space``, the group or a factor by kind,
``representation``, each image by kind, ``cocycle``, the command's task), then
either adds a key the table does not name or sets one of the table's fields,
present or not, to one of eleven hostile values (the last a list one entry
longer than ``MAX_LIST``), and runs ``lplab.cli.main`` in this process.  The
run must return 0, 1 or 2 and print no traceback.  An unknown key exits 2
naming exactly its path; any other exit 2 for invalid input names the probed
field, one that holds it or one inside it, and every other exit 2 is a
refused report.  Derandomized, so the examples are the same on every run.
"""

import contextlib
import io
import json
import re
import traceback

from hypothesis import HealthCheck, given, settings, strategies as st

from lplab import scenario as schema
from lplab.cli import bundled_scenario_path, bundled_scenarios, main

HOSTILE = (None, "abc", -1, 0, 10**7, float("nan"), [], {}, True, 2.5, ["a"] * (schema.MAX_LIST + 1))
UNKNOWN = "no_such_field"
RAWS = {name[: -len(".json")]: json.loads(bundled_scenario_path(name).read_text()) for name in bundled_scenarios()}


def _objects(raw):
    """(key path, table) of every object of ``raw`` that the schema reads with a table."""
    yield (), schema._SCENARIO
    yield ("space",), schema._SPACE
    group = raw["group"]
    yield ("group",), schema._GROUPS[group["kind"]]
    for factor in ("factor1", "factor2"):
        if factor in group:
            yield ("group", factor), schema._FACTORS[group[factor]["kind"]]
    if "representation" in raw:
        yield ("representation",), schema._REPRESENTATION
        for name, image in raw["representation"]["images"].items():
            yield ("representation", "images", name), schema._IMAGES[image["kind"]]
    if "cocycle" in raw:
        yield ("cocycle",), schema._COCYCLE
    yield ("task",), schema._COMMANDS[raw["task"]["command"]].fields


CASES = [(name, keys, tuple(table)) for name, raw in RAWS.items() for keys, table in _objects(raw)]


def _related(named: str, probed: str) -> bool:
    return any(a == b or a.startswith(b + ".") for a, b in ((named, probed), (probed, named)))


@settings(derandomize=True, deadline=None, max_examples=300, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(CASES), data=st.data())
def test_schema_probe(tmp_path, case, data):
    name, keys, fields = case
    field = data.draw(st.sampled_from(fields + (UNKNOWN,)))
    value = 1 if field == UNKNOWN else data.draw(st.sampled_from(HOSTILE))
    raw = json.loads(json.dumps(RAWS[name]))
    node = raw
    for key in keys:
        node = node[key]
    node[field] = value
    probed = ".".join(("$", *keys, field))
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(raw))
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", str(path)])
    except Exception:  # noqa: BLE001 - any escape is the failure this test looks for
        raise AssertionError(f"{name} {probed}={value!r}: {traceback.format_exc()}") from None
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2) and "Traceback" not in err, (name, probed, value, code, err)
    named = re.match(r"invalid input: (\$[^:\s]*)", err)
    if field == UNKNOWN:
        assert code == 2 and named and named.group(1) == probed, (name, probed, err)
    elif code == 2 and err:
        assert named and _related(named.group(1), probed), (name, probed, value, err)
    elif code == 2:
        assert json.loads(out)["status"] == "refused", (name, probed, value, out)
