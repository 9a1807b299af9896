"""One scenario schema: unknown keys are refused, every field is read at parse time, flags replace fields.

Covers the typo scenario (misspelled keys ran on their defaults), fields of an
unused method or mode, the --budget flag as an override of the command's
budget field, the size caps and the exponent bound (each refused at its path
before anything is allocated), ``sweep --p`` parsing, and README's task-field
table against the schema.
"""

import json
import re
import time
from pathlib import Path

import pytest

from lplab import scenario as schema
from lplab.cli import bundled_scenario_path, main
from lplab.scenario import MAX_DIM, MAX_P, MAX_SAMPLES, ScenarioError, parse_scenario

README = Path(__file__).resolve().parent.parent / "README.md"


def _bundled(name):
    return json.loads(bundled_scenario_path(name).read_text())


def _edited(name, edits):
    raw = _bundled(name)
    for keys, value in edits.items():
        node = raw
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return raw


def _run(tmp_path, capsys, raw, *flags, command="run"):
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(raw))
    code = main([command, str(path), *flags])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, captured


def _refused_at(tmp_path, capsys, raw, field, *flags):
    code, captured = _run(tmp_path, capsys, raw, *flags)
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"invalid input: {field}:"), captured.err


@pytest.mark.parametrize(("name", "edits", "field"), [
    pytest.param("cyclic3-gap", {("space", "wieghts"): [1.0, 2.0, 3.0], ("spaec",): {}, ("task", "restartz"): 3},
                 "$.spaec", id="typo-scenario"),
    pytest.param("cyclic3-gap", {("space", "wieghts"): [1.0, 2.0, 3.0]}, "$.space.wieghts", id="space"),
    pytest.param("cyclic3-gap", {("task", "restartz"): 3}, "$.task.restartz", id="task"),
    pytest.param("swap-decompose", {("representation", "images", "s", "sign"): [-1.0, 1.0]},
                 "$.representation.images.s.sign", id="image-sign"),
    pytest.param("swap-gap", {("group", "relators"): []}, "$.group.relators", id="table-group"),
    pytest.param("grid-z2xz2-gap", {("group", "factor2", "k_set"): ["b"]}, "$.group.factor2.k_set", id="factor"),
    pytest.param("superrigid-diagonal-s3", {("group", "rename"): {}}, "$.group.rename", id="product"),
    pytest.param("mautner-matrix", {("representation", "isometric"): False}, "$.representation.isometric",
                 id="representation"),
    pytest.param("swap-cocycle-cobound", {("cocycle", "value"): {}}, "$.cocycle.value", id="cocycle"),
    pytest.param("swap-cocycle-fixpoint", {("task", "restarts"): 3}, "$.task.restarts", id="other-command-field"),
])
def test_unknown_key_is_refused_at_its_path(tmp_path, capsys, name, edits, field):
    _refused_at(tmp_path, capsys, _edited(name, edits), field)


def test_unknown_key_message_lists_the_known_fields():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(_edited("modulus-p2", {("task", "budgett"): 3}))
    assert err.value.path == "$.task.budgett"
    assert "['command', 'tol', 'eps_grid', 'budget']" in str(err.value)


@pytest.mark.parametrize(("name", "edits", "field"), [
    pytest.param("swap-cocycle-fixpoint", {("task", "c"): -1}, "$.task.c", id="circumcenter-c"),
    pytest.param("swap-cocycle-fixpoint", {("task", "max_iter"): 2.5}, "$.task.max_iter", id="circumcenter-max-iter"),
    pytest.param("swap-cocycle-fixpoint", {("task", "k"): ["q"]}, "$.task.k", id="circumcenter-k"),
    pytest.param("schoenberg-p15", {("task", "trials"): 0}, "$.task.trials", id="random-trials"),
    pytest.param("schoenberg-p3-search", {("task", "s"): []}, "$.task.s", id="search-s"),
    pytest.param("schoenberg-p3-search", {("task", "n_points"): 1}, "$.task.n_points", id="search-n-points"),
])
def test_fields_of_an_unused_method_or_mode_are_checked(tmp_path, capsys, name, edits, field):
    _refused_at(tmp_path, capsys, _edited(name, edits), field)


def test_task_fields_are_typed_at_parse_time():
    task = parse_scenario(_bundled("swap-cocycle-fm")).task
    assert task["command"] == "fixpoint" and task["method"] == "fisher-margulis"
    assert (task["c"], task["max_iter"], task["tol"], task["k"]) == (0.4, 40, 1e-6, ["s"])
    assert task["x0"].tolist() == [0.0, 0.0]
    assert parse_scenario(_bundled("swap-gap")).task == {"command": "gap", "tol": None, "restarts": 16, "k": ["s"]}


def test_a_bad_task_field_refuses_a_sweep_once(tmp_path, capsys):
    code, captured = _run(tmp_path, capsys, _edited("modulus-p2", {("task", "budget"): 0}), "--p", "1.5,3",
                          command="sweep")
    assert code == 2 and captured.out == ""
    assert captured.err.count("$.task.budget") == 1


def _report(capsys, *argv):
    code = main(["run", *argv])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize(("name", "field", "payload_key"), [
    ("modulus-p2", "budget", None),
    ("schoenberg-p15", "n_configs", "configs"),
])
def test_budget_flag_replaces_the_budget_field(tmp_path, capsys, name, field, payload_key):
    if name == "modulus-p2":
        # budget reaches only the sampled modulus; at p = 1.5 every eps below 2 is sampled, at p = 2 none
        path = tmp_path / "modulus-p15.json"
        path.write_text(json.dumps(_edited(name, {("space", "p"): 1.5})))
        name = str(path)
    _, plain = _report(capsys, name)
    code, flagged = _report(capsys, name, "--budget", "2")
    assert code == 0
    assert flagged["payload"] != plain["payload"]
    assert flagged["provenance"]["budget"] == {field: 2}
    assert "budget" not in plain["provenance"]
    if payload_key:
        assert flagged["payload"][payload_key] == 2


def test_budget_flag_sets_search_trials_and_gap_restarts(capsys):
    assert _report(capsys, "schoenberg-p3-search", "--budget", "7")[1]["payload"]["trials"] == 7
    assert _report(capsys, "klee-p4", "--budget", "3")[1]["provenance"]["budget"] == {"trials": 3}
    assert _report(capsys, "swap-gap", "--budget", "100")[1]["provenance"]["budget"] == {"restarts": 4}
    assert "budget" not in _report(capsys, "swap-decompose", "--budget", "100")[1]["provenance"]


@pytest.mark.parametrize("name", ["modulus-p2", "schoenberg-p15", "schoenberg-p3-search", "klee-p4"])
def test_budget_flag_above_the_field_cap_is_refused_at_the_flag(capsys, name):
    assert main(["run", name, "--budget", str(MAX_SAMPLES + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("invalid input: --budget: must be between 1 and")


# every size field at 10**7, on a bundled scenario that reads it
CAPPED = [
    ("klee-p4", ("space", "dim")),
    ("modulus-p2", ("space", "dim")),
    ("schoenberg-p15", ("space", "dim")),
    ("mautner-matrix", ("task", "n_max")),
    ("mazur-z4", ("task", "n_samples")),
    ("modulus-p2", ("task", "budget")),
    ("schoenberg-p15", ("task", "n_configs")),
    ("schoenberg-p3-search", ("task", "trials")),
    ("klee-p4", ("task", "trials")),
]


@pytest.mark.parametrize(("name", "keys"), CAPPED, ids=[f"{n}-{k[-1]}" for n, k in CAPPED])
def test_size_field_at_ten_million_is_refused_within_a_second(tmp_path, capsys, name, keys):
    t0 = time.perf_counter()
    _refused_at(tmp_path, capsys, _edited(name, {keys: 10**7}), "$." + ".".join(keys))
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize(("name", "keys", "cap"), [(n, k, MAX_DIM if k[-1] == "dim" else MAX_SAMPLES)
                                                   for n, k in CAPPED])
def test_size_field_is_read_up_to_its_cap(name, keys, cap):
    assert parse_scenario(_edited(name, {keys: cap})).task is not None
    with pytest.raises(ScenarioError, match=re.escape(f"$.{'.'.join(keys)}: must be between")):
        parse_scenario(_edited(name, {keys: cap + 1}))


def test_exponent_above_its_bound_is_refused(tmp_path, capsys):
    assert parse_scenario(_edited("modulus-p2", {("space", "p"): MAX_P})).space.p == MAX_P
    _refused_at(tmp_path, capsys, _edited("modulus-p2", {("space", "p"): 400}), "$.space.p")


def test_sweep_cell_above_the_exponent_bound_is_refused(capsys):
    assert main(["sweep", "modulus-p2", "--p", "2,400"]) == 2
    cells = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [cell["status"] for cell in cells] == ["pass", "refused"]
    assert cells[1]["payload"]["error"].startswith("$.space.p: exponent p must be a number in [1, 256]")


@pytest.mark.parametrize("p", ["1.5,abc", "2,,x", "nan,inf,zz"])
def test_sweep_p_that_is_not_a_number_is_refused_at_the_flag(capsys, p):
    assert main(["sweep", "cyclic3-gap", "--p", p]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("invalid input: --p:")


def _readme_task_rows():
    rows = re.findall(r"^\| (`[a-z]+`|every command) \| `([a-z0-9_]+)` \|", README.read_text(), flags=re.M)
    return {(command.strip("`"), field) for command, field in rows}


def test_readme_task_table_lists_exactly_the_schema_fields():
    schema_rows = {(command, field) for command, spec in schema._COMMANDS.items() for field in spec.fields
                   if field not in ("command", "tol")}
    rows = _readme_task_rows()
    assert {row for row in rows if row[0] != "every command"} == schema_rows
    assert {row for row in rows if row[0] == "every command"} == {("every command", "command"),
                                                                  ("every command", "tol")}
