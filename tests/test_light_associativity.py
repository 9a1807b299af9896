"""Light's associativity test in ``TableGroup``, against the m-slice check it replaced.

The table is checked only at the distinct BFS steps a (the generators and
their inverses): the a with (xa)y = x(ay) for all x, y are closed under
products, and the BFS tree writes every element as a product of steps.
"""

import json
from collections import Counter

import numpy as np
import pytest

from lplab import TableGroup, dihedral_group, group_from_permutations, symmetric_group_3
from lplab.cli import bundled_scenario_path, main

NOT_ASSOCIATIVE = "multiplication table is not associative"


def slice_associative(table) -> bool:
    """(ij)k == i(jk) for all triples, one m x m slice per i: the check Light's test replaced."""
    table = np.asarray(table)
    return all(np.array_equal(table[table[i], :], table[i][table]) for i in range(len(table)))


def _bases(rng):
    """(table, identity, generators) of D_n, S_3 and random permutation groups of order at least 3."""
    groups = [dihedral_group(n) for n in (3, 4, 5, 6, 8, 12)] + [symmetric_group_3()]
    while len(groups) < 13:
        n = int(rng.integers(4, 6))
        group, _ = group_from_permutations({"a": rng.permutation(n), "b": rng.permutation(n)})
        if group.order >= 3:
            groups.append(group)
    return [(g.table, g.identity, dict(g.generators)) for g in groups]


def _relabel(table, e, gens, pi):
    """The isomorphic table with element i renamed pi[i]."""
    out = np.empty_like(table)
    out[pi[:, None], pi[None, :]] = pi[table]
    return out, int(pi[e]), {name: int(pi[g]) for name, g in gens.items()}


def _perturb(table, e, gens, rng):
    """One perturbed copy of the table; the identity row and column are kept, so the identity law holds."""
    kind = rng.integers(5)
    if kind == 0:  # an isomorphic relabelling: associative
        return _relabel(table, e, gens, rng.permutation(len(table)))
    table = table.copy()
    inner = [i for i in range(len(table)) if i != e]
    i, j, k = rng.choice(inner, 3, replace=len(inner) < 3)
    if kind == 1:  # swap two entries of one row
        table[i, j], table[i, k] = table[i, k], table[i, j]
    elif kind == 2:  # swap two entries of one column
        table[j, i], table[k, i] = table[k, i], table[j, i]
    elif kind == 3:  # overwrite one entry
        table[i, j] = rng.integers(len(table))
    else:  # swap an intercalate when there is one: the table stays a Latin square
        for a, b, c in zip(*(rng.choice(inner, 200) for _ in range(3))):
            d = int(np.flatnonzero(table[b] == table[a, c])[0])
            if a != b and c != d and d != e and table[a, d] == table[b, c]:
                table[a, c], table[a, d], table[b, c], table[b, d] = table[a, d], table[a, c], table[b, d], table[b, c]
                break
    return table, e, gens


def test_light_test_agrees_with_the_slice_check_on_perturbed_tables():
    rng = np.random.default_rng(2024)
    outcomes = Counter()
    for base in _bases(rng):
        for _ in range(120):
            table, e, gens = _perturb(*base, rng)
            if rng.random() < 0.25:  # a relabelled copy of a perturbed table
                table, e, gens = _relabel(table, e, gens, rng.permutation(len(table)))
            try:
                TableGroup(table, e, gens)
                outcome = "accepted"
            except ValueError as exc:
                outcome = str(exc)
            if outcome == "accepted":
                assert slice_associative(table)
            elif outcome == NOT_ASSOCIATIVE:
                assert not slice_associative(table)
            outcomes[outcome if outcome in ("accepted", NOT_ASSOCIATIVE) else "refused before"] += 1
    assert outcomes["accepted"] + outcomes[NOT_ASSOCIATIVE] >= 1000
    assert outcomes["accepted"] >= 200 and outcomes[NOT_ASSOCIATIVE] >= 500


def test_a_wrong_entry_off_the_steps_is_found():
    group = dihedral_group(8)
    steps = {group.identity} | {g for r in group.generators.values() for g in (r, group.inv(r))}
    i, j, k = [x for x in range(group.order) if x not in steps][:3]
    table = group.table.copy()
    table[i, j], table[i, k] = table[i, k], table[i, j]
    assert not slice_associative(table)
    with pytest.raises(ValueError, match=NOT_ASSOCIATIVE):
        TableGroup(table, group.identity, group.generators)


# Non-associative inputs that also fail a check now made first.  Each was refused as not associative
# before Light's test, and is now refused for its other fault; the scenario path ($.group) is the same.
MAGMA = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
REORDERED = [
    (MAGMA, {"A": 1}, None, "generator names must be single lowercase letters"),
    (MAGMA, {"a": 3}, None, "generator 'a' index out of range"),
    (MAGMA, {"a": 1}, ["b"], "unknown generator symbol 'b' in word 'b'"),
    ([[0, 1, 2], [1, 1, 1], [2, 0, 0]], {"a": 1}, None, "element 1 has no inverse"),
    (MAGMA, {"a": 0}, None, "designated generators do not generate the group"),
]


@pytest.mark.parametrize("table, gens, k_set, message", REORDERED)
def test_the_other_fault_is_reported_first(table, gens, k_set, message):
    assert not slice_associative(table)
    with pytest.raises(ValueError) as info:
        TableGroup(np.array(table), 0, gens, k_set=k_set)
    assert str(info.value) == message


def test_a_reordered_refusal_keeps_its_scenario_path(tmp_path, capsys):
    raw = json.loads(bundled_scenario_path("swap-decompose").read_text())
    raw["group"] = {"kind": "table", "table": REORDERED[3][0], "identity": 0, "generators": {"s": 1}}
    path = tmp_path / "magma.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "$.group" in captured.err and "element 1 has no inverse" in captured.err
