"""One coset table per subgroup, closure by lookup, tables along the discovery tree, and validation only where read."""

import json
from collections import deque

import numpy as np
import pytest

from lplab import (
    Cocycle,
    CosetStructure,
    LpSpace,
    Representation,
    cyclic_group,
    dihedral_group,
    product_group,
    symmetric_group_3,
)
from lplab.cli import bundled_scenario_path, main
from lplab.groups import TableGroup, group_from_permutations
from lplab.lamperti import LampertiIsometry
from lplab.representation import _fixed_basis
from lplab.scenario import parse_scenario
from lplab.tasks import execute

from conftest import count_calls


def _bundled(name):
    return json.loads(bundled_scenario_path(name).read_text())


# -- oracles: the loops the table lookups replace ------------------------------------------------


def loop_cosets(group, elems):
    """(domain, coset_of, chi, routing) by the per-element loops over elements x subgroup."""
    m = group.order
    coset_of = -np.ones(m, dtype=int)
    domain = []
    for g in range(m):
        if coset_of[g] >= 0:
            continue
        members = sorted(group.mult(g, s) for s in elems)
        for h in members:
            assert coset_of[h] < 0
            coset_of[h] = len(domain)
        domain.append(members[0])
    chi = -np.ones(m, dtype=int)
    for g in range(m):
        hits = [s for s in elems if group.mult(g, s) in domain]
        assert len(hits) == 1
        chi[g] = hits[0]
    for g in range(m):
        for s in elems:
            assert chi[group.mult(g, group.inv(s))] == group.mult(s, chi[g])
    sub_index_of = {g: i for i, g in enumerate(elems)}
    routing = {}
    for name in group.generator_names:
        h_inv = group.inv(group.generators[name])
        entries = []
        for d in domain:
            g = group.mult(h_inv, d)
            s = int(chi[g])
            entries.append((sub_index_of[s], int(coset_of[group.mult(g, s)])))
        routing[name] = tuple(entries)
    return tuple(domain), coset_of, chi, routing


def pairwise_table(perms):
    """The table of the permutation group by one product lookup per pair, in discovery order."""
    gens = [np.asarray(p, dtype=int) for p in perms.values()]
    elems, arrays, queue = {tuple(range(len(gens[0]))): 0}, [np.arange(len(gens[0]))], deque([0])
    while queue:
        i = queue.popleft()
        for garr in gens:
            for prod in (arrays[i][garr], garr[arrays[i]]):
                if tuple(prod.tolist()) not in elems:
                    elems[tuple(prod.tolist())] = len(arrays)
                    arrays.append(prod)
                    queue.append(len(arrays) - 1)
    m = len(arrays)
    return np.array([[elems[tuple(arrays[i][arrays[j]].tolist())] for j in range(m)] for i in range(m)])


def all_subgroups(group):
    """Every subgroup as (sorted elements, generators by name), grown one generator at a time from {e}."""
    def close(elems):
        elems = np.unique(elems)
        while True:
            grown = np.unique(group.table[np.ix_(elems, elems)])
            if grown.size == elems.size:
                return tuple(elems.tolist())
            elems = grown

    start = (group.identity,)
    found = {start: {}}
    frontier = [start]
    while frontier:
        elems = frontier.pop()
        for g in range(group.order):
            if g in elems:
                continue
            bigger = close(np.array(elems + (g,)))
            if bigger not in found:
                found[bigger] = {**found[elems], "abcdefgh"[len(found[elems])]: g}
                frontier.append(bigger)
    return sorted(found.items())


GROUPS = {
    "S3": symmetric_group_3(),
    "D4": dihedral_group(4),
    "Z2xZ2": product_group(cyclic_group(2), cyclic_group(2)),
    "S3xS3": product_group(symmetric_group_3(), symmetric_group_3()),
}


# -- one coset table ------------------------------------------------------------------------------


@pytest.mark.parametrize("label", sorted(GROUPS))
def test_coset_table_matches_the_loops_on_every_subgroup(label):
    group = GROUPS[label]
    subgroups = all_subgroups(group)
    assert len(subgroups) == {"S3": 6, "D4": 10, "Z2xZ2": 5, "S3xS3": 60}[label]
    for elems, gens in subgroups:
        cs = CosetStructure(group, elems, gens)
        domain, coset_of, chi, routing = loop_cosets(group, elems)
        assert cs.domain == domain
        assert np.array_equal(cs.coset_of, coset_of)
        assert np.array_equal(cs.chi, chi)
        assert cs.routing == routing
        assert cs.sub_index_of == {g: i for i, g in enumerate(elems)}


@pytest.mark.parametrize("label", ["S3", "D4"])
def test_lookup_closure_agrees_with_grown_closure_on_every_subset(label):
    group = GROUPS[label]
    for mask in range(1 << group.order):
        subset = [g for g in range(group.order) if mask >> g & 1]
        grown = bool(subset) and group.subgroup_closure(subset) == subset
        assert group.is_subgroup(subset) == grown, subset


def test_lookup_closure_refuses_indices_outside_the_group():
    group = symmetric_group_3()
    assert not group.is_subgroup([0, -1])
    assert not group.is_subgroup([0, group.order])


# -- tables along the discovery tree --------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5, 8, 17, 32])
def test_dihedral_table_matches_the_pairwise_fill(n):
    rot, refl = np.roll(np.arange(n), -1), (-np.arange(n)) % n
    group, action = group_from_permutations({"r": rot, "s": refl})
    assert np.array_equal(group.table, pairwise_table({"r": rot, "s": refl}))
    for i in range(group.order):
        for j in range(group.order):
            assert np.array_equal(action[i][action[j]], action[group.mult(i, j)])


@pytest.mark.parametrize("seed", range(12))
def test_random_permutation_group_table_matches_the_pairwise_fill(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 6))
    perms = {name: rng.permutation(n) for name in "abc"[: int(rng.integers(1, 4))]}
    group, _ = group_from_permutations(perms)
    assert np.array_equal(group.table, pairwise_table(perms))


# -- superrigidity reuses the split; residuals are computed where read ----------------------------


@pytest.mark.parametrize(
    "name, mult_below",
    [("induce-sign-z4", 68), ("superrigid-diagonal-s3", 2038), ("superrigid-overlap-d3", 4014)],
)
def test_induction_runs_derive_each_structure_once(name, mult_below):
    raw = _bundled(name)
    reports = []
    counts = count_calls([_fixed_basis, Cocycle.element_values, TableGroup.mult],
                         lambda: reports.append(execute(parse_scenario(raw))))
    assert reports[0].status == "pass"
    assert counts["TableGroup.mult"] < mult_below
    if name.startswith("superrigid"):
        # the split's three canonical complements, primal and dual; the pullback reads Fix(G_i) from the split
        assert counts["_fixed_basis"] == 6
        # the subgroup cocycle's check, its induction and that one's check, the two factor cocycles' checks,
        # and the pullback's two component tables (read at the subgroup generators instead of walking words)
        assert counts["Cocycle.element_values"] == 7


def test_unvalidated_cocycle_extends_only_when_its_residual_is_read():
    group = cyclic_group(5)
    space = LpSpace(5, 3.0)
    rep = Representation(group, space, {"a": LampertiIsometry(np.roll(np.arange(5), 1), np.ones(5), space, space)})
    v = np.random.default_rng(3).standard_normal(5)
    values = {"a": v - rep.operator("a") @ v}  # a coboundary, so a cocycle up to rounding
    lazy = []
    counts = count_calls([Cocycle.element_values], lambda: lazy.append(Cocycle(rep, values, validate=False)))
    assert counts == {"Cocycle.element_values": 0}
    counts = count_calls([Cocycle.element_values], lambda: lazy.append(lazy[0].relator_residual))
    assert counts == {"Cocycle.element_values": 1}
    assert lazy[1] == Cocycle(rep, values).relator_residual


def test_unvalidated_representation_checks_relations_only_when_read():
    group = cyclic_group(3)
    space = LpSpace(3, 2.0)
    swap = {"a": LampertiIsometry([1, 0, 2], [1.0, 1.0, 1.0], space, space)}  # order 2, not 3
    rep = Representation(group, space, swap, validate=False)
    assert "relation_residual" not in vars(rep)
    # a^3 = swap against the identity: permutations differ, so the largest column norm, sqrt 2, of the
    # deviation, whose 2-norm is 2
    assert rep.relation_residual == pytest.approx(np.sqrt(2.0))
    with pytest.raises(ValueError, match="group relations violated: residual at least 1.414e"):
        Representation(group, space, swap)


# -- the validate fields are refused --------------------------------------------------------------


def _run(tmp_path, capsys, raw):
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(raw))
    code = main(["run", str(path)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, captured


def test_representation_validate_field_is_refused(tmp_path, capsys):
    raw = _bundled("cyclic3-gap")
    raw["representation"]["images"]["a"]["map"] = [1, 0, 2]
    code, captured = _run(tmp_path, capsys, raw)
    assert code == 2 and "group relations violated: residual at least 1.414e+00" in captured.err
    raw["representation"]["validate"] = False
    code, captured = _run(tmp_path, capsys, raw)
    assert code == 2 and captured.out == ""
    assert "$.representation.validate" in captured.err


def test_cocycle_validate_field_is_refused(tmp_path, capsys):
    raw = _bundled("swap-cocycle-fixpoint")
    raw["cocycle"]["values"]["s"] = [1.0, 0.0]
    code, captured = _run(tmp_path, capsys, raw)
    assert code == 2 and "cocycle identity violated" in captured.err
    raw["cocycle"]["validate"] = False
    code, captured = _run(tmp_path, capsys, raw)
    assert code == 2 and captured.out == ""
    assert "$.cocycle.validate" in captured.err
