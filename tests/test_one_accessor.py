"""One dense accessor, one K-word rule, the coset representative of the identity, and the closure by BFS.

``Representation.operator(word)`` is the only dense form of a word; a single
vector acts through the letter table (``Representation.apply``), bit for bit
the product with that matrix.  ``groups.k_words_of`` is the one K-word rule.
A table group whose identity is not the smallest element of its coset
induces and runs the superrigidity pipeline like its relabelled twin, and
``TableGroup.subgroup_closure`` reaches what the old pairwise loops reached.
"""

import json

import numpy as np
import pytest

from lplab import representation
from lplab.cli import bundled_scenario_path, bundled_scenarios, main
from lplab.convex import fisher_margulis_iterate
from lplab.gap import kazhdan_gap
from lplab.groups import (TableGroup, cyclic_group, dihedral_group, group_from_permutations, k_words_of,
                          product_group, symmetric_group_3)
from lplab.induction import CosetStructure
from lplab.representation import Representation, indicator_displacement
from lplab.scenario import parse_scenario
from lplab.tasks import execute


def _bundled(name):
    return json.loads(bundled_scenario_path(name).read_text())


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# -- one dense accessor ---------------------------------------------------------------------------


def test_operator_is_the_only_dense_accessor():
    for gone in ("letter_matrices", "generator_matrix", "restriction_matrices"):
        assert not hasattr(Representation, gone), gone
    assert not hasattr(representation, "_stack_fixed_system")


def test_apply_equals_the_operator_product_bit_for_bit():
    rng = np.random.default_rng(5)
    seen = set()
    for file_name in bundled_scenarios():
        scenario = parse_scenario(_bundled(file_name[: -len(".json")]))
        rep = scenario.representation
        if rep is None:
            continue
        seen.add(rep.monomial)
        for letter in rep.letters:
            v = rng.standard_normal(rep.space.dim)
            assert _same_bits(rep.apply(letter, v), rep.operator(letter) @ v), (scenario.name, letter)
    assert seen == {True, False}


# -- one K-word rule ------------------------------------------------------------------------------


def test_every_k_word_default_is_the_group_k_set_and_an_empty_k_is_refused():
    raw = _bundled("swap-cocycle-fm")
    cocycle = parse_scenario(raw).cocycle
    rep = cocycle.rep
    assert k_words_of(rep.group) == list(rep.group.k_set)
    assert k_words_of(rep.group, ("s", "S")) == ["s", "S"]
    x = np.array([0.3, -0.2])
    assert cocycle.max_displacement(x) == cocycle.max_displacement(x, list(rep.group.k_set))
    assert indicator_displacement(rep, [0]) == indicator_displacement(rep, [0], list(rep.group.k_set))
    refusals = [
        lambda: k_words_of(rep.group, []),
        lambda: kazhdan_gap(rep, k_words=[], restarts=2),
        lambda: fisher_margulis_iterate(cocycle, k_words=[], max_iter=2),
        lambda: cocycle.max_displacement(x, []),
        lambda: indicator_displacement(rep, [0], []),
    ]
    for refuse in refusals:
        with pytest.raises(ValueError, match="K must be nonempty"):
            refuse()


# -- the identity represents its own coset --------------------------------------------------------


def _relabel(spec, sigma):
    """A table-group spec with element i renamed sigma[i]."""
    table, sigma = np.asarray(spec["table"]), np.asarray(sigma)
    new = np.empty_like(table)
    new[np.ix_(sigma, sigma)] = sigma[table]
    return {"kind": "table", "table": new.tolist(), "identity": int(sigma[spec["identity"]]),
            "generators": {name: int(sigma[g]) for name, g in spec["generators"].items()}}


def _payload(raw):
    report = execute(parse_scenario(raw))
    return report.status, report.payload


def test_identity_that_is_not_smallest_in_its_coset_induces(tmp_path, capsys):
    raw = {
        "name": "coset-identity-1", "space": {"dim": 1, "p": 3.0},
        "group": {"kind": "table", "table": [[1, 0], [0, 1]], "identity": 1, "generators": {"a": 0}},
        "representation": {"images": {"s": {"kind": "matrix", "entries": [[-1.0]]}}},
        "cocycle": {"values": {"s": [3.0]}},
        "task": {"command": "induce", "subgroup": [0, 1], "subgroup_generators": {"s": 0}},
    }
    path = tmp_path / "coset.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path)]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["status"] == "pass"
    twin = json.loads(json.dumps(raw))
    twin["group"] = _relabel(raw["group"], [1, 0])
    twin["task"]["subgroup_generators"] = {"s": 1}
    assert _payload(raw) == _payload(twin)


def test_coset_domain_holds_the_identity_wherever_it_is_indexed():
    group = _relabel({"table": cyclic_group(4).table, "identity": 0, "generators": {"a": 1}}, [2, 3, 0, 1])
    group = TableGroup(np.array(group["table"]), group["identity"], group["generators"])
    cs = CosetStructure(group, [0, 2], {"s": 0})
    assert group.identity == 2 and cs.domain == (1, 2)
    assert cs.coset_of.tolist() == [1, 0, 1, 0]


def test_relabelled_induce_and_superrigid_runs_pass():
    raw = _bundled("induce-sign-z4")
    sigma = [2, 3, 0, 1]  # the identity becomes 2, in the coset {0, 2}
    twin = json.loads(json.dumps(raw))
    twin["group"] = _relabel(raw["group"], sigma)
    twin["task"]["subgroup"] = sorted(sigma[g] for g in raw["task"]["subgroup"])
    twin["task"]["subgroup_generators"] = {name: sigma[g] for name, g in raw["task"]["subgroup_generators"].items()}
    (status, payload), (twin_status, twin_payload) = _payload(raw), _payload(twin)
    assert status == twin_status == "pass"
    assert [c["ok"] for c in twin_payload["checks"]] == [c["ok"] for c in payload["checks"]]
    for name in ("superrigid-diagonal-s3", "superrigid-overlap-d3"):
        raw = _bundled(name)
        twin = json.loads(json.dumps(raw))
        sigmas = []
        for factor in ("factor1", "factor2"):
            group, _ = group_from_permutations(raw["group"][factor]["generators"])
            sigmas.append(np.roll(np.arange(group.order), 1))  # the identity becomes 1
            spec = {"table": group.table, "identity": group.identity, "generators": group.generators}
            twin["group"][factor] = _relabel(spec, sigmas[-1])

        def moved(g):
            i, j = divmod(g, len(sigmas[1]))
            return int(sigmas[0][i] * len(sigmas[1]) + sigmas[1][j])

        twin["task"]["subgroup"] = sorted(moved(g) for g in raw["task"]["subgroup"])
        twin["task"]["subgroup_generators"] = {k: moved(g) for k, g in raw["task"]["subgroup_generators"].items()}
        assert _payload(raw)[0] == _payload(twin)[0] == "pass", name


# -- the closure is one BFS -----------------------------------------------------------------------


def loop_closure(group, elements):
    """The closure by the pairwise loops the BFS replaces: every product both ways, and every inverse."""
    closure = set(elements)
    closure.add(group.identity)
    frontier = list(closure)
    while frontier:
        g = frontier.pop()
        for h in list(closure):
            for prod in (group.mult(g, h), group.mult(h, g), group.inv(g)):
                if prod not in closure:
                    closure.add(prod)
                    frontier.append(prod)
    return sorted(closure)


def _shifted(group, shift):
    """``group`` with element i renamed (i + shift) mod order, so the identity is not 0."""
    spec = _relabel({"table": group.table, "identity": group.identity, "generators": group.generators},
                    np.roll(np.arange(group.order), shift))
    return TableGroup(np.array(spec["table"]), spec["identity"], spec["generators"])


CLOSURE_GROUPS = {
    "Z10": cyclic_group(10),
    "S3": symmetric_group_3(),
    "D12": dihedral_group(12),
    "S3xZ4": product_group(symmetric_group_3(), cyclic_group(4)),
    "D5 shifted": _shifted(dihedral_group(5), 3),
}


@pytest.mark.parametrize("label", sorted(CLOSURE_GROUPS))
def test_bfs_closure_equals_the_pairwise_loops(label):
    group = CLOSURE_GROUPS[label]
    rng = np.random.default_rng(len(label))
    subsets = [[], [group.identity]] + [rng.choice(group.order, size=k, replace=False).tolist()
                                         for k in (1, 1, 2, 2, 3) for _ in range(6)]
    for subset in subsets:
        closure = group.subgroup_closure(subset)
        assert closure == loop_closure(group, subset), subset
        assert group.is_subgroup(closure)
