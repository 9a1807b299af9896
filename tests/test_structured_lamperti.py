"""Table-group representations with Lamperti images act as (perm, vals) pairs, equal to the dense products.

Every element operator, cocycle value and residual of a representation whose
images are all signed weighted permutations is checked here against an
independent dense oracle: the BFS products from ``np.eye`` of each image's
own matrix, as the dense path formed them.  The comparisons are bit for bit
(``tobytes``), so a -0.0 for a +0.0 fails too.  The group-order and
list-length caps of the scenario schema are checked at the end.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import count_calls, element_tables_built, table_matrices
from lplab import LpSpace
from lplab.cli import bundled_scenario_path, bundled_scenarios
from lplab.cocycle import Cocycle
from lplab import representation
from lplab.groups import (MAX_ORDER, GroupTooLarge, TableGroup, cyclic_group, dihedral_group,
                          group_from_permutations, product_group)
from lplab.induction import CosetStructure, induce_rep
from lplab.lamperti import LampertiIsometry
from lplab.representation import Representation
from lplab.scenario import MAX_LIST, ScenarioError, parse_scenario
from lplab.tasks import execute

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _scale_raws(seed, tmp_dir):
    """The generated ``scale`` scenarios of the benchmark for ``seed``."""
    sys.path.insert(0, str(BENCH))
    writes = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ in bench/
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = writes
        sys.path.remove(str(BENCH))
    return [op["raws"][0] for op in workloads._build_scale(np.random.default_rng(seed), Path(tmp_dir))]


def _bundled_raws():
    return [json.loads(bundled_scenario_path(name).read_text()) for name in bundled_scenarios()]


def _structured(raws):
    """The parsed scenarios over a table group whose representation has Lamperti images only."""
    scenarios = [parse_scenario(raw) for raw in raws]
    return [s for s in scenarios if isinstance(s.group, TableGroup) and s.representation is not None
            and s.representation.monomial]


@pytest.fixture(scope="module")
def raws(tmp_path_factory):
    raws = _bundled_raws()
    for seed in (1, 2):
        raws += _scale_raws(seed, tmp_path_factory.mktemp(f"scale{seed}"))
    return raws


@pytest.fixture
def structured(raws):
    """Freshly parsed, so that no test sees what another one built."""
    found = _structured(raws)
    assert len(found) >= 20
    return found


# -- the dense oracle ------------------------------------------------------------------------------------------


def dense_letters(rep):
    """Each generator's matrix and its inverse's, from the images themselves."""
    letters = {}
    for name in rep.generator_names:
        image = rep.images[name]
        letters[name], letters[name.upper()] = image.matrix(), image.inverse().matrix()
    return letters


def dense_elements(rep):
    """The BFS products phi(g x) = phi(g) @ rho(x) from np.eye."""
    letters = dense_letters(rep)
    mats = {rep.group.identity: np.eye(rep.space.dim)}
    for g, letter, gx in rep.group.bfs_tree():
        mats[gx] = mats[g] @ letters[letter]
    return mats


def dense_values(coc):
    """The BFS sums c(g x) = c(g) + phi(g) @ c(x), with c(s^-1) = -rho(s)^-1 @ c(s)."""
    rep = coc.rep
    letters, mats = dense_letters(rep), dense_elements(rep)
    step = {}
    for name in rep.generator_names:
        step[name], step[name.upper()] = coc.values[name], -letters[name.upper()] @ coc.values[name]
    vals = {rep.group.identity: np.zeros(rep.space.dim)}
    for g, letter, gx in rep.group.bfs_tree():
        vals[gx] = vals[g] + mats[g] @ step[letter]
    return vals


def dense_relation_residual(rep, norm=lambda dev: np.linalg.norm(dev, 2)):
    """The largest SVD 2-norm (or ``norm``) of phi(g) rho(s) - phi(gs) over the Cayley-graph edges."""
    mats, letters, group = dense_elements(rep), dense_letters(rep), rep.group
    worst = 0.0
    for g, mat in mats.items():
        for name in rep.generator_names:
            dev = mat @ letters[name] - mats[group.mult(g, group.generators[name])]
            if dev.any():
                worst = max(worst, float(norm(dev)))
    return worst


def dense_column_bound(rep):
    """The largest column 2-norm of a dense edge deviation: a lower bound on its SVD 2-norm."""
    return dense_relation_residual(rep, lambda dev: np.max(np.linalg.norm(dev, axis=0)))


def dense_relator_residual(coc):
    rep, group = coc.rep, coc.rep.group
    mats, vals = dense_elements(rep), dense_values(coc)
    worst = 0.0
    for g in range(group.order):
        for name in rep.generator_names:
            dev = mats[g] @ coc.values[name] + vals[g] - vals[group.mult(g, group.generators[name])]
            worst = max(worst, coc.space.norm(dev))
    return worst


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _cocycles(scenario):
    """The scenario's cocycle, or else a coboundary and a random non-cocycle over its representation."""
    if scenario.cocycle is not None:
        return [scenario.cocycle]
    rep, rng = scenario.representation, np.random.default_rng(len(scenario.name))
    v = rng.standard_normal(rep.space.dim)
    values = {name: v - rep.operator(name) @ v for name in rep.generator_names}
    noise = {name: rng.standard_normal(rep.space.dim) for name in rep.generator_names}
    return [Cocycle(rep, values, validate=False), Cocycle(rep, noise, validate=False)]


# -- equivalence on every bundled table-group scenario and on scale seeds 1 and 2 ---------------------------------


def test_element_table_equals_the_dense_products(structured):
    for scenario in structured:
        rep = scenario.representation
        oracle = dense_elements(rep)
        mats = table_matrices(rep)
        assert list(range(len(mats))) == sorted(oracle)
        for g, mat in oracle.items():
            assert _same_bits(mats[g], mat), (scenario.name, g)
        for name, mat in dense_letters(rep).items():
            assert _same_bits(rep.operator(name), mat), (scenario.name, name)


def test_element_images_and_word_operators_equal_the_dense_products(structured):
    rng = np.random.default_rng(11)
    for scenario in structured:
        rep = scenario.representation
        oracle = dense_elements(rep)
        v = rng.standard_normal(rep.space.dim)
        v[::3] = 0.0  # zeros, whose products must come out as +0.0
        images = rep.element_apply(np.arange(rep.group.order), v)
        words = rep.group.element_words()
        for g, mat in oracle.items():
            assert _same_bits(images[g], mat @ v), (scenario.name, g)
            assert _same_bits(rep.operator(words[g]), mat), (scenario.name, g)
            assert _same_bits(rep.apply(words[g], v), mat @ v), (scenario.name, g)


def test_element_values_and_relator_residual_equal_the_dense_oracle(structured):
    for scenario in structured:
        for coc in _cocycles(scenario):
            vals, oracle = coc.element_values(), dense_values(coc)
            assert sorted(vals) == sorted(oracle)
            for g, val in oracle.items():
                assert _same_bits(vals[g], val), (scenario.name, g)
            assert coc.relator_residual == dense_relator_residual(coc), scenario.name


def test_relation_residual_matches_the_svd_norm(structured):
    for scenario in structured:
        rep = scenario.representation
        assert rep.relation_residual == dense_relation_residual(rep), scenario.name


def _shift(n, signs, weights=None, p=3.0):
    space = LpSpace(n, p, weights)
    return space, LampertiIsometry(np.roll(np.arange(n), 1), signs, space, space)


@pytest.mark.parametrize("seed", range(12))
def test_relation_residual_of_broken_images_matches_or_bounds_the_svd_norm(seed):
    # a weighted signed shift with rho(a)^n = -I (equal permutations), or a random permutation (a mismatch)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    signs = rng.choice([-1.0, 1.0], n)
    signs[0] = -np.prod(signs[1:])
    space, image = _shift(n, signs, rng.uniform(0.5, 2.0, n), float(rng.choice([1.5, 3.0, 4.5])))
    if seed % 2:
        image = LampertiIsometry(rng.permutation(n), signs, space, space)
    rep = Representation(cyclic_group(n), space, {"a": image}, validate=False)
    oracle = dense_relation_residual(rep)
    assert oracle > 1e-9
    # the largest |entry| of a monomial deviation is its exact 2-norm, and a mismatch is measured by its
    # largest column norm, a lower bound; the SVD and the column norms may round by an ulp
    eps = 4 * np.finfo(float).eps
    assert rep.relation_residual == pytest.approx(dense_column_bound(rep), rel=eps)
    if seed % 2:
        assert 1e-9 < rep.relation_residual <= oracle * (1.0 + eps)
    else:
        assert rep.relation_residual == pytest.approx(oracle, rel=eps)


@pytest.mark.parametrize("mismatch", [False, True])
def test_broken_cyclic_image_is_refused_with_the_dense_message(mismatch):
    signs = np.ones(6)
    signs[0] = -1.0  # rho(a)^6 = -I
    space, image = _shift(6, signs)
    if mismatch:
        image = LampertiIsometry([1, 2, 3, 0, 4, 5], np.ones(6), space, space)  # order 4, not dividing 6
    rep = Representation(cyclic_group(6), space, {"a": image}, validate=False)
    if mismatch:  # the largest column norm of a dense deviation, a lower bound on its 2-norm
        expected = f"group relations violated: residual at least {dense_column_bound(rep):.3e} > 1e-09"
    else:
        expected = f"group relations violated: residual {dense_relation_residual(rep):.3e} > 1e-09"
    with pytest.raises(ValueError) as info:
        Representation(cyclic_group(6), space, {"a": image})
    assert str(info.value) == expected
    if not mismatch:
        assert expected == "group relations violated: residual 2.000e+00 > 1e-09"


def test_mismatched_reflection_of_d256_is_refused_without_a_dense_matrix():
    # D_256 on l_3^256: the true reflection is accepted; a transposition in its place is refused from the
    # column norms of its mismatched edges, with no dense n x n deviation
    n = 256
    group = dihedral_group(n)
    space = LpSpace(n, 3.0)
    rot = LampertiIsometry(np.roll(np.arange(n), 1), np.ones(n), space, space)
    true, wrong = (-np.arange(n)) % n, np.r_[1, 0, np.arange(2, n)]
    images = {"r": rot, "s": LampertiIsometry(true, np.ones(n), space, space)}
    counts = count_calls([representation._dense], lambda: Representation(group, space, images))
    assert counts == {"_dense": 0}
    images["s"] = LampertiIsometry(wrong, np.ones(n), space, space)
    rep = Representation(group, space, images, validate=False)
    refusals = []

    def refuse():
        with pytest.raises(ValueError, match=r"residual at least 1\.414e\+00 > 1e-09") as info:
            Representation(group, space, images)
        refusals.append(info)

    assert count_calls([representation._dense], refuse) == {"_dense": 0} and refusals
    assert rep.relation_residual == pytest.approx(np.sqrt(2.0), rel=4 * np.finfo(float).eps)


def test_cobound_decompose_and_gap_build_no_dense_element_matrix(structured):
    ran = 0
    for scenario in structured:
        if scenario.task["command"] not in ("cobound", "decompose", "gap"):
            continue
        reports = []
        built = element_tables_built(lambda: reports.append(execute(scenario)))
        assert all(built), scenario.name
        assert isinstance(vars(scenario.representation).get("element_table", ()), tuple)
        ran += 1
    assert ran >= 20


INDUCTION_SCENARIOS = ("induce-sign-z4", "superrigid-diagonal-s3", "superrigid-overlap-d3")


@pytest.mark.parametrize("name", INDUCTION_SCENARIOS)
def test_bundled_inductions_stay_monomial(name):
    scenario = parse_scenario(json.loads(bundled_scenario_path(name).read_text()))
    task = scenario.task
    cs = CosetStructure(scenario.group, task["subgroup"], task["subgroup_generators"])
    rep_sub, _ = scenario.action(cs.subgroup)
    _, rep_g = induce_rep(cs, rep_sub)
    assert rep_sub.monomial and rep_g.monomial
    assert all(isinstance(op, LampertiIsometry) for op in rep_g.images.values())
    reports = []
    built = element_tables_built(lambda: reports.append(execute(scenario)))
    assert built and all(built), built
    assert reports[0].status == "pass"


def test_no_corpus_scenario_builds_a_dense_element_stack():
    # parse and run: every element table of a bundled scenario, of its induced and derived representations, is pairs
    built = element_tables_built(lambda: [execute(parse_scenario(raw)) for raw in _bundled_raws()])
    assert len(built) >= 20 and all(built)


# -- the group-order budget --------------------------------------------------------------------------------------


def _scenario_raw(group):
    return {"name": "capped", "space": {"dim": 2, "p": 3.0}, "group": group, "task": {"command": "klee"}}


_S12_PROBE = """
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))  # an uncapped closure of S12 fails here, not the host
from lplab.groups import GroupTooLarge, group_from_permutations
from lplab.scenario import ScenarioError, parse_scenario
s12 = {"t": [1, 0] + list(range(2, 12)), "c": list(range(1, 12)) + [0]}
start = time.perf_counter()
try:
    group_from_permutations(s12)
    closure = "built"
except GroupTooLarge as exc:
    closure = str(exc)
try:
    parse_scenario(json.loads(sys.argv[1]))
    path = None
except ScenarioError as exc:
    path = exc.path
print(json.dumps({"closure": closure, "path": path, "seconds": time.perf_counter() - start}))
"""


def test_permutation_closure_stops_past_max_order():
    # S12 (479,001,600 elements) from a transposition and a 12-cycle, in a child process with bounded memory
    s12 = {"t": [1, 0] + list(range(2, 12)), "c": list(range(1, 12)) + [0]}
    raw = json.dumps(_scenario_raw({"kind": "permutations", "generators": s12}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", _S12_PROBE, raw], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert "MAX_ORDER" in found["closure"] and found["path"] == "$.group.generators"
    assert found["seconds"] < 1.0
    # a group of exactly MAX_ORDER elements is read
    group, _ = group_from_permutations({"a": list(range(1, MAX_ORDER)) + [0]})
    assert group.order == MAX_ORDER


def test_long_table_is_refused_before_its_entries_are_read():
    rows = [None] * (MAX_ORDER + 1)  # no entry is a list: a read of the entries would refuse its shape instead
    with pytest.raises(ScenarioError, match="MAX_ORDER") as info:
        parse_scenario(_scenario_raw({"kind": "table", "table": rows, "identity": 0, "generators": {"a": 1}}))
    assert info.value.path == "$.group.table"


def test_product_order_is_capped():
    with pytest.raises(GroupTooLarge, match="MAX_ORDER"):
        product_group(cyclic_group(33), cyclic_group(32))
    assert product_group(cyclic_group(32), cyclic_group(32)).order == MAX_ORDER
    factor = {"kind": "table", "table": cyclic_group(33).table.tolist(), "identity": 0, "generators": {"a": 1}}
    with pytest.raises(ScenarioError, match="MAX_ORDER") as info:
        parse_scenario(_scenario_raw({"kind": "product", "factor1": factor, "factor2": factor}))
    assert info.value.path == "$.group"


# -- the table parse as one array --------------------------------------------------------------------------------


def _entrywise(table, path="$.group.table"):
    """The table parse entry by entry, as it was: the refusal of its first bad entry, or the array."""
    from lplab.scenario import _integer

    m = len(table)
    return np.array([[_integer(entry, path, 0, m - 1) for entry in row] for row in table])


@pytest.mark.parametrize("bad", [True, False, 2.5, -1, 3, 10**30, float("nan"), float("inf"), "1", None, [0]])
def test_table_refusals_keep_their_messages(bad):
    table = cyclic_group(3).table.tolist()
    table[1][2] = bad
    with pytest.raises(ScenarioError) as expected:
        _entrywise(table)
    with pytest.raises(ScenarioError) as info:
        parse_scenario(_scenario_raw({"kind": "table", "table": table, "identity": 0, "generators": {"a": 1}}))
    assert info.value.path == "$.group.table" and str(info.value) == str(expected.value)


def test_integral_float_entries_are_read_as_integers():
    table = cyclic_group(4).table.tolist()
    table[2][3] = float(table[2][3])
    raw = _scenario_raw({"kind": "table", "table": table, "identity": 0, "generators": {"a": 1}})
    group = parse_scenario(raw).group
    assert group.table.dtype == _entrywise(table).dtype and np.array_equal(group.table, _entrywise(table))


# -- the list-length cap -----------------------------------------------------------------------------------------


def _bundled(name):
    return json.loads(bundled_scenario_path(f"{name}.json").read_text())


@pytest.mark.parametrize(("name", "field", "item"), [
    ("modulus-p2", "eps_grid", None),
    ("schoenberg-p15", "s", None),
    ("swap-gap", "k", "s"),
    ("commuting-pair-displacement", "k_h", "h"),
])
def test_long_lists_are_refused_at_their_paths(name, field, item):
    def listed(count):
        return [item] * count if item else np.linspace(0.001, 2.0, count).tolist()

    raw = _bundled(name)
    raw["task"][field] = listed(MAX_LIST)
    assert len(parse_scenario(raw).task[field]) == MAX_LIST
    raw["task"][field] = listed(MAX_LIST + 1)
    with pytest.raises(ScenarioError, match="MAX_LIST") as info:
        parse_scenario(raw)
    assert info.value.path == f"$.task.{field}"
