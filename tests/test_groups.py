import numpy as np
import pytest

from lplab import (
    PresentedGroup,
    ProductGroup,
    TableGroup,
    cyclic_group,
    dihedral_group,
    group_from_permutations,
    product_group,
    symmetric_group_3,
)
from lplab.groups import invert_word


def test_cyclic_group_basic():
    g = cyclic_group(4)
    assert g.order == 4
    assert g.mult(1, 3) == 0
    assert g.inv(1) == 3
    assert g.word_to_element("aaa") == 3
    assert g.word_to_element("A") == 3


def test_table_validation_rejects_broken_tables():
    with pytest.raises(ValueError, match="identity law"):
        TableGroup(np.array([[1, 0], [0, 1]]), 0, {"a": 1})
    # left-translation table of a non-associative magma
    bad = np.array([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    with pytest.raises(ValueError, match="associative"):
        TableGroup(bad, 0, {"a": 1})


def test_associativity_checked_on_every_triple():
    # one wrong entry, deep inside the table, is enough to refuse it
    table = dihedral_group(4).table.copy()
    table[5, 6], table[5, 7] = table[5, 7], table[5, 6]
    with pytest.raises(ValueError, match="multiplication table is not associative"):
        TableGroup(table, 0, {"a": 1, "b": 2})


def test_inverses_and_bfs_tree():
    for g in (cyclic_group(5), dihedral_group(4), symmetric_group_3()):
        e = g.identity
        for i in range(g.order):
            assert g.mult(i, g.inv(i)) == e and g.mult(g.inv(i), i) == e
        tree = g.bfs_tree()
        assert len(tree) == g.order - 1
        words = g.element_words()
        reached = {e}
        for parent, letter, child in tree:
            assert parent in reached and child not in reached
            reached.add(child)
            assert words[child] == words[parent] + letter
            assert g.word_to_element(words[child]) == child
    # an associative table with identity whose generator has no inverse
    with pytest.raises(ValueError, match="no inverse"):
        TableGroup(np.array([[0, 1], [1, 1]]), 0, {"a": 1})


def test_generators_must_generate():
    g = cyclic_group(4)
    with pytest.raises(ValueError, match="generate"):
        TableGroup(g.table, 0, {"a": 2})  # <2> has index 2 in Z/4


def test_element_words_are_shortest():
    g = cyclic_group(5)
    words = g.element_words()
    assert words[0] == ""
    assert len(words) == 5
    assert words[4] == "A"  # inverse letter beats aaaa


def test_subgroup_closure():
    g = cyclic_group(6)
    assert g.subgroup_closure([2]) == [0, 2, 4]
    assert g.is_subgroup([0, 3])
    assert not g.is_subgroup([0, 2])  # missing 4


def test_dihedral_and_symmetric():
    d4 = dihedral_group(4)
    assert d4.order == 8
    r, s = d4.generators["r"], d4.generators["s"]
    # s r s = r^-1
    assert d4.mult(d4.mult(s, r), s) == d4.inv(r)
    s3 = symmetric_group_3()
    assert s3.order == 6


def test_group_from_permutations_composition_convention():
    group, action = group_from_permutations({"a": [1, 2, 0]})
    a = group.generators["a"]
    aa = group.mult(a, a)
    assert np.array_equal(action[aa], action[a][action[a]])


def test_product_group_structure():
    g = product_group(cyclic_group(2, "a"), cyclic_group(3, "b"))
    assert g.order == 6
    assert sorted(g.generators) == ["a", "b"]
    a, b = g.generators["a"], g.generators["b"]
    assert g.project(a) == (1, 0)
    assert g.project(g.mult(b, b)) == (0, 2)
    # factors commute
    ab = g.mult(g.generators["a"], g.generators["b"])
    ba = g.mult(g.generators["b"], g.generators["a"])
    assert ab == ba


def test_product_group_renames_clashing_generators():
    info = product_group(cyclic_group(2, "a"), cyclic_group(2, "a"))
    assert len(info.generators) == 2
    assert info.factor_generators[0] == ("a",)
    assert info.factor_generators[1] != ("a",)


@pytest.mark.parametrize("g1, g2", [(cyclic_group(2, "a"), cyclic_group(3, "b")),
                                    (symmetric_group_3(), symmetric_group_3())])
def test_product_group_projects_onto_its_factors(g1, g2):
    g = product_group(g1, g2)
    assert isinstance(g, ProductGroup)
    assert g.factor_orders == (g1.order, g2.order)
    assert g.order == g1.order * g2.order
    f1, f2 = g.factor_generators
    for i in range(g1.order):
        for j in range(g2.order):
            assert g.project(i * g2.order + j) == (i, j)
    for name in f1:
        assert g.project(g.generators[name]) == (g1.generators[name], g2.identity)
    assert sorted(g.project(g.generators[name])[1] for name in f2) == sorted(g2.generators.values())
    # the product law is the factors' laws, coordinatewise
    for x in range(g.order):
        for y in range(g.order):
            (a, b), (c, d) = g.project(x), g.project(y)
            assert g.project(g.mult(x, y)) == (g1.mult(a, c), g2.mult(b, d))


def test_product_of_a_product():
    inner = product_group(cyclic_group(2, "a"), cyclic_group(3, "b"))
    g = product_group(inner, cyclic_group(2, "a"))
    assert isinstance(g, ProductGroup)
    assert g.factor_orders == (6, 2)
    assert g.factor_generators == (("a", "b"), ("c",))
    assert g.project(g.generators["c"]) == (inner.identity, 1)
    assert inner.project(g.project(g.generators["b"])[0]) == (0, 1)


def test_default_rename_skips_letters_a_kept_name_took():
    # factor 2's "a" is kept, so its clashing "b" must not be renamed to "a" as well
    g = product_group(cyclic_group(2, "b"), product_group(cyclic_group(2, "a"), cyclic_group(2, "b")))
    assert g.factor_generators == (("b",), ("a", "c"))
    assert g.order == 8


@pytest.mark.parametrize("rename2", [
    ["u", "d"], "ud", 7, True, {}, {"t": "u"}, {"t": "u", "c": "d", "x": "y"},
    {"t": 1, "c": "d"}, {"t": None, "c": "d"}, {"t": True, "c": "d"}, {"t": "uu", "c": "d"},
    {"t": "U", "c": "d"}, {"t": "", "c": "d"}, {"t": "u", "c": "u"}, {"t": "t", "c": "d"}, {"t": "u", "c": "c"},
])
def test_bad_rename2_refused(rename2):
    s3 = symmetric_group_3()
    with pytest.raises(ValueError, match="rename2 must map each of"):
        product_group(s3, s3, rename2=rename2)


def test_presented_group_validation():
    g = PresentedGroup(["a", "b"], ["abAB"], k_set=["a", "b"])
    assert g.generators == ("a", "b")
    with pytest.raises(ValueError, match="unknown generator"):
        PresentedGroup(["a"], ["ab"])
    with pytest.raises(ValueError, match="nonempty"):
        PresentedGroup(["a"], [""])
    with pytest.raises(ValueError, match="lowercase"):
        PresentedGroup(["A"], [])


def test_invert_word():
    assert invert_word("abC") == "cBA"
    assert invert_word("") == ""
