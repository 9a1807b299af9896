import numpy as np
import pytest

from lplab import (
    PresentedGroup,
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
    info = product_group(cyclic_group(2, "a"), cyclic_group(3, "b"))
    g = info["group"]
    assert g.order == 6
    assert sorted(g.generators) == ["a", "b"]
    i, j = 1, 2
    assert info["project"](info["embed1"](i)) == (i, 0)
    assert info["project"](info["embed2"](j)) == (0, j)
    # factors commute
    ab = g.mult(g.generators["a"], g.generators["b"])
    ba = g.mult(g.generators["b"], g.generators["a"])
    assert ab == ba


def test_product_group_renames_clashing_generators():
    info = product_group(cyclic_group(2, "a"), cyclic_group(2, "a"))
    assert len(info["group"].generators) == 2
    assert info["factor1_generators"] == ["a"]
    assert info["factor2_generators"] != ["a"]


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
