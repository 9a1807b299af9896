"""Finite groups by multiplication table and finitely presented groups.

Generators are named by single lowercase letters; words are strings over
generator letters with uppercase meaning the inverse (``"aB"`` is a * b^-1).
Table-backed groups know all their elements and can express each one as a
word in the designated generators; presented groups are handled through
word balls only.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "invert_word",
    "word_letters",
    "check_word",
    "k_words_of",
    "TableGroup",
    "ProductGroup",
    "PresentedGroup",
    "cyclic_group",
    "dihedral_group",
    "symmetric_group_3",
    "product_group",
    "group_from_permutations",
    "MAX_ORDER",
    "GroupTooLarge",
]

MAX_ORDER = 1024  # group elements, as many as MAX_DIM coordinates; a table holds MAX_ORDER² entries


class GroupTooLarge(ValueError):
    """A group with more than MAX_ORDER elements, refused before its table is built."""


def invert_word(word: str) -> str:
    """Formal inverse of a word: reverse it and swap case."""
    return word[::-1].swapcase()


def word_letters(word: str):
    """Yield (generator_name, is_inverse) pairs for each letter."""
    for ch in word:
        yield ch.lower(), ch.isupper()


def check_word(generators, word: str):
    """Refuse a word with a letter that names none of ``generators`` (in either case)."""
    for name, _ in word_letters(word):
        if name not in generators:
            raise ValueError(f"unknown generator symbol {name!r} in word {word!r}")


def k_words_of(group, k_words=None) -> list:
    """The words of K: ``k_words`` when given, else the group's ``k_set``; an empty K is refused."""
    words = list(group.k_set if k_words is None else k_words)
    if not words:
        raise ValueError("K must be nonempty")
    return words


@dataclass(frozen=True, eq=False)
class PresentedGroup:
    """Finitely presented group: generators, relator words, generating set K."""

    generators: tuple
    relators: tuple
    k_set: tuple

    def __init__(self, generators, relators, k_set=None):
        gens = tuple(generators)
        for g in gens:
            if len(g) != 1 or not g.islower():
                raise ValueError("generator names must be single lowercase letters")
        if len(set(gens)) != len(gens):
            raise ValueError("duplicate generator names")
        rels = tuple(relators)
        for r in rels:
            if not r:
                raise ValueError("relators must be nonempty words")
            check_word(gens, r)
        ks = tuple(k_set) if k_set is not None else gens
        for wkw in ks:
            check_word(gens, wkw)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "relators", rels)
        object.__setattr__(self, "k_set", ks)

    @property
    def generator_names(self):
        return list(self.generators)


@dataclass(frozen=True, eq=False)
class TableGroup:
    """Finite group given by its multiplication table.

    ``table[i, j]`` is the index of the product of elements i and j.
    ``generators`` maps single-letter names to element indices; the named
    generators must generate the whole group.  ``k_set`` is the designated
    finite generating set, as words.
    """

    table: np.ndarray
    identity: int
    generators: dict
    k_set: tuple = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        table = np.asarray(self.table, dtype=int)
        m = table.shape[0]
        if table.shape != (m, m):
            raise ValueError("multiplication table must be square")
        if np.any(table < 0) or np.any(table >= m):
            raise ValueError("table entries out of range")
        e = self.identity
        if not (0 <= e < m):
            raise ValueError("identity index out of range")
        if not (np.array_equal(table[e], np.arange(m)) and np.array_equal(table[:, e], np.arange(m))):
            raise ValueError("identity law fails")
        for name, idx in self.generators.items():
            if len(name) != 1 or not name.islower():
                raise ValueError("generator names must be single lowercase letters")
            if not (0 <= idx < m):
                raise ValueError(f"generator {name!r} index out of range")
        object.__setattr__(self, "table", table)
        # inverses[i] is the first j with ij = e, or -1 when i has no inverse
        is_e = table == e
        object.__setattr__(self, "_inverses", np.where(is_e.any(axis=1), is_e.argmax(axis=1), -1))
        ks = tuple(self.k_set) if self.k_set is not None else tuple(sorted(self.generators))
        for wkw in ks:
            check_word(self.generators, wkw)
        object.__setattr__(self, "k_set", ks)
        object.__setattr__(self, "_tree", self._bfs_tree())
        if len(self._tree) + 1 != m:
            raise ValueError("designated generators do not generate the group")
        # Light's test: the a with (xa)y == x(ay) for all x, y are closed under products, and the
        # tree writes every element as a product of steps, so checking the steps is enough
        gens = list(self.generators.values())
        for a in np.unique(gens + [self.inv(g) for g in gens]):
            if not np.array_equal(table[table[:, a], :], table[:, table[a, :]]):
                raise ValueError("multiplication table is not associative")

    @property
    def order(self) -> int:
        return self.table.shape[0]

    @property
    def generator_names(self):
        return sorted(self.generators)

    def mult(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inv(self, i: int) -> int:
        j = int(self._inverses[i])
        if j < 0:
            raise ValueError(f"element {i} has no inverse")
        return j

    def word_to_element(self, word: str) -> int:
        g = self.identity
        for name, is_inv in word_letters(word):
            h = self.generators[name]
            if is_inv:
                h = self.inv(h)
            g = self.mult(g, h)
        return g

    def _bfs_tree(self) -> tuple:
        """Edges (g, letter, g * letter) of the BFS tree from the identity, in BFS order."""
        seen = {self.identity}
        tree = []
        queue = deque([self.identity])
        steps = [(name, self.generators[name]) for name in self.generator_names]
        steps += [(name.upper(), self.inv(self.generators[name])) for name in self.generator_names]
        while queue:
            g = queue.popleft()
            for letter, h in steps:
                gh = self.mult(g, h)
                if gh not in seen:
                    seen.add(gh)
                    tree.append((g, letter, gh))
                    queue.append(gh)
        return tuple(tree)

    def bfs_tree(self) -> tuple:
        """Spanning tree of the Cayley graph as (parent, letter, child) edges in BFS order.

        Every parent precedes its children, and the word of a child is the
        word of its parent followed by ``letter`` (uppercase = inverse).
        """
        return self._tree

    def element_words(self) -> dict:
        """Shortest word (BFS over the designated generators) for each element."""
        words = {self.identity: ""}
        for g, letter, gh in self._tree:
            words[gh] = words[g] + letter
        return words

    def subgroup_closure(self, elements) -> list:
        """The subgroup ``elements`` generate, sorted: in a finite group, the BFS from e by right multiplication."""
        steps = sorted({int(g) for g in elements})
        seen = {self.identity}
        queue = deque([self.identity])
        while queue:
            for gh in self.table[queue.popleft(), steps].tolist():
                if gh not in seen:
                    seen.add(gh)
                    queue.append(gh)
        return sorted(seen)

    def is_subgroup(self, elements) -> bool:
        """Whether ``elements`` is nonempty and closed under the table (for a finite group, a subgroup)."""
        elems = np.unique(np.asarray(list(elements), dtype=int))
        if elems.size == 0 or elems[0] < 0 or elems[-1] >= self.order:
            return False
        return bool(np.isin(self.table[np.ix_(elems, elems)], elems).all())

    def subgroup(self, elements, generators: dict) -> tuple:
        """(subgroup, index_of) for sorted, closed ``elements`` and ``generators`` (name -> index here).

        ``index_of`` maps an element index of this group to its index in the subgroup.
        """
        elems = np.asarray(elements, dtype=int)
        index_of = {int(g): i for i, g in enumerate(elems)}
        gens = {}
        for name, g in generators.items():
            if g not in index_of:
                raise ValueError(f"subgroup generator {name!r} is not in the subgroup")
            gens[name] = index_of[g]
        table = np.searchsorted(elems, self.table[np.ix_(elems, elems)])
        return TableGroup(table, index_of[self.identity], gens), index_of


def group_from_permutations(perms: dict, k_set=None) -> tuple:
    """Build a TableGroup from generator permutations acting on 0..n-1.

    Returns (group, action) where ``action`` maps each element index to its
    permutation array (composition convention: (pq)(x) = p(q(x))).  The
    closure stops with :class:`GroupTooLarge` as soon as it passes
    MAX_ORDER elements.
    """
    gens = {name: np.asarray(p, dtype=int) for name, p in perms.items()}
    n = len(next(iter(gens.values())))
    elems = {tuple(range(n)): 0}
    arrays = [np.arange(n)]
    # the discovery tree: each new element is (parent, generator, reached on the right); right[name][i] = i g
    tree = []
    right = {name: [] for name in gens}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for name, garr in gens.items():
            for prod, on_right in ((arrays[i][garr], True), (garr[arrays[i]], False)):  # i g, then g i
                key = tuple(prod.tolist())
                if key not in elems:
                    if len(arrays) == MAX_ORDER:
                        raise GroupTooLarge(f"the permutations generate more than MAX_ORDER = {MAX_ORDER} elements")
                    elems[key] = len(arrays)
                    arrays.append(prod)
                    tree.append((i, name, on_right))
                    queue.append(len(arrays) - 1)
                if on_right:
                    right[name].append(elems[key])
    m = len(arrays)
    # column j holds x j for every x: R_g[x i] when j = i g, and (x g) i when j = g i
    right = {name: np.array(col) for name, col in right.items()}
    table = np.empty((m, m), dtype=int)
    table[:, 0] = np.arange(m)
    for j, (i, name, on_right) in enumerate(tree, start=1):
        table[:, j] = right[name][table[:, i]] if on_right else table[right[name], i]
    gen_idx = {name: elems[tuple(arr.tolist())] for name, arr in gens.items()}
    group = TableGroup(table, 0, gen_idx, k_set=k_set)
    return group, {i: arrays[i] for i in range(m)}


def cyclic_group(n: int, name: str = "a") -> TableGroup:
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return TableGroup(table, 0, {name: 1 % n})


def dihedral_group(n: int) -> TableGroup:
    """Dihedral group of order 2n as permutations of the n-gon vertices: r rotation, s reflection."""
    rot = np.roll(np.arange(n), -1)
    refl = (-np.arange(n)) % n
    group, _ = group_from_permutations({"r": rot, "s": refl})
    return group


def symmetric_group_3() -> TableGroup:
    """S3 as permutations of three letters: t a transposition, c a 3-cycle."""
    group, _ = group_from_permutations({"t": [1, 0, 2], "c": [1, 2, 0]})
    return group


@dataclass(frozen=True, eq=False)
class ProductGroup(TableGroup):
    """Direct product G1 x G2 of two table groups, as built by :func:`product_group`.

    Element (i, j) has index i * |G2| + j.  ``factor_orders`` is (|G1|, |G2|)
    and ``factor_generators`` the sorted names of each factor's generators here.
    """

    factor_orders: tuple = (1, 1)
    factor_generators: tuple = ((), ())

    def project(self, g):
        """(i, j) for the element (i, j); elementwise for an index array."""
        return divmod(g, self.factor_orders[1])


def product_group(g1: TableGroup, g2: TableGroup, rename2: dict | None = None) -> ProductGroup:
    """Direct product of two table groups.

    Factor-2 generators are renamed to avoid clashes: ``rename2`` maps each
    of them to a distinct single lowercase letter that names no factor-1
    generator; without it the next free letters are used.  A product of more
    than MAX_ORDER elements is refused with :class:`GroupTooLarge`.
    """
    m1, m2 = g1.order, g2.order
    if m1 * m2 > MAX_ORDER:
        raise GroupTooLarge(f"the product has {m1 * m2} elements, more than MAX_ORDER = {MAX_ORDER}")
    i1, i2 = np.divmod(np.arange(m1 * m2), m2)
    table = g1.table[i1[:, None], i1[None, :]] * m2 + g2.table[i2[:, None], i2[None, :]]
    identity = g1.identity * m2 + g2.identity

    if rename2 is None:
        rename2, used, alphabet = {}, set(g1.generators), iter("abcdefghijklmnopqrstuvwxyz")
        for name in sorted(g2.generators):
            rename2[name] = name if name not in used else next(c for c in alphabet if c not in used)
            used.add(rename2[name])
    elif not (isinstance(rename2, dict) and set(rename2) == set(g2.generators) and all(
            isinstance(new, str) and len(new) == 1 and new.islower() and new not in g1.generators
            for new in rename2.values()) and len(set(rename2.values())) == len(rename2)):
        raise ValueError(f"rename2 must map each of {sorted(g2.generators)} to a distinct single lowercase "
                         f"letter that names no factor-1 generator, got {rename2!r}")
    gens1 = {name: idx * m2 + g2.identity for name, idx in g1.generators.items()}
    gens2 = {rename2[name]: g1.identity * m2 + idx for name, idx in g2.generators.items()}
    return ProductGroup(table, identity, {**gens1, **gens2}, factor_orders=(m1, m2),
                        factor_generators=(tuple(sorted(gens1)), tuple(sorted(gens2))))
