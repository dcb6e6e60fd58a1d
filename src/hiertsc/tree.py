"""Binary class hierarchies: structure, balance metrics, similarity, text form.

A hierarchy over a label set C is stored as an ordered collection of parent
nodes, each a disjoint pair of class sets.  The first parent is the root;
every other parent's class set must appear as exactly one child of another
parent, and every class appears as exactly one singleton leaf.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

ClassSet = frozenset[int]


class TreeStructureError(ValueError):
    """Raised when parent pairs do not form a valid rooted binary hierarchy."""


class LabelSpaceMismatchError(ValueError):
    """Raised when an operation pairs objects over different label spaces."""


@dataclass(frozen=True)
class ParentNode:
    """One internal node: a disjoint, non-empty pair of class sets."""

    id: int
    left: ClassSet
    right: ClassSet

    def __post_init__(self) -> None:
        object.__setattr__(self, "left", frozenset(int(c) for c in self.left))
        object.__setattr__(self, "right", frozenset(int(c) for c in self.right))
        if not self.left or not self.right:
            raise TreeStructureError(f"parent {self.id}: empty child set")
        if self.left & self.right:
            raise TreeStructureError(
                f"parent {self.id}: overlapping siblings {sorted(self.left & self.right)}"
            )

    @property
    def class_set(self) -> ClassSet:
        return self.left | self.right


@dataclass(frozen=True)
class HierarchyTree:
    """A rooted binary hierarchy over a flat label set.

    Invariants (checked at construction): the first parent is the root and
    covers the whole label set; there are exactly ``|C| - 1`` parents and
    ``2|C| - 1`` nodes including leaves; each non-root parent hangs off
    exactly one child set of another parent; each class is one leaf.
    """

    parents: tuple[ParentNode, ...]
    root_classes: ClassSet

    def __post_init__(self) -> None:
        parents = tuple(self.parents)
        root_classes = frozenset(int(c) for c in self.root_classes)
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "root_classes", root_classes)
        self._validate()
        index = {p.class_set: i for i, p in enumerate(self.parents)}
        object.__setattr__(self, "_set_index", index)

    def _validate(self) -> None:
        if not self.parents:
            raise TreeStructureError("a hierarchy needs at least one parent node")
        if len(self.root_classes) < 2:
            raise TreeStructureError("label space must contain at least two classes")
        root = self.parents[0]
        if root.class_set != self.root_classes:
            raise TreeStructureError(
                "first parent must cover the full label space (it is the root)"
            )
        if len(self.parents) != len(self.root_classes) - 1:
            raise TreeStructureError(
                f"expected {len(self.root_classes) - 1} parents for "
                f"{len(self.root_classes)} classes, got {len(self.parents)}"
            )
        parent_sets = [p.class_set for p in self.parents]
        if len(set(parent_sets)) != len(parent_sets):
            raise TreeStructureError("duplicate parent class sets")

        child_counts: dict[ClassSet, int] = {}
        for p in self.parents:
            for side in (p.left, p.right):
                child_counts[side] = child_counts.get(side, 0) + 1

        for p in self.parents[1:]:
            n = child_counts.get(p.class_set, 0)
            if n == 0:
                raise TreeStructureError(
                    f"parent {sorted(p.class_set)} is not a child of any other "
                    "parent (multiple roots?)"
                )
            if n > 1:
                raise TreeStructureError(
                    f"class set {sorted(p.class_set)} has more than one parent"
                )
        if child_counts.get(self.root_classes, 0) != 0:
            raise TreeStructureError("the root class set also appears as a child")

        known_parents = set(parent_sets)
        for child, n in child_counts.items():
            if len(child) == 1:
                if n != 1:
                    raise TreeStructureError(
                        f"class {sorted(child)[0]} appears as {n} leaves"
                    )
            elif child not in known_parents:
                raise TreeStructureError(
                    f"class set {sorted(child)} is a child but has no parent node "
                    "(orphaned subtree)"
                )
        for c in self.root_classes:
            if child_counts.get(frozenset((c,)), 0) != 1:
                raise TreeStructureError(f"class {c} never appears as a leaf")

    # -- navigation ------------------------------------------------------

    @property
    def n_classes(self) -> int:
        return len(self.root_classes)

    @property
    def n_nodes(self) -> int:
        """Total node count including leaves (always ``2|C| - 1``)."""
        return 2 * len(self.root_classes) - 1

    def parent_index_of(self, class_set: ClassSet) -> int:
        """Index of the parent node whose class set equals `class_set`."""
        return self._set_index[frozenset(class_set)]

    def leaf_depths(self) -> dict[int, int]:
        """Routing depth of every class: number of parent decisions root->leaf."""
        depths: dict[int, int] = {}
        stack: list[tuple[ClassSet, int]] = [(self.root_classes, 0)]
        while stack:
            class_set, above = stack.pop()
            node = self.parents[self.parent_index_of(class_set)]
            for side in (node.left, node.right):
                if len(side) == 1:
                    depths[next(iter(side))] = above + 1
                else:
                    stack.append((side, above + 1))
        return depths


def build_tree(pairs: Iterable[tuple[Iterable[int], Iterable[int]]]) -> HierarchyTree:
    """Assemble a hierarchy from (left, right) class-set pairs.

    The first pair is the root; parent-child links are implied by set
    inclusion.  Raises TreeStructureError for overlapping siblings, orphaned
    class sets, or multiple roots.
    """
    pair_list = list(pairs)
    if not pair_list:
        raise TreeStructureError("no parent pairs given")
    parents = tuple(
        ParentNode(i, frozenset(int(c) for c in l), frozenset(int(c) for c in r))
        for i, (l, r) in enumerate(pair_list)
    )
    return HierarchyTree(parents=parents, root_classes=parents[0].class_set)


def bipartitions(members: Sequence[int]) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every unordered bipartition of `members` once, in canonical order: the
    first member stays on the first side, the others join it by ascending bitmask."""
    anchor, rest = members[0], members[1:]
    for mask in range(2 ** len(rest) - 1):
        first = [anchor] + [rest[i] for i in range(len(rest)) if mask >> i & 1]
        second = [rest[i] for i in range(len(rest)) if not mask >> i & 1]
        yield tuple(first), tuple(second)


# -- balance metrics -----------------------------------------------------


def class_balance_factor(tree: HierarchyTree) -> float:
    """Signed class-count imbalance over all parents, in [-1, 1].

    Sums ``|right| - |left|`` over parents, normalised by the summed
    ``|right| + |left| - 2``.  Positive means right-heavy.  When every parent
    is a singleton pair the denominator is 0 and the tree is maximally
    balanced; 0 is returned by convention.
    """
    num = sum(len(p.right) - len(p.left) for p in tree.parents)
    den = sum(len(p.right) + len(p.left) - 2 for p in tree.parents)
    return num / den if den else 0.0


def datapoint_balance_factor(tree: HierarchyTree, data) -> float:
    """Signed datapoint-count imbalance over all parents, in [-1, 1].

    Same normalisation as :func:`class_balance_factor` but counting the
    instances routed to each side.  The dataset's label space must equal the
    tree's.
    """
    if frozenset(data.label_space) != tree.root_classes:
        raise LabelSpaceMismatchError(
            f"tree labels {sorted(tree.root_classes)} != data labels {list(data.label_space)}"
        )
    counts = data.class_counts()
    num = 0
    den = 0
    for p in tree.parents:
        left = sum(counts[c] for c in p.left)
        right = sum(counts[c] for c in p.right)
        num += right - left
        den += right + left - 2
    return num / den if den else 0.0


# -- similarity and canonical form ---------------------------------------


def canonical_signature(tree: HierarchyTree) -> frozenset[frozenset[ClassSet]]:
    """The tree's parents as unordered pairs of child sets.

    Each parent hangs off the smallest parent set that holds it, so these
    pairs fix the tree up to sibling swaps and parent order: two trees are
    similar iff their signatures are equal.
    """
    return frozenset(frozenset((p.left, p.right)) for p in tree.parents)


def trees_similar(a: HierarchyTree, b: HierarchyTree) -> bool:
    """True iff the trees contain the same class sets at corresponding parents,
    irrespective of sibling order or within-set order."""
    if a.root_classes != b.root_classes:
        raise LabelSpaceMismatchError("trees are over different label spaces")
    return canonical_signature(a) == canonical_signature(b)


def reflect(tree: HierarchyTree) -> HierarchyTree:
    """Swap left and right at every parent (negates both balance factors)."""
    return build_tree((p.right, p.left) for p in tree.parents)


# -- text form -----------------------------------------------------------

_ID = r"(?:0|-?[1-9][0-9]{0,18})"  # an int64 class id spelled str(id)
_SET = r"\{%s(?:,%s)*\}" % (_ID, _ID)
_PAIR = r"\{%s,%s\}" % (_SET, _SET)
_TREE_TEXT = re.compile(r"\{%s(?:,%s)*\}" % (_PAIR, _PAIR))
_SPACE_BY_MARK = re.compile(r"\s+(?=[{},])|(?<=[{},])\s+")
_CLASS_SET = re.compile(r"\{([^{}]*)\}")


def tree_to_text(tree: HierarchyTree) -> str:
    """Nested-set text form, e.g. ``{{{0},{1,2}},{{1},{2}}}``.

    Set members are emitted sorted by class id; parents keep their stored
    order (root first).
    """

    def fmt_set(s: ClassSet) -> str:
        return "{%s}" % ",".join(map(str, sorted(s)))

    body = ",".join("{%s,%s}" % (fmt_set(p.left), fmt_set(p.right)) for p in tree.parents)
    return "{%s}" % body


def parse_tree_text(text: str) -> HierarchyTree:
    """The tree of a :func:`tree_to_text` text, over the class ids it names.

    Each member must be a class id of at most 19 digits spelled ``str(id)``,
    named once in its set; whitespace next to a brace or a comma is ignored.
    Raises TreeStructureError otherwise, or when the pairs do not form a
    tree.
    """
    compact = _SPACE_BY_MARK.sub("", text)
    if not _TREE_TEXT.fullmatch(compact):
        raise TreeStructureError(f"not a tree text over class ids: {text[:80]!r}")
    sets = [[int(c) for c in members.split(",")] for members in _CLASS_SET.findall(compact)]
    if any(len(set(members)) != len(members) for members in sets):
        raise TreeStructureError(f"a class id repeats within one set: {text[:80]!r}")
    return build_tree(zip(sets[::2], sets[1::2]))
