"""Binary class hierarchies: structure, balance metrics, similarity, text form.

A hierarchy over a label set C is an ordered collection of parent nodes, each
a disjoint pair of non-empty class sets; the first parent is the root.  One
rule defines it: a walk from the root, following each side of two or more
classes to the parent of that set, reaches every parent.  Sides are strict
subsets of their parent's set, so this puts every class in exactly one leaf.
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

    Invariants (checked at construction, by one walk from the root): the
    first parent covers the label set, no class set is given as two parents,
    each side of two or more classes is another parent's set, and the walk
    reaches every parent.  Sides are disjoint strict subsets of their
    parent's set, so the walk meets each set once and its one-class sides
    partition the label set: ``|C| - 1`` parents, each class one leaf.
    """

    parents: tuple[ParentNode, ...]
    root_classes: ClassSet

    def __post_init__(self) -> None:
        parents = tuple(self.parents)
        root_classes = frozenset(int(c) for c in self.root_classes)
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "root_classes", root_classes)
        if len(root_classes) < 2:
            raise TreeStructureError("label space must contain at least two classes")
        if not parents or parents[0].class_set != root_classes:
            raise TreeStructureError("first parent must cover the full label space (it is the root)")
        index: dict[ClassSet, int] = {}
        for i, p in enumerate(parents):
            if index.setdefault(p.class_set, i) != i:
                raise TreeStructureError(f"class set {sorted(p.class_set)} is given as two parents")
        depths: dict[int, int] = {}
        walk = [(0, 1)]  # (parent index, depth of its sides), grown while it is read
        for i, depth in walk:
            for side in (parents[i].left, parents[i].right):
                if len(side) == 1:
                    depths[min(side)] = depth
                elif side in index:
                    walk.append((index[side], depth + 1))
                else:
                    raise TreeStructureError(f"class set {sorted(side)} is a child but has no parent node")
        if len(walk) < len(parents):
            first = min(set(range(len(parents))) - {i for i, _ in walk})
            raise TreeStructureError(f"parent {sorted(parents[first].class_set)} is not reached from the root")
        object.__setattr__(self, "_set_index", index)
        object.__setattr__(self, "_depths", depths)

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
        return dict(self._depths)


def build_tree(pairs: Iterable[tuple[Iterable[int], Iterable[int]]]) -> HierarchyTree:
    """Assemble a hierarchy from (left, right) class-set pairs.

    The first pair is the root; every other pair hangs off the side of
    another pair that equals its class set.  Raises TreeStructureError unless
    the walk from the root reaches every pair (the one rule, see
    :class:`HierarchyTree`), or for an empty or overlapping side.
    """
    parents = tuple(ParentNode(i, l, r) for i, (l, r) in enumerate(pairs))
    return HierarchyTree(parents, parents[0].class_set if parents else frozenset())


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
    sides = [(sum(counts[c] for c in p.left), sum(counts[c] for c in p.right)) for p in tree.parents]
    num = sum(right - left for left, right in sides)
    den = sum(right + left - 2 for left, right in sides)
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

_ID = r"(?:0|-?[1-9][0-9]{0,18})"  # a class id spelled str(id); parse_tree_text checks the int64 range
_SET = r"\{%s(?:,%s)*\}" % (_ID, _ID)
_PAIR = r"\{%s,%s\}" % (_SET, _SET)
_TREE_TEXT = re.compile(r"\{%s(?:,%s)*\}" % (_PAIR, _PAIR))
_SPACE_BY_MARK = re.compile(r"\s+(?=[{},])|(?<=[{},])\s+")
_CLASS_SET = re.compile(r"\{([^{}]*)\}")
_INT64 = range(-(2**63), 2**63)


def tree_to_text(tree: HierarchyTree) -> str:
    """Nested-set text form, e.g. ``{{{0},{1,2}},{{1},{2}}}``.

    Set members are emitted sorted by class id; parents keep their stored
    order (root first).
    """
    sets = ["{%s}" % ",".join(map(str, sorted(s))) for p in tree.parents for s in (p.left, p.right)]
    return "{%s}" % ",".join("{%s,%s}" % pair for pair in zip(sets[::2], sets[1::2]))


def parse_tree_text(text: str) -> HierarchyTree:
    """The tree of a :func:`tree_to_text` text, over the class ids it names.

    Each member must be an int64 class id (in [-2**63, 2**63 - 1]) spelled
    ``str(id)``, named once in its set; whitespace next to a brace or a comma
    is ignored.  Raises TreeStructureError otherwise, or when the pairs do
    not form a tree.
    """
    compact = _SPACE_BY_MARK.sub("", text)
    if not _TREE_TEXT.fullmatch(compact):
        raise TreeStructureError(f"not a tree text over class ids: {text[:80]!r}")
    sets = [[int(c) for c in members.split(",")] for members in _CLASS_SET.findall(compact)]
    if any(len(set(members)) != len(members) for members in sets):
        raise TreeStructureError(f"a class id repeats within one set: {text[:80]!r}")
    if any(c not in _INT64 for members in sets for c in members):
        raise TreeStructureError(f"a class id is outside int64: {text[:80]!r}")
    return build_tree(zip(sets[::2], sets[1::2]))
