"""Binary class hierarchies: structure, balance metrics, similarity, text forms.

A hierarchy over a label set C is stored as an ordered collection of parent
nodes, each a disjoint pair of class sets.  The first parent is the root;
every other parent's class set must appear as exactly one child of another
parent, and every class appears as exactly one singleton leaf.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

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
    def root(self) -> ParentNode:
        return self.parents[0]

    @property
    def n_classes(self) -> int:
        return len(self.root_classes)

    @property
    def label_space(self) -> tuple[int, ...]:
        return tuple(sorted(self.root_classes))

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

    def flatten(self) -> list[tuple[ClassSet, ClassSet]]:
        return [(p.left, p.right) for p in self.parents]


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


def _child_order_key(class_set: ClassSet) -> tuple[int, int]:
    return (min(class_set), len(class_set))


def canonical_signature(tree: HierarchyTree) -> bytes:
    """Byte signature invariant under sibling swaps and within-set order.

    Children at every parent are ordered by (smallest member, set size) and
    the tree is serialised pre-order; two trees are similar iff their
    signatures are equal.
    """
    parts: list[str] = []

    def visit(class_set: ClassSet) -> None:
        node = tree.parents[tree.parent_index_of(class_set)]
        first, second = sorted((node.left, node.right), key=_child_order_key)
        parts.append(
            "{%s|%s}"
            % (
                ",".join(map(str, sorted(first))),
                ",".join(map(str, sorted(second))),
            )
        )
        for side in (first, second):
            if len(side) > 1:
                visit(side)

    visit(tree.root_classes)
    return "".join(parts).encode("ascii")


def trees_similar(a: HierarchyTree, b: HierarchyTree) -> bool:
    """True iff the trees contain the same class sets at corresponding parents,
    irrespective of sibling order or within-set order."""
    if a.root_classes != b.root_classes:
        raise LabelSpaceMismatchError("trees are over different label spaces")
    return canonical_signature(a) == canonical_signature(b)


def reflect(tree: HierarchyTree) -> HierarchyTree:
    """Swap left and right at every parent (negates both balance factors)."""
    return build_tree((p.right, p.left) for p in tree.parents)


# -- text and JSON forms --------------------------------------------------


def tree_to_text(tree: HierarchyTree, id_to_label: Mapping[int, str] | None = None) -> str:
    """Nested-set text form, e.g. ``{{{0},{1,2}},{{1},{2}}}``.

    Set members are emitted sorted by class id; parents keep their stored
    order (root first).
    """

    def token(c: int) -> str:
        return id_to_label[c] if id_to_label is not None else str(c)

    def fmt_set(s: ClassSet) -> str:
        return "{%s}" % ",".join(token(c) for c in sorted(s))

    body = ",".join("{%s,%s}" % (fmt_set(p.left), fmt_set(p.right)) for p in tree.parents)
    return "{%s}" % body


def parse_tree_text(text: str) -> tuple[HierarchyTree, dict[int, str]]:
    """Parse the nested-set text form.

    Returns the tree over dense integer ids plus the id -> original-token
    map, with ids assigned by :func:`token_ids`.  Whitespace between tokens
    and braces is ignored.
    """
    tokens = _lex(text)
    pairs_raw, pos = _parse_outer(tokens, 0)
    if pos != len(tokens):
        raise TreeStructureError(f"trailing content after tree text: {tokens[pos:]}")
    to_id = token_ids(t for pair in pairs_raw for side in pair for t in side)
    pairs = [
        (frozenset(to_id[t] for t in left), frozenset(to_id[t] for t in right))
        for left, right in pairs_raw
    ]
    return build_tree(pairs), {i: name for name, i in to_id.items()}


def token_ids(tokens: Iterable[str]) -> dict[str, int]:
    """Dense class ids 0..k-1 for the distinct label tokens, in sorted order:
    tokens that parse as numbers first, by value, then those that parse as
    NaN, then the rest as text.  So {'10', '9', 'nan', 'a'} gives
    {'9': 0, '10': 1, 'nan': 2, 'a': 3}, whatever the input order."""
    return {token: i for i, token in enumerate(sorted(set(tokens), key=_token_sort_key))}


def _token_sort_key(token: str):
    """Numbers by value, then NaN spellings, then the other tokens; ties in
    text order.  NaN has no place among the numbers, so it gets its own."""
    try:
        value = float(token)
    except ValueError:
        return (2, 0.0, token)
    return (1, 0.0, token) if math.isnan(value) else (0, value, token)


def _lex(text: str) -> list[str]:
    out: list[str] = []
    word = []
    for ch in text:
        if ch in "{},":
            if word:
                out.append("".join(word).strip())
                word = []
            out.append(ch)
        elif ch.isspace():
            if word:
                out.append("".join(word).strip())
                word = []
        else:
            word.append(ch)
    if word:
        out.append("".join(word).strip())
    return out


def _expect(tokens: list[str], pos: int, want: str) -> int:
    if pos >= len(tokens) or tokens[pos] != want:
        got = tokens[pos] if pos < len(tokens) else "<end>"
        raise TreeStructureError(f"expected '{want}' at token {pos}, got '{got}'")
    return pos + 1


def _parse_set(tokens: list[str], pos: int) -> tuple[tuple[str, ...], int]:
    pos = _expect(tokens, pos, "{")
    members: list[str] = []
    while True:
        if pos >= len(tokens):
            raise TreeStructureError("unterminated class set")
        if tokens[pos] == "}":
            return tuple(members), pos + 1
        if tokens[pos] == ",":
            pos += 1
            continue
        if tokens[pos] == "{":
            raise TreeStructureError("unexpected nested set inside a class set")
        members.append(tokens[pos])
        pos += 1


def _parse_pair(tokens: list[str], pos: int):
    pos = _expect(tokens, pos, "{")
    left, pos = _parse_set(tokens, pos)
    pos = _expect(tokens, pos, ",")
    right, pos = _parse_set(tokens, pos)
    pos = _expect(tokens, pos, "}")
    return (left, right), pos


def _parse_outer(tokens: list[str], pos: int):
    pos = _expect(tokens, pos, "{")
    pairs = []
    while True:
        if pos >= len(tokens):
            raise TreeStructureError("unterminated tree text")
        if tokens[pos] == "}":
            return pairs, pos + 1
        if tokens[pos] == ",":
            pos += 1
            continue
        pair, pos = _parse_pair(tokens, pos)
        pairs.append(pair)


def tree_to_json_dict(
    tree: HierarchyTree, id_to_label: Mapping[int, str] | None = None
) -> dict:
    def side(s: ClassSet) -> list:
        if id_to_label is not None:
            return [id_to_label[c] for c in sorted(s)]
        return sorted(s)

    return {"parents": [{"left": side(p.left), "right": side(p.right)} for p in tree.parents]}


def tree_from_json_dict(doc: Mapping) -> HierarchyTree:
    pairs = [(list(pair["left"]), list(pair["right"])) for pair in doc["parents"]]
    members = [m for left, right in pairs for m in (*left, *right)]
    if all(isinstance(m, int) for m in members):
        return build_tree(pairs)
    # label tokens instead of ids: densify exactly like the text form
    to_id = token_ids(str(m) for m in members)
    return build_tree(
        ([to_id[str(m)] for m in left], [to_id[str(m)] for m in right])
        for left, right in pairs
    )


def tree_to_json(tree: HierarchyTree, id_to_label: Mapping[int, str] | None = None) -> str:
    return json.dumps(tree_to_json_dict(tree, id_to_label), sort_keys=True)


def tree_from_json(text: str) -> HierarchyTree:
    return tree_from_json_dict(json.loads(text))
