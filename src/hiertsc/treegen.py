"""Top-down tree construction, duplicate management, and distinct-tree counts."""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator

from .splitting import resolve_splitter
from .tree import ClassSet, HierarchyTree, ParentNode, build_tree, canonical_signature

MAX_COUNT_CLASSES = 20
HARD_TREE_LIMIT = 10**6


def grow_tree(ctx, splitter) -> HierarchyTree:
    """Divisive construction of a binary hierarchy over the context's labels.

    Starting from the full label set, repeatedly pops the largest pending
    class set (ties by insertion order) and bipartitions it with `splitter`;
    two-member sets become parents directly without a splitter call.  The
    pop order is monotone in set size, so the root is always first.
    """
    split_fn = resolve_splitter(splitter)
    label_space = frozenset(int(c) for c in ctx.label_space)
    if len(label_space) < 2:
        raise ValueError("need at least two classes to build a hierarchy")

    counter = itertools.count()
    heap: list[tuple[int, int, ClassSet]] = []

    def push(class_set: ClassSet) -> None:
        heapq.heappush(heap, (-len(class_set), next(counter), class_set))

    push(label_space)
    parents: list[ParentNode] = []
    while heap:
        _, _, class_set = heapq.heappop(heap)
        if len(class_set) == 2:
            lo, hi = sorted(class_set)
            left, right = frozenset((lo,)), frozenset((hi,))
        else:
            outcome = split_fn(ctx, class_set)
            left, right = outcome.c0, outcome.c1
        parents.append(ParentNode(len(parents), left, right))
        for side in (left, right):
            if len(side) >= 2:
                push(side)
    return HierarchyTree(parents=tuple(parents), root_classes=label_space)


# -- distinct-tree counting ------------------------------------------------


def _check_count_range(n_classes: int) -> None:
    if not 2 <= n_classes <= MAX_COUNT_CLASSES:
        raise ValueError(
            f"distinct-tree counts are supported for 2..{MAX_COUNT_CLASSES} classes, "
            f"got {n_classes}"
        )


@lru_cache(maxsize=None)
def _count(n: int) -> int:
    if n == 1:
        return 1
    total = 0
    for a in range(n // 2 + 1, n):
        total += comb(n, a) * _count(a) * _count(n - a)
    if n % 2 == 0:
        half = n // 2
        total += comb(n, half) * _count(half) ** 2 // 2
    return total


def count_distinct_trees(n_classes: int) -> int:
    """Number of similarity-distinct binary hierarchies over n classes.

    Each root bipartition into subsets of sizes (a, n-a) contributes the
    product of the sub-counts on both sides; equal-size bipartitions are
    halved to avoid double counting.  Equals (2n-3)!!.
    """
    _check_count_range(n_classes)
    return _count(n_classes)


@lru_cache(maxsize=None)
def _count_one_sided(n: int) -> int:
    if n == 1:
        return 1
    total = 0
    for k in range(n // 2 + 1, n):
        total += comb(n, k) * _count_one_sided(k)
    if n % 2 == 0:
        half = n // 2
        total += comb(n, half) * _count_one_sided(half) // 2
    return total


def count_distinct_trees_one_sided(n_classes: int) -> int:
    """Diagnostic variant that recurses into only the larger subset of each
    bipartition.  Undercounts from 6 classes on (885 versus 945 at 6); kept
    so reports can surface both figures."""
    _check_count_range(n_classes)
    return _count_one_sided(n_classes)


def double_factorial_trees(n_classes: int) -> int:
    """(2n-3)!! — the closed form for the distinct-tree count."""
    _check_count_range(n_classes)
    result = 1
    for k in range(2 * n_classes - 3, 1, -2):
        result *= k
    return result


def default_tree_limit(n_classes: int) -> int:
    """Distinct-tree cap used to stop candidate generation early."""
    if n_classes > MAX_COUNT_CLASSES:
        return HARD_TREE_LIMIT
    return min(count_distinct_trees(n_classes), HARD_TREE_LIMIT)


# -- exhaustive enumeration (oracle for the counts) -------------------------


def _bipartitions(members: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All unordered bipartitions, anchor member fixed on the first side."""
    anchor, rest = members[0], members[1:]
    for mask in range(2 ** len(rest) - 1):
        first = [anchor] + [rest[i] for i in range(len(rest)) if mask >> i & 1]
        second = [rest[i] for i in range(len(rest)) if not mask >> i & 1]
        yield tuple(first), tuple(second)


def _hierarchies(members: tuple[int, ...]) -> Iterator[list[tuple[tuple, tuple]]]:
    if len(members) == 1:
        yield []
        return
    for first, second in _bipartitions(members):
        for below_first in _hierarchies(first):
            for below_second in _hierarchies(second):
                yield [(first, second), *below_first, *below_second]


def enumerate_distinct_trees(classes: Iterable[int]) -> Iterator[HierarchyTree]:
    """Yield every similarity-distinct hierarchy over `classes` exactly once.

    Intended as a small-n oracle; the yield count is (2n-3)!!.
    """
    members = tuple(sorted(int(c) for c in classes))
    if len(members) < 2:
        raise ValueError("need at least two classes")
    for pairs in _hierarchies(members):
        yield build_tree(pairs)


# -- duplicate handling and iteration limits --------------------------------


class CheckResult(enum.Enum):
    FRESH = "fresh"
    DUPLICATE = "duplicate"
    LIMIT_REACHED = "limit_reached"


@dataclass
class TreeSearchState:
    """Mutable record of the distinct trees met during candidate generation."""

    limit: int
    seen: set[bytes] = field(default_factory=set)

    @property
    def distinct_count(self) -> int:
        return len(self.seen)

    @property
    def at_limit(self) -> bool:
        return len(self.seen) >= self.limit


def check_duplicates_and_limit(state: TreeSearchState, tree: HierarchyTree) -> CheckResult:
    """Admit `tree` if its similarity class is new and the limit allows it.

    FRESH inserts the canonical signature; DUPLICATE means the caller should
    skip re-evaluation; LIMIT_REACHED means candidate generation should stop.
    """
    if state.at_limit:
        return CheckResult.LIMIT_REACHED
    signature = canonical_signature(tree)
    if signature in state.seen:
        return CheckResult.DUPLICATE
    state.seen.add(signature)
    return CheckResult.FRESH
