"""Shared test doubles and data: stub split contexts, scorers, random trees,
and small datasets with known structure."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import strategies as st

from hiertsc import TimeSeriesDataset, build_tree

#: Sparse int64 class ids, both extremes included.
CLASS_IDS = st.sampled_from([-(2**63), -(10**12), -5, -1, 0, 3, 7, 10**9, 10**12, 2**63 - 1])


class StubContext:
    """Duck-typed stand-in for SplitContext: a scorer plus a seeded rng."""

    def __init__(self, scorer, seed=0, label_space=()):
        self._scorer = scorer
        self.rng = np.random.default_rng(seed)
        self.label_space = tuple(label_space)
        self.calls = 0

    def score(self, c0, c1):
        self.calls += 1
        return self._scorer(frozenset(c0), frozenset(c1))


def target_scorer(side_a, side_b):
    """Graded scorer peaking at the bipartition {side_a, side_b}.

    Score is 1 minus the set distance of c0 to the nearest target side, so
    every non-optimal state has a strictly improving single move.
    """
    a = frozenset(side_a)
    b = frozenset(side_b)
    n = len(a | b)

    def score(c0, c1):
        return 1.0 - min(len(c0 ^ a), len(c0 ^ b)) / n

    return score


def flat_target_scorer(side_a, side_b, floor=0.3):
    """1.0 at the target bipartition, a constant everywhere else."""
    target = {frozenset(side_a), frozenset(side_b)}

    def score(c0, c1):
        return 1.0 if {c0, c1} == target else floor

    return score


def hash_scorer(seed=0):
    """Deterministic pseudo-random score per unordered bipartition, in (0, 1)."""

    def score(c0, c1):
        key = tuple(sorted((tuple(sorted(c0)), tuple(sorted(c1)))))
        digest = hashlib.blake2b(repr((seed, key)).encode(), digest_size=8).digest()
        return (int.from_bytes(digest, "big") + 1) / (2**64 + 2)

    return score


def random_tree(labels, rng):
    """Uniform-ish random hierarchy built by recursive random bipartitions.

    Independent of the package's own tree construction, for use as an oracle
    in property tests.
    """
    labels = sorted(labels)

    def split(members):
        if len(members) == 1:
            return []
        while True:
            mask = int(rng.integers(1, 2 ** len(members) - 1))
            first = [m for i, m in enumerate(members) if mask >> i & 1]
            second = [m for i, m in enumerate(members) if not mask >> i & 1]
            if first and second:
                break
        return [(frozenset(first), frozenset(second))] + split(first) + split(second)

    return build_tree(split(labels))


def classifier_state(model):
    """Everything a fitted classifier holds, for comparing two: its class
    ids and the bytes of its weights and intercepts."""
    return model.class_ids, (model.weights.tobytes(), model.intercepts.tobytes())


def node_state(model, i):
    """:func:`classifier_state` of parent i's decision in an LCPN model: a
    two-class classifier, class ids (0, 1), holding row i of the model."""
    return (0, 1), (model.weights[i : i + 1].tobytes(), model.intercepts[i : i + 1].tobytes())


def peek_dataset(labels, series_length=6):
    """Dataset whose first time point is the class id; the second varies
    within a class, so rows rarely repeat."""
    labels = np.asarray(labels, dtype=np.int64)
    values = np.zeros((labels.size, series_length))
    values[:, 0] = labels
    values[:, 1] = np.arange(labels.size) % 7  # de-duplicate rows
    return TimeSeriesDataset(values, labels)


def orthogonal_dataset(n_per_class=12, n_classes=3, block=4, noise=0.01, seed=0):
    """Each class has its own signal block: trivially separable one-vs-rest."""
    rng = np.random.default_rng(seed)
    m = block * n_classes
    blocks, labels = [], []
    for cls in range(n_classes):
        rows = rng.normal(0.0, noise, size=(n_per_class, m))
        rows[:, cls * block : (cls + 1) * block] += 10.0
        blocks.append(rows)
        labels.append(np.full(n_per_class, cls, dtype=np.int64))
    return TimeSeriesDataset(np.vstack(blocks), np.concatenate(labels))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def fig_tree():
    """The worked 5-class example tree: root {1,4} | {0,2,3}, etc."""
    return build_tree([({1, 4}, {0, 2, 3}), ({3}, {2, 0}), ({1}, {4}), ({2}, {0})])


def separable_dataset(
    n_per_class=12, n_classes=3, series_length=8, spread=8.0, noise=0.02, seed=0
):
    """Well-separated constant-level classes; every binary grouping is an easy
    threshold for the linear classifier."""
    rng = np.random.default_rng(seed)
    blocks, labels = [], []
    for cls in range(n_classes):
        rows = cls * spread + rng.normal(0.0, noise, size=(n_per_class, series_length))
        blocks.append(rows)
        labels.append(np.full(n_per_class, cls, dtype=np.int64))
    return TimeSeriesDataset(np.vstack(blocks), np.concatenate(labels))
