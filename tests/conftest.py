"""Shared test doubles: stub split contexts, scorers, and stub classifiers."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from hiertsc import TimeSeriesDataset, build_tree, register_classifier_kind


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


class _PeekModel:
    """Perfect-memorisation stub: 1-nearest-neighbour on the first time point.

    Stays perfect under any meta-group relabelling because it matches rows by
    their encoded first value and returns that row's training label.
    """

    def __init__(self, first_points, labels, series_length):
        self._first = np.asarray(first_points, dtype=np.float64)
        self._labels = np.asarray(labels, dtype=np.int64)
        self.class_ids = tuple(int(c) for c in np.unique(self._labels))
        self.series_length = series_length

    def predict(self, values):
        values = np.asarray(values)
        nearest = np.argmin(np.abs(values[:, :1] - self._first[None, :]), axis=1)
        return self._labels[nearest]


class _GroupPeekModel:
    """Binary stub for relabelled group data: 1 iff the encoded class is in
    the group-1 class set."""

    def __init__(self, group1_classes, series_length):
        self.class_ids = (0, 1)
        self.series_length = series_length
        self._group1 = frozenset(group1_classes)

    def predict(self, values):
        values = np.asarray(values)
        raw = np.rint(values[:, 0]).astype(np.int64)
        return np.asarray([1 if r in self._group1 else 0 for r in raw], dtype=np.int64)


class _ConstModel:
    def __init__(self, label, series_length):
        self.class_ids = (int(label),)
        self.series_length = series_length
        self._label = int(label)

    def predict(self, values):
        return np.full(np.asarray(values).shape[0], self._label, dtype=np.int64)


def _fit_peek(spec, data):
    return _PeekModel(data.values[:, 0], data.labels, data.series_length)


def _fit_const0(spec, data):
    return _ConstModel(int(np.min(np.unique(data.labels))), data.series_length)


register_classifier_kind("test-peek", _fit_peek)
register_classifier_kind("test-const-min", _fit_const0)


def classifier_state(model):
    """What a bundle stores of a fitted classifier, for comparing two: the
    node arrays as JSON text (a float's repr keeps its bits), the spec, the
    series length and the kernel bank."""
    return json.dumps(model.to_node_doc(), sort_keys=True), model.spec, model.series_length, model.kernels


def peek_dataset(labels, series_length=6):
    """Dataset whose first time point encodes the class id (for peek stubs)."""
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
