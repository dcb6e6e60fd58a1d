"""A naive reference pipeline for nested and flat CV, for tests only.

It takes the candidate trees from ``evaluation._candidate_trees`` and writes
everything else out plainly, sharing no other private helper of hiertsc:

- folds: each class's rows, classes in ascending order, dealt round-robin;
- a node fit: a fresh dataset of the parent's rows; for ``kernel-ridge`` a
  fresh kernel bank's transform of them, standardised by ``x.mean(0)`` and
  ``x.std(0)``; then ridge on the centred features in the primal, one
  ``np.linalg.solve`` of the f x f system;
- routing: each row on its own, root to leaf, featurised again at every
  node it visits;
- the flat classifier: one such fit per class of the training rows, that
  class (+1) against the rest (-1), or one fit for the first class when
  there are two; each row featurised again and given the class of the
  highest score, ties to the smallest id (of two classes, the second
  where the decision is negative);
- macro-F1: a plain loop over the classes of the truth.

So its decisions agree with the library's to rounding only, and a selected
tree or a score can differ where a decision lies within rounding of zero,
or where two class scores tie within rounding.  :attr:`Oracle.smallest` is
the smallest relative decision the oracle made, ``|d| / (sum_j |z_j w_j| +
|b|)``, or relative gap between the two highest class scores (the gap over
the sum of both scores' such magnitudes), for callers to reject such cases.
"""

from __future__ import annotations

import math

import numpy as np

from hiertsc import KernelBank, TimeSeriesDataset
from hiertsc.classifiers import Run
from hiertsc.evaluation import _candidate_trees
from hiertsc.splitting import resolve_splitter


def stratified_folds(labels: np.ndarray, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(training indices, test indices) of each of k unshuffled folds."""
    fold = np.empty(labels.size, dtype=np.int64)
    for cls in sorted(set(labels.tolist())):
        members = np.flatnonzero(labels == cls)
        fold[members] = np.arange(members.size) % k
    return [(np.flatnonzero(fold != f), np.flatnonzero(fold == f)) for f in range(k)]


def macro_f1(truth, predicted) -> float:
    """Mean over the classes of `truth` of 2tp / (2tp + fp + fn)."""
    classes = sorted(set(truth))
    total = 0.0
    for c in classes:
        tp = sum(t == c and p == c for t, p in zip(truth, predicted))
        fp = sum(t != c and p == c for t, p in zip(truth, predicted))
        fn = sum(t == c and p != c for t, p in zip(truth, predicted))
        total += 2 * tp / (2 * tp + fp + fn)
    return total / len(classes)


class Oracle:
    """Nested and flat CV of `spec` over (values, labels), the naive way."""

    def __init__(self, values: np.ndarray, labels: np.ndarray, spec) -> None:
        self.values, self.labels, self.spec = values, labels, spec
        self.smallest = math.inf

    def featurise(self, values: np.ndarray) -> np.ndarray:
        if self.spec.kind == "linear":
            return values
        bank = KernelBank.generate(values.shape[1], self.spec.num_kernels, self.spec.seed)
        return bank.transform(values)

    def node_fit(self, rows: np.ndarray, left) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """(mean, std, w, b) of the ridge fit of `left` (+1) against the other
        classes (-1) on `rows`."""
        data = TimeSeriesDataset(self.values[rows], self.labels[rows])
        x = self.featurise(data.values)
        mean, std = np.zeros(x.shape[1]), np.ones(x.shape[1])
        if self.spec.kind != "linear":
            mean, std = x.mean(0), x.std(0)
            std[std == 0.0] = 1.0
        z = (x - mean) / std
        y = np.where(np.isin(data.labels, sorted(left)), 1.0, -1.0)
        zc = z - z.mean(0)
        gram = zc.T @ zc + self.spec.ridge_lambda * np.eye(z.shape[1])
        w = np.linalg.solve(gram, zc.T @ (y - y.mean()))
        return mean, std, w, y.mean() - z.mean(0) @ w

    def decision(self, node, series: np.ndarray) -> tuple[float, float]:
        """`node`'s decision d at `series` and its magnitude
        ``sum_j |z_j w_j| + |b|``."""
        mean, std, w, b = node
        terms = (self.featurise(series[None])[0] - mean) / std * w
        return terms.sum() + b, np.abs(terms).sum() + abs(b)

    def decide(self, node, series: np.ndarray) -> float:
        d, size = self.decision(node, series)
        self.smallest = min(self.smallest, abs(d) / size)
        return d

    def flat_score(self, train: np.ndarray, test: np.ndarray) -> float:
        """Macro-F1 on `test` of the flat classifier fit on `train`."""
        classes = sorted(set(self.labels[train].tolist()))
        if len(classes) == 2:
            node = self.node_fit(train, {classes[0]})
            predicted = [classes[1] if self.decide(node, self.values[i]) < 0 else classes[0] for i in test]
            return macro_f1(self.labels[test].tolist(), predicted)
        nodes = [self.node_fit(train, {c}) for c in classes]
        predicted = []
        for i in test:
            scores = [self.decision(node, self.values[i]) for node in nodes]
            order = sorted(range(len(classes)), key=lambda j: -scores[j][0])  # stable: ties keep the smaller id
            (top, top_size), (second, second_size) = scores[order[0]], scores[order[1]]
            self.smallest = min(self.smallest, (top - second) / (top_size + second_size))
            predicted.append(classes[order[0]])
        return macro_f1(self.labels[test].tolist(), predicted)

    def score(self, tree, train: np.ndarray, test: np.ndarray) -> float:
        """Macro-F1 on `test` of `tree`'s LCPN model fit on `train`."""
        nodes = {}
        for parent in tree.parents:
            rows = train[np.isin(self.labels[train], sorted(parent.class_set))]
            nodes[parent.class_set] = (parent, self.node_fit(rows, parent.left))
        predicted = []
        for i in test:
            classes = tree.root_classes
            while len(classes) > 1:
                parent, node = nodes[classes]
                classes = parent.right if self.decide(node, self.values[i]) < 0 else parent.left
            predicted.append(next(iter(classes)))
        return macro_f1(self.labels[test].tolist(), predicted)

    def cv(self, splitter, n_iter: int, n_outer: int, n_inner: int, seed: int) -> list[tuple]:
        """Per outer fold: (nested tree, inner mean, outer score, flat tree,
        flat score, flat classifier score), each tree the first candidate
        with the highest score."""
        out = []
        for ko, (train, test) in enumerate(stratified_folds(self.labels, n_outer)):
            rows = Run.rows_of(TimeSeriesDataset(self.values[train], self.labels[train]), self.spec)
            fresh, _, _ = _candidate_trees(rows, self.spec, resolve_splitter(splitter), n_iter, seed, ko)
            inner = [(train[a], train[b]) for a, b in stratified_folds(self.labels[train], n_inner)]
            inner_scores = [float(np.mean([self.score(t, a, b) for a, b in inner])) for t in fresh]
            flat_scores = [self.score(t, train, test) for t in fresh]
            best = inner_scores.index(max(inner_scores))
            flat_best = flat_scores.index(max(flat_scores))
            outer = self.score(fresh[best], train, test)
            fc = self.flat_score(train, test)
            out.append((fresh[best], inner_scores[best], outer, fresh[flat_best], flat_scores[flat_best], fc))
        return out
