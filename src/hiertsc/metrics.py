"""Classification metrics."""

from __future__ import annotations

import numpy as np


def _pair(truth, predicted) -> tuple[np.ndarray, np.ndarray]:
    truth = np.asarray(truth)
    predicted = np.asarray(predicted)
    if truth.shape != predicted.shape or truth.ndim != 1:
        raise ValueError("truth and predicted must be 1-D sequences of equal length")
    if truth.size == 0:
        raise ValueError("truth must be non-empty")
    return truth, predicted


def f1_macro(truth, predicted) -> float:
    """Unweighted mean of per-class F1 over the classes present in `truth`.

    A class with no true positives contributes 0.  Predicted labels outside
    the truth label set count as false positives of their own (ignored)
    class and false negatives of the true one.
    """
    truth, predicted = _pair(truth, predicted)
    classes = np.unique(truth)
    k = classes.size
    t = np.searchsorted(classes, truth)
    p = np.minimum(np.searchsorted(classes, predicted), k - 1)
    p[classes[p] != predicted] = k  # foreign: a column of its own
    confusion = np.bincount(t * (k + 1) + p, minlength=k * (k + 1)).reshape(k, k + 1)
    denom = confusion.sum(axis=0)[:k] + confusion.sum(axis=1)  # 2tp + fp + fn
    return _f1_mean(confusion.diagonal().tolist(), denom.tolist())


def _f1_mean(tp: list[int], denom: list[int]) -> float:
    """Mean per-class F1 of k classes from each one's true positives and
    its ``2tp + fp + fn``, as Python ints: ``2tp / denom``, or 0 where the
    denominator is 0.

    Each quotient of two exact integers is correctly rounded, and the sum
    runs left to right, as np.sum's pairwise order could move low bits.
    """
    total = 0.0
    for t, d in zip(tp, denom):
        if d:
            total += 2 * t / d
    return total / len(tp)


def accuracy(truth, predicted) -> float:
    truth, predicted = _pair(truth, predicted)
    return float(np.mean(truth == predicted))
