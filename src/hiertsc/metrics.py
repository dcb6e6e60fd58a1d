"""Classification metrics."""

from __future__ import annotations

import numpy as np


def f1_macro(truth, predicted) -> float:
    """Unweighted mean of per-class F1 over the classes present in `truth`.

    A class with no true positives contributes 0.  Predicted labels outside
    the truth label set count as false positives of their own (ignored)
    class and false negatives of the true one.
    """
    truth = np.asarray(truth)
    predicted = np.asarray(predicted)
    if truth.shape != predicted.shape or truth.ndim != 1:
        raise ValueError("truth and predicted must be 1-D sequences of equal length")
    if truth.size == 0:
        raise ValueError("truth must be non-empty")
    classes = np.unique(truth)
    k = classes.size
    t = np.searchsorted(classes, truth)
    p = np.minimum(np.searchsorted(classes, predicted), k - 1)
    p[classes[p] != predicted] = k  # foreign: a column of its own
    confusion = np.bincount(t * (k + 1) + p, minlength=k * (k + 1)).reshape(k, k + 1)
    return _f1_mean(confusion)


def _f1_mean(confusion: np.ndarray) -> float:
    """Mean per-class F1 of a (k, m >= k) confusion matrix of counts: row i
    holds the rows of true class i, column j < k their predictions as class
    j and any further column predictions of no true class.

    Sums left to right, as np.sum's pairwise order could move low bits.
    """
    k = confusion.shape[0]
    tp = confusion.diagonal()
    denom = confusion.sum(axis=0)[:k] + confusion.sum(axis=1)  # 2tp + fp + fn
    f1 = np.divide(2 * tp, denom, out=np.zeros(k), where=denom > 0)
    total = 0.0
    for value in f1.tolist():
        total += value
    return total / k


def accuracy(truth, predicted) -> float:
    truth = np.asarray(truth)
    predicted = np.asarray(predicted)
    if truth.shape != predicted.shape or truth.ndim != 1:
        raise ValueError("truth and predicted must be 1-D sequences of equal length")
    return float(np.mean(truth == predicted))
