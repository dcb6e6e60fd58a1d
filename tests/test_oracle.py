"""Nested and flat CV against a naive reference pipeline (``oracle.py``):
the same selected trees, and the same scores within 1e-12."""

import numpy as np
from hypothesis import HealthCheck, event, given, reject, settings
from hypothesis import strategies as st

from hiertsc import ClassifierSpec, TimeSeriesDataset, flat_cv, nested_cv
from hiertsc.splitting import SPLITTERS

from oracle import Oracle

#: an example is rejected when the oracle decides a row within this share
#: of the decision's magnitude of zero: there the library's and the
#: oracle's rounding may route it differently
SMALLEST_RELATIVE_DECISION = 1e-8


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n_classes=st.integers(3, 6),
    kind=st.sampled_from(["linear", "kernel-ridge"]),
    num_kernels=st.integers(1, 8),
    splitter=st.sampled_from(sorted(SPLITTERS)),
    n_folds=st.integers(2, 3),
    n_iter=st.integers(1, 4),
    length=st.integers(11, 20),
    noise=st.floats(0.5, 1.5),
    seed=st.integers(0, 2**16),
)
def test_cv_selects_and_scores_as_the_naive_oracle(
    n_classes, kind, num_kernels, splitter, n_folds, n_iter, length, noise, seed
):
    """Every fold's nested tree, inner mean and outer score, flat tree and
    score, and both schemes' flat-classifier score and gain, equal the
    oracle's.  Noisy templates keep scores below 1.0, so a wrong fit or fold
    moves them."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(n_classes), 8)
    values = rng.normal(0.0, 1.0, (n_classes, length))[labels] + rng.normal(0.0, noise, (labels.size, length))
    spec = ClassifierSpec(kind=kind, num_kernels=num_kernels, seed=seed)
    oracle = Oracle(values, labels, spec)
    want = oracle.cv(splitter, n_iter, n_folds, n_folds, seed)
    if oracle.smallest < SMALLEST_RELATIVE_DECISION:
        event("rejected: an oracle decision within rounding of zero")
        reject()
    data = TimeSeriesDataset(values, labels)
    nested = nested_cv(data, spec, splitter, n_iter, n_outer=n_folds, n_inner=n_folds, seed=seed)
    flat = flat_cv(data, spec, splitter, n_iter, n_outer=n_folds, seed=seed)
    assert len(nested.folds) == len(flat.folds) == len(want) == n_folds
    for n, f, (tree, inner_mean, outer_score, flat_tree, flat_score, fc) in zip(nested.folds, flat.folds, want):
        assert n.selected_tree == tree and f.selected_tree == flat_tree
        assert abs(n.inner_mean_score - inner_mean) <= 1e-12
        assert abs(n.outer_test_score - outer_score) <= 1e-12
        assert abs(f.outer_test_score - flat_score) <= 1e-12
        assert abs(n.fc_score - fc) <= 1e-12 and abs(f.fc_score - fc) <= 1e-12
        assert abs(n.delta_g - (outer_score - fc)) <= 1e-12
        assert abs(f.delta_g - (flat_score - fc)) <= 1e-12
