"""Row-index runs: one featurised run per top-level call, fits and scores on
index arrays into it, and the class-to-group relabel.

The relabel is checked against an ``np.isin`` oracle, sparse class ids
against their densified copy, and the work against counters: datasets built,
kernel transforms run and rows featurised.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiertsc import (
    ClassifierSpec,
    KernelBank,
    TimeSeriesDataset,
    build_tree,
    cli,
    collinear_superclusters,
    fit_lcpn,
    flat_baseline,
    flat_cv,
    nested_cv,
    predict_lcpn,
    save_dataset,
    split_data,
)
from hiertsc import classifiers
from hiertsc.classifiers import Rows, Run

from conftest import CLASS_IDS

LINEAR = ClassifierSpec(kind="linear")
KERNEL = ClassifierSpec(kind="kernel-ridge", num_kernels=16, seed=2)


# -- the relabel helper ------------------------------------------------------------


def isin_sets(labels, idx, sets):
    """Rows of `idx` whose label lies in any of `sets`, the index of the last
    set holding each one and each set's row count, from one np.isin mask per
    set."""
    part = labels[idx]
    masks = [np.isin(part, np.fromiter(s, dtype=np.int64, count=len(s))) for s in sets]
    mark = np.full(part.size, -1)
    for g, mask in enumerate(masks):
        mark[mask] = g
    keep = mark >= 0
    return idx[keep], mark[keep], [int(mask.sum()) for mask in masks]


@settings(max_examples=200, deadline=None)
@given(
    labels=st.lists(CLASS_IDS, min_size=1, max_size=40),
    keep=st.lists(st.booleans(), min_size=40, max_size=40),
    c0=st.frozensets(CLASS_IDS, max_size=5),
    c1=st.frozensets(CLASS_IDS, max_size=5),
)
def test_two_groups_match_the_isin_oracle(labels, keep, c0, c1):
    """A parent's two sides, as a node fit relabels them: group 1 where a
    class is on both, and a zero count for a side with no rows."""
    labels = np.asarray(labels, dtype=np.int64)
    values = np.arange(labels.size * 3, dtype=np.float64).reshape(-1, 3)
    run = Run(values, labels, LINEAR)
    idx = np.flatnonzero(keep[: labels.size])  # ascending; may drop whole classes
    node, counts = Rows(run, idx).grouped((c0, c1))
    want_rows, want_groups, want_counts = isin_sets(labels, idx, (c0, c1))
    assert np.array_equal(node.idx, want_rows)
    assert node.labels.dtype == np.int64
    assert np.array_equal(node.labels, want_groups)
    assert counts == want_counts
    assert np.array_equal(node.feats, values[want_rows])


@settings(max_examples=200, deadline=None)
@given(
    labels=st.lists(CLASS_IDS, min_size=1, max_size=40),
    keep=st.lists(st.booleans(), min_size=40, max_size=40),
    sets=st.lists(st.frozensets(CLASS_IDS, max_size=5), min_size=1, max_size=5),
)
def test_grouped_matches_the_isin_oracle(labels, keep, sets):
    """k class sets, overlapping or not: a class in several sets is labelled
    by the last, and counts in every set holding it.  A second relabelling
    of the same rows, from their stored class counts, is as right."""
    labels = np.asarray(labels, dtype=np.int64)
    values = np.arange(labels.size * 3, dtype=np.float64).reshape(-1, 3)
    run = Run(values, labels, LINEAR)
    idx = np.flatnonzero(keep[: labels.size])
    rows = Rows(run, idx)
    for sets in (sets, sets[::-1]):
        node, counts = rows.grouped(sets)
        want_rows, want_groups, want_counts = isin_sets(labels, idx, sets)
        assert np.array_equal(node.idx, want_rows)
        assert node.labels.dtype == np.int64
        assert np.array_equal(node.labels, want_groups)
        assert counts == want_counts
        assert np.array_equal(node.feats, values[want_rows])


def test_grouped_counts_classes_once_per_row_set(monkeypatch):
    """However often one row set is relabelled, its classes are counted
    once; a subset is a new row set and is counted once more."""
    calls = []
    bincount = np.bincount

    def counted_bincount(*args, **kwargs):
        calls.append(1)
        return bincount(*args, **kwargs)

    monkeypatch.setattr(np, "bincount", counted_bincount)
    labels = np.array([0, 1, 2, 3, 0, 1, 2, 3, 4])
    run = Run(np.zeros((labels.size, 2)), labels, LINEAR)
    rows = Rows(run, np.arange(labels.size))
    for sets in [((0,), (1,)), ((0, 1), (2, 3)), ((4,),), ((1,), (2,), (3,), (4,))]:
        _, counts = rows.grouped(sets)
        assert counts == [int(np.isin(labels, s).sum()) for s in sets]
    assert len(calls) == 1
    part = rows.subset(np.arange(4))
    assert part.grouped(((0, 1), (2,)))[1] == [2, 1]
    assert part.grouped(((3,),))[1] == [1]
    assert len(calls) == 2


def test_two_groups_of_a_subset_compose_the_indices():
    data = collinear_superclusters(n_per_class=5)
    rows = Run.rows_of(data, LINEAR)
    part = rows.subset(np.arange(3, 20, 2))
    node, counts = part.grouped(({0}, {2, 3}))
    want_rows, want_groups, want_counts = isin_sets(data.labels, np.arange(3, 20, 2), ({0}, {2, 3}))
    assert counts == want_counts and 0 not in counts
    assert np.array_equal(node.idx, want_rows)
    assert np.array_equal(node.labels, want_groups)


# -- sparse class ids ----------------------------------------------------------------

SPARSE = np.array([-5, 3, 7, 10**9])


def sparse_copy(data):
    return TimeSeriesDataset(data.values, SPARSE[data.labels])


def to_sparse(tree):
    return build_tree(
        [({int(SPARSE[c]) for c in p.left}, {int(SPARSE[c]) for c in p.right}) for p in tree.parents]
    )


def parent_sets(tree):
    return [(sorted(p.left), sorted(p.right)) for p in tree.parents]


@pytest.mark.parametrize("spec", [LINEAR, KERNEL], ids=["linear", "kernel"])
@pytest.mark.parametrize("scheme", ["nested", "flat"])
def test_sparse_ids_give_the_trees_and_scores_of_their_densified_copy(spec, scheme):
    dense = collinear_superclusters(n_per_class=9, series_length=24, noise=1.5)
    run = {
        "nested": lambda d: nested_cv(d, spec, "srtr", n_iter=3, n_outer=3, n_inner=3),
        "flat": lambda d: flat_cv(d, spec, "srtr", n_iter=3, n_outer=3),
    }[scheme]
    want, got = run(dense), run(sparse_copy(dense))
    assert [parent_sets(to_sparse(f.selected_tree)) for f in want.folds] == [
        parent_sets(f.selected_tree) for f in got.folds
    ]
    for a, b in zip(want.folds, got.folds):
        assert (a.inner_mean_score, a.outer_test_score, a.fc_score) == (
            b.inner_mean_score, b.outer_test_score, b.fc_score
        )
        assert (a.class_balance, a.data_balance) == (b.class_balance, b.data_balance)
    assert max(f.outer_test_score for f in got.folds) < 1.0


@pytest.mark.parametrize("spec", [LINEAR, KERNEL], ids=["linear", "kernel"])
def test_sparse_ids_fit_and_predict_like_their_densified_copy(spec):
    dense = collinear_superclusters(n_per_class=9, series_length=24, noise=1.5)
    tree = build_tree([({0, 3}, {1, 2}), ({0}, {3}), ({1}, {2})])
    unseen = collinear_superclusters(n_per_class=5, series_length=24, noise=1.5, seed=4).values
    want_labels, want_depths = predict_lcpn(fit_lcpn(tree, dense, spec), unseen)
    model = fit_lcpn(to_sparse(tree), sparse_copy(dense), spec)
    labels, depths = predict_lcpn(model, unseen)
    assert np.array_equal(labels, SPARSE[want_labels])
    assert np.array_equal(depths, want_depths)
    assert 0.3 < np.mean(want_labels == np.repeat(np.arange(4), 5)) < 1.0


# -- work counters ---------------------------------------------------------------------


@pytest.fixture
def constructions(monkeypatch):
    """Counts TimeSeriesDataset constructions and ridge solves (one per node
    fit, and one per class set a splitter scores, for all its bipartitions)."""
    counts = {"datasets": 0, "fits": 0}
    post_init, ridge_solve = TimeSeriesDataset.__post_init__, classifiers.ridge_solve

    def counted_post_init(self):
        counts["datasets"] += 1
        post_init(self)

    def counted_ridge_solve(features, targets, gram):
        counts["fits"] += 1
        return ridge_solve(features, targets, gram)

    monkeypatch.setattr(TimeSeriesDataset, "__post_init__", counted_post_init)
    monkeypatch.setattr(classifiers, "ridge_solve", counted_ridge_solve)
    return counts


@pytest.mark.parametrize("n_iter", [1, 4])
def test_nested_cv_builds_datasets_per_fold_not_per_fit(constructions, n_iter):
    data = collinear_superclusters(n_per_class=9, series_length=16, noise=1.5)
    n_outer, n_inner = 3, 3
    nested_cv(data, LINEAR, "potr", n_iter=n_iter, n_outer=n_outer, n_inner=n_inner)
    assert constructions["datasets"] <= n_outer * (n_inner + n_iter)
    assert constructions["fits"] > 2 * n_outer * (n_inner + n_iter)


class TransformSpy:
    """Records the rows of every KernelBank.transform call."""

    def __init__(self, monkeypatch):
        self.batches = []
        transform = KernelBank.transform

        def spy(bank, values):
            self.batches.append(np.array(values))
            return transform(bank, values)

        monkeypatch.setattr(KernelBank, "transform", spy)


def kernel_calls():
    data = collinear_superclusters(n_per_class=6, series_length=16, noise=1.5)
    tree = build_tree([({0, 1}, {2, 3}), ({0}, {1}), ({2}, {3})])
    return data, {
        "nested_cv": lambda: nested_cv(data, KERNEL, "potr", n_iter=2, n_outer=3, n_inner=2),
        "flat_cv": lambda: flat_cv(data, KERNEL, "srtr", n_iter=2, n_outer=3),
        "flat_baseline": lambda: flat_baseline(split_data(data, 3).folds(Run.rows_of(data, KERNEL)), KERNEL),
        "fit_lcpn": lambda: fit_lcpn(tree, data, KERNEL),
    }


@pytest.mark.parametrize("call", ["nested_cv", "flat_cv", "flat_baseline", "fit_lcpn"])
def test_kernel_calls_transform_all_rows_once(monkeypatch, call):
    data, calls = kernel_calls()
    spy = TransformSpy(monkeypatch)
    calls[call]()
    assert len(spy.batches) == 1
    assert np.array_equal(spy.batches[0], data.values)


def test_cli_fit_transforms_all_rows_once(tmp_path, monkeypatch):
    data = collinear_superclusters(n_per_class=6, series_length=16, noise=1.5)
    save_dataset(data, tmp_path / "data.tsv")
    spy = TransformSpy(monkeypatch)
    args = [
        "fit", "--data", str(tmp_path / "data.tsv"), "--classifier", "kernel-ridge",
        "--kernels", "8", "--splitter", "lsoo", "--iters", "2", "--inner-folds", "2",
        "--out", str(tmp_path / "out"),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(args) == 0
    assert len(spy.batches) == 1 and len(spy.batches[0]) == data.n_instances
