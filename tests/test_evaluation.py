"""Metrics, fold plans, the flat baseline, and both CV protocols."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiertsc import (
    ClassifierSpec,
    CvReport,
    TimeSeriesDataset,
    f1_macro,
    flat_baseline,
    flat_cv,
    nested_cv,
    split_data,
)
from hiertsc.cli import main
from hiertsc.dataset import collinear_superclusters
from hiertsc.evaluation import (
    FoldFeasibilityError,
    _candidate_trees,
    inner_fold_scorer,
    select_tree,
)
from hiertsc.io import load_dataset, save_dataset
from hiertsc.metrics import _f1_mean, accuracy
from hiertsc.splitting import _group_f1, resolve_splitter
from hiertsc.tree import tree_to_text

from conftest import orthogonal_dataset, peek_dataset, separable_dataset


# -- macro F1 -------------------------------------------------------------------


def test_f1_macro_hand_case():
    assert f1_macro([0, 0, 1, 1], [0, 1, 1, 1]) == pytest.approx(
        (2 / 3 + 4 / 5) / 2, abs=1e-12
    )


def test_f1_macro_perfect():
    assert f1_macro([2, 1, 0], [2, 1, 0]) == 1.0


def test_f1_macro_constant_prediction():
    assert f1_macro([0, 1], [0, 0]) == pytest.approx(1 / 3, abs=1e-12)


def test_f1_macro_ignores_classes_absent_from_truth():
    # predictions of an unseen class count against the true class only
    assert f1_macro([0, 0], [0, 9]) == pytest.approx(2 / 3, abs=1e-12)


def f1_macro_loop(truth, predicted):
    """Macro-F1 with three boolean masks per class, summed in ascending class
    order: the oracle for the one-pass :func:`f1_macro`."""
    truth, predicted = np.asarray(truth), np.asarray(predicted)
    total = 0.0
    classes = np.unique(truth)
    for cls in classes:
        tp = np.sum((truth == cls) & (predicted == cls))
        fp = np.sum((truth != cls) & (predicted == cls))
        fn = np.sum((truth == cls) & (predicted != cls))
        denom = 2 * tp + fp + fn
        total += 2 * tp / denom if denom else 0.0
    return float(total / classes.size)


# negative, sparse and huge ids, plus ids that only ever appear as predictions
TRUTH_IDS = st.one_of(
    st.sampled_from([-(10**12), -7, -1, 0, 3, 10**9, 2**62]), st.integers(-40, 40)
)
FOREIGN_IDS = st.sampled_from([-(2**63), -99, 41, 10**12 + 1])


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(TRUTH_IDS, st.one_of(TRUTH_IDS, FOREIGN_IDS)), min_size=1, max_size=80
    )
)
def test_f1_macro_is_bitwise_the_per_class_loop(pairs):
    truth = np.asarray([t for t, _ in pairs], dtype=np.int64)
    predicted = np.asarray([p for _, p in pairs], dtype=np.int64)
    got, want = f1_macro(truth, predicted), f1_macro_loop(truth, predicted)
    assert type(got) is float
    assert np.array([got]).view(np.uint64) == np.array([want]).view(np.uint64)


def test_f1_macro_sums_many_classes_left_to_right():
    # 40 classes, one row each: a pairwise sum of the per-class values could
    # round differently from the left-to-right one
    rng = np.random.default_rng(5)
    truth = np.repeat(np.arange(40) * 1000 - 7, 3)
    predicted = np.where(rng.random(truth.size) < 0.6, truth, rng.permutation(truth))
    assert f1_macro(truth, predicted) == f1_macro_loop(truth, predicted)


def bits(value: float) -> int:
    return int(np.array([value]).view(np.uint64)[0])


@pytest.mark.parametrize("seed", range(40))
def test_f1_mean_is_bitwise_the_numpy_expression(seed):
    """Random k x (k+1) count matrices, empty classes included: the per-class
    quotients on Python ints and their left-to-right sum give the bits of
    the array expression they replace."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 25))
    confusion = rng.integers(0, int(rng.choice([3, 50, 10**6])), size=(k, k + 1))
    confusion[rng.random(k) < 0.2] = 0
    confusion[:, :k][:, rng.random(k) < 0.2] = 0
    tp = confusion.diagonal()
    denom = confusion.sum(axis=0)[:k] + confusion.sum(axis=1)
    f1 = np.divide(2 * tp, denom, out=np.zeros(k), where=denom > 0)
    want = 0.0
    for value in f1.tolist():
        want += value
    got = _f1_mean(tp.tolist(), denom.tolist())
    assert type(got) is float
    assert bits(got) == bits(want / k)


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.booleans(), st.booleans()), min_size=2, max_size=80).filter(
        lambda pairs: len({t for t, _ in pairs}) == 2
    )
)
def test_the_split_scorer_f1_is_bitwise_f1_macro(pairs):
    """Two groups, both present in the truth: the split scorer's 2x2
    confusion, counted from boolean group-1 masks as score_bipartition
    passes them, gives f1_macro's bits, and so does an int 0/1 prediction."""
    truth = np.asarray([t for t, _ in pairs])
    predicted = np.asarray([p for _, p in pairs])
    want = f1_macro(truth.astype(np.int64), predicted.astype(np.int64))
    for got in (_group_f1(truth, predicted), _group_f1(truth, predicted.astype(np.int64))):
        assert type(got) is float
        assert bits(got) == bits(want)


def test_f1_macro_length_mismatch():
    with pytest.raises(ValueError):
        f1_macro([0, 1], [0])
    with pytest.raises(ValueError):
        f1_macro([], [])


def test_accuracy_refuses_what_f1_macro_refuses():
    assert accuracy([0, 1, 1, 2], [0, 1, 2, 2]) == 0.75
    with pytest.raises(ValueError, match="truth must be non-empty"):
        accuracy([], [])
    with pytest.raises(ValueError, match="equal length"):
        accuracy([0, 1], [0])


# -- fold plans -------------------------------------------------------------------


def test_stratified_exact_split():
    data = peek_dataset([0] * 10 + [1] * 5)
    plan = split_data(data, 5)
    for fold in range(5):
        test_labels = data.labels[plan.test_indices(fold)]
        assert np.sum(test_labels == 0) == 2
        assert np.sum(test_labels == 1) == 1


def test_unshuffled_plans_are_call_stable():
    data = peek_dataset([0, 1, 0, 1, 2, 2, 0, 1, 2, 0, 1, 2])
    a = split_data(data, 3)
    b = split_data(data, 3)
    assert np.array_equal(a.assignments, b.assignments)


def test_shuffled_plans_differ_by_seed_but_stay_stratified():
    labels = np.asarray([0] * 8 + [1] * 8)
    data = peek_dataset(labels)
    a = split_data(data, 4, shuffle=True, seed=0)
    b = split_data(data, 4, shuffle=True, seed=1)
    assert not np.array_equal(a.assignments, b.assignments)
    for plan in (a, b):
        for fold in range(4):
            fold_labels = labels[plan.test_indices(fold)]
            assert np.sum(fold_labels == 0) == 2
            assert np.sum(fold_labels == 1) == 2


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(2, 6),
    st.booleans(),
)
@settings(max_examples=50, deadline=None)
def test_per_class_fold_spread_at_most_one(seed, k, shuffle):
    rng = np.random.default_rng(seed)
    labels = np.concatenate(
        [np.full(int(rng.integers(k, 3 * k + 1)), cls) for cls in range(3)]
    )
    data = peek_dataset(labels)
    plan = split_data(data, k, shuffle=shuffle, seed=seed)
    for cls in range(3):
        sizes = [
            int(np.sum(data.labels[plan.test_indices(f)] == cls)) for f in range(k)
        ]
        assert max(sizes) - min(sizes) <= 1


def test_infeasible_fold_names_class():
    data = peek_dataset([0] * 10 + [1] * 2)
    with pytest.raises(FoldFeasibilityError) as err:
        split_data(data, 4)
    assert "class 1" in str(err.value)


# -- flat baseline ------------------------------------------------------------------


def test_flat_baseline_memorizing_stub_is_perfect():
    data = orthogonal_dataset(n_per_class=10, n_classes=3)
    plan = split_data(data, 5)
    scores = flat_baseline(data, plan, ClassifierSpec(kind="linear"))
    assert scores == [1.0] * 5


def test_flat_baseline_constant_stub_macro():
    # all-zero series: zero weights, so every row goes to the smallest class
    data = TimeSeriesDataset(np.zeros((30, 6)), np.asarray([0, 1, 2] * 10))
    plan = split_data(data, 5)
    scores = flat_baseline(data, plan, ClassifierSpec(kind="linear"))
    assert scores == pytest.approx([1 / 6] * 5, abs=1e-12)


def test_flat_baseline_class_permutation_equivariance():
    data = separable_dataset(n_per_class=10, n_classes=3, seed=8)
    plan = split_data(data, 5)
    spec = ClassifierSpec(kind="linear")
    base = flat_baseline(data, plan, spec)
    perm = {0: 2, 1: 0, 2: 1}
    relabeled = TimeSeriesDataset(
        data.values, np.asarray([perm[int(c)] for c in data.labels])
    )
    again = flat_baseline(relabeled, split_data(relabeled, 5), spec)
    assert base == pytest.approx(again, abs=1e-12)


# -- CV protocols ----------------------------------------------------------------------


def test_nested_cv_perfect_stub_all_ones():
    report = nested_cv(
        orthogonal_dataset(n_per_class=20, n_classes=4), ClassifierSpec(kind="linear"), "potr", n_iter=3, seed=0
    )
    assert all(f.inner_mean_score == 1.0 for f in report.folds)
    assert all(f.outer_test_score == 1.0 for f in report.folds)
    assert all(f.fc_score == 1.0 for f in report.folds)
    assert report.delta_g == 0.0


def test_nested_cv_three_classes_halts_at_distinct_limit():
    report = nested_cv(
        orthogonal_dataset(n_per_class=20, n_classes=3), ClassifierSpec(kind="linear"), "srtr", n_iter=50, seed=0
    )
    for fold in report.folds:
        assert fold.distinct_trees <= 3
        assert fold.iterations_run <= 50


def test_nested_cv_byte_reproducible():
    data = separable_dataset(n_per_class=10, n_classes=3, seed=1)
    spec = ClassifierSpec(kind="linear")
    a = nested_cv(data, spec, "potr", n_iter=3, seed=0, dataset_id="x")
    b = nested_cv(data, spec, "potr", n_iter=3, seed=0, dataset_id="x")
    assert a.to_json() == b.to_json()


def test_flat_dominates_nested_selection_per_fold():
    data = separable_dataset(n_per_class=10, n_classes=4, noise=1.5, seed=9)
    spec = ClassifierSpec(kind="linear")
    nested = nested_cv(data, spec, "potr", n_iter=5, seed=0)
    flat = flat_cv(data, spec, "potr", n_iter=5, seed=0)
    for nf, ff in zip(nested.folds, flat.folds):
        assert ff.outer_test_score >= nf.outer_test_score - 1e-12


def test_single_iteration_flat_equals_nested_outer():
    data = separable_dataset(n_per_class=10, n_classes=4, noise=1.0, seed=3)
    spec = ClassifierSpec(kind="linear")
    nested = nested_cv(data, spec, "lsoo", n_iter=1, seed=0)
    flat = flat_cv(data, spec, "lsoo", n_iter=1, seed=0)
    for nf, ff in zip(nested.folds, flat.folds):
        assert ff.outer_test_score == nf.outer_test_score


def test_candidate_streams_shared_between_schemes():
    data = separable_dataset(n_per_class=10, n_classes=4, noise=1.0, seed=4)
    spec = ClassifierSpec(kind="linear")
    splitter = resolve_splitter("srtr")
    plan_train = data.subset(split_data(data, 5).train_indices(0))
    once = _candidate_trees(plan_train, spec, splitter, 4, 0, 0)
    twice = _candidate_trees(plan_train, spec, splitter, 4, 0, 0)
    assert [t.parents for t in once[0]] == [t.parents for t in twice[0]]


@pytest.mark.parametrize("scores, kept", [([0.0, 0.0], 0), ([0.2, 0.5, 0.5], 1)])
def test_select_tree_keeps_first_of_highest_scores(scores, kept):
    data = separable_dataset(n_per_class=10, n_classes=6, noise=1.0, seed=4)
    spec = ClassifierSpec(kind="linear")
    splitter = resolve_splitter("srtr")
    fresh, iterations, distinct = _candidate_trees(data, spec, splitter, len(scores), 0, 0)
    assert len(fresh) == len(scores)
    calls = iter(scores)
    tree, score, its, dist = select_tree(
        data, spec, splitter, len(scores), 0, 0, lambda tree: next(calls)
    )
    assert tree.parents == fresh[kept].parents
    assert (score, its, dist) == (scores[kept], iterations, distinct)


def test_fit_selects_with_the_inner_fold_rule(tmp_path, capsys):
    path = tmp_path / "d.tsv"
    save_dataset(separable_dataset(n_per_class=9, n_classes=4, noise=3.0, seed=2), path)
    argv = ["fit", "--data", str(path), "--splitter", "srtr", "--iters", "5"]
    assert main([*argv, "--inner-folds", "3", "--seed", "1", "--out", str(tmp_path)]) == 0
    printed = json.loads(capsys.readouterr().out)
    data, spec = load_dataset(path), ClassifierSpec(kind="linear", seed=1)
    tree, score, _, _ = select_tree(
        data, spec, resolve_splitter("srtr"), 5, 1, 0, inner_fold_scorer(data, spec, 3)
    )
    assert printed["tree"] == tree_to_text(tree)
    assert printed["selection_score"] == score


def test_delta_g_recomputes_from_stored_scores():
    data = separable_dataset(n_per_class=10, n_classes=3, noise=1.0, seed=5)
    report = nested_cv(data, ClassifierSpec(kind="linear"), "potr", n_iter=2, seed=0)
    for f in report.folds:
        assert f.delta_g == f.outer_test_score - f.fc_score
        assert f.improved == (f.delta_g > 0)


def test_report_json_round_trip():
    data = separable_dataset(n_per_class=10, n_classes=3, noise=1.0, seed=6)
    report = nested_cv(
        data, ClassifierSpec(kind="linear"), "potr", n_iter=2, seed=0, dataset_id="rt"
    )
    again = CvReport.from_json(report.to_json())
    assert again.to_json() == report.to_json()


def test_report_json_round_trip_keeps_sparse_class_ids():
    dense = collinear_superclusters(n_per_class=6, series_length=16, noise=1.5)
    sparse = np.array([-5, 3, 7, 10**9])
    data = TimeSeriesDataset(dense.values, sparse[dense.labels])
    report = nested_cv(data, ClassifierSpec(kind="linear"), "srtr", n_iter=2, n_outer=3, n_inner=3)
    again = CvReport.from_json(report.to_json())
    assert [f.selected_tree for f in again.folds] == [f.selected_tree for f in report.folds]
    assert again.folds[0].selected_tree.root_classes == frozenset(sparse.tolist())
    assert again.to_json() == report.to_json()


def test_flat_cv_reports_no_inner_score():
    data = separable_dataset(n_per_class=10, n_classes=3, noise=1.0, seed=7)
    report = flat_cv(data, ClassifierSpec(kind="linear"), "potr", n_iter=2, seed=0)
    assert all(f.inner_mean_score is None for f in report.folds)
    assert report.inner_selection_score is None
    rows = report.to_csv_rows()
    assert len(rows) == 5
    assert CvReport.from_json(report.to_json()).to_json() == report.to_json()


def test_cv_rejects_bad_iteration_count():
    """One check in select_tree serves nested CV, flat CV and direct callers
    such as ``hiertsc fit``: with no candidate there is no tree to keep."""
    data = separable_dataset(n_per_class=10, n_classes=3, seed=1)
    spec = ClassifierSpec(kind="linear")
    for n_iter in (0, -1):
        with pytest.raises(ValueError, match="n_iter must be >= 1"):
            nested_cv(data, spec, "potr", n_iter=n_iter)
        with pytest.raises(ValueError, match="n_iter must be >= 1"):
            flat_cv(data, spec, "potr", n_iter=n_iter)
        with pytest.raises(ValueError, match="n_iter must be >= 1"):
            select_tree(data, spec, resolve_splitter("potr"), n_iter, 0, 0, lambda tree: 0.5)
