"""The batch tree-scoring engine against per-tree fits: the same selections
and scores bit for bit, the same first error, and the reuse it exists for."""

import numpy as np
import pytest

from hiertsc import ClassifierSpec, TimeSeriesDataset, flat_cv, nested_cv, split_data
from hiertsc import classifiers, evaluation
from hiertsc.classifiers import Run
from hiertsc.evaluation import _candidate_trees, _score_trees, select_tree
from hiertsc.lcpn import NodeTrainingError, fit_lcpn, predict_lcpn
from hiertsc.metrics import f1_macro
from hiertsc.splitting import resolve_splitter
from hiertsc.tree import build_tree

LINEAR = ClassifierSpec(kind="linear")
KERNEL = ClassifierSpec(kind="kernel-ridge", num_kernels=8, seed=3)


def noisy_dataset(seed, n_classes=5, n_per_class=8, length=24, noise=1.2):
    """Classes whose series are one random template each under heavy noise,
    so folds score below 1.0 and a changed selection changes a score."""
    rng = np.random.default_rng(seed)
    templates = rng.normal(0.0, 1.0, (n_classes, length))
    labels = np.repeat(np.arange(n_classes), n_per_class)
    return TimeSeriesDataset(templates[labels] + rng.normal(0.0, noise, (labels.size, length)), labels)


def fit_score(tree, fit, val, spec, values):
    """Per-tree scoring: an LCPN model of `tree` fit on `fit`, routed over
    the raw series `values` of the rows `val`, scored by macro-F1."""
    predicted, _ = predict_lcpn(fit_lcpn(tree, fit, spec), values[val.idx])
    return f1_macro(val.labels, predicted)


def per_tree_selection(data, spec, splitter, n_iter, n_outer, n_inner, seed):
    """Nested and flat selection with every candidate fit and routed on its
    own, per fold: per outer fold (nested tree, inner mean, outer score,
    flat tree, flat score), each tree the first with the highest score."""
    rows = Run.rows_of(data, spec)
    outer = split_data(rows, n_outer)
    out = []
    for ko in range(n_outer):
        train, test = rows.subset(outer.train_indices(ko)), rows.subset(outer.test_indices(ko))
        fresh, _, _ = _candidate_trees(train, resolve_splitter(splitter), n_iter, seed, ko)
        inner = split_data(train, n_inner)
        folds = [(train.subset(inner.train_indices(k)), train.subset(inner.test_indices(k))) for k in range(n_inner)]
        inner_scores = [float(np.mean([fit_score(t, f, v, spec, data.values) for f, v in folds])) for t in fresh]
        flat_scores = [fit_score(t, train, test, spec, data.values) for t in fresh]
        best = max(range(len(fresh)), key=inner_scores.__getitem__)
        flat_best = max(range(len(fresh)), key=flat_scores.__getitem__)
        out.append(
            (
                fresh[best],
                inner_scores[best],
                fit_score(fresh[best], train, test, spec, data.values),
                fresh[flat_best],
                flat_scores[flat_best],
            )
        )
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("splitter", ["potr", "srtr", "lsoo", "exhaustive"])
@pytest.mark.parametrize("spec", [LINEAR, KERNEL], ids=["linear", "kernel-ridge"])
def test_cv_selects_and_scores_as_per_tree_fits_do(spec, splitter, seed):
    """Every fold's selected tree, inner mean, outer score and flat score
    equal (==) those of per-tree fits and routing, on 5 classes."""
    data = noisy_dataset(seed)
    nested = nested_cv(data, spec, splitter, n_iter=3, n_outer=3, n_inner=3, seed=seed)
    flat = flat_cv(data, spec, splitter, n_iter=3, n_outer=3, seed=seed)
    oracle = per_tree_selection(data, spec, splitter, 3, 3, 3, seed)
    for n, f, (tree, inner_mean, outer_score, flat_tree, flat_score) in zip(nested.folds, flat.folds, oracle):
        assert n.selected_tree == tree and f.selected_tree == flat_tree
        assert n.inner_mean_score == inner_mean
        assert n.outer_test_score == outer_score
        assert f.outer_test_score == flat_score
    assert min(n.outer_test_score for n in nested.folds) < 1.0


def test_the_first_error_is_the_one_per_tree_fits_meet(monkeypatch):
    """Per-tree fits meet errors tree by tree, then fold by fold.  Here the
    first tree fails only in the second fold and the second tree already in
    the first, so a fold-major check would raise another error; the engine
    raises the per-tree one, before any solve."""
    labels = np.repeat(np.arange(4), 3)
    data = TimeSeriesDataset(np.random.default_rng(0).normal(size=(12, 8)) + labels[:, None], labels)
    rows = Run.rows_of(data, LINEAR)
    three = build_tree([((0,), (1, 2)), ((1,), (2,))])
    four = build_tree([((0, 1), (2, 3)), ((0,), (1,)), ((2,), (3,))])
    folds = [
        (rows.subset(np.flatnonzero(labels != 3)), rows),
        (rows.subset(np.flatnonzero((labels != 1) & (labels != 3))), rows),
    ]

    def first_error(pairs):
        for tree, fit in pairs:
            try:
                fit_lcpn(tree, fit, LINEAR)
            except NodeTrainingError as exc:
                return str(exc)

    per_tree = first_error((tree, fit) for tree in (three, four) for fit, _ in folds)
    fold_major = first_error((tree, fit) for fit, _ in folds for tree in (three, four))
    assert per_tree == "parent 1 has no training instances on its left side ([1] | [2])"
    assert fold_major != per_tree
    solves = []
    solve = np.linalg.solve

    def counted(*args):
        solves.append(1)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    with pytest.raises(NodeTrainingError) as raised:
        _score_trees([three, four], folds)
    assert str(raised.value) == per_tree
    assert solves == []


def test_tree_scoring_prepares_once_per_class_set_and_solves_once_per_split(monkeypatch):
    """At the CLI's default folds (outer fold 0 of 5, 4 inner folds), one
    selection prepares each (inner fold, class set) once and solves each
    (inner fold, left, right) once, however many trees share them: fewer
    solves than node fits."""
    data = noisy_dataset(4, n_classes=6, n_per_class=10, length=20)
    spec = ClassifierSpec(kind="kernel-ridge", num_kernels=16)
    rows = Run.rows_of(data, spec)
    train, _ = split_data(rows, 5).fold(rows, 0)
    inner = split_data(train, 4).folds(train)
    counts = {"prepared": 0, "solved": 0}
    scoring = [False]
    init, solve = classifiers._PreparedRows.__init__, classifiers.ridge_solve

    def counted_init(self, *args):
        counts["prepared"] += scoring[0]
        init(self, *args)

    def counted_solve(*args):
        counts["solved"] += scoring[0]
        return solve(*args)

    trees = []

    def counted_score_trees(fresh, folds):
        assert folds is inner
        trees.extend(fresh)
        scoring[0] = True
        try:
            return _score_trees(fresh, folds)
        finally:
            scoring[0] = False

    monkeypatch.setattr(classifiers._PreparedRows, "__init__", counted_init)
    monkeypatch.setattr(classifiers, "ridge_solve", counted_solve)
    monkeypatch.setattr(evaluation, "_score_trees", counted_score_trees)
    select_tree(train, resolve_splitter("potr"), 10, 0, 0, inner)
    parents = [p for tree in trees for p in tree.parents]
    pairs = {(k, p.class_set) for k in range(4) for p in parents}
    triples = {(k, p.left, p.right) for k in range(4) for p in parents}
    node_fits = 4 * len(parents)
    assert counts["prepared"] == len(pairs)
    assert counts["solved"] == len(triples)
    assert len(pairs) < len(triples) < node_fits
