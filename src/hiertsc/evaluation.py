"""Stratified folds, the flat baseline, and the nested / flat CV procedures.

Nested CV selects, per outer fold, the candidate hierarchy with the best
inner-fold mean score and reports both that selection score and the held-out
test score of the refitted model.  Flat CV deliberately selects on the test
fold itself, reproducing the optimistic bias it is meant to exhibit.  Both
select with :func:`select_tree`, as does ``hiertsc fit``.  Every reported
number is a pure function of (data, spec, splitter, n_iter, seeds).

The module also holds the catalog filter, which scores datasets with the
flat baseline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .classifiers import ClassifierSpec, Rows, Run, fit_classifier
from .dataset import DataValidationError, TimeSeriesDataset
from .io import CatalogEntry, DatasetFormatError, load_dataset, merge_datasets
from .lcpn import fit_lcpn, predict_lcpn
from .metrics import accuracy, f1_macro
from .splitting import SplitContext, resolve_splitter
from .tree import (
    HierarchyTree,
    class_balance_factor,
    datapoint_balance_factor,
    tree_to_text,
)
from .treegen import (
    CheckResult,
    TreeSearchState,
    check_duplicates_and_limit,
    default_tree_limit,
    grow_tree,
)

#: fold count of the shuffled split that feeds tree generation; one fold is
#: the split scorer's validation part, the rest its training part.
GENERATION_FOLDS = 4

REPORT_SCHEMA_VERSION = 1

CSV_COLUMNS = [
    "dataset_id",
    "scheme",
    "classifier_kind",
    "splitter",
    "n_iter",
    "seed",
    "fold",
    "n_classes",
    "fc_score",
    "hc_score",
    "inner_mean_score",
    "class_balance",
    "data_balance",
    "delta_g",
    "improved",
    "distinct_trees",
    "iterations_run",
    "selected_tree",
]


class FoldFeasibilityError(ValueError):
    """Raised when a class has too few instances for the requested fold count."""


@dataclass(frozen=True)
class FoldPlan:
    """A stratified k-fold assignment of instances to folds.

    Per class, fold sizes differ by at most one.  Unshuffled plans depend
    only on the labels and k, so they are identical across calls.
    """

    k: int
    assignments: np.ndarray
    shuffled: bool
    seed: int

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)


def split_data(
    data: TimeSeriesDataset | Rows, k: int, shuffle: bool = False, seed: int = 0
) -> FoldPlan:
    """Build a stratified k-fold plan over `data`.

    Instances of each class (ascending class id) are dealt round-robin into
    folds, after an optional seeded within-class permutation.  A class with
    fewer than k instances makes the plan infeasible.
    """
    if k < 2:
        raise FoldFeasibilityError("at least two folds are required")
    labels = data.labels
    assignments = np.empty(labels.shape[0], dtype=np.int64)
    rng = np.random.default_rng(seed) if shuffle else None
    for cls, count in data.class_counts().items():
        idx = np.flatnonzero(labels == cls)
        if count < k:
            raise FoldFeasibilityError(
                f"class {cls} has {count} instances, fewer than {k} folds"
            )
        if rng is not None:
            idx = idx[rng.permutation(idx.size)]
        assignments[idx] = np.arange(idx.size) % k
    return FoldPlan(k=k, assignments=assignments, shuffled=shuffle, seed=seed)


def flat_baseline(
    data: TimeSeriesDataset | Rows,
    plan: FoldPlan,
    spec: ClassifierSpec,
    metric: Callable[[np.ndarray, np.ndarray], float] | None = None,
) -> list[float]:
    """Per-fold score of the flat classifier: fit on train, score on test.

    `metric` defaults to macro-F1, looked up at call time rather than bound
    as a default value, so a tracer that rebinds :func:`f1_macro` sees it.
    A dataset becomes one run; :class:`Rows` bring their run.
    """
    metric = metric or f1_macro
    rows = Run.rows_of(data, spec)
    scores = []
    for fold in range(plan.k):
        train = rows.subset(plan.train_indices(fold))
        test = rows.subset(plan.test_indices(fold))
        model = fit_classifier(spec, train)
        scores.append(metric(test.labels, test.predict(model)))
    return scores


# -- per-fold records and reports -------------------------------------------


@dataclass(frozen=True)
class FoldRecord:
    fold: int
    selected_tree: HierarchyTree
    inner_mean_score: float | None
    outer_test_score: float
    fc_score: float
    class_balance: float
    data_balance: float
    delta_g: float
    distinct_trees: int
    iterations_run: int

    @property
    def improved(self) -> bool:
        return self.delta_g > 0

    def to_dict(self) -> dict:
        return {
            "fold": self.fold,
            "selected_tree": tree_to_text(self.selected_tree),
            "inner_mean_score": self.inner_mean_score,
            "outer_test_score": self.outer_test_score,
            "fc_score": self.fc_score,
            "class_balance": self.class_balance,
            "data_balance": self.data_balance,
            "delta_g": self.delta_g,
            "improved": self.improved,
            "distinct_trees": self.distinct_trees,
            "iterations_run": self.iterations_run,
        }


@dataclass(frozen=True)
class CvReport:
    """Everything one CV run produced, serialisable to JSON and CSV rows."""

    scheme: str
    dataset_id: str
    spec: ClassifierSpec
    splitter_name: str
    n_iter: int
    n_outer: int
    n_inner: int | None
    seed: int
    n_classes: int
    n_instances: int
    folds: tuple[FoldRecord, ...]

    @property
    def hc_score(self) -> float:
        return float(np.mean([f.outer_test_score for f in self.folds]))

    @property
    def fc_score(self) -> float:
        return float(np.mean([f.fc_score for f in self.folds]))

    @property
    def delta_g(self) -> float:
        return float(np.mean([f.delta_g for f in self.folds]))

    @property
    def inner_selection_score(self) -> float | None:
        if any(f.inner_mean_score is None for f in self.folds):
            return None
        return float(np.mean([f.inner_mean_score for f in self.folds]))

    def aggregates(self) -> dict:
        return {
            "hc_score": self.hc_score,
            "hc_inner_selection_score": self.inner_selection_score,
            "fc_score": self.fc_score,
            "delta_g": self.delta_g,
            "improvements": sum(1 for f in self.folds if f.improved),
        }

    def to_json_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "scheme": self.scheme,
            "dataset_id": self.dataset_id,
            "classifier": self.spec.to_dict(),
            "splitter": self.splitter_name,
            "n_iter": self.n_iter,
            "n_outer": self.n_outer,
            "n_inner": self.n_inner,
            "seed": self.seed,
            "n_classes": self.n_classes,
            "n_instances": self.n_instances,
            "folds": [f.to_dict() for f in self.folds],
            "aggregates": self.aggregates(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv_rows(self) -> list[list[str]]:
        rows = []
        for f in self.folds:
            rows.append(
                [
                    self.dataset_id,
                    self.scheme,
                    self.spec.kind,
                    self.splitter_name,
                    str(self.n_iter),
                    str(self.seed),
                    str(f.fold),
                    str(self.n_classes),
                    repr(f.fc_score),
                    repr(f.outer_test_score),
                    "" if f.inner_mean_score is None else repr(f.inner_mean_score),
                    repr(f.class_balance),
                    repr(f.data_balance),
                    repr(f.delta_g),
                    str(int(f.improved)),
                    str(f.distinct_trees),
                    str(f.iterations_run),
                    tree_to_text(f.selected_tree),
                ]
            )
        return rows

    @staticmethod
    def from_json(text: str) -> "CvReport":
        doc = json.loads(text)
        from .tree import parse_tree_text

        folds = []
        for f in doc["folds"]:
            record = {name: f[name] for name in FoldRecord.__dataclass_fields__}
            record["selected_tree"], _ = parse_tree_text(f["selected_tree"])
            folds.append(FoldRecord(**record))
        return CvReport(
            scheme=doc["scheme"],
            dataset_id=doc["dataset_id"],
            spec=ClassifierSpec.from_dict(doc["classifier"]),
            splitter_name=doc["splitter"],
            n_iter=doc["n_iter"],
            n_outer=doc["n_outer"],
            n_inner=doc["n_inner"],
            seed=doc["seed"],
            n_classes=doc["n_classes"],
            n_instances=doc["n_instances"],
            folds=tuple(folds),
        )


# -- candidate generation ----------------------------------------------------


def _iteration_context(
    outer_train: Rows, spec: ClassifierSpec, seed: int, ko: int, i: int
) -> SplitContext:
    """Fresh shuffled generation split and RNG stream for (seed, fold, iter)."""
    root = np.random.SeedSequence(entropy=(seed, ko, i))
    fold_seq, splitter_seq = root.spawn(2)
    gen_seed = int(fold_seq.generate_state(1)[0])
    plan = split_data(outer_train, GENERATION_FOLDS, shuffle=True, seed=gen_seed)
    return SplitContext(
        train=outer_train.subset(plan.train_indices(0)),
        val=outer_train.subset(plan.test_indices(0)),
        spec=spec,
        rng=np.random.default_rng(splitter_seq),
    )


def _candidate_trees(
    outer_train: Rows,
    spec: ClassifierSpec,
    splitter_fn: Callable,
    n_iter: int,
    seed: int,
    ko: int,
) -> tuple[list[HierarchyTree], int, int]:
    """Generate up to n_iter candidate trees, skipping similarity duplicates
    and stopping once every distinct tree has been seen.

    Returns (fresh trees, iterations run, distinct count).  The stream is a
    pure function of (outer_train, spec, splitter, n_iter, seed, ko), which
    is what lets nested and flat CV share it.
    """
    state = TreeSearchState(limit=default_tree_limit(outer_train.n_classes))
    fresh: list[HierarchyTree] = []
    iterations = 0
    for i in range(n_iter):
        if state.at_limit:
            break
        iterations += 1
        ctx = _iteration_context(outer_train, spec, seed, ko, i)
        tree = grow_tree(ctx, splitter_fn)
        if check_duplicates_and_limit(state, tree) is CheckResult.FRESH:
            fresh.append(tree)
    return fresh, iterations, state.distinct_count


def _fit_score(tree: HierarchyTree, train: Rows, test: Rows, spec: ClassifierSpec) -> float:
    """Macro-F1 on `test` of the LCPN model of `tree` fit on `train`."""
    model = fit_lcpn(tree, train, spec)
    predicted, _ = predict_lcpn(model, test)
    return f1_macro(test.labels, predicted)


def inner_fold_scorer(
    train: TimeSeriesDataset | Rows, spec: ClassifierSpec, n_inner: int
) -> Callable[[HierarchyTree], float]:
    """Scorer giving a tree's mean macro-F1 over the unshuffled inner folds
    of `train`; the fold plan and its row indices are built once, here.  A
    dataset becomes one run; :class:`Rows` bring their run."""
    rows = Run.rows_of(train, spec)
    plan = split_data(rows, n_inner, shuffle=False)
    folds = [
        (rows.subset(plan.train_indices(ki)), rows.subset(plan.test_indices(ki)))
        for ki in range(plan.k)
    ]
    return lambda tree: float(
        np.mean([_fit_score(tree, fit, val, spec) for fit, val in folds])
    )


def select_tree(
    train: TimeSeriesDataset | Rows,
    spec: ClassifierSpec,
    splitter_fn: Callable,
    n_iter: int,
    seed: int,
    ko: int,
    scorer: Callable[[HierarchyTree], float],
) -> tuple[HierarchyTree, float, int, int]:
    """Score every fresh candidate of the (seed, ko) stream over `train` and
    keep the first tree with the highest score.  Split scores fit on rows of
    `train`'s run; a dataset becomes one run.  Raises ValueError when
    `n_iter` < 1, as there would be no candidate to keep.

    Returns (tree, score, iterations run, distinct count).
    """
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    fresh, iterations, distinct = _candidate_trees(
        Run.rows_of(train, spec), spec, splitter_fn, n_iter, seed, ko
    )
    scores = [scorer(tree) for tree in fresh]
    best = max(range(len(fresh)), key=scores.__getitem__)  # max keeps the first of ties
    return fresh[best], scores[best], iterations, distinct


def _splitter_label(splitter) -> str:
    if isinstance(splitter, str):
        return splitter
    return getattr(splitter, "__name__", "custom")


def _cross_validate(
    data: TimeSeriesDataset,
    spec: ClassifierSpec,
    splitter,
    n_iter: int,
    n_outer: int,
    n_inner: int | None,
    seed: int,
    dataset_id: str,
) -> CvReport:
    """Nested CV when `n_inner` is set, flat CV (selection on the test fold)
    when it is None.  One run, featurised once, serves every fit and predict:
    folds, splits and node fits are row indices into it."""
    splitter_fn = resolve_splitter(splitter)
    outer_plan = split_data(data, n_outer, shuffle=False)
    rows = Run.rows_of(data, spec)
    fc_scores = flat_baseline(rows, outer_plan, spec)
    records = []
    for ko in range(n_outer):
        train = rows.subset(outer_plan.train_indices(ko))
        test = rows.subset(outer_plan.test_indices(ko))
        if n_inner is None:
            scorer = lambda tree: _fit_score(tree, train, test, spec)
        else:
            scorer = inner_fold_scorer(train, spec, n_inner)
        tree, score, iterations, distinct = select_tree(
            train, spec, splitter_fn, n_iter, seed, ko, scorer
        )
        if n_inner is None:
            inner_mean, outer_score = None, score
        else:
            inner_mean, outer_score = score, _fit_score(tree, train, test, spec)
        records.append(
            FoldRecord(
                fold=ko,
                selected_tree=tree,
                inner_mean_score=inner_mean,
                outer_test_score=outer_score,
                fc_score=fc_scores[ko],
                class_balance=class_balance_factor(tree),
                data_balance=datapoint_balance_factor(tree, train),
                delta_g=outer_score - fc_scores[ko],
                distinct_trees=distinct,
                iterations_run=iterations,
            )
        )
    return CvReport(
        scheme="flat" if n_inner is None else "nested",
        dataset_id=dataset_id,
        spec=spec,
        splitter_name=_splitter_label(splitter),
        n_iter=n_iter,
        n_outer=n_outer,
        n_inner=n_inner,
        seed=seed,
        n_classes=data.n_classes,
        n_instances=data.n_instances,
        folds=tuple(records),
    )


def nested_cv(
    data: TimeSeriesDataset,
    spec: ClassifierSpec,
    splitter,
    n_iter: int,
    n_outer: int = 5,
    n_inner: int = 4,
    seed: int = 0,
    dataset_id: str = "",
) -> CvReport:
    """Nested cross-validation: inner-fold means select the tree, the held-out
    outer fold measures it.

    Per outer fold, up to n_iter candidate trees are generated from fresh
    shuffled splits of the outer-train set (duplicates skipped, generation
    stopping once every distinct tree has been seen).  Each fresh tree is
    scored by the mean macro-F1 over the unshuffled inner folds; the best is
    refit on the whole outer-train set and scored on the outer test fold,
    next to the flat baseline on the same folds.
    """
    return _cross_validate(data, spec, splitter, n_iter, n_outer, n_inner, seed, dataset_id)


def flat_cv(
    data: TimeSeriesDataset,
    spec: ClassifierSpec,
    splitter,
    n_iter: int,
    n_outer: int = 5,
    seed: int = 0,
    dataset_id: str = "",
) -> CvReport:
    """Flat cross-validation: candidates are selected directly on the test
    fold, reproducing the scheme's intentional optimism.

    The candidate stream per fold is identical to :func:`nested_cv`'s for the
    same (data, spec, splitter, n_iter, seed), so per fold the flat best is
    never below the test score of the nested-selected tree.
    """
    return _cross_validate(data, spec, splitter, n_iter, n_outer, None, seed, dataset_id)


# -- the dataset-selection filter ---------------------------------------------

ACCURACY_EXCLUSION_THRESHOLD = 0.995


@dataclass(frozen=True)
class FilterDecision:
    name: str
    kept: bool
    reason: str
    n_classes: int | None = None
    accuracies: tuple[float, ...] | None = None


def filter_datasets(
    entries: Iterable[CatalogEntry],
    specs: tuple[ClassifierSpec, ClassifierSpec],
    k: int = 5,
) -> list[FilterDecision]:
    """Apply the dataset-selection rule to a catalog.

    A dataset is kept when it has more than two classes and is not near
    ceiling: entries whose fixed unshuffled k-fold accuracy exceeds 99.5%
    under BOTH configured classifiers are excluded.  Unreadable entries are
    listed with their error, never fatal.
    """
    decisions = []
    for entry in entries:
        try:
            train = load_dataset(entry.train_path)
            test = load_dataset(entry.test_path)
        except (DatasetFormatError, DataValidationError) as exc:
            decisions.append(FilterDecision(entry.name, False, f"unreadable: {exc}"))
            continue
        try:
            merged = merge_datasets(train, test)
        except DataValidationError as exc:
            decisions.append(FilterDecision(entry.name, False, f"unusable: {exc}"))
            continue
        if merged.n_classes <= 2:
            decisions.append(
                FilterDecision(
                    entry.name,
                    False,
                    f"only {merged.n_classes} classes",
                    n_classes=merged.n_classes,
                )
            )
            continue
        try:
            plan = split_data(merged, k)
            accuracies = tuple(
                float(np.mean(flat_baseline(merged, plan, spec, accuracy))) for spec in specs
            )
        except (ValueError, ArithmeticError) as exc:
            decisions.append(FilterDecision(entry.name, False, f"unusable: {exc}"))
            continue
        if all(a > ACCURACY_EXCLUSION_THRESHOLD for a in accuracies):
            decisions.append(
                FilterDecision(
                    entry.name,
                    False,
                    "near-ceiling accuracy under every classifier",
                    n_classes=merged.n_classes,
                    accuracies=accuracies,
                )
            )
        else:
            decisions.append(
                FilterDecision(
                    entry.name,
                    True,
                    "kept",
                    n_classes=merged.n_classes,
                    accuracies=accuracies,
                )
            )
    return decisions
