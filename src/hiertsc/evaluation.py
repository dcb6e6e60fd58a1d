"""Stratified folds, the flat baseline, and the nested / flat CV procedures.

Nested CV selects, per outer fold, the candidate hierarchy with the best
inner-fold mean score and reports both that selection score and the held-out
test score of the refitted model.  Flat CV deliberately selects on the test
fold itself, reproducing the optimistic bias it is meant to exhibit.  Both
select with :func:`select_tree`, as does ``hiertsc fit``, each handing it a
list of (fit rows, scored rows) folds: the unshuffled inner folds of the
training rows for nested CV and ``hiertsc fit`` (the whole file as outer
fold 0), the one pair (training rows, test rows) for flat CV.
:meth:`FoldPlan.fold` cuts every such pair.  Every plan is checked from
the labels before any featurising; then each outer fold is one pure call of
:func:`_outer_fold`, its flat baseline, selection and outer score.  Every
reported number is a pure function of (data, spec, splitter, n_iter, seeds).

One engine scores every candidate tree (:func:`_score_trees`): the fold
list :func:`select_tree` is handed, and the outer score of the selected
tree.  It takes all fresh candidates at once and, per fold, fits each
distinct (left, right) split once through ``lcpn._node_rows``, the node
fits of ``lcpn.fit_lcpn``: each class set's rows are prepared once, one set
at a time, and each split is solved once.  One decision matrix
(``classifiers._decisions``) then holds every split's decision at every
validation row, each a per-row sum with the bits of that row and split
scored alone, and each tree is routed (``lcpn._route``) by looking its
parents' columns up, as ``lcpn.predict_lcpn`` routes a model's matrix.  So
every score has the bits of a per-tree fit and predict.  Errors are checked
tree by tree first, so the first NodeTrainingError raised is the one
per-tree fits would meet.

The module also holds the catalog filter, which scores datasets with the
flat baseline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .classifiers import ClassifierSpec, Rows, Run, _decisions, fit_classifier
from .dataset import DataValidationError, TimeSeriesDataset
from .io import CatalogEntry, DatasetFormatError, load_dataset, merge_datasets
from .lcpn import _check_fit, _node_rows, _route
from .metrics import accuracy, f1_macro
from .splitting import SplitContext, resolve_splitter
from .tree import (
    HierarchyTree,
    class_balance_factor,
    datapoint_balance_factor,
    parse_tree_text,
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


@dataclass(frozen=True, eq=False)
class FoldPlan:
    """A stratified k-fold assignment of instances to folds.

    Per class, fold sizes differ by at most one.  Unshuffled plans depend
    only on the labels and k, so they are identical across calls.  Plans
    compare and hash by identity: they hold an array.
    """

    k: int
    assignments: np.ndarray

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)

    def fold(self, rows: TimeSeriesDataset | Rows, fold: int) -> tuple:
        """`rows` cut at `fold`: (training rows, test rows), of the type of
        `rows`."""
        return rows.subset(self.train_indices(fold)), rows.subset(self.test_indices(fold))

    def folds(self, rows: Rows) -> list[tuple[Rows, Rows]]:
        """Every fold of `rows`, in order."""
        return [self.fold(rows, k) for k in range(self.k)]


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
    return FoldPlan(k=k, assignments=assignments)


def flat_baseline(
    folds: list[tuple[Rows, Rows]],
    spec: ClassifierSpec,
    metric: Callable[[np.ndarray, np.ndarray], float] | None = None,
) -> list[float]:
    """Per-fold score of the flat classifier over `folds`, (fit rows, scored
    rows) pairs of one run, as :func:`select_tree` takes them: fit on the
    fit rows, score on the scored rows.

    `metric` defaults to macro-F1, looked up at call time rather than bound
    as a default value, so a tracer that rebinds :func:`f1_macro` sees it.
    """
    metric = metric or f1_macro
    return [
        metric(val.labels, fit_classifier(spec, fit).predict_features(val.feats))
        for fit, val in folds
    ]


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
        """The fold's report fields (:data:`_FOLD_FIELDS`), the tree as its
        text, and ``improved``."""
        doc = {name: getattr(self, name) for name in _FOLD_FIELDS}
        return {**doc, "selected_tree": tree_to_text(self.selected_tree), "improved": self.improved}


def _mean(values: list[float]) -> float | None:
    """The mean of a report's per-fold `values`, or None (null in
    ``report.json``) for a report with no folds."""
    return float(np.mean(values)) if values else None


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
    def hc_score(self) -> float | None:
        return _mean([f.outer_test_score for f in self.folds])

    @property
    def fc_score(self) -> float | None:
        return _mean([f.fc_score for f in self.folds])

    @property
    def delta_g(self) -> float | None:
        return _mean([f.delta_g for f in self.folds])

    @property
    def inner_selection_score(self) -> float | None:
        if any(f.inner_mean_score is None for f in self.folds):
            return None
        return _mean([f.inner_mean_score for f in self.folds])

    def aggregates(self) -> dict:
        return {
            "hc_score": self.hc_score,
            "hc_inner_selection_score": self.inner_selection_score,
            "fc_score": self.fc_score,
            "delta_g": self.delta_g,
            "improvements": sum(1 for f in self.folds if f.improved),
        }

    def _run_fields(self) -> dict:
        """The run's report fields (:data:`_RUN_FIELDS`), by report name."""
        return {name: getattr(self, attr) for name, (attr, _) in _RUN_FIELDS.items()}

    def to_json_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            **self._run_fields(),
            "classifier": self.spec.to_dict(),
            "folds": [f.to_dict() for f in self.folds],
            "aggregates": self.aggregates(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def fold_rows(self) -> list[dict]:
        """One mapping per fold, its values as they are: the run's report
        fields by report name, ``classifier_kind``, the fold's
        :meth:`FoldRecord.to_dict` and ``hc_score``, its outer test score.
        ``folds.csv`` and every ``analyze`` table read these rows."""
        run = {**self._run_fields(), "classifier_kind": self.spec.kind}
        return [{**run, **f.to_dict(), "hc_score": f.outer_test_score} for f in self.folds]

    def to_csv_rows(self) -> list[list[str]]:
        """The ``folds.csv`` rows: each of :meth:`fold_rows` read in
        :data:`CSV_COLUMNS` order, each cell written by :func:`_csv_cell`."""
        return [[_csv_cell(row[name]) for name in CSV_COLUMNS] for row in self.fold_rows()]

    @staticmethod
    def from_json(text: str) -> "CvReport":
        """Decode :meth:`to_json` output.  A missing field raises KeyError, a
        document or fold that is not a JSON object TypeError, and a field of
        the wrong type ValueError naming it.  The fields of
        :data:`_FLAT_NULLABLE` may be null only in a flat report."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise TypeError(f"a CV report must be a JSON object, got {type(doc).__name__}")
        flat = _report_field(doc, "scheme", str) == "flat"
        if not isinstance(doc["folds"], list):
            raise ValueError(f"report field 'folds' must be a list, got {doc['folds']!r}")
        folds = []
        for i, f in enumerate(doc["folds"]):
            if not isinstance(f, dict):
                raise TypeError(f"report field 'folds[{i}]' must be a JSON object")
            where = f"folds[{i}]."
            record = {
                name: _report_field(f, name, kind, where, nullable=flat and name in _FLAT_NULLABLE)
                for name, kind in _FOLD_FIELDS.items()
            }
            record["selected_tree"] = parse_tree_text(record["selected_tree"])
            folds.append(FoldRecord(**record))
        run = {
            attr: _report_field(doc, name, kind, nullable=flat and name in _FLAT_NULLABLE)
            for name, (attr, kind) in _RUN_FIELDS.items()
        }
        return CvReport(spec=ClassifierSpec.decode(doc["classifier"]), folds=tuple(folds), **run)


def _csv_cell(value) -> str:
    """A ``folds.csv`` cell: blank for None, 0 or 1 for a bool, ``repr`` for a
    float (every bit of it), ``str`` for anything else."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


#: each run field of a report, by its report name: (the CvReport attribute
#: that holds it, its type), in CvReport order
_RUN_FIELDS = {
    "scheme": ("scheme", str),
    "dataset_id": ("dataset_id", str),
    "splitter": ("splitter_name", str),
    "n_iter": ("n_iter", int),
    "n_outer": ("n_outer", int),
    "n_inner": ("n_inner", int),
    "seed": ("seed", int),
    "n_classes": ("n_classes", int),
    "n_instances": ("n_instances", int),
}

#: the type of each fold field in a report, in FoldRecord order; float means
#: a finite int or float
_FOLD_FIELDS = {
    "fold": int,
    "selected_tree": str,
    "inner_mean_score": float,
    "outer_test_score": float,
    "fc_score": float,
    "class_balance": float,
    "data_balance": float,
    "delta_g": float,
    "distinct_trees": int,
    "iterations_run": int,
}

#: the report fields flat CV leaves null: it has no inner folds
_FLAT_NULLABLE = ("n_inner", "inner_mean_score")


def _report_field(doc: dict, name: str, kind: type, where: str = "", nullable: bool = False):
    """``doc[name]`` checked against `kind`: str, int (not bool), or float for
    a finite int or float, returned as a float."""
    value = doc[name]
    if value is None and nullable:
        return None
    if kind is str:
        ok = isinstance(value, str)
    elif isinstance(value, bool):
        ok = False
    elif kind is int:
        ok = isinstance(value, int)
    else:
        try:
            ok = isinstance(value, (int, float)) and math.isfinite(value)
        except OverflowError:  # an int too large for a float
            ok = False
    if not ok:
        expected = {str: "a string", int: "an integer", float: "a finite number"}[kind]
        raise ValueError(f"report field '{where}{name}' must be {expected}, got {value!r}")
    return float(value) if kind is float else value


# -- candidate generation ----------------------------------------------------


def _iteration_context(
    outer_train: Rows, spec: ClassifierSpec, seed: int, ko: int, i: int
) -> SplitContext:
    """Fresh shuffled generation split and RNG stream for (seed, fold, iter)."""
    root = np.random.SeedSequence(entropy=(seed, ko, i))
    fold_seq, splitter_seq = root.spawn(2)
    gen_seed = int(fold_seq.generate_state(1)[0])
    plan = split_data(outer_train, GENERATION_FOLDS, shuffle=True, seed=gen_seed)
    train, val = plan.fold(outer_train, 0)
    return SplitContext(train=train, val=val, spec=spec, rng=np.random.default_rng(splitter_seq))


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


def _score_trees(
    trees: list[HierarchyTree], folds: list[tuple[Rows, Rows]], spec: ClassifierSpec
) -> list[float]:
    """Each tree's mean macro-F1 over `folds`, (fit rows, scored rows) pairs:
    the score of its LCPN model fit on the fit rows (``lcpn.fit_lcpn``) and
    routed over the scored rows (``lcpn.predict_lcpn``), bit for bit,
    without fitting or routing any tree on its own.

    Every tree is checked on every fold's fit rows first, tree by tree, so
    the NodeTrainingError raised is the one per-tree fits meet first, and
    no solve precedes it.  Then, per fold, every distinct (left, right)
    split of the trees is fit once (``lcpn._node_rows``), one decision
    matrix holds every split's decisions at every scored row, and each tree
    routes the scored rows through its parents' columns of it.
    """
    for tree in trees:
        for fit, _ in folds:
            _check_fit(tree, fit)
    splits = {(p.left, p.right): p for tree in trees for p in tree.parents}  # a fit reads only the split
    column = {split: i for i, split in enumerate(splits)}
    lookups = [[column[p.left, p.right] for p in tree.parents] for tree in trees]
    scores: list[list[float]] = [[] for _ in trees]
    for fit, val in folds:
        decisions = _decisions(val.feats, *_node_rows(list(splits.values()), fit, spec))
        for tree, lookup, tree_scores in zip(trees, lookups, scores):
            predicted, _ = _route(tree, decisions[:, lookup])
            tree_scores.append(f1_macro(val.labels, predicted))
    return [float(np.mean(s)) for s in scores]


def select_tree(
    train: Rows,
    spec: ClassifierSpec,
    splitter_fn: Callable,
    n_iter: int,
    seed: int,
    ko: int,
    folds: list[tuple[Rows, Rows]],
) -> tuple[HierarchyTree, float, int, int]:
    """Score every fresh candidate of the (seed, ko) stream over the rows
    `train` by its mean macro-F1 over `folds`, (fit rows, scored rows)
    pairs, with one call of :func:`_score_trees`, and keep the first tree
    with the highest score.  Nested CV and ``hiertsc fit`` hand in the
    unshuffled inner folds of `train`, flat CV ``[(train, test)]``.
    Raises ValueError when `n_iter` < 1, as there would be no candidate to
    keep.

    Returns (tree, score, iterations run, distinct count).
    """
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    fresh, iterations, distinct = _candidate_trees(train, spec, splitter_fn, n_iter, seed, ko)
    scores = _score_trees(fresh, folds, spec)
    best = max(range(len(fresh)), key=scores.__getitem__)  # max keeps the first of ties
    return fresh[best], scores[best], iterations, distinct


def _splitter_label(splitter) -> str:
    if isinstance(splitter, str):
        return splitter
    return getattr(splitter, "__name__", "custom")


def _checked_plan(part: TimeSeriesDataset, k: int, where: str) -> FoldPlan:
    """``split_data(part, k)``, its infeasibility error prefixed by `where`."""
    try:
        return split_data(part, k)
    except FoldFeasibilityError as exc:
        raise FoldFeasibilityError(f"{where}: {exc}") from None


def _check_plans(parts: Iterable[TimeSeriesDataset], n_inner: int | None) -> list[FoldPlan | None]:
    """Each outer-train part's inner plan (None for flat CV), from its labels
    alone, each checked before the part's candidate-generation split, so the
    first infeasible plan raises as the folds run in order would meet it;
    the error names the split and the outer fold."""
    plans = []
    for ko, part in enumerate(parts):
        inner = None if n_inner is None else _checked_plan(part, n_inner, f"inner split of outer fold {ko}")
        plans.append(inner)
        # the shuffled generation split is feasible exactly when the unshuffled one is
        _checked_plan(part, GENERATION_FOLDS, f"candidate-generation split of outer fold {ko}")
    return plans


def _outer_fold(
    train: Rows, test: Rows, ko: int, inner_plan: FoldPlan | None,
    spec: ClassifierSpec, splitter_fn: Callable, n_iter: int, seed: int,
) -> FoldRecord:
    """Outer fold `ko`'s record, a pure function of its arguments: the flat
    baseline's score, and the tree selected over `inner_plan`'s folds of
    `train` (``[(train, test)]`` when None, for flat CV) with its outer score."""
    outer = [(train, test)]
    fc_score = flat_baseline(outer, spec)[0]
    folds = outer if inner_plan is None else inner_plan.folds(train)
    tree, score, iterations, distinct = select_tree(
        train, spec, splitter_fn, n_iter, seed, ko, folds
    )
    if inner_plan is None:
        inner_mean, outer_score = None, score
    else:
        inner_mean, outer_score = score, _score_trees([tree], outer, spec)[0]
    return FoldRecord(
        fold=ko,
        selected_tree=tree,
        inner_mean_score=inner_mean,
        outer_test_score=outer_score,
        fc_score=fc_score,
        class_balance=class_balance_factor(tree),
        data_balance=datapoint_balance_factor(tree, train),
        delta_g=outer_score - fc_score,
        distinct_trees=distinct,
        iterations_run=iterations,
    )


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
    when it is None: `n_iter` and every plan are checked, then one run,
    featurised once, serves every :func:`_outer_fold` call by row index."""
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    splitter_fn = resolve_splitter(splitter)
    outer_plan = split_data(data, n_outer, shuffle=False)
    parts = (data.subset(outer_plan.train_indices(ko)) for ko in range(n_outer))
    inner_plans = _check_plans(parts, n_inner)
    folds = outer_plan.folds(Run.rows_of(data, spec))
    records = [
        _outer_fold(train, test, ko, inner_plans[ko], spec, splitter_fn, n_iter, seed)
        for ko, (train, test) in enumerate(folds)
    ]
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
#: fold count of the unshuffled split the filter's accuracies are measured on
FILTER_FOLDS = 5


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
) -> list[FilterDecision]:
    """Apply the dataset-selection rule to a catalog: one decision per entry,
    in catalog order (:func:`_filter_entry`), whose fields ``hiertsc
    filter`` writes as they are.

    A dataset is kept when it has more than two classes and is not near
    ceiling: entries whose fixed unshuffled 5-fold accuracy exceeds 99.5%
    under BOTH configured classifiers are excluded.  Unreadable entries are
    listed with their error, never fatal.
    """
    return [_filter_entry(entry, specs) for entry in entries]


def _filter_entry(entry: CatalogEntry, specs: tuple[ClassifierSpec, ClassifierSpec]) -> FilterDecision:
    """The decision on one catalog entry, at the first rule it fails."""
    try:
        train = load_dataset(entry.train_path)
        test = load_dataset(entry.test_path)
    except (DatasetFormatError, DataValidationError) as exc:
        return FilterDecision(entry.name, False, f"unreadable: {exc}")
    try:
        merged = merge_datasets(train, test)
    except DataValidationError as exc:
        return FilterDecision(entry.name, False, f"unusable: {exc}")
    if merged.n_classes <= 2:
        return FilterDecision(entry.name, False, f"only {merged.n_classes} classes", merged.n_classes)
    try:
        plan = split_data(merged, FILTER_FOLDS)
        accuracies = tuple(
            float(np.mean(flat_baseline(plan.folds(Run.rows_of(merged, spec)), spec, accuracy)))
            for spec in specs
        )
    except (ValueError, ArithmeticError) as exc:
        return FilterDecision(entry.name, False, f"unusable: {exc}")
    if all(a > ACCURACY_EXCLUSION_THRESHOLD for a in accuracies):
        reason = "near-ceiling accuracy under every classifier"
        return FilterDecision(entry.name, False, reason, merged.n_classes, accuracies)
    return FilterDecision(entry.name, True, "kept", merged.n_classes, accuracies)
