"""Command-line interface: CV runs, model fit/predict, analysis, counting, cost."""

from __future__ import annotations

import argparse
import csv
import io as _io
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import (
    FEATURE_NAMES,
    balanced_level_units,
    chain_closed_form_units,
    chain_level_units,
    chain_mean_depth,
    correlate_features,
    cost_bounds,
    extract_features,
)
from .classifiers import ClassifierSpec, Run, TrainingDataError
from .dataset import DataValidationError, TimeSeriesDataset
from .evaluation import (
    CSV_COLUMNS,
    CvReport,
    FoldFeasibilityError,
    filter_datasets,
    flat_cv,
    inner_fold_scorer,
    nested_cv,
    select_tree,
)
from .io import DatasetFormatError, default_data_dir, load_dataset, scan_catalog
from .lcpn import LcpnModel, NodeTrainingError, fit_lcpn, predict_lcpn
from .metrics import f1_macro
from .splitting import SPLITTERS, ScoringError, resolve_splitter
from .tree import TreeStructureError, tree_to_text
from .treegen import (
    count_distinct_trees,
    count_distinct_trees_one_sided,
    double_factorial_trees,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4

_DATA_ERRORS = (DatasetFormatError, DataValidationError, FoldFeasibilityError)
_RUNTIME_ERRORS = (
    TrainingDataError,
    NodeTrainingError,
    ScoringError,
    TreeStructureError,
    ArithmeticError,
)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Resolved options of one CLI invocation."""

    mode: str
    data_path: str | None = None
    model_path: str | None = None
    report_paths: list[str] = field(default_factory=list)
    classifier: ClassifierSpec = field(default_factory=ClassifierSpec)
    splitter: str = "potr"
    n_iter: int = 10
    outer_folds: int = 5
    inner_folds: int = 4
    seed: int = 0
    out_dir: str = "out"
    n_classes: int | None = None
    n_instances: int | None = None
    tree_shape: str = "balanced"
    data_root: str | None = None

    def validate(self) -> None:
        if self.n_iter < 1:
            raise ConfigError("--iters must be >= 1")
        if self.outer_folds < 2 or self.inner_folds < 2:
            raise ConfigError("fold counts must be >= 2")
        if self.splitter not in SPLITTERS:
            raise ConfigError(f"unknown splitter '{self.splitter}'")


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _resolve_data_path(raw: str) -> Path:
    path = Path(raw)
    if path.exists():
        return path
    base = default_data_dir()
    if base is not None and (base / raw).exists():
        return base / raw
    raise DatasetFormatError(f"dataset path not found: {raw}")


def _load(config: RunConfig) -> TimeSeriesDataset:
    if not config.data_path:
        raise ConfigError("--data is required for this mode")
    return load_dataset(_resolve_data_path(config.data_path))


def _dataset_id(config: RunConfig) -> str:
    return Path(config.data_path).stem if config.data_path else "dataset"


# -- mode handlers -------------------------------------------------------------


def _run_cv(config: RunConfig) -> int:
    data = _load(config)
    common = dict(
        data=data,
        spec=config.classifier,
        splitter=config.splitter,
        n_iter=config.n_iter,
        n_outer=config.outer_folds,
        seed=config.seed,
        dataset_id=_dataset_id(config),
    )
    if config.mode == "nested":
        report = nested_cv(n_inner=config.inner_folds, **common)
    else:
        report = flat_cv(**common)
    text = report.to_json()
    if CvReport.from_json(text).to_json() != text:
        raise RuntimeError("emitted report failed schema re-validation")
    out = Path(config.out_dir)
    _write_atomic(out / "report.json", text)
    _write_atomic(out / "folds.csv", _csv_text(CSV_COLUMNS, report.to_csv_rows()))
    print(json.dumps(report.aggregates(), sort_keys=True))
    return EXIT_OK


def _run_fit(config: RunConfig) -> int:
    data = _load(config)
    spec = config.classifier
    rows = Run.rows_of(data, spec)  # one bank and one transform of all rows for the whole fit
    # the whole file plays outer fold 0 of nested CV
    best_tree, best_score, _, _ = select_tree(
        rows,
        spec,
        resolve_splitter(config.splitter),
        config.n_iter,
        config.seed,
        0,
        inner_fold_scorer(rows, spec, config.inner_folds),
    )
    model = fit_lcpn(best_tree, rows, spec)
    out = Path(config.out_dir)
    _write_atomic(out / "model.json", model.to_bundle() + "\n")
    print(
        json.dumps(
            {
                "tree": tree_to_text(best_tree),
                "selection_score": best_score,
                "model": str(out / "model.json"),
            },
            sort_keys=True,
        )
    )
    return EXIT_OK


def _run_predict(config: RunConfig) -> int:
    if not config.model_path:
        raise ConfigError("--model is required for predict")
    model = LcpnModel.from_bundle(Path(config.model_path).read_text())
    data = _load(config)
    predicted, depths = predict_lcpn(model, data.values)
    # token map only trusted when the file covers the same classes as the tree
    names = data.label_names or {}
    if data.n_classes != len(model.tree.root_classes):
        names = {}
    rows = [
        [str(i), str(int(p)), names.get(int(p), str(int(p))), str(int(d))]
        for i, (p, d) in enumerate(zip(predicted, depths))
    ]
    out = Path(config.out_dir)
    _write_atomic(
        out / "predictions.csv",
        _csv_text(["index", "predicted_id", "predicted", "depth"], rows),
    )
    summary = {
        "n_instances": int(predicted.size),
        "mean_depth": float(np.mean(depths)),
        "f1_macro": f1_macro(data.labels, predicted),
    }
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def _run_analyze(config: RunConfig) -> int:
    if not config.report_paths:
        raise ConfigError("--reports is required for analyze")
    reports = [CvReport.from_json(Path(p).read_text()) for p in config.report_paths]
    feature_rows = []
    groups: dict[tuple, list] = {}
    for report in reports:
        rows = extract_features(report)
        key = (report.scheme, report.spec.kind, report.splitter_name)
        groups.setdefault(key, []).extend(rows)
        for row in rows:
            feature_rows.append(
                (report.scheme, report.spec.kind, report.splitter_name, report.n_iter, row)
            )

    out = Path(config.out_dir)
    feature_csv = [
        [
            scheme,
            kind,
            splitter,
            str(n_iter),
            row.dataset_id,
            str(row.fold_id),
            str(row.n_classes),
            repr(row.fc_score),
            repr(row.class_balance),
            repr(row.data_balance),
            repr(row.delta_g),
            str(int(row.improved)),
        ]
        for scheme, kind, splitter, n_iter, row in feature_rows
    ]
    _write_atomic(
        out / "features.csv",
        _csv_text(
            [
                "scheme",
                "classifier_kind",
                "splitter",
                "n_iter",
                "dataset_id",
                "fold",
                "n_classes",
                "fc_score",
                "class_balance",
                "data_balance",
                "delta_g",
                "improved",
            ],
            feature_csv,
        ),
    )

    corr_rows = []
    corr_doc = []
    for (scheme, kind, splitter), rows in sorted(groups.items()):
        try:
            table = correlate_features(rows)
        except ValueError:
            table = {name: None for name in FEATURE_NAMES}
        for name in FEATURE_NAMES:
            cell = table[name]
            corr_rows.append(
                [
                    scheme,
                    kind,
                    splitter,
                    name,
                    "" if cell is None else repr(cell[0]),
                    "" if cell is None else f"{cell[1]:.3f}",
                ]
            )
            corr_doc.append(
                {
                    "scheme": scheme,
                    "classifier_kind": kind,
                    "splitter": splitter,
                    "feature": name,
                    "r": None if cell is None else cell[0],
                    "p": None if cell is None else cell[1],
                }
            )
    _write_atomic(
        out / "correlations.csv",
        _csv_text(["scheme", "classifier_kind", "splitter", "feature", "r", "p"], corr_rows),
    )
    _write_atomic(
        out / "correlations.json",
        json.dumps(corr_doc, sort_keys=True, indent=2) + "\n",
    )

    by_iter: dict[tuple, int] = {}
    by_classes: dict[tuple, int] = {}
    for scheme, kind, splitter, n_iter, row in feature_rows:
        ik = (scheme, kind, splitter, n_iter)
        by_iter[ik] = by_iter.get(ik, 0) + int(row.improved)
        ck = (scheme, kind, splitter, row.n_classes)
        by_classes[ck] = by_classes.get(ck, 0) + int(row.improved)
    _write_atomic(
        out / "improvements_by_iteration.csv",
        _csv_text(
            ["scheme", "classifier_kind", "splitter", "n_iter", "improvements"],
            [[*map(str, key), str(v)] for key, v in sorted(by_iter.items())],
        ),
    )
    _write_atomic(
        out / "improvements_by_class_count.csv",
        _csv_text(
            ["scheme", "classifier_kind", "splitter", "n_classes", "improvements"],
            [[*map(str, key), str(v)] for key, v in sorted(by_classes.items())],
        ),
    )
    print(json.dumps({"reports": len(reports), "rows": len(feature_rows)}, sort_keys=True))
    return EXIT_OK


def _run_trees(config: RunConfig) -> int:
    if config.n_classes is None:
        raise ConfigError("--classes is required for trees")
    doc = {
        "classes": config.n_classes,
        "distinct_trees": count_distinct_trees(config.n_classes),
        "double_factorial": double_factorial_trees(config.n_classes),
        "diagnostics": {
            "one_sided_recurrence": count_distinct_trees_one_sided(config.n_classes),
        },
    }
    print(json.dumps(doc, sort_keys=True))
    return EXIT_OK


def _run_bench(config: RunConfig) -> int:
    if config.n_classes is None or config.n_instances is None:
        raise ConfigError("--classes and --instances are required for bench")
    x, c = config.n_instances, config.n_classes
    if c < 2 or x < c:
        raise ConfigError("need at least 2 classes and instances >= classes")
    bounds = cost_bounds(x, c, config.n_iter)
    if config.tree_shape == "chain":
        exact, mean_depth = chain_level_units(x, c), chain_mean_depth(c)
    elif config.tree_shape == "balanced":
        exact, mean_depth = balanced_level_units(x, c), bounds["depth_lower_log"]
    else:
        raise ConfigError("--tree must be 'chain' or 'balanced'")
    doc = {
        "tree": config.tree_shape,
        "classes": c,
        "instances": x,
        "n_iter": config.n_iter,
        "exact_datapoints_processed": exact,
        "mean_depth": mean_depth,
        **bounds,
        "diagnostics": {
            "chain_closed_form": chain_closed_form_units(x, c),
            "chain_closed_form_disagrees": chain_closed_form_units(x, c)
            != chain_level_units(x, c),
        },
    }
    text = json.dumps(doc, sort_keys=True)
    print(text)
    if config.out_dir:
        _write_atomic(Path(config.out_dir) / "bench.json", text + "\n")
    return EXIT_OK


def _run_filter(config: RunConfig) -> int:
    root = config.data_root or default_data_dir()
    if not root:
        raise ConfigError("--data-root (or HIERTSC_DATA) is required for filter")
    entries = scan_catalog(root)
    specs = (config.classifier, ClassifierSpec(kind="kernel-ridge", seed=config.seed))
    if config.classifier.kind == "kernel-ridge":
        specs = (ClassifierSpec(kind="linear", seed=config.seed), config.classifier)
    decisions = filter_datasets(entries, specs)
    doc = [
        {
            "name": d.name,
            "kept": d.kept,
            "reason": d.reason,
            "n_classes": d.n_classes,
            "accuracies": None if d.accuracies is None else list(d.accuracies),
        }
        for d in decisions
    ]
    out = Path(config.out_dir)
    _write_atomic(out / "filter.json", json.dumps(doc, sort_keys=True, indent=2) + "\n")
    print(
        json.dumps(
            {
                "total": len(decisions),
                "kept": sum(1 for d in decisions if d.kept),
            },
            sort_keys=True,
        )
    )
    return EXIT_OK


_HANDLERS = {
    "nested": _run_cv,
    "flat": _run_cv,
    "fit": _run_fit,
    "predict": _run_predict,
    "analyze": _run_analyze,
    "trees": _run_trees,
    "bench": _run_bench,
    "filter": _run_filter,
}


def run_command(config: RunConfig) -> int:
    """Dispatch one validated configuration; returns the process exit code."""
    config.validate()
    return _HANDLERS[config.mode](config)


# -- argument parsing -----------------------------------------------------------


def _add_classifier_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--classifier", choices=["linear", "kernel-ridge"], default="linear")
    p.add_argument("--kernels", type=int, default=512)
    p.add_argument("--ridge-lambda", type=float, default=1e-2)
    p.add_argument("--seed", type=int, default=0)


def _spec_from_args(args) -> ClassifierSpec:
    return ClassifierSpec(
        kind=args.classifier,
        num_kernels=args.kernels,
        ridge_lambda=args.ridge_lambda,
        seed=args.seed,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiertsc",
        description=(
            "Induce binary label hierarchies for multi-class time series and "
            "evaluate hierarchical against flat classification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cv = sub.add_parser("cv", help="run nested or flat cross-validation")
    cv.add_argument("--mode", choices=["nested", "flat"], default="nested")
    cv.add_argument("--data", required=True)
    cv.add_argument("--splitter", choices=sorted(SPLITTERS), default="potr")
    cv.add_argument("--iters", type=int, default=10)
    cv.add_argument("--outer-folds", type=int, default=5)
    cv.add_argument("--inner-folds", type=int, default=4)
    cv.add_argument("--out", default="out")
    _add_classifier_args(cv)

    fit = sub.add_parser("fit", help="fit a hierarchy and a model on a whole dataset")
    fit.add_argument("--data", required=True)
    fit.add_argument("--splitter", choices=sorted(SPLITTERS), default="potr")
    fit.add_argument("--iters", type=int, default=10)
    fit.add_argument("--inner-folds", type=int, default=4)
    fit.add_argument("--out", default="out")
    _add_classifier_args(fit)

    predict = sub.add_parser("predict", help="predict with a saved model bundle")
    predict.add_argument("--model", required=True)
    predict.add_argument("--data", required=True)
    predict.add_argument("--out", default="out")

    analyze = sub.add_parser("analyze", help="feature extraction and correlations")
    analyze.add_argument("--reports", nargs="+", required=True)
    analyze.add_argument("--out", default="out")

    trees = sub.add_parser("trees", help="count similarity-distinct hierarchies")
    trees.add_argument("--classes", type=int, required=True)

    bench = sub.add_parser("bench", help="analytic cost figures for a tree shape")
    bench.add_argument("--tree", choices=["balanced", "chain"], default="balanced")
    bench.add_argument("--classes", type=int, required=True)
    bench.add_argument("--instances", type=int, required=True)
    bench.add_argument("--iters", type=int, default=1)
    bench.add_argument("--out", default="")

    flt = sub.add_parser("filter", help="apply the dataset-selection rule to a catalog")
    flt.add_argument("--data-root", default=None)
    flt.add_argument("--out", default="out")
    _add_classifier_args(flt)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.command == "cv":
        return RunConfig(
            mode=args.mode,
            data_path=args.data,
            classifier=_spec_from_args(args),
            splitter=args.splitter,
            n_iter=args.iters,
            outer_folds=args.outer_folds,
            inner_folds=args.inner_folds,
            seed=args.seed,
            out_dir=args.out,
        )
    if args.command == "fit":
        return RunConfig(
            mode="fit",
            data_path=args.data,
            classifier=_spec_from_args(args),
            splitter=args.splitter,
            n_iter=args.iters,
            inner_folds=args.inner_folds,
            seed=args.seed,
            out_dir=args.out,
        )
    if args.command == "predict":
        return RunConfig(
            mode="predict", data_path=args.data, model_path=args.model, out_dir=args.out
        )
    if args.command == "analyze":
        return RunConfig(mode="analyze", report_paths=list(args.reports), out_dir=args.out)
    if args.command == "trees":
        return RunConfig(mode="trees", n_classes=args.classes)
    if args.command == "bench":
        return RunConfig(
            mode="bench",
            tree_shape=args.tree,
            n_classes=args.classes,
            n_instances=args.instances,
            n_iter=args.iters,
            out_dir=args.out,
        )
    if args.command == "filter":
        return RunConfig(
            mode="filter",
            data_root=args.data_root,
            classifier=_spec_from_args(args),
            seed=args.seed,
            out_dir=args.out,
        )
    raise ConfigError(f"unknown command {args.command}")


def _error_record(exc: BaseException, code: int) -> str:
    return json.dumps(
        {"error": {"type": type(exc).__name__, "message": str(exc), "exit_code": code}},
        sort_keys=True,
    )


def _classify_exit_code(exc: BaseException) -> int:
    if isinstance(exc, _DATA_ERRORS):
        return EXIT_DATA
    if isinstance(exc, _RUNTIME_ERRORS):
        return EXIT_RUNTIME
    if isinstance(exc, (ConfigError, ValueError, KeyError)):
        return EXIT_CONFIG
    return EXIT_RUNTIME


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        return run_command(config)
    except Exception as exc:  # noqa: BLE001 - boundary maps errors to exit codes
        code = _classify_exit_code(exc)
        print(_error_record(exc, code), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
