"""Command-line interface: CV runs, model fit/predict, analysis, counting, cost."""

from __future__ import annotations

import argparse
import csv
import io as _io
import json
import os
import sys
import tempfile
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
from .classifiers import ClassifierSpec, ModelFormatError, Run, TrainingDataError
from .dataset import DataValidationError
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
from .io import (
    DatasetFormatError,
    LabelledRows,
    default_data_dir,
    load_dataset,
    read_labelled_rows,
    scan_catalog,
)
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


def _data_path(raw: str) -> Path:
    """`raw`, or `raw` under ``HIERTSC_DATA``, whichever exists."""
    path, base = Path(raw), default_data_dir()
    if not path.exists() and base is not None:
        path = base / raw
    if not path.exists():
        raise DatasetFormatError(f"dataset path not found: {raw}")
    return path


def _check_ranges(args: argparse.Namespace) -> None:
    """The numeric ranges argparse cannot check, for the flags the
    subcommand defines; before any file is read."""
    if getattr(args, "iters", 1) < 1:
        raise ConfigError("--iters must be >= 1")
    if min(getattr(args, "outer_folds", 2), getattr(args, "inner_folds", 2)) < 2:
        raise ConfigError("fold counts must be >= 2")


# -- subcommand handlers ---------------------------------------------------------


def _run_cv(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)  # a bad spec exits 2 before the file is read
    common = dict(
        data=load_dataset(_data_path(args.data)),
        spec=spec,
        splitter=args.splitter,
        n_iter=args.iters,
        n_outer=args.outer_folds,
        seed=args.seed,
        dataset_id=Path(args.data).stem,
    )
    if args.mode == "nested":
        report = nested_cv(n_inner=args.inner_folds, **common)
    else:
        report = flat_cv(**common)
    text = report.to_json()
    if CvReport.from_json(text).to_json() != text:
        raise RuntimeError("emitted report failed schema re-validation")
    out = Path(args.out)
    _write_atomic(out / "report.json", text)
    _write_atomic(out / "folds.csv", _csv_text(CSV_COLUMNS, report.to_csv_rows()))
    print(json.dumps(report.aggregates(), sort_keys=True))
    return EXIT_OK


def _run_fit(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    data = load_dataset(_data_path(args.data))
    rows = Run.rows_of(data, spec)  # one bank and one transform of all rows for the whole fit
    # the whole file plays outer fold 0 of nested CV
    best_tree, best_score, _, _ = select_tree(
        rows,
        spec,
        resolve_splitter(args.splitter),
        args.iters,
        args.seed,
        0,
        inner_fold_scorer(rows, spec, args.inner_folds),
    )
    model = fit_lcpn(best_tree, rows, spec)
    out = Path(args.out)
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


def _load_model(path: str) -> LcpnModel:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"cannot read model bundle {path}: {exc}") from None
    return LcpnModel.from_bundle(text)


def _truth(model: LcpnModel, rows: LabelledRows, source: str) -> np.ndarray:
    """The file's labels as the model's class ids, through its token map."""
    to_id = {token: c for c, token in model.label_names.items()}
    for token, line in zip(rows.tokens, rows.lines):
        if token not in to_id:
            raise DatasetFormatError(
                f"{source}: label '{token}' is not a class of the model "
                f"({', '.join(sorted(to_id))})",
                line,
            )
    return np.asarray([to_id[t] for t in rows.tokens], dtype=np.int64)


def _run_predict(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    # one row or one class is a valid batch: no training-set rules here
    batch = read_labelled_rows(_data_path(args.data))
    length = batch.values.shape[1]
    if length != model.series_length:
        raise DatasetFormatError(
            f"{args.data}: series have length {length}, "
            f"the model expects length {model.series_length}"
        )
    predicted, depths = predict_lcpn(model, batch.values)
    truth = _truth(model, batch, args.data)
    rows = [
        [str(i), str(int(p)), model.label_names[int(p)], str(int(d))]
        for i, (p, d) in enumerate(zip(predicted, depths))
    ]
    out = Path(args.out)
    _write_atomic(
        out / "predictions.csv",
        _csv_text(["index", "predicted_id", "predicted", "depth"], rows),
    )
    summary = {
        "n_instances": int(predicted.size),
        "mean_depth": float(np.mean(depths)),
        "f1_macro": f1_macro(truth, predicted),
    }
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def _load_report(path: str) -> CvReport:
    try:
        return CvReport.from_json(Path(path).read_text())
    except (OSError, ValueError, TypeError, KeyError, RecursionError) as exc:
        raise ConfigError(f"cannot read CV report {path}: {type(exc).__name__}: {exc}") from None


def _run_analyze(args: argparse.Namespace) -> int:
    reports = [_load_report(p) for p in args.reports]
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

    out = Path(args.out)
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


def _run_trees(args: argparse.Namespace) -> int:
    doc = {
        "classes": args.classes,
        "distinct_trees": count_distinct_trees(args.classes),
        "double_factorial": double_factorial_trees(args.classes),
        "diagnostics": {
            "one_sided_recurrence": count_distinct_trees_one_sided(args.classes),
        },
    }
    print(json.dumps(doc, sort_keys=True))
    return EXIT_OK


def _run_bench(args: argparse.Namespace) -> int:
    x, c = args.instances, args.classes
    if c < 2 or x < c:
        raise ConfigError("need at least 2 classes and instances >= classes")
    bounds = cost_bounds(x, c, args.iters)
    if args.tree == "chain":
        exact, mean_depth = chain_level_units(x, c), chain_mean_depth(c)
    else:
        exact, mean_depth = balanced_level_units(x, c), bounds["depth_lower_log"]
    doc = {
        "tree": args.tree,
        "classes": c,
        "instances": x,
        "n_iter": args.iters,
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
    if args.out:
        _write_atomic(Path(args.out) / "bench.json", text + "\n")
    return EXIT_OK


def _run_filter(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    root = args.data_root or default_data_dir()
    if not root:
        raise ConfigError("--data-root (or HIERTSC_DATA) is required for filter")
    entries = scan_catalog(root)
    specs = (spec, ClassifierSpec(kind="kernel-ridge", seed=args.seed))
    if spec.kind == "kernel-ridge":
        specs = (ClassifierSpec(kind="linear", seed=args.seed), spec)
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
    out = Path(args.out)
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
    cv.set_defaults(run=_run_cv)

    fit = sub.add_parser("fit", help="fit a hierarchy and a model on a whole dataset")
    fit.add_argument("--data", required=True)
    fit.add_argument("--splitter", choices=sorted(SPLITTERS), default="potr")
    fit.add_argument("--iters", type=int, default=10)
    fit.add_argument("--inner-folds", type=int, default=4)
    fit.add_argument("--out", default="out")
    _add_classifier_args(fit)
    fit.set_defaults(run=_run_fit)

    predict = sub.add_parser("predict", help="predict with a saved model bundle")
    predict.add_argument("--model", required=True)
    predict.add_argument("--data", required=True)
    predict.add_argument("--out", default="out")
    predict.set_defaults(run=_run_predict)

    analyze = sub.add_parser("analyze", help="feature extraction and correlations")
    analyze.add_argument("--reports", nargs="+", required=True)
    analyze.add_argument("--out", default="out")
    analyze.set_defaults(run=_run_analyze)

    trees = sub.add_parser("trees", help="count similarity-distinct hierarchies")
    trees.add_argument("--classes", type=int, required=True)
    trees.set_defaults(run=_run_trees)

    bench = sub.add_parser("bench", help="analytic cost figures for a tree shape")
    bench.add_argument("--tree", choices=["balanced", "chain"], default="balanced")
    bench.add_argument("--classes", type=int, required=True)
    bench.add_argument("--instances", type=int, required=True)
    bench.add_argument("--iters", type=int, default=1)
    bench.add_argument("--out", default="")
    bench.set_defaults(run=_run_bench)

    flt = sub.add_parser("filter", help="apply the dataset-selection rule to a catalog")
    flt.add_argument("--data-root", default=None)
    flt.add_argument("--out", default="out")
    _add_classifier_args(flt)
    flt.set_defaults(run=_run_filter)

    return parser


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
        _check_ranges(args)
        return args.run(args)
    except Exception as exc:  # noqa: BLE001 - boundary maps errors to exit codes
        code = _classify_exit_code(exc)
        print(_error_record(exc, code), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
