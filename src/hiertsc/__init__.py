"""Hierarchy induction and LCPN classification for multi-class time series.

The package turns a flat multi-class labelling into a binary class hierarchy
by divisive clustering with stochastic splitting, trains a local classifier
per parent node over it, and compares the result against a flat baseline
under nested and flat cross-validation, with tree balance metrics,
distinct-tree counting, and computational-cost instrumentation.
"""

from .analysis import (
    CostDiscrepancyReport,
    CostEstimate,
    FeatureRow,
    correlate_features,
    cost_model,
    extract_features,
    improvement_count,
    pearson,
    verify_cost_model,
)
from .classifiers import (
    ClassifierSpec,
    KernelBank,
    ModelFormatError,
    TrainedClassifier,
    fit_classifier,
    register_classifier_kind,
)
from .dataset import DataValidationError, TimeSeriesDataset, collinear_superclusters
from .evaluation import (
    CvReport,
    FoldPlan,
    FoldRecord,
    filter_datasets,
    flat_baseline,
    flat_cv,
    nested_cv,
    split_data,
)
from .io import load_dataset, save_dataset, scan_catalog
from .lcpn import FitCounters, LcpnModel, fit_lcpn, predict_lcpn
from .metrics import accuracy, f1_macro
from .splitting import (
    SPLITTERS,
    SplitContext,
    SplitOutcome,
    exhaustive_split,
    leave_salient_one_out,
    pick_one_then_regroup,
    score_bipartition,
    split_randomly_then_regroup,
    update_score_and_groups,
)
from .tree import (
    HierarchyTree,
    ParentNode,
    TreeStructureError,
    build_tree,
    canonical_signature,
    class_balance_factor,
    datapoint_balance_factor,
    parse_tree_text,
    reflect,
    tree_from_json,
    tree_to_json,
    tree_to_text,
    trees_similar,
)
from .treegen import (
    TreeSearchState,
    check_duplicates_and_limit,
    count_distinct_trees,
    count_distinct_trees_one_sided,
    enumerate_distinct_trees,
    grow_tree,
)

__version__ = "0.1.0"

__all__ = [
    "ClassifierSpec",
    "CostDiscrepancyReport",
    "CostEstimate",
    "CvReport",
    "DataValidationError",
    "FeatureRow",
    "FitCounters",
    "FoldPlan",
    "FoldRecord",
    "HierarchyTree",
    "KernelBank",
    "LcpnModel",
    "ModelFormatError",
    "ParentNode",
    "SPLITTERS",
    "SplitContext",
    "SplitOutcome",
    "TimeSeriesDataset",
    "TrainedClassifier",
    "TreeSearchState",
    "TreeStructureError",
    "accuracy",
    "build_tree",
    "canonical_signature",
    "check_duplicates_and_limit",
    "class_balance_factor",
    "collinear_superclusters",
    "correlate_features",
    "cost_model",
    "count_distinct_trees",
    "count_distinct_trees_one_sided",
    "datapoint_balance_factor",
    "enumerate_distinct_trees",
    "exhaustive_split",
    "extract_features",
    "f1_macro",
    "filter_datasets",
    "fit_classifier",
    "fit_lcpn",
    "flat_baseline",
    "flat_cv",
    "grow_tree",
    "improvement_count",
    "leave_salient_one_out",
    "load_dataset",
    "nested_cv",
    "parse_tree_text",
    "pearson",
    "pick_one_then_regroup",
    "predict_lcpn",
    "reflect",
    "register_classifier_kind",
    "save_dataset",
    "scan_catalog",
    "score_bipartition",
    "split_data",
    "split_randomly_then_regroup",
    "tree_from_json",
    "tree_to_json",
    "tree_to_text",
    "trees_similar",
    "update_score_and_groups",
    "verify_cost_model",
]
