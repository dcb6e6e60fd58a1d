"""Local-classifier-per-parent-node models over a fixed hierarchy."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .classifiers import ClassifierSpec, Rows, Run, TrainedClassifier, fit_classifier
from .dataset import TimeSeriesDataset
from .tree import HierarchyTree, parse_tree_text, tree_to_text

_BUNDLE_VERSION = 1


class NodeTrainingError(ValueError):
    """Raised when a parent node has no training instances on one side."""


@dataclass
class FitCounters:
    """Instrumentation collected while fitting: per-parent instance and class
    counts, whose product sums to the datapoint-class units processed."""

    per_parent_instances: list[int] = field(default_factory=list)
    per_parent_classes: list[int] = field(default_factory=list)

    @property
    def per_parent_units(self) -> list[int]:
        return [
            n * c
            for n, c in zip(self.per_parent_instances, self.per_parent_classes)
        ]

    @property
    def datapoint_class_units(self) -> int:
        return sum(self.per_parent_units)


@dataclass(frozen=True)
class LcpnModel:
    """A hierarchy plus one binary classifier per parent node.

    Node model group 0 is the parent's left side, group 1 the right side.
    Every node of a fitted or loaded ``kernel-ridge`` model holds the same
    :class:`KernelBank` object, so :func:`predict_lcpn` transforms each row
    once.  The bundle still stores a copy of the bank in every node blob.
    """

    tree: HierarchyTree
    node_models: tuple[TrainedClassifier, ...]

    @property
    def series_length(self) -> int:
        return self.node_models[0].series_length

    def to_bundle(self) -> str:
        doc = {
            "version": _BUNDLE_VERSION,
            "tree": tree_to_text(self.tree),
            "node_models": [m.to_blob() for m in self.node_models],
        }
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_bundle(blob: str) -> "LcpnModel":
        doc = json.loads(blob)
        if doc.get("version") != _BUNDLE_VERSION:
            raise ValueError(f"unsupported model bundle version {doc.get('version')}")
        tree, _ = parse_tree_text(doc["tree"])
        banks = {}  # equal banks decode to one shared object
        models = []
        for blob in doc["node_models"]:
            model = TrainedClassifier.from_blob(blob)
            if model.kernels is not None:
                model = replace(model, kernels=banks.setdefault(model.kernels, model.kernels))
            models.append(model)
        return LcpnModel(tree=tree, node_models=tuple(models))


def _fit_node(parent, rows: Rows, spec: ClassifierSpec) -> tuple[TrainedClassifier, int]:
    node, empty = rows.binary_groups(parent.left, parent.right)
    if empty is not None:
        raise NodeTrainingError(
            f"parent {parent.id} has no training instances on its "
            f"{('left', 'right')[empty]} side "
            f"({sorted(parent.left)} | {sorted(parent.right)})"
        )
    return fit_classifier(spec, node), node.n_instances


def fit_lcpn(
    tree: HierarchyTree,
    data: TimeSeriesDataset | Rows,
    spec: ClassifierSpec,
    counters: FitCounters | None = None,
) -> LcpnModel:
    """Train one binary classifier per parent on the instances under it.

    Each node sees exactly the rows whose class lies in the parent's class
    set, relabelled left -> 0 / right -> 1.  Nodes are independent, so the
    result does not depend on training order.  `data` is a dataset or
    :class:`Rows` of a run; a dataset becomes one new run, and every node
    fit slices that run's features by row index.
    """
    rows = Run.rows_of(data, spec)
    foreign = frozenset(rows.label_space) - tree.root_classes
    if foreign:
        raise NodeTrainingError(
            f"data contains labels {sorted(foreign)} outside the tree's classes "
            f"{sorted(tree.root_classes)}"
        )
    fitted = [_fit_node(p, rows, spec) for p in tree.parents]
    if counters is not None:
        for parent, (_, n_rows) in zip(tree.parents, fitted):
            counters.per_parent_instances.append(n_rows)
            counters.per_parent_classes.append(len(parent.class_set))
    return LcpnModel(tree=tree, node_models=tuple(model for model, _ in fitted))


def _shared_features(
    model: LcpnModel, values: np.ndarray, rows: Rows | None
) -> np.ndarray | None:
    """Raw features of every row when all node models share one
    featurisation (one bank object, or none); None otherwise.  Taken from
    the run of `rows` when the model was fit on it."""
    nodes = model.node_models
    if not all(isinstance(m, TrainedClassifier) for m in nodes):
        return None
    bank = nodes[0].kernels
    if any(m.kernels is not bank for m in nodes):
        return None
    if bank is None:
        return values
    if rows is not None and rows.run.bank is bank:
        return rows.feats
    return bank.transform(values)


def predict_lcpn(model: LcpnModel, values: np.ndarray | Rows) -> tuple[np.ndarray, np.ndarray]:
    """Route every instance root-to-leaf; return (labels, depths).

    Depth counts binary decisions taken, so the root decision is depth 1 and
    every prediction is a leaf class of the hierarchy.  `values` is an
    (n, M) array or :class:`Rows` of a run.  When the node models share one
    bank, each row is featurised once per call (taken from the run when the
    model was fit on it) and each node scores its rows from those features;
    served rows are not kept after the call.
    """
    rows_in = values if isinstance(values, Rows) else None
    values = np.asarray(values if rows_in is None else rows_in.values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != model.series_length:
        raise ValueError(
            f"expected (n, {model.series_length}) input, got {values.shape}"
        )
    n = values.shape[0]
    labels = np.empty(n, dtype=np.int64)
    depths = np.zeros(n, dtype=np.int64)
    feats = _shared_features(model, values, rows_in)
    tree = model.tree
    stack: list[tuple[int, np.ndarray, int]] = [(0, np.arange(n), 1)]
    while stack:
        node_idx, rows, depth = stack.pop()
        if rows.size == 0:
            continue
        parent = tree.parents[node_idx]
        node = model.node_models[node_idx]
        if feats is None:
            decisions = node.predict(values[rows])
        else:
            decisions = node.predict_features(feats[rows])
        for side, group in (
            (parent.left, rows[decisions == 0]),
            (parent.right, rows[decisions == 1]),
        ):
            if group.size == 0:
                continue
            if len(side) == 1:
                labels[group] = next(iter(side))
                depths[group] = depth
            else:
                stack.append((tree.parent_index_of(side), group, depth + 1))
    return labels, depths
