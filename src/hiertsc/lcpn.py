"""Local-classifier-per-parent-node models over a fixed hierarchy."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .classifiers import ClassifierSpec, TrainedClassifier, fit_classifier
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
        models = tuple(TrainedClassifier.from_blob(b) for b in doc["node_models"])
        return LcpnModel(tree=tree, node_models=models)


def _fit_node(
    parent, data: TimeSeriesDataset, spec: ClassifierSpec
) -> tuple[TrainedClassifier, int]:
    values, groups, empty = data.binary_groups(parent.left, parent.right)
    if empty is not None:
        raise NodeTrainingError(
            f"parent {parent.id} has no training instances on its "
            f"{('left', 'right')[empty]} side "
            f"({sorted(parent.left)} | {sorted(parent.right)})"
        )
    return fit_classifier(spec, TimeSeriesDataset(values, groups)), groups.size


def fit_lcpn(
    tree: HierarchyTree,
    data: TimeSeriesDataset,
    spec: ClassifierSpec,
    counters: FitCounters | None = None,
) -> LcpnModel:
    """Train one binary classifier per parent on the instances under it.

    Each node sees exactly the rows whose class lies in the parent's class
    set, relabelled left -> 0 / right -> 1.  Nodes are independent, so the
    result does not depend on training order.
    """
    foreign = frozenset(data.label_space) - tree.root_classes
    if foreign:
        raise NodeTrainingError(
            f"data contains labels {sorted(foreign)} outside the tree's classes "
            f"{sorted(tree.root_classes)}"
        )
    fitted = [_fit_node(p, data, spec) for p in tree.parents]
    if counters is not None:
        for parent, (_, n_rows) in zip(tree.parents, fitted):
            counters.per_parent_instances.append(n_rows)
            counters.per_parent_classes.append(len(parent.class_set))
    return LcpnModel(tree=tree, node_models=tuple(model for model, _ in fitted))


def predict_lcpn(model: LcpnModel, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Route every instance root-to-leaf; return (labels, depths).

    Depth counts binary decisions taken, so the root decision is depth 1 and
    every prediction is a leaf class of the hierarchy.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != model.series_length:
        raise ValueError(
            f"expected (n, {model.series_length}) input, got {values.shape}"
        )
    n = values.shape[0]
    labels = np.empty(n, dtype=np.int64)
    depths = np.zeros(n, dtype=np.int64)
    tree = model.tree
    stack: list[tuple[int, np.ndarray, int]] = [(0, np.arange(n), 1)]
    while stack:
        node_idx, rows, depth = stack.pop()
        if rows.size == 0:
            continue
        parent = tree.parents[node_idx]
        decisions = model.node_models[node_idx].predict(values[rows])
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
