"""Local-classifier-per-parent-node models over a fixed hierarchy."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .classifiers import (
    ClassifierSpec,
    KernelBank,
    ModelFormatError,
    Rows,
    Run,
    TrainedClassifier,
    _decode_json,
    _field,
    _is_int,
    _positive_int,
    fit_classifier,
)
from .dataset import TimeSeriesDataset
from .tree import HierarchyTree, build_tree, parse_tree_text, tree_to_text

_BUNDLE_VERSION = 2  # version 1 bundles are still read


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
    once, and the bundle stores that bank once.  `label_names` maps the
    tree's class ids to the label tokens of the data the model was fit on,
    when they are known.
    """

    tree: HierarchyTree
    node_models: tuple[TrainedClassifier, ...]
    label_names: Mapping[int, str] | None = None

    @property
    def series_length(self) -> int:
        return self.node_models[0].series_length

    def to_bundle(self) -> str:
        """The model as one version 2 JSON document: the tree text, the spec,
        the series length and the id -> token map once, each distinct kernel
        bank once under ``banks``, and per node its arrays and the index of
        its bank (or null).  Raises ValueError unless the nodes are
        :class:`TrainedClassifier` objects of one spec and series length,
        and `label_names`, when given, names each class of the tree once."""
        first = self.node_models[0]
        if not all(
            isinstance(m, TrainedClassifier)
            and m.spec == first.spec
            and m.series_length == first.series_length
            for m in self.node_models
        ):
            raise ValueError("a bundle holds node models of one spec and series length")
        names = self.label_names
        problem = None if names is None else _label_names_problem(names, self.tree)
        if problem:
            raise ValueError(problem)
        banks: dict[KernelBank, int] = {}
        nodes = [
            {**m.to_node_doc(), "bank": None if m.kernels is None else banks.setdefault(m.kernels, len(banks))}
            for m in self.node_models
        ]
        doc = {
            "version": _BUNDLE_VERSION,
            "tree": tree_to_text(self.tree),
            "spec": first.spec.to_dict(),
            "series_length": first.series_length,
            "label_names": None if names is None else {str(c): t for c, t in names.items()},
            "banks": [bank.to_dict() for bank in banks],
            "nodes": nodes,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_bundle(blob: str) -> "LcpnModel":
        """The model of a version 2 or version 1 bundle.  Nodes that name one
        bank get one :class:`KernelBank` object.  Raises ModelFormatError
        when `blob` is not such a bundle, or its nodes do not match its
        tree's parents."""
        doc = _decode_json(blob, "model bundle")
        version = _field(doc, "version", "model bundle")
        if version == _BUNDLE_VERSION:
            tree, nodes, names = _decode_v2(doc)
        elif version == 1:
            tree, nodes, names = _decode_v1(doc)
        else:
            raise ModelFormatError(f"unsupported model bundle version {version!r}")
        if len(nodes) != len(tree.parents):
            raise ModelFormatError(
                f"model bundle has {len(nodes)} node models for {len(tree.parents)} parent nodes"
            )
        for i, node in enumerate(nodes):
            if node.class_ids != (0, 1):
                raise ModelFormatError(f"node model {i} has class ids {list(node.class_ids)}, not [0, 1]")
            if node.series_length != nodes[0].series_length:
                raise ModelFormatError("model bundle node models disagree on the series length")
        return LcpnModel(tree=tree, node_models=tuple(nodes), label_names=names)


def _decode_tree(text) -> HierarchyTree:
    """The tree of a bundle's tree text, over the class ids the text names."""
    if not isinstance(text, str):
        raise ModelFormatError("model bundle 'tree' must be a string")
    try:
        dense, names = parse_tree_text(text)
        ids = {i: int(name) for i, name in names.items()}
        return build_tree(
            ([ids[c] for c in p.left], [ids[c] for c in p.right]) for p in dense.parents
        )
    except ValueError as exc:
        raise ModelFormatError(f"model bundle tree: {exc}") from None


def _list_field(doc, key: str) -> list:
    value = _field(doc, key, "model bundle")
    if not isinstance(value, list):
        raise ModelFormatError(f"model bundle '{key}' must be a list")
    return value


def _decode_v1(doc):
    """A version 1 bundle: every node a JSON string holding its own spec and
    bank; equal banks decode to one object."""
    tree = _decode_tree(_field(doc, "tree", "model bundle"))
    banks: dict[KernelBank, KernelBank] = {}
    nodes = []
    for blob in _list_field(doc, "node_models"):
        node = TrainedClassifier.from_blob(blob)
        if node.kernels is not None:
            node = replace(node, kernels=banks.setdefault(node.kernels, node.kernels))
        nodes.append(node)
    return tree, nodes, None


def _decode_v2(doc):
    what = "model bundle"
    tree = _decode_tree(_field(doc, "tree", what))
    spec = ClassifierSpec.decode(_field(doc, "spec", what))
    series_length = _positive_int(doc, "series_length", what)
    banks = [KernelBank.decode(bank) for bank in _list_field(doc, "banks")]
    if any(bank.series_length != series_length for bank in banks):
        raise ModelFormatError(f"{what} has a kernel bank for another series length")
    nodes = []
    for node in _list_field(doc, "nodes"):
        index = _field(node, "bank", "node model")
        if index is not None and not (_is_int(index) and 0 <= index < len(banks)):
            raise ModelFormatError(f"node model 'bank' must be null or an index into {len(banks)} banks")
        kernels = None if index is None else banks[index]
        nodes.append(TrainedClassifier.from_node_doc(node, spec, series_length, kernels))
    return tree, nodes, _decode_label_names(_field(doc, "label_names", what), tree)


def _decode_label_names(doc, tree: HierarchyTree) -> dict[int, str] | None:
    if doc is None:
        return None
    if not isinstance(doc, dict) or not all(isinstance(t, str) for t in doc.values()):
        raise ModelFormatError("model bundle 'label_names' must map class ids to strings")
    try:
        names = {int(c): t for c, t in doc.items()}
    except ValueError:
        raise ModelFormatError("model bundle 'label_names' keys must be class ids") from None
    problem = _label_names_problem(names, tree)
    if problem:
        raise ModelFormatError(f"model bundle {problem}")
    return names


def _label_names_problem(names: Mapping[int, str], tree: HierarchyTree) -> str | None:
    if names.keys() != tree.root_classes:
        return f"'label_names' names classes {sorted(names)}, the tree has {sorted(tree.root_classes)}"
    if len(set(names.values())) != len(names):
        return "'label_names' repeats a token"
    return None


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
