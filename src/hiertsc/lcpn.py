"""Local-classifier-per-parent-node models over a fixed hierarchy."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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

_BUNDLE_VERSION = 2
_NO_TOKEN_MAP = (
    "model bundle has no token map (a version 1 bundle, or 'label_names' is null); "
    "refit the model to get a bundle that maps its class ids to label tokens"
)


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
    once, and the bundle stores that bank once.  `label_names` maps each of
    the tree's class ids to a distinct label token: the tokens of the data
    the model was fit on, or ``str(id)`` when none are given.  Raises
    ValueError when a given map does not name every class of the tree once
    with a string.
    """

    tree: HierarchyTree
    node_models: tuple[TrainedClassifier, ...]
    label_names: Mapping[int, str] | None = None

    def __post_init__(self) -> None:
        classes = sorted(self.tree.root_classes)
        names = {c: str(c) for c in classes} if self.label_names is None else dict(self.label_names)
        if names.keys() != self.tree.root_classes:
            raise ValueError(f"'label_names' names classes {sorted(names)}, the tree has {classes}")
        if not all(isinstance(t, str) for t in names.values()):
            raise ValueError("'label_names' tokens must be strings")
        if len(set(names.values())) != len(names):
            raise ValueError("'label_names' repeats a token")
        object.__setattr__(self, "label_names", names)

    @property
    def series_length(self) -> int:
        return self.node_models[0].series_length

    def to_bundle(self) -> str:
        """The model as one version 2 JSON document: the tree text, the spec,
        the series length and the id -> token map once, each distinct kernel
        bank once under ``banks``, and per node its arrays and the index of
        its bank (or null).  Raises ValueError unless the nodes are
        :class:`TrainedClassifier` objects of one spec and series length."""
        first = self.node_models[0]
        if not all(
            isinstance(m, TrainedClassifier)
            and m.spec == first.spec
            and m.series_length == first.series_length
            for m in self.node_models
        ):
            raise ValueError("a bundle holds node models of one spec and series length")
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
            "label_names": {str(c): t for c, t in self.label_names.items()},
            "banks": [bank.to_dict() for bank in banks],
            "nodes": nodes,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_bundle(blob: str) -> "LcpnModel":
        """The model of a version 2 bundle.  Nodes that name one bank get one
        :class:`KernelBank` object.  Raises ModelFormatError when `blob` is
        not such a bundle, has no token map (a version 1 bundle, or a null
        map), or its nodes do not match its tree's parents."""
        what = "model bundle"
        doc = _decode_json(blob, what)
        version = _field(doc, "version", what)
        if version not in (1, _BUNDLE_VERSION):
            raise ModelFormatError(f"unsupported model bundle version {version!r}")
        names = None if version == 1 else _field(doc, "label_names", what)
        if names is None:
            raise ModelFormatError(_NO_TOKEN_MAP)
        names = _decode_label_names(names)
        tree, nodes = _decode_v2(doc)
        if len(nodes) != len(tree.parents):
            raise ModelFormatError(
                f"model bundle has {len(nodes)} node models for {len(tree.parents)} parent nodes"
            )
        for i, node in enumerate(nodes):
            if node.class_ids != (0, 1):
                raise ModelFormatError(f"node model {i} has class ids {list(node.class_ids)}, not [0, 1]")
            if node.series_length != nodes[0].series_length:
                raise ModelFormatError("model bundle node models disagree on the series length")
        try:
            return LcpnModel(tree=tree, node_models=tuple(nodes), label_names=names)
        except ValueError as exc:
            raise ModelFormatError(f"model bundle {exc}") from None


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
    return tree, nodes


def _decode_label_names(doc) -> dict[int, str]:
    if not isinstance(doc, dict) or not all(isinstance(t, str) for t in doc.values()):
        raise ModelFormatError("model bundle 'label_names' must map class ids to strings")
    try:
        return {int(c): t for c, t in doc.items()}
    except ValueError:
        raise ModelFormatError("model bundle 'label_names' keys must be class ids") from None


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
    fit slices that run's features by row index.  The model keeps the
    data's token map over the tree's classes, or names each class by its id
    when the data has no map; a map that leaves out a class of the tree or
    repeats a token raises ValueError.
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
    names = rows.run.label_names
    if names is not None:
        names = {c: names[c] for c in sorted(tree.root_classes) if c in names}
    return LcpnModel(tree=tree, node_models=tuple(model for model, _ in fitted), label_names=names)


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
