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
    _exact_keys,
    _field,
    _is_int,
    _positive_int,
    _series_input,
    fit_classifier,
)
from .dataset import TimeSeriesDataset
from .tree import HierarchyTree, parse_tree_text, tree_to_text

_BUNDLE_VERSION = 5
_BUNDLE_KEYS = ("version", "tree", "spec", "series_length", "label_names", "bank", "nodes")
_NO_TOKEN_MAP = (
    "model bundle has no token map ('label_names' is null); "
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
    The nodes are :class:`TrainedClassifier` objects with class ids (0, 1):
    each is one weight row and one intercept, whose decision sends a row
    right where it is negative and left otherwise.  They share one spec,
    series length and kernel bank (none for ``linear``, one for
    ``kernel-ridge``), so :func:`predict_lcpn` featurises each row once and
    the bundle stores that bank once.  `label_names` maps each of the
    tree's class ids to a distinct label token: the tokens of the data the
    model was fit on, or ``str(id)`` when none are given.  Raises ValueError
    when the nodes break these rules or a given map does not name every
    class of the tree once with a string.
    """

    tree: HierarchyTree
    node_models: tuple[TrainedClassifier, ...]
    label_names: Mapping[int, str] | None = None

    def __post_init__(self) -> None:
        nodes = self.node_models
        if len(nodes) != len(self.tree.parents):
            raise ValueError(f"has {len(nodes)} node models for {len(self.tree.parents)} parent nodes")
        first = nodes[0]
        for i, m in enumerate(nodes):
            if not (
                isinstance(m, TrainedClassifier)
                and m.spec == first.spec
                and m.series_length == first.series_length
                and (m.kernels is first.kernels or m.kernels == first.kernels)
            ):
                raise ValueError("node models must be classifiers of one spec, series length and kernel bank")
            if m.class_ids != (0, 1):
                raise ValueError(f"node model {i} has class ids {list(m.class_ids)}, not [0, 1]")
        if (first.kernels is None) != (first.spec.kind == "linear"):
            raise ValueError("linear node models have no kernel bank, kernel-ridge ones have one")
        if first.kernels is not None and first.kernels.n_kernels != first.spec.num_kernels:
            raise ValueError(
                f"spec names {first.spec.num_kernels} kernels, its kernel bank has {first.kernels.n_kernels}"
            )
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
        """The model as one version 5 JSON document: the tree text, the spec,
        the series length, the id -> token map and the kernel bank (null for
        ``linear``) once each, and per node only its decision on the raw
        features, one weight row and one intercept (the left side's score;
        :meth:`TrainedClassifier.to_node_doc`).  Every float64 array is one
        base64 string of its little-endian bytes in row-major order, so it
        reads back to the same bits; integer arrays are number lists."""
        first = self.node_models[0]
        doc = {
            "version": _BUNDLE_VERSION,
            "tree": tree_to_text(self.tree),
            "spec": first.spec.to_dict(),
            "series_length": first.series_length,
            "label_names": {str(c): t for c, t in self.label_names.items()},
            "bank": None if first.kernels is None else first.kernels.to_dict(),
            "nodes": [m.to_node_doc() for m in self.node_models],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_bundle(blob: str) -> "LcpnModel":
        """The model of a version 5 bundle; every node gets the one
        :class:`KernelBank` object it stores.  Raises ModelFormatError when
        `blob` is not such a bundle: a bundle of any other version, which
        must be refit; a document, bank or node with a key version 5 does
        not define, such as an array of an older layout; a null token map;
        or nodes that break a rule of :class:`LcpnModel`."""
        what = "model bundle"
        doc = _decode_json(blob, what)
        version = _field(doc, "version", what)
        if not _is_int(version) or version != _BUNDLE_VERSION:  # not 5.0, not true
            raise ModelFormatError(
                f"unsupported model bundle version {version!r}: this program reads version "
                f"{_BUNDLE_VERSION} only; refit the model (hiertsc fit) to get one"
            )
        _exact_keys(doc, _BUNDLE_KEYS, what)
        if doc["label_names"] is None:
            raise ModelFormatError(_NO_TOKEN_MAP)
        names = _decode_label_names(doc["label_names"])
        tree = _decode_tree(doc["tree"])
        spec = ClassifierSpec.decode(doc["spec"])
        series_length = _positive_int(doc, "series_length", what)
        bank = None if doc["bank"] is None else KernelBank.decode(doc["bank"])
        if bank is not None and bank.series_length != series_length:
            raise ModelFormatError(f"{what} has a kernel bank for another series length")
        if not isinstance(doc["nodes"], list):
            raise ModelFormatError(f"{what} 'nodes' must be a list")
        nodes = [TrainedClassifier.from_node_doc(node, spec, series_length, bank) for node in doc["nodes"]]
        try:
            return LcpnModel(tree=tree, node_models=tuple(nodes), label_names=names)
        except ValueError as exc:
            raise ModelFormatError(f"model bundle {exc}") from None


def _decode_tree(text) -> HierarchyTree:
    """The tree of a bundle's tree text, over the class ids the text names."""
    if not isinstance(text, str):
        raise ModelFormatError("model bundle 'tree' must be a string")
    try:
        return parse_tree_text(text)
    except ValueError as exc:
        raise ModelFormatError(f"model bundle tree: {exc}") from None


def _decode_label_names(doc) -> dict[int, str]:
    """The id -> token map of a bundle.  Each key must be spelled ``str(id)``,
    so no two keys ('1', '01', '+1') can name one class."""
    if not isinstance(doc, dict) or not all(isinstance(t, str) for t in doc.values()):
        raise ModelFormatError("model bundle 'label_names' must map class ids to strings")
    for key in doc:
        try:
            canonical = str(int(key)) == key
        except ValueError:
            canonical = False
        if not canonical:
            raise ModelFormatError(f"model bundle 'label_names' key {key!r} is not a class id")
    return {int(key): token for key, token in doc.items()}


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


def _shared_features(model: LcpnModel, values: np.ndarray, rows: Rows | None) -> np.ndarray:
    """Raw features of every row, which all node models share: taken from
    the run of `rows` when the model was fit on it."""
    bank = model.node_models[0].kernels
    if bank is None:
        return values
    if rows is not None and rows.run.bank is bank:
        return rows.feats
    return bank.transform(values)


def predict_lcpn(model: LcpnModel, values: np.ndarray | Rows) -> tuple[np.ndarray, np.ndarray]:
    """Route every instance root-to-leaf; return (labels, depths).

    Depth counts binary decisions taken, so the root decision is depth 1 and
    every prediction is a leaf class of the hierarchy.  `values` is an
    (n, M) array or :class:`Rows` of a run.  Each row is featurised once per
    call (taken from the run when the model was fit on it) and each node
    scores its rows from those features; served rows are not kept after the
    call.  Raises ValueError for an array of another shape or holding a NaN
    or an infinity.
    """
    rows_in = values if isinstance(values, Rows) else None
    values = _series_input(
        values if rows_in is None else rows_in.values, model.series_length, finite=rows_in is None
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
        decisions = model.node_models[node_idx].predict_features(feats[rows])
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
