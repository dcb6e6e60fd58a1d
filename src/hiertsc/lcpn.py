"""Local-classifier-per-parent-node models over a fixed hierarchy."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .classifiers import (
    ClassifierSpec,
    KernelBank,
    ModelFormatError,
    Rows,
    Run,
    TrainingDataError,
    _decisions,
    _PreparedRows,
    _decode_floats,
    _decode_json,
    _encode_floats,
    _exact_keys,
    _field,
    _is_int,
    _positive_int,
    _series_input,
)
from .dataset import TimeSeriesDataset
from .tree import HierarchyTree, ParentNode, parse_tree_text, tree_to_text

_BUNDLE_VERSION = 6
_BUNDLE_KEYS = ("version", "tree", "spec", "series_length", "label_names", "bank_sha256", "nodes")
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


@dataclass(frozen=True, eq=False)
class LcpnModel:
    """A hierarchy plus one binary decision per parent node, as its bundle
    stores it.

    Parent i (in ``tree.parents`` order) decides with row i of `weights`,
    (parents, features), and ``intercepts[i]``: its decision on a row's raw
    features, the kernel transform with `bank` for ``kernel-ridge`` or the
    series themselves for ``linear`` (`bank` None), is the left side's
    score, and the row goes right where it is negative, else left.  A
    ``kernel-ridge`` node fit folds the standardisation of its rows into its
    row, so every node reads the same features and :func:`predict_lcpn`
    featurises each row once.  `label_names` maps each of the tree's class
    ids to a distinct label token: the tokens of the data the model was fit
    on, or ``str(id)`` when none are given.  Raises ValueError when the bank
    does not match the spec's kind, its kernel count or the series length,
    when `weights` and `intercepts` are not one row and one number per
    parent over those features, or when a given map does not name every
    class of the tree once with a string.  Two models are equal only when
    they are the same object, and hash by identity.
    """

    tree: HierarchyTree
    spec: ClassifierSpec
    series_length: int
    bank: KernelBank | None
    weights: np.ndarray  # (parents, features)
    intercepts: np.ndarray  # (parents,)
    label_names: Mapping[int, str] | None = None

    def __post_init__(self) -> None:
        parents, bank, spec = len(self.tree.parents), self.bank, self.spec
        if len(self.weights) != parents:
            raise ValueError(f"has {len(self.weights)} node models for {parents} parent nodes")
        if (bank is None) != (spec.kind == "linear"):
            raise ValueError("linear node models have no kernel bank, kernel-ridge ones have one")
        if bank is not None and bank.n_kernels != spec.num_kernels:
            raise ValueError(f"spec names {spec.num_kernels} kernels, its kernel bank has {bank.n_kernels}")
        if bank is not None and bank.series_length != self.series_length:
            raise ValueError("has a kernel bank for another series length")
        n_features = _n_features(self.series_length, spec)
        if self.weights.shape != (parents, n_features) or self.intercepts.shape != (parents,):
            raise ValueError(
                f"takes ({parents}, {n_features}) weights and ({parents},) intercepts, "
                f"not {self.weights.shape} and {self.intercepts.shape}"
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

    def to_bundle(self) -> str:
        """The model as one version 6 JSON document: the tree text, the spec,
        the series length, the id -> token map and the kernel bank's
        :attr:`~hiertsc.classifiers.KernelBank.digest` (null for ``linear``)
        once each, and per parent one ``nodes`` object: its ``weights`` row
        and its ``intercepts`` number, as arrays of one row and one value.
        The bank's arrays are not stored: the spec's seed and kernel count
        and the series length draw them again.  Every float64 array is one
        base64 string of its little-endian bytes in row-major order, so it
        reads back to the same bits."""
        doc = {
            "version": _BUNDLE_VERSION,
            "tree": tree_to_text(self.tree),
            "spec": self.spec.to_dict(),
            "series_length": self.series_length,
            "label_names": {str(c): t for c, t in self.label_names.items()},
            "bank_sha256": None if self.bank is None else self.bank.digest,
            "nodes": [
                {"weights": _encode_floats(w), "intercepts": _encode_floats(b)}
                for w, b in zip(self.weights, self.intercepts)
            ],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_bundle(blob: str) -> "LcpnModel":
        """The model of a version 6 bundle.  Its node rows are decoded
        against the spec's shapes before the bank is drawn again, so a bundle
        cannot ask for more kernels than its own bytes hold.  Raises
        ModelFormatError for a bundle of any other version, which must be
        refit; a key version 6 does not define; a null token map; a
        ``bank_sha256`` that is not null for ``linear`` and 64 lowercase hex
        digits otherwise; a node row of another size or holding a NaN or an
        infinity; a bank the spec cannot draw, or draws with another digest
        (which must be refit); or fields that break a rule of
        :class:`LcpnModel`."""
        what = "model bundle"
        doc = _decode_json(blob, what)
        version = _field(doc, "version", what)
        if not _is_int(version) or version != _BUNDLE_VERSION:  # not 6.0, not true
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
        digest = doc["bank_sha256"]
        if spec.kind == "linear" and digest is not None:
            raise ModelFormatError(f"{what} 'bank_sha256' must be null: linear node models have no kernel bank")
        if spec.kind != "linear" and not (isinstance(digest, str) and _SHA256.fullmatch(digest)):
            raise ModelFormatError(f"{what} 'bank_sha256' must be 64 lowercase hex digits, got {digest!r}")
        if not isinstance(doc["nodes"], list):
            raise ModelFormatError(f"{what} 'nodes' must be a list")
        if len(doc["nodes"]) != len(tree.parents):  # before a bank that no node row bounds
            raise ModelFormatError(f"{what} has {len(doc['nodes'])} node models for {len(tree.parents)} parent nodes")
        n_features = _n_features(series_length, spec)
        shapes = {"weights": (1, n_features), "intercepts": (1,)}
        rows = []
        for node in doc["nodes"]:
            _exact_keys(node, shapes, "node model")
            rows.append([_decode_floats(node[name], shape, f"node model {name}") for name, shape in shapes.items()])
        bank = None if digest is None else _drawn_bank(spec, series_length, digest)
        try:
            return LcpnModel(
                tree=tree,
                spec=spec,
                series_length=series_length,
                bank=bank,
                weights=np.array([w for w, _ in rows]).reshape(len(rows), n_features),
                intercepts=np.array([b for _, b in rows]).reshape(len(rows)),
                label_names=names,
            )
        except ValueError as exc:
            raise ModelFormatError(f"model bundle {exc}") from None


_SHA256 = re.compile("[0-9a-f]{64}")


def _drawn_bank(spec: ClassifierSpec, series_length: int, digest: str) -> KernelBank:
    """The bank the spec draws, if it has the bundle's `digest`."""
    try:
        bank = KernelBank.generate(series_length, spec.num_kernels, spec.seed)
    except (TrainingDataError, OverflowError) as exc:  # too short, or too long for int64 dilations
        raise ModelFormatError(f"model bundle kernel bank cannot be drawn: {exc}") from None
    if bank.digest != digest:
        raise ModelFormatError(
            "model bundle 'bank_sha256' does not match the kernel bank its spec draws (an edited "
            "seed or kernel count, or a numpy that draws another stream); refit the model "
            "(hiertsc fit) on this installation"
        )
    return bank


def _n_features(series_length: int, spec: ClassifierSpec) -> int:
    """The raw features a decision reads: the series, or two per kernel."""
    return series_length if spec.kind == "linear" else 2 * spec.num_kernels


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


def _check_fit(tree: HierarchyTree, rows: Rows) -> None:
    """Raise the NodeTrainingError a fit of `tree` on `rows` meets first:
    labels outside the tree's classes, else the first parent, in tree
    order, with no training rows on one side.  One :meth:`Rows.grouped`
    call counts the rows of the root set, then of both sides of each
    parent; no feature is gathered."""
    sides = [side for parent in tree.parents for side in (parent.left, parent.right)]
    _, counts = rows.grouped([tree.root_classes, *sides])
    if counts[0] < rows.n_instances:
        foreign = frozenset(rows.label_space) - tree.root_classes
        raise NodeTrainingError(
            f"data contains labels {sorted(foreign)} outside the tree's classes "
            f"{sorted(tree.root_classes)}"
        )
    for parent, pair in zip(tree.parents, zip(counts[1::2], counts[2::2])):
        if 0 in pair:
            raise NodeTrainingError(
                f"parent {parent.id} has no training instances on its "
                f"{('left', 'right')[pair.index(0)]} side "
                f"({sorted(parent.left)} | {sorted(parent.right)})"
            )


def _node_rows(parents: Sequence[ParentNode], rows: Rows) -> tuple[np.ndarray, np.ndarray]:
    """(weights (P, f), intercepts (P,)): row i is the node fit of
    ``parents[i]`` on `rows`, with the bits of a two-class ``fit_classifier``
    on the parent's rows, left -> 0 and right -> 1.  Each class set's rows
    are relabelled once by class within the set (:meth:`Rows.grouped` over
    its sorted classes as singletons) and prepared once
    (:class:`~hiertsc.classifiers._PreparedRows`), one set at a time; each
    (left, right) split is solved once on them."""
    members: dict[frozenset, list[int]] = {}
    for i, parent in enumerate(parents):
        members.setdefault(parent.class_set, []).append(i)
    weights = np.empty((len(parents), rows.run.feats.shape[1]))
    intercepts = np.empty(len(parents))
    for classes, nodes in members.items():
        order = sorted(classes)
        node, _ = rows.grouped([(c,) for c in order])
        prepared = _PreparedRows(node)
        for i in nodes:
            left = np.array([c in parents[i].left for c in order])
            w, b = prepared.fit(left[node.labels][:, None])
            weights[i], intercepts[i] = w[0], b[0]
        del prepared  # one prepared row set is live at a time
    return weights, intercepts


def fit_lcpn(
    tree: HierarchyTree,
    data: TimeSeriesDataset | Rows,
    spec: ClassifierSpec,
    counters: FitCounters | None = None,
) -> LcpnModel:
    """Train one binary classifier per parent on the instances under it.

    Each node sees exactly the rows whose class lies in the parent's class
    set, relabelled left -> 0 / right -> 1, and its fit's one weight row and
    intercept become the parent's row of the model.  Nodes are independent,
    so the result does not depend on training order.  `data` is a dataset or
    :class:`Rows` of a run; a dataset becomes one new run, and every node
    fit slices that run's features by row index.  The model keeps the
    data's token map over the tree's classes, or names each class by its id
    when the data has no map; a map that leaves out a class of the tree or
    repeats a token raises ValueError.  Raises NodeTrainingError, before
    any node is fit, for data with labels outside the tree's classes or a
    parent with no rows on one side.  The node fits are :func:`_node_rows`,
    as in tree scoring.
    """
    rows = Run.rows_of(data, spec)
    _check_fit(tree, rows)
    weights, intercepts = _node_rows(tree.parents, rows)
    if counters is not None:
        _, counts = rows.grouped([parent.class_set for parent in tree.parents])
        counters.per_parent_instances.extend(counts)
        counters.per_parent_classes.extend(len(parent.class_set) for parent in tree.parents)
    names = rows.run.label_names
    if names is not None:
        names = {c: names[c] for c in sorted(tree.root_classes) if c in names}
    return LcpnModel(
        tree=tree,
        spec=spec,
        series_length=rows.series_length,
        bank=rows.run.bank,
        weights=weights,
        intercepts=intercepts,
        label_names=names,
    )


def _route(tree: HierarchyTree, decisions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Route every row of `decisions` root to leaf; return (labels, depths).
    `decisions` is (rows, parents), column i the decisions of
    ``tree.parents[i]`` (:func:`~hiertsc.classifiers._decisions`), and a row
    goes right where its decision at a parent is negative, else left: each
    visit looks its rows up in one column."""
    n = decisions.shape[0]
    labels = np.empty(n, dtype=np.int64)
    depths = np.zeros(n, dtype=np.int64)
    stack: list[tuple[int, np.ndarray, int]] = [(0, np.arange(n), 1)]
    while stack:
        node_idx, rows, depth = stack.pop()
        if rows.size == 0:
            continue
        parent = tree.parents[node_idx]
        right = decisions[rows, node_idx] < 0
        for side, group in ((parent.left, rows[~right]), (parent.right, rows[right])):
            if group.size == 0:
                continue
            if len(side) == 1:
                labels[group] = next(iter(side))
                depths[group] = depth
            else:
                stack.append((tree.parent_index_of(side), group, depth + 1))
    return labels, depths


def predict_lcpn(model: LcpnModel, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Route every instance root-to-leaf; return (labels, depths).

    Depth counts binary decisions taken, so the root decision is depth 1 and
    every prediction is a leaf class of the hierarchy.  `values` is an
    (n, M) array of raw series.  Each row is featurised once per call, and
    one (rows, parents) decision matrix of the model's weights and
    intercepts (:func:`~hiertsc.classifiers._decisions`) routes them
    (:func:`_route`): each decision is a per-row sum, so a row's label does
    not depend on the rows served with it.  Served rows are not kept after
    the call.  Raises ValueError for an array of another shape or holding a
    NaN or an infinity.
    """
    values = _series_input(values, model.series_length, finite=True)
    feats = values if model.bank is None else model.bank.transform(values)
    return _route(model.tree, _decisions(feats, model.weights, model.intercepts))
