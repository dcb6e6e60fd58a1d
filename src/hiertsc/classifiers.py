"""Base classifiers used at split evaluation and at hierarchy nodes.

Two kinds are built in:

``linear``
    L2-regularised least squares on the raw series, one-vs-rest with +/-1
    targets.  A deliberately plain stand-in for a linear-kernel margin
    classifier.

``kernel-ridge``
    A random convolutional kernel transform (lengths 7/9/11, mean-centred
    normal weights, uniform bias, dyadic dilations, optional zero padding)
    producing (proportion-of-positives, max) per kernel, standardised and
    fed to the same closed-form ridge.

Both are deterministic functions of (spec, data); predictions break argmax
ties toward the smallest class id.  Their label-independent half, the raw
features, is computed once per run: a :class:`Run` draws its kernel bank and
featurises all of its rows in one call, and every fit slices that one matrix
by row index (:class:`Rows`).  New kinds can be plugged in through
:func:`register_classifier_kind`.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from .dataset import Labelled, TimeSeriesDataset

_KERNEL_LENGTHS = (7, 9, 11)


class TrainingDataError(ValueError):
    """Raised when training data cannot support the requested classifier."""


class ModelFormatError(ValueError):
    """Raised when a model bundle cannot be decoded."""


def _decode_json(text, what: str):
    try:
        return json.loads(text)
    except (ValueError, TypeError, RecursionError) as exc:
        raise ModelFormatError(f"{what} is not valid JSON: {exc}") from None


def _field(doc, key: str, what: str):
    """``doc[key]`` of a decoded JSON object, or ModelFormatError."""
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{what} must be a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise ModelFormatError(f"{what} has no '{key}'")
    return doc[key]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _positive_int(doc, key: str, what: str) -> int:
    value = _field(doc, key, what)
    if not _is_int(value) or value < 1:
        raise ModelFormatError(f"{what} '{key}' must be a positive integer, got {value!r}")
    return value


def _decode_array(value, dtype, ndim: int, what: str) -> np.ndarray:
    """A nested JSON list as an `ndim`-D array of `dtype`: int64 takes JSON
    integers only, float64 takes finite JSON numbers."""
    kinds = "i" if dtype is np.int64 else "if"
    try:
        array = np.asarray(value)
    except (ValueError, OverflowError):  # ragged, or an int too large for a float
        array = None
    if array is None or array.ndim != ndim or array.dtype.kind not in kinds:
        raise ModelFormatError(f"{what} must be a {ndim}-D array of {np.dtype(dtype).name} numbers")
    array = array.astype(dtype)
    if dtype is np.float64 and not np.isfinite(array).all():
        raise ModelFormatError(f"{what} holds a non-finite number")
    return array


def _array_or_none(array: np.ndarray | None):
    return None if array is None else array.tolist()


@dataclass(frozen=True)
class ClassifierSpec:
    """Configuration of a base classifier.

    kind is ``linear`` or ``kernel-ridge`` (or a registered custom kind);
    num_kernels and seed only matter for the kernel transform.
    """

    kind: str = "linear"
    num_kernels: int = 512
    ridge_lambda: float = 1e-2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_kernels < 1:
            raise ValueError("num_kernels must be >= 1")
        if not (math.isfinite(self.ridge_lambda) and self.ridge_lambda > 0):
            raise ValueError("ridge_lambda must be finite and positive")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(doc: dict) -> "ClassifierSpec":
        return ClassifierSpec(*(doc[f.name] for f in fields(ClassifierSpec)))

    @staticmethod
    def decode(doc) -> "ClassifierSpec":
        """:meth:`from_dict` of a decoded model document; ModelFormatError
        when a field is missing, of the wrong type or out of range."""
        for name, types in _SPEC_TYPES.items():
            value = _field(doc, name, "classifier spec")
            if not isinstance(value, types) or isinstance(value, bool):
                raise ModelFormatError(f"classifier spec '{name}' has the wrong type: {value!r}")
        try:
            return ClassifierSpec.from_dict(doc)
        except ValueError as exc:
            raise ModelFormatError(f"classifier spec: {exc}") from None


_SPEC_TYPES = {"kind": str, "num_kernels": int, "ridge_lambda": (int, float), "seed": int}


_BANK_ARRAYS = (
    ("lengths", np.int64),
    ("weights", np.float64),
    ("biases", np.float64),
    ("dilations", np.int64),
    ("paddings", np.int64),
)


@dataclass(frozen=True, eq=False)
class KernelBank:
    """Random convolutional kernels drawn once per (seed, series length).

    A ``kernel-ridge`` :class:`Run` draws one bank, and every fit of the run,
    and every node of the models it fits, shares it.  The bank is a value:
    its arrays are read-only copies, and two banks are equal (and hash
    equal) when their length and every array match.

    Weights of each kernel are mean-centred; dilations are sampled as
    floor(2**u) with u uniform over [0, log2((M-1)/(len-1))] so the dilated
    kernel always fits inside an unpadded series.  Padding, when on, is
    ((len-1)*dilation)//2 zeros on both ends.
    """

    series_length: int
    lengths: np.ndarray
    weights: np.ndarray  # flat, concatenated per kernel
    biases: np.ndarray
    dilations: np.ndarray
    paddings: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in _BANK_ARRAYS:
            array = np.array(getattr(self, name), dtype=dtype)
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KernelBank):
            return NotImplemented
        return self.series_length == other.series_length and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name, _ in _BANK_ARRAYS
        )

    def __hash__(self) -> int:
        return hash(
            (self.series_length, *(getattr(self, name).tobytes() for name, _ in _BANK_ARRAYS))
        )

    @property
    def n_kernels(self) -> int:
        return int(self.lengths.size)

    @staticmethod
    def generate(series_length: int, num_kernels: int, seed: int) -> "KernelBank":
        usable = [l for l in _KERNEL_LENGTHS if l <= series_length]
        if not usable:
            raise TrainingDataError(
                f"series of length {series_length} are too short for the kernel "
                f"transform (minimum kernel length is {min(_KERNEL_LENGTHS)})"
            )
        rng = np.random.default_rng(seed)
        lengths = rng.choice(np.asarray(usable, dtype=np.int64), size=num_kernels)
        weights = np.empty(int(lengths.sum()), dtype=np.float64)
        biases = np.empty(num_kernels)
        dilations = np.empty(num_kernels, dtype=np.int64)
        paddings = np.empty(num_kernels, dtype=np.int64)
        at = 0
        for i in range(num_kernels):
            length = int(lengths[i])
            w = rng.normal(0.0, 1.0, length)
            weights[at : at + length] = w - w.mean()
            at += length
            biases[i] = rng.uniform(-1.0, 1.0)
            max_exp = np.log2((series_length - 1) / (length - 1))
            dilations[i] = max(1, int(2 ** rng.uniform(0.0, max_exp)))
            pad_on = rng.integers(0, 2) == 1
            paddings[i] = ((length - 1) * dilations[i]) // 2 if pad_on else 0
        return KernelBank(series_length, lengths, weights, biases, dilations, paddings)

    def transform(self, values: np.ndarray) -> np.ndarray:
        """(n, M) series -> (n, 2*n_kernels) features: per kernel the share of
        positive convolution outputs and the maximum output.

        Kernels that share (length, dilation, padding) are convolved together:
        shift-and-add, one tap at a time over all of them, in slices of at
        most ``_PASS_ELEMENTS`` outputs.  Each output sees the same
        elementwise operations in the same order whatever its group, slice or
        batch, so a row's features are the same bits in any batch.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != self.series_length:
            raise ValueError(
                f"expected (n, {self.series_length}) input, got {values.shape}"
            )
        n = values.shape[0]
        plan = self._plan
        positive = np.empty((self.n_kernels, n))  # rows in plan order
        maximum = np.empty((self.n_kernels, n))
        x, padding = values, 0
        for group in plan.groups:
            if group.padding != padding:
                padding = group.padding
                x = np.zeros((n, self.series_length + 2 * padding))
                x[:, padding : padding + self.series_length] = values
            out_len = group.out_len
            step = max(1, _PASS_ELEMENTS // max(1, n * out_len))
            for start in range(0, group.size, step):
                stop = min(start + step, group.size)
                taps = group.taps[:, start:stop]
                out = taps[0] * x[:, :out_len]
                for k in range(1, group.length):
                    at = k * group.dilation
                    out += taps[k] * x[:, at : at + out_len]
                out += group.biases[start:stop]
                rows = slice(group.first + start, group.first + stop)
                np.divide((out > 0).sum(axis=2), out_len, out=positive[rows])
                out.max(axis=2, out=maximum[rows])
        feats = np.empty((n, 2 * self.n_kernels))
        feats[:, plan.columns] = positive.T
        feats[:, plan.columns + 1] = maximum.T
        return feats

    @cached_property
    def _plan(self) -> "_TransformPlan":
        """The kernels grouped by (length, dilation, padding); built on first
        use and not part of the bank's value.

        Groups are ordered by padding, then by first appearance, so a batch is
        padded once per distinct padding and one padded copy is alive at a
        time (cycling through them all was slower on large batches).
        """
        members: dict[tuple[int, int, int], list[int]] = {}
        keys = zip(self.lengths.tolist(), self.dilations.tolist(), self.paddings.tolist())
        for i, key in enumerate(keys):
            members.setdefault(key, []).append(i)
        members = dict(sorted(members.items(), key=lambda item: item[0][2]))
        offsets = np.cumsum(self.lengths) - self.lengths  # each kernel's first weight
        groups = []
        first = 0
        for (length, dilation, padding), kernels in members.items():
            out_len = self.series_length + 2 * padding - (length - 1) * dilation
            if out_len < 1:
                raise TrainingDataError("kernel does not fit the series even when padded")
            taps = self.weights[np.arange(length)[:, None] + offsets[kernels]]
            biases = self.biases[kernels]
            groups.append(
                _KernelGroup(
                    length, dilation, padding, out_len, len(kernels), first,
                    taps[:, :, None, None], biases[:, None, None],
                )
            )
            first += len(kernels)
        order = [i for kernels in members.values() for i in kernels]
        return _TransformPlan(tuple(groups), 2 * np.asarray(order, dtype=np.int64))

    def to_dict(self) -> dict:
        return {
            "series_length": self.series_length,
            **{name: getattr(self, name).tolist() for name, _ in _BANK_ARRAYS},
        }

    @staticmethod
    def from_dict(doc: dict) -> "KernelBank":
        return KernelBank(
            series_length=doc["series_length"],
            **{name: doc[name] for name, _ in _BANK_ARRAYS},
        )

    @staticmethod
    def decode(doc) -> "KernelBank":
        """:meth:`from_dict` of a decoded model document.  Raises
        ModelFormatError unless its arrays describe kernels :meth:`generate`
        could draw: each dilated kernel fits inside an unpadded series and
        pads by at most half its span."""
        what = "kernel bank"
        series_length = _positive_int(doc, "series_length", what)
        arrays = {
            name: _decode_array(_field(doc, name, what), dtype, 1, f"{what} {name}")
            for name, dtype in _BANK_ARRAYS
        }
        lengths, weights = arrays["lengths"], arrays["weights"]
        if (
            lengths.size == 0
            or (lengths < 1).any()
            or int(lengths.sum()) != weights.size
            or any(arrays[name].size != lengths.size for name in ("biases", "dilations", "paddings"))
        ):
            raise ModelFormatError(f"{what} arrays disagree in size")
        span = (lengths - 1.0) * arrays["dilations"]  # floats: no overflow
        paddings = arrays["paddings"]
        if (
            (arrays["dilations"] < 1).any()
            or (span > series_length - 1).any()
            or (paddings < 0).any()
            or (paddings > span // 2).any()
        ):
            raise ModelFormatError(f"{what} has a kernel that does not fit series of length {series_length}")
        return KernelBank(series_length, **arrays)


#: The most outputs (kernels x rows x positions) one shift-and-add slice
#: holds: a larger group is convolved a slice of its kernels at a time, so
#: the temporaries stay small.
_PASS_ELEMENTS = 32768


@dataclass(frozen=True)
class _KernelGroup:
    """Kernels that share (length, dilation, padding), convolved together."""

    length: int
    dilation: int
    padding: int
    out_len: int
    size: int  # g, the number of kernels
    first: int  # position of the group's first kernel in the plan order
    taps: np.ndarray  # (length, g, 1, 1): tap k's weight in every kernel
    biases: np.ndarray  # (g, 1, 1)


@dataclass(frozen=True)
class _TransformPlan:
    groups: tuple[_KernelGroup, ...]
    columns: np.ndarray  # positive-share feature column of each kernel, plan order


def ridge_solve(features: np.ndarray, targets: np.ndarray, lam: float) -> np.ndarray:
    """Ridge weights W for (n, f) features F and (n, k) targets Y.

    W solves (F^T F + lam*I) W = F^T Y.  The form solved is the smaller of two
    equal ones, chosen from the shape:

    - n >= f, the primal: the f x f system above;
    - n < f, the dual: W = F^T (F F^T + lam*I)^-1 Y, an n x n system
      (Rifkin & Lippert, "Notes on Regularized Least Squares", 2007).

    The two agree to rounding (about 1e-11 at n = 150, f = 1024).
    """
    n, f = features.shape
    if n < f:
        gram = features @ features.T
        gram.flat[:: n + 1] += lam
        return features.T @ np.linalg.solve(gram, targets)
    gram = features.T @ features
    gram.flat[:: f + 1] += lam
    return np.linalg.solve(gram, features.T @ targets)


@dataclass(frozen=True)
class TrainedClassifier:
    """Fitted multi-class model: per-class weight vector plus intercept.

    For ``linear`` the features are the raw series; for ``kernel-ridge`` the
    standardised kernel features (weight dimension 2 * num_kernels).
    """

    spec: ClassifierSpec
    class_ids: tuple[int, ...]
    weights: np.ndarray  # (n_classes, n_features)
    intercepts: np.ndarray  # (n_classes,)
    series_length: int
    kernels: KernelBank | None = None
    feature_mean: np.ndarray | None = None
    feature_scale: np.ndarray | None = None

    def feature_scores(self, raw: np.ndarray) -> np.ndarray:
        """Per-class scores of rows given their raw (unstandardised) features:
        the kernel transform, or the series themselves."""
        if self.feature_mean is not None:
            raw = (raw - self.feature_mean) / self.feature_scale
        return raw @ self.weights.T + self.intercepts

    def decision_scores(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != self.series_length:
            raise ValueError(
                f"expected (n, {self.series_length}) input, got {values.shape}"
            )
        raw = self.kernels.transform(values) if self.kernels is not None else values
        return self.feature_scores(raw)

    def predict(self, values: np.ndarray) -> np.ndarray:
        """Argmax over per-class scores; ties go to the smallest class id."""
        return self._argmax(self.decision_scores(values))

    def predict_features(self, raw: np.ndarray) -> np.ndarray:
        """:meth:`predict` for rows whose raw features are at hand."""
        return self._argmax(self.feature_scores(raw))

    def _argmax(self, scores: np.ndarray) -> np.ndarray:
        ids = np.asarray(self.class_ids, dtype=np.int64)
        return ids[np.argmax(scores, axis=1)]

    # -- serialization -----------------------------------------------------

    def to_node_doc(self) -> dict:
        """The fitted arrays as plain JSON values: ``class_ids``, ``weights``,
        ``intercepts``, ``feature_mean`` and ``feature_scale`` (None for
        ``linear``).  Floats are written as their repr, which reads back to
        the same bits."""
        return {
            "class_ids": list(self.class_ids),
            "weights": self.weights.tolist(),
            "intercepts": self.intercepts.tolist(),
            "feature_mean": _array_or_none(self.feature_mean),
            "feature_scale": _array_or_none(self.feature_scale),
        }

    @staticmethod
    def from_node_doc(
        doc, spec: ClassifierSpec, series_length: int, kernels: KernelBank | None
    ) -> "TrainedClassifier":
        """The classifier of a :meth:`to_node_doc` document, with the fields a
        container stores for it.  Raises ModelFormatError unless every array
        has the shape the class ids, the series length and the bank imply."""
        what = "node model"
        class_ids = _field(doc, "class_ids", what)
        if (
            not isinstance(class_ids, list)
            or not class_ids
            or not all(_is_int(c) for c in class_ids)
            or len(set(class_ids)) != len(class_ids)
        ):
            raise ModelFormatError(f"{what} 'class_ids' must be a list of distinct integers")
        n_features = series_length if kernels is None else 2 * kernels.n_kernels
        shapes = {
            "weights": (len(class_ids), n_features),
            "intercepts": (len(class_ids),),
            "feature_mean": (n_features,),
            "feature_scale": (n_features,),
        }
        arrays = {}
        for name, shape in shapes.items():
            value = _field(doc, name, what)
            if value is None and name.startswith("feature_"):
                arrays[name] = None
                continue
            array = _decode_array(value, np.float64, len(shape), f"{what} {name}")
            if array.shape != shape:
                raise ModelFormatError(f"{what} {name} has shape {array.shape}, expected {shape}")
            arrays[name] = array
        if (arrays["feature_mean"] is None) != (arrays["feature_scale"] is None):
            raise ModelFormatError(f"{what} has only one of feature_mean and feature_scale")
        if arrays["feature_scale"] is not None and (arrays["feature_scale"] == 0).any():
            raise ModelFormatError(f"{what} feature_scale holds a zero")
        return TrainedClassifier(
            spec=spec,
            class_ids=tuple(class_ids),
            series_length=series_length,
            kernels=kernels,
            **arrays,
        )


def _one_vs_rest_targets(labels: np.ndarray, class_ids: np.ndarray) -> np.ndarray:
    return np.where(labels[:, None] == class_ids[None, :], 1.0, -1.0)


def _check_trainable(data: TimeSeriesDataset | Rows) -> np.ndarray:
    class_ids = np.unique(data.labels)
    if class_ids.size < 2:
        raise TrainingDataError("training data must contain at least two classes")
    return class_ids


def _fit_on_features(
    spec: ClassifierSpec,
    data: TimeSeriesDataset | Rows,
    feats: np.ndarray,
    kernels: KernelBank | None,
) -> TrainedClassifier:
    """Closed-form ridge on `feats` (the raw features of `data`'s rows, in
    order), standardised per fit when they come from `kernels`."""
    class_ids = _check_trainable(data)
    if kernels is not None:
        mean = feats.mean(axis=0)
        scale = feats.std(axis=0)
        scale = np.where(scale == 0.0, 1.0, scale)
        feats = (feats - mean) / scale
    else:
        mean = scale = None
    targets = _one_vs_rest_targets(data.labels, class_ids)
    f_mean = feats.mean(axis=0)
    t_mean = targets.mean(axis=0)
    w = ridge_solve(feats - f_mean, targets - t_mean, spec.ridge_lambda)
    intercepts = t_mean - f_mean @ w
    return TrainedClassifier(
        spec=spec,
        class_ids=tuple(int(c) for c in class_ids),
        weights=w.T,
        intercepts=intercepts,
        series_length=data.series_length,
        kernels=kernels,
        feature_mean=mean,
        feature_scale=scale,
    )


class Run:
    """The rows of one top-level call (a CV run, a fit, a split context),
    featurised once.

    Labels are densified once to class codes (``classes[codes] == labels``),
    so a class-to-group lookup table works for any int64 ids, and `feats`
    holds the raw features of every row: the series themselves for
    ``linear``, or one transform of all rows with the run's `bank`, which
    gives each row the same bits as a transform of any subset.  Folds, splits
    and node fits are :class:`Rows` of the run.  `label_names` is the
    dataset's id -> token map, when it has one.
    """

    def __init__(
        self,
        values: np.ndarray,
        labels: np.ndarray,
        spec: ClassifierSpec,
        label_names: Mapping[int, str] | None = None,
    ) -> None:
        self.values = values
        self.labels = labels
        self.label_names = label_names
        self.classes, self.codes = np.unique(labels, return_inverse=True)
        self.code_of = {int(c): i for i, c in enumerate(self.classes)}
        self.spec = spec
        self.bank: KernelBank | None = None
        if spec.kind == "kernel-ridge":
            self.bank = KernelBank.generate(values.shape[1], spec.num_kernels, spec.seed)
            self.feats = self.bank.transform(values)
        else:
            self.feats = values

    @classmethod
    def rows_of(cls, data, spec: ClassifierSpec) -> "Rows":
        """`data` itself when it is rows of a run already, else every row of a
        new run over it.  Raises ValueError when the run is for another spec."""
        if not isinstance(data, Rows):
            data = Rows(cls(data.values, data.labels, spec, data.label_names), np.arange(data.n_instances))
        if data.run.spec != spec:
            raise ValueError("the run was built for a different classifier spec")
        return data


class Rows(Labelled):
    """Ascending row indices into a :class:`Run`, read like a
    :class:`TimeSeriesDataset` without copying the rows.

    `labels` are the run's labels of the rows, or the 0/1 groups of
    :meth:`binary_groups`.  A fit gathers ``feats`` in row order, so it sees
    the same bits as a fit on a dataset holding those rows.
    """

    def __init__(self, run: Run, idx: np.ndarray, labels: np.ndarray | None = None) -> None:
        self.run = run
        self.idx = idx
        self.labels = run.labels[idx] if labels is None else labels
        self.series_length = run.values.shape[1]

    @property
    def values(self) -> np.ndarray:
        return self.run.values[self.idx]

    @property
    def feats(self) -> np.ndarray:
        return self.run.feats[self.idx]

    def subset(self, indices: np.ndarray) -> "Rows":
        return Rows(self.run, self.idx[indices], self.labels[indices])

    @cached_property
    def _codes(self) -> np.ndarray:
        return self.run.codes[self.idx]

    @cached_property
    def _present(self) -> set[int]:
        return set(np.unique(self._codes).tolist())

    def binary_groups(self, c0, c1) -> tuple["Rows", int | None]:
        """The rows whose run class lies in c0 or c1, labelled group 0 /
        group 1 (group 1 when a class is in both), and `empty`: the first
        side (0 or 1) with no rows, or None.  Callers raise their own error
        for it."""
        code_of = self.run.code_of
        sides = [[code_of[c] for c in side if c in code_of] for side in (c0, c1)]
        group = np.full(self.run.classes.size, -1, dtype=np.int64)
        for g, codes in enumerate(sides):
            group[codes] = g
        empty = next((g for g, codes in enumerate(sides) if self._present.isdisjoint(codes)), None)
        mark = group[self._codes]
        keep = mark >= 0
        return Rows(self.run, self.idx[keep], mark[keep]), empty

    def predict(self, model) -> np.ndarray:
        """``model.predict(self.values)``, from the run's features when
        `model` was fit on them."""
        if isinstance(model, TrainedClassifier) and model.kernels is self.run.bank:
            return model.predict_features(self.feats)
        return model.predict(self.values)


_BUILT_IN_KINDS = ("linear", "kernel-ridge")

_FITTERS: dict[str, Callable[[ClassifierSpec, TimeSeriesDataset], TrainedClassifier]] = {}


def register_classifier_kind(
    kind: str, fitter: Callable[[ClassifierSpec, TimeSeriesDataset], TrainedClassifier]
) -> None:
    """Install a custom classifier kind (used by tests to inject stubs).

    A custom fitter gets a :class:`TimeSeriesDataset` of the rows, not the
    run's features.
    """
    _FITTERS[kind] = fitter


def fit_classifier(spec: ClassifierSpec, data: TimeSeriesDataset | Rows) -> TrainedClassifier:
    """Fit the classifier described by `spec`; deterministic for fixed inputs.

    `data` is a :class:`TimeSeriesDataset` or :class:`Rows` of a run.
    Built-in kinds take the raw features of the rows from their run; a
    dataset becomes a new run.  Custom kinds get a dataset.
    """
    fitter = _FITTERS.get(spec.kind)
    if fitter is not None:
        if isinstance(data, Rows):
            data = TimeSeriesDataset(data.values, data.labels)
        return fitter(spec, data)
    if spec.kind not in _BUILT_IN_KINDS:
        raise ValueError(f"unknown classifier kind '{spec.kind}'")
    rows = Run.rows_of(data, spec)
    return _fit_on_features(spec, rows, rows.feats, rows.run.bank)
