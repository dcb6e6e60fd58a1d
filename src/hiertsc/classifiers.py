"""Base classifiers used at split evaluation and at hierarchy nodes.

Two kinds, the :data:`KINDS`:

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
ties toward the smallest class id.  A fit's label-independent half, the raw
features, is computed once per run: a :class:`Run` draws its kernel bank and
featurises all of its rows in one call, and every fit slices that one matrix
by row index (:class:`Rows`).  Each fit then standardises and centres its
rows in one pass over their gathered features (:func:`_centred`) and makes
one :func:`ridge_solve`, which builds the Gram matrix:

- a node fit (:func:`fit_classifier`) solves for its one-vs-rest targets;
- split scoring relabels a class set's rows once (:meth:`Rows.grouped`, by
  class within the set, from class counts taken once per row set) and
  solves once, with one right-hand side per class indicator
  (:func:`_class_decisions`).  Each bipartition is then a sign per class,
  one matrix-vector product and a 2x2 confusion.  Its scores equal a fresh
  fit's, and its decision values agree with that fit's to rounding.
"""

from __future__ import annotations

import base64
import json
import math
import sys
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .dataset import Labelled, TimeSeriesDataset

_KERNEL_LENGTHS = (7, 9, 11)

#: The classifier kinds a :class:`ClassifierSpec` may name.
KINDS = ("linear", "kernel-ridge")


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
    integers only, float64 takes JSON numbers."""
    kinds = "i" if dtype is np.int64 else "if"
    try:
        array = np.asarray(value)
    except (ValueError, OverflowError):  # ragged, or an int too large for a float
        array = None
    if array is None or array.ndim != ndim or array.dtype.kind not in kinds:
        raise ModelFormatError(f"{what} must be a {ndim}-D array of {np.dtype(dtype).name} numbers")
    return array.astype(dtype)


def _encode_floats(array: np.ndarray) -> str:
    """A float64 array as one base64 string (RFC 4648) of its little-endian
    IEEE-754 bytes in row-major order, which reads back to the same bits."""
    return base64.b64encode(np.asarray(array, dtype="<f8").tobytes()).decode("ascii")


def _decode_floats(value, shape: tuple[int, ...], what: str, packed: bool) -> np.ndarray:
    """The float64 array of `shape` that `value` holds: an
    :func:`_encode_floats` string when `packed`, else a nested list of JSON
    numbers (bundle version 2).  Raises ModelFormatError for any other
    value, for another size and for a NaN or an infinity."""
    if not packed:
        array = _decode_array(value, np.float64, len(shape), what)
    elif not isinstance(value, str):
        raise ModelFormatError(f"{what} must be a base64 string of float64 bytes")
    else:
        try:
            raw = base64.b64decode(value, validate=True)
        except ValueError:  # binascii.Error, or text that is not ASCII
            raise ModelFormatError(f"{what} is not strict base64 text") from None
        size = math.prod(shape)
        if len(raw) != 8 * size:
            raise ModelFormatError(f"{what} holds {len(raw)} bytes, not the 8 x {size} of shape {shape}")
        array = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
    if array.shape != shape:
        raise ModelFormatError(f"{what} has shape {array.shape}, expected {shape}")
    if not np.isfinite(array).all():
        raise ModelFormatError(f"{what} holds a non-finite number")
    return array


def _series_input(values, series_length: int, finite: bool = False) -> np.ndarray:
    """`values` as an (n, series_length) float64 array.  Raises ValueError
    for any other shape and, when `finite`, names the first row holding a
    NaN or an infinity."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != series_length:
        raise ValueError(f"expected (n, {series_length}) input, got {values.shape}")
    if finite and not np.isfinite(values).all():
        row = int(np.flatnonzero(~np.isfinite(values).all(axis=1))[0])
        raise ValueError(f"row {row} of the input holds a NaN or an infinity")
    return values


@dataclass(frozen=True)
class ClassifierSpec:
    """Configuration of a base classifier.

    kind is one of :data:`KINDS`, ``linear`` or ``kernel-ridge``;
    num_kernels and seed only matter for the kernel transform.
    """

    kind: str = "linear"
    num_kernels: int = 512
    ridge_lambda: float = 1e-2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown classifier kind {self.kind!r} (choose from {', '.join(KINDS)})")
        for name in ("num_kernels", "ridge_lambda", "seed"):
            value = getattr(self, name)
            if isinstance(value, np.generic):  # kept as the Python number it holds
                object.__setattr__(self, name, value.item())
        for name in ("num_kernels", "seed"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        lam = self.ridge_lambda
        if not isinstance(lam, (int, float)) or isinstance(lam, bool):
            raise ValueError(f"ridge_lambda must be a real number, got {lam!r}")
        if self.num_kernels < 1:
            raise ValueError("num_kernels must be >= 1")
        if not 0 < lam <= sys.float_info.max:  # an int too large for a float is not finite
            raise ValueError("ridge_lambda must be finite and positive")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def decode(doc) -> "ClassifierSpec":
        """The spec of a decoded :meth:`to_dict` document; ModelFormatError
        when a field is missing, of the wrong type or out of range."""
        names = ("kind", "num_kernels", "ridge_lambda", "seed")
        try:
            return ClassifierSpec(**{name: _field(doc, name, "classifier spec") for name in names})
        except ValueError as exc:
            raise ModelFormatError(f"classifier spec: {exc}") from None


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

        The batch is laid out positions x rows and zero-padded once, to the
        bank's largest padding; a group of kernels that share (length,
        dilation, padding) reads it from its own offset.  Each group is
        convolved by shift-and-add, one tap at a time over all its kernels,
        into one buffer of at most ``_PASS_ELEMENTS`` outputs (or one
        kernel's outputs, when those are more).  Each time the buffer is full
        it is pooled with two segmented reductions, one per feature, over the
        kernels it holds.  Each output sees the same elementwise operations
        in the same order whatever its group, fill or batch, so a row's
        features are the same bits in any batch.
        """
        values = _series_input(values, self.series_length)
        n = values.shape[0]
        plan = self._plan
        pad = plan.padding
        x = np.zeros((self.series_length + 2 * pad, n))
        x[pad : pad + self.series_length] = values.T
        positive = np.empty((self.n_kernels, n))  # rows in plan order
        maximum = np.empty((self.n_kernels, n))
        buf = np.empty((max(_PASS_ELEMENTS // max(1, n), plan.longest), n))
        first = 0  # the first kernel in the buffer, in plan order
        for group in plan.groups:
            out_len = group.out_len
            origin = pad - group.padding
            at, end = group.first, group.first + group.size
            while at < end:
                used = plan.starts[at] - plan.starts[first]
                stop = min(end, at + (len(buf) - used) // out_len)
                if stop == at:  # full: pool it and start again
                    plan.pool(buf, first, at, positive, maximum)
                    first = at
                    continue
                out = buf[used : used + (stop - at) * out_len].reshape(stop - at, out_len, n)
                kernels = slice(at - group.first, stop - group.first)
                taps = group.taps[:, kernels]
                np.multiply(taps[0], x[origin : origin + out_len], out=out)
                for k in range(1, group.length):
                    tap = origin + k * group.dilation
                    out += taps[k] * x[tap : tap + out_len]
                out += group.biases[kernels]
                at = stop
        plan.pool(buf, first, self.n_kernels, positive, maximum)
        feats = np.empty((n, 2 * self.n_kernels))
        feats[:, plan.columns] = positive.T
        feats[:, plan.columns + 1] = maximum.T
        return feats

    @cached_property
    def _plan(self) -> "_TransformPlan":
        """The kernels grouped by (length, dilation, padding); built on first
        use and not part of the bank's value.

        Groups are ordered by padding, then by first appearance, and each
        kernel's outputs follow the previous kernel's in that order, so a
        buffer holds a run of kernels that one segmented reduction pools.
        """
        members: dict[tuple[int, int, int], list[int]] = {}
        keys = zip(self.lengths.tolist(), self.dilations.tolist(), self.paddings.tolist())
        for i, key in enumerate(keys):
            members.setdefault(key, []).append(i)
        members = dict(sorted(members.items(), key=lambda item: item[0][2]))
        offsets = np.cumsum(self.lengths) - self.lengths  # each kernel's first weight
        groups = []
        out_lens = []
        for (length, dilation, padding), kernels in members.items():
            out_len = self.series_length + 2 * padding - (length - 1) * dilation
            if out_len < 1:
                raise TrainingDataError("kernel does not fit the series even when padded")
            taps = self.weights[np.arange(length)[:, None] + offsets[kernels]]
            biases = self.biases[kernels]
            groups.append(
                _KernelGroup(
                    length, dilation, padding, out_len, len(kernels), len(out_lens),
                    taps[:, :, None, None], biases[:, None, None],
                )
            )
            out_lens += [out_len] * len(kernels)
        order = [i for kernels in members.values() for i in kernels]
        return _TransformPlan(
            tuple(groups),
            2 * np.asarray(order, dtype=np.int64),
            np.asarray(out_lens, dtype=np.int64),
            [0, *np.cumsum(out_lens).tolist()],
        )

    def to_dict(self) -> dict:
        """The bank as JSON values: integer arrays as number lists, float
        arrays as :func:`_encode_floats` strings."""
        doc = {"series_length": self.series_length}
        for name, dtype in _BANK_ARRAYS:
            array = getattr(self, name)
            doc[name] = _encode_floats(array) if dtype is np.float64 else array.tolist()
        return doc

    @staticmethod
    def decode(doc, packed: bool = True) -> "KernelBank":
        """The bank of a decoded :meth:`to_dict` document, or, unless
        `packed`, of one whose float arrays are number lists (bundle
        version 2).  Raises ModelFormatError unless its arrays describe
        kernels :meth:`generate` could draw: each dilated kernel fits inside
        an unpadded series and pads by at most half its span."""
        what = "kernel bank"
        series_length = _positive_int(doc, "series_length", what)
        lengths, dilations, paddings = (
            _decode_array(_field(doc, name, what), np.int64, 1, f"{what} {name}")
            for name in ("lengths", "dilations", "paddings")
        )
        if (
            lengths.size == 0
            or (lengths < 1).any()
            or dilations.size != lengths.size
            or paddings.size != lengths.size
        ):
            raise ModelFormatError(f"{what} arrays disagree in size")
        n_weights = int(lengths.sum())
        weights = _decode_floats(_field(doc, "weights", what), (n_weights,), f"{what} weights", packed)
        biases = _decode_floats(_field(doc, "biases", what), lengths.shape, f"{what} biases", packed)
        span = (lengths - 1.0) * dilations  # floats: no overflow
        if (
            (dilations < 1).any()
            or (span > series_length - 1).any()
            or (paddings < 0).any()
            or (paddings > span // 2).any()
        ):
            raise ModelFormatError(f"{what} has a kernel that does not fit series of length {series_length}")
        return KernelBank(series_length, lengths, weights, biases, dilations, paddings)


#: The most outputs (positions x rows) the transform's buffer holds, unless
#: one kernel has more: a batch is convolved a run of kernels at a time, so
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
    out_lens: np.ndarray  # outputs per row of each kernel, plan order
    starts: list[int]  # where each kernel's outputs start, plan order, then the end

    @property
    def padding(self) -> int:
        """The largest padding, the last group's."""
        return self.groups[-1].padding

    @property
    def longest(self) -> int:
        """The most outputs per row of one kernel."""
        return int(self.out_lens.max())

    def pool(self, buf, first, stop, positive, maximum) -> None:
        """Pool the outputs of kernels first..stop-1 (plan order), which fill
        `buf` from its top, into rows first..stop-1 of `positive` and
        `maximum`."""
        filled = buf[: self.starts[stop] - self.starts[first]]
        seg = np.asarray(self.starts[first:stop]) - self.starts[first]
        counts = np.add.reduceat(filled > 0, seg, axis=0, dtype=np.int64)
        np.divide(counts, self.out_lens[first:stop, None], out=positive[first:stop])
        np.maximum.reduceat(filled, seg, axis=0, out=maximum[first:stop])


def ridge_solve(features: np.ndarray, targets: np.ndarray, lam: float) -> np.ndarray:
    """Ridge weights W for (n, f) features F and (n, k) targets Y.

    W solves (F^T F + lam*I) W = F^T Y.  The form solved is the smaller of two
    equal ones, chosen from the shape:

    - n >= f, the primal: the f x f system above;
    - n < f, the dual: W = F^T (F F^T + lam*I)^-1 Y, an n x n system
      (Rifkin & Lippert, "Notes on Regularized Least Squares", 2007).

    The two agree to rounding (about 1e-11 at n = 150, f = 1024).  Each call
    builds its Gram matrix, with lam on its diagonal, and each row set is
    solved once: a node fit for its one labelling, split scoring for every
    class indicator of a set at once.
    """
    n, f = features.shape
    if n < f:
        gram = features @ features.T
        gram.flat[:: n + 1] += lam
        return features.T @ np.linalg.solve(gram, targets)
    gram = features.T @ features
    gram.flat[:: f + 1] += lam
    return np.linalg.solve(gram, features.T @ targets)


def _standardise(raw: np.ndarray, mean: np.ndarray | None, scale: np.ndarray | None) -> np.ndarray:
    return raw if mean is None else (raw - mean) / scale


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

    def predict(self, values: np.ndarray) -> np.ndarray:
        """Argmax over per-class scores; ties go to the smallest class id.
        Raises ValueError for input of another shape or holding a NaN or an
        infinity."""
        values = _series_input(values, self.series_length, finite=True)
        raw = self.kernels.transform(values) if self.kernels is not None else values
        return self.predict_features(raw)

    def predict_features(self, raw: np.ndarray) -> np.ndarray:
        """:meth:`predict` for rows whose raw (unstandardised) features are at
        hand: the kernel transform, or the series themselves."""
        feats = _standardise(raw, self.feature_mean, self.feature_scale)
        scores = feats @ self.weights.T + self.intercepts
        return np.asarray(self.class_ids, dtype=np.int64)[np.argmax(scores, axis=1)]

    # -- serialization -----------------------------------------------------

    def to_node_doc(self) -> dict:
        """The fitted arrays as JSON values: ``class_ids`` as a number list;
        ``weights``, ``intercepts``, ``feature_mean`` and ``feature_scale``
        (None for ``linear``) as :func:`_encode_floats` strings, which read
        back to the same bits."""
        doc = {"class_ids": list(self.class_ids)}
        for name in ("weights", "intercepts", "feature_mean", "feature_scale"):
            array = getattr(self, name)
            doc[name] = None if array is None else _encode_floats(array)
        return doc

    @staticmethod
    def from_node_doc(
        doc, spec: ClassifierSpec, series_length: int, kernels: KernelBank | None, packed: bool = True
    ) -> "TrainedClassifier":
        """The classifier of a :meth:`to_node_doc` document, with the fields a
        container stores for it, or, unless `packed`, of one whose float
        arrays are number lists (bundle version 2).  Raises ModelFormatError
        unless every array has the shape the class ids, the series length
        and the bank imply, holds finite values and, for ``feature_scale``,
        positive ones."""
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
            else:
                arrays[name] = _decode_floats(value, shape, f"{what} {name}", packed)
        if (arrays["feature_mean"] is None) != (arrays["feature_scale"] is None):
            raise ModelFormatError(f"{what} has only one of feature_mean and feature_scale")
        if arrays["feature_scale"] is not None and (arrays["feature_scale"] <= 0).any():
            raise ModelFormatError(f"{what} feature_scale holds a value that is not positive")
        return TrainedClassifier(
            spec=spec,
            class_ids=tuple(class_ids),
            series_length=series_length,
            kernels=kernels,
            **arrays,
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

    `labels` are the run's labels of the rows, or the set indices of
    :meth:`grouped`.  A fit gathers ``feats`` in row order, so it sees
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
    def _per_class(self) -> list[int]:
        """Each run class's row count, by class code."""
        return np.bincount(self._codes, minlength=self.run.classes.size).tolist()

    def grouped(self, sets) -> tuple["Rows", list[int]]:
        """The rows whose run class lies in any of the class sets `sets`,
        labelled by the index of the last set holding it, and each set's row
        count: the rows whose class it holds.  One lookup table from run class
        codes to set indices relabels the rows; the class counts behind the
        set counts are taken once per row set."""
        code_of = self.run.code_of
        members = [(code_of[c], g) for g, classes in enumerate(sets) for c in classes if c in code_of]
        set_of = dict(members)  # a class in several sets keeps the last
        group = np.full(self.run.classes.size, -1, dtype=np.int64)
        group[list(set_of)] = list(set_of.values())
        mark = group[self._codes]
        keep = mark >= 0
        per_class = self._per_class
        counts = [0] * len(sets)
        for code, g in members:
            counts[g] += per_class[code]
        return Rows(self.run, self.idx[keep], mark[keep]), counts

    def binary_groups(self, c0, c1) -> tuple["Rows", int | None]:
        """The rows whose run class lies in c0 or c1, labelled group 0 /
        group 1 (group 1 when a class is in both), and `empty`: the first
        side (0 or 1) with no rows, or None.  Callers raise their own error
        for it."""
        node, counts = self.grouped((c0, c1))
        return node, next((g for g in (0, 1) if counts[g] == 0), None)

    def predict(self, model: TrainedClassifier) -> np.ndarray:
        """``model.predict(self.values)``, from the run's features when
        `model` was fit on them."""
        if model.kernels is self.run.bank:
            return model.predict_features(self.feats)
        return model.predict(self.values)


def _centred(rows: Rows) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray, np.ndarray]:
    """The label-independent half of a ridge fit on `rows`, from the raw
    features of its run in row order: (mean, scale, centre, centred).  Rows
    of a run with a kernel bank are standardised by their own mean and scale
    (a zero standard deviation reads as 1), else both are None; `centre` is
    the mean of the standardised features and `centred` those features less
    it.

    One pass over the fresh gather of the rows: each mean is
    ``np.add.reduce(x, axis=0) / n`` and the scale the root of the summed
    squares of ``x - mean`` over n, which is what ``x.mean(0)`` and
    ``x.std(0)`` compute; the standardisation and the centring are made in
    place.  So every value has the bits of those plain expressions.
    """
    feats = rows.feats
    n = feats.shape[0]
    mean = scale = None
    if rows.run.bank is not None:
        mean = np.add.reduce(feats, axis=0) / n
        feats -= mean
        scale = np.sqrt(np.add.reduce(feats * feats, axis=0) / n)
        scale[scale == 0.0] = 1.0
        feats /= scale
    centre = np.add.reduce(feats, axis=0) / n
    feats -= centre
    return mean, scale, centre, feats


def _class_decisions(spec: ClassifierSpec, train: Rows, val: Rows, n_classes: int) -> np.ndarray:
    """(validation rows, n_classes): the centred, standardised features of
    `val` times the ridge weights whose column j fits the indicator of
    ``train.labels == j``, `train.labels` holding one class in
    ``range(n_classes)`` per row: every class in one solve.

    A ridge solution is linear in its targets, so the decisions for any
    targets that are constant on each class are a sum of these columns (how
    split scoring scores every bipartition of a class set).  A class with no
    training rows has a zero column.  Raises ValueError when the rows'
    run is for another spec.
    """
    mean, scale, centre, centred = _centred(Run.rows_of(train, spec))
    codes = train.labels
    indicators = np.zeros((codes.size, n_classes))
    indicators[np.arange(codes.size), codes] = 1.0
    weights = ridge_solve(centred, indicators, spec.ridge_lambda)
    return (_standardise(val.feats, mean, scale) - centre) @ weights


def fit_classifier(spec: ClassifierSpec, data: TimeSeriesDataset | Rows) -> TrainedClassifier:
    """Fit the classifier described by `spec`, one-vs-rest ridge on +/-1
    targets; deterministic for fixed inputs.

    `data` is a :class:`TimeSeriesDataset` or :class:`Rows` of a run; the fit
    takes the raw features of the rows from their run, and a dataset becomes
    a new run.  Raises TrainingDataError for fewer than two classes.
    """
    rows = Run.rows_of(data, spec)
    labels = rows.labels
    class_ids = np.unique(labels)
    if class_ids.size < 2:
        raise TrainingDataError("training data must contain at least two classes")
    mean, scale, centre, centred = _centred(rows)
    targets = np.where(labels[:, None] == class_ids[None, :], 1.0, -1.0)
    t_mean = np.add.reduce(targets, axis=0) / labels.size
    w = ridge_solve(centred, targets - t_mean, spec.ridge_lambda)
    return TrainedClassifier(
        spec=spec,
        class_ids=tuple(int(c) for c in class_ids),
        weights=w.T,
        intercepts=t_mean - centre @ w,
        series_length=rows.series_length,
        kernels=rows.run.bank,
        feature_mean=mean,
        feature_scale=scale,
    )
