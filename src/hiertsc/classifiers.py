"""Base classifiers used at split evaluation and at hierarchy nodes.

Two kinds, the :data:`KINDS`:

``linear``
    L2-regularised least squares on the raw series with +/-1 targets: one
    decision for two classes, one-vs-rest for more.  A deliberately plain
    stand-in for a linear-kernel margin classifier.

``kernel-ridge``
    A random convolutional kernel transform (lengths 7/9/11, mean-centred
    normal weights, uniform bias, dyadic dilations, optional zero padding)
    producing (proportion-of-positives, max) per kernel, standardised and
    fed to the same closed-form ridge.  The fitted weights and intercepts
    take the standardisation in, so a fitted classifier scores the raw
    kernel features.

Both are deterministic functions of (spec, data); predictions break ties
toward the smallest class id.  A fit's label-independent half, the raw
features, is computed once per run: a :class:`Run` draws its kernel bank and
featurises all of its rows in one call, and every fit slices that one matrix
by row index (:class:`Rows`); a run and an ``lcpn.LcpnModel`` are the only
holders of a bank.  One ridge path serves every fit: a
:class:`_PreparedRows` standardises and centres a row set in one pass over
its gathered features (:func:`_centred`) and builds the Gram matrix with
lambda on its diagonal once (:func:`_gram`); each target fit on those rows is
then one :func:`ridge_solve`:

- a node fit (``lcpn._node_rows``, for ``lcpn.fit_lcpn`` and tree scoring)
  relabels and prepares each class set's rows once (by class within the
  set) and solves each (left, right) split of it for the one +/-1 column
  of its left side, folding the rows' mean and scale into the solved
  weights: one weight row and intercept per parent of an
  ``lcpn.LcpnModel``'s decision matrix.  A classifier, a model and tree
  scoring all decide through one form, :func:`_decisions`;
- split scoring relabels a class set's rows once (by class within the set)
  and solves once, with one right-hand side per class indicator
  (:func:`_class_decisions`).  Each bipartition is then a sign per class,
  one matrix-vector product and a 2x2 confusion.  Its scores equal a fresh
  fit's, and its decision values agree with that fit's to rounding.

Both relabel through one lookup, :meth:`Rows.grouped`: one table from run
class codes to set indices, and set counts from class counts taken once per
row set.  ``lcpn``'s side checks and cost counters read its counts.
"""

from __future__ import annotations

import base64
import hashlib
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


def _exact_keys(doc, keys, what: str) -> None:
    """Raise ModelFormatError unless the decoded JSON object `doc` has
    exactly the keys `keys`: a key the format does not define, such as an
    array of an older layout, is refused rather than ignored."""
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{what} must be a JSON object, got {type(doc).__name__}")
    extra = sorted(doc.keys() - set(keys))
    if extra:
        raise ModelFormatError(f"{what} has a key its format does not define: {extra[0]!r}")
    for key in keys:
        _field(doc, key, what)


def _encode_floats(array: np.ndarray) -> str:
    """A float64 array as one base64 string (RFC 4648) of its little-endian
    IEEE-754 bytes in row-major order, which reads back to the same bits."""
    return base64.b64encode(np.asarray(array, dtype="<f8").tobytes()).decode("ascii")


def _decode_floats(value, shape: tuple[int, ...], what: str) -> np.ndarray:
    """The float64 array of `shape` that `value`, an :func:`_encode_floats`
    string, holds.  Raises ModelFormatError for any other value, for another
    size and for a NaN or an infinity."""
    if not isinstance(value, str):
        raise ModelFormatError(f"{what} must be a base64 string of float64 bytes")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError:  # binascii.Error, or text that is not ASCII
        raise ModelFormatError(f"{what} is not strict base64 text") from None
    size = math.prod(shape)
    if len(raw) != 8 * size:
        raise ModelFormatError(f"{what} holds {len(raw)} bytes, not the 8 x {size} of shape {shape}")
    array = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
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
        when a field is missing, unknown, of the wrong type or out of range."""
        names = ("kind", "num_kernels", "ridge_lambda", "seed")
        _exact_keys(doc, names, "classifier spec")
        try:
            return ClassifierSpec(**{name: doc[name] for name in names})
        except ValueError as exc:
            raise ModelFormatError(f"classifier spec: {exc}") from None


#: A bank's arrays and their little-endian dtypes, in the order its digest
#: hashes them.
_BANK_ARRAYS = (
    ("lengths", "<i8"),
    ("weights", "<f8"),
    ("biases", "<f8"),
    ("dilations", "<i8"),
    ("paddings", "<i8"),
)


@dataclass(frozen=True, eq=False)
class KernelBank:
    """Random convolutional kernels drawn once per (seed, series length).

    A ``kernel-ridge`` :class:`Run` draws one bank, and every fit of the run,
    and every node of the models it fits, shares it.  The bank is a value:
    its arrays are read-only copies, and two banks are equal (and hash
    equal) when their :attr:`digest` is: the same length and the same bytes
    in every array.  A model bundle stores no bank, only its digest: the
    spec's seed and kernel count and the series length draw it again.

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
        return self.digest == other.digest

    def __hash__(self) -> int:
        return hash(self.digest)

    @property
    def n_kernels(self) -> int:
        return int(self.lengths.size)

    @property
    def digest(self) -> str:
        """SHA-256 (hex) of the series length and the five arrays, as
        little-endian bytes: unlike ``hash`` of bytes, not salted per process."""
        sha = hashlib.sha256(int(self.series_length).to_bytes(8, "little"))
        for name, _ in _BANK_ARRAYS:
            sha.update(getattr(self, name).tobytes())
        return sha.hexdigest()

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
        max_exps = {length: np.log2((series_length - 1) / (length - 1)) for length in usable}
        weights, biases, dilations, paddings = [], [], [], []
        for length in lengths.tolist():
            w = rng.normal(0.0, 1.0, length)
            weights.append(w - np.add.reduce(w) / length)  # the bits of w - w.mean()
            biases.append(rng.uniform(-1.0, 1.0))
            dilation = max(1, int(2 ** rng.uniform(0.0, max_exps[length])))
            dilations.append(dilation)
            pad_on = rng.integers(0, 2) == 1
            paddings.append((length - 1) * dilation // 2 if pad_on else 0)
        return KernelBank(series_length, lengths, np.concatenate(weights), biases, dilations, paddings)

    def transform(self, values: np.ndarray) -> np.ndarray:
        """(n, M) series -> (n, 2*n_kernels) features: per kernel the share of
        positive convolution outputs and the maximum output.

        The batch is laid out positions x rows, at least two rows wide, and
        zero-padded once, to the bank's largest padding.  That layout is
        C-contiguous, so from any position on, (position, row) is one run of
        consecutive values.  Each group of kernels that share (length,
        dilation, padding) is convolved by one ``einsum`` of its taps with a
        2-D (tap, position*row) view of the batch from its own offset, into
        one buffer of at most ``_PASS_ELEMENTS`` outputs (or one kernel's
        outputs, when those are more).  Each time the buffer is full it is
        pooled with two segmented reductions, one per feature, over the
        kernels it holds.  The position*row axis is einsum's inner loop, with
        an 8-byte stride in the view and the output; a tap's stride is
        dilation*rows*8 bytes, strictly larger, so the tap axis stays an
        outer loop.  Each output therefore sums its taps in order,
        ``(0 + t0*x0) + t1*x1 + ...``, and a row's features are the same bits
        in any batch.  The two-row floor keeps this: with one row, a
        dilation-1 tap has the inner stride too, and einsum may sum taps in
        SIMD partial sums.  Where einsum fuses multiply and add (a numpy
        whose SIMD baseline has FMA) the bits may differ from a
        shift-and-add in the last place but still do not depend on the
        batch.
        """
        values = _series_input(values, self.series_length)
        rows = values.shape[0]
        n = max(rows, 2)
        plan = self._plan
        pad = plan.padding
        x = np.zeros((self.series_length + 2 * pad, n))
        x[pad : pad + self.series_length, :rows] = values.T
        s0, s1 = x.strides
        positive = np.empty((self.n_kernels, n))  # rows in plan order
        maximum = np.empty((self.n_kernels, n))
        buf = np.empty((max(_PASS_ELEMENTS // n, plan.longest), n))
        first = 0  # the first kernel in the buffer, in plan order
        for group in plan.groups:
            out_len = group.out_len
            offset, strides = (pad - group.padding) * s0, (group.dilation * s0, s1)
            windows = np.ndarray((group.length, out_len * n), np.float64, x, offset, strides)
            at, end = group.first, group.first + group.size
            while at < end:
                used = plan.starts[at] - plan.starts[first]
                stop = min(end, at + (len(buf) - used) // out_len)
                if stop == at:  # full: pool it and start again
                    plan.pool(buf, first, at, positive, maximum)
                    first = at
                    continue
                out = buf[used : used + (stop - at) * out_len].reshape(stop - at, out_len * n)
                kernels = slice(at - group.first, stop - group.first)
                np.einsum("kg,kq->gq", group.taps[:, kernels], windows, out=out)
                out += group.biases[kernels]
                at = stop
        plan.pool(buf, first, self.n_kernels, positive, maximum)
        feats = np.empty((rows, 2 * self.n_kernels))
        feats[:, plan.columns] = positive.T[:rows]
        feats[:, plan.columns + 1] = maximum.T[:rows]
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
                    taps, biases[:, None],
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


#: The most outputs (positions x rows) the transform's buffer holds, unless
#: one kernel has more: a batch is convolved a run of kernels at a time, so
#: the temporaries stay small.
_PASS_ELEMENTS = 32768


@dataclass(frozen=True)
class _KernelGroup:
    """Kernels that share (length, dilation, padding), convolved together by
    one ``einsum`` of `taps` (see :meth:`KernelBank.transform`)."""

    length: int
    dilation: int
    padding: int
    out_len: int
    size: int  # g, the number of kernels
    first: int  # position of the group's first kernel in the plan order
    taps: np.ndarray  # (length, g): tap k's weight in every kernel
    biases: np.ndarray  # (g, 1)


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


def _gram(features: np.ndarray, lam: float) -> np.ndarray:
    """The regularised Gram matrix of (n, f) features F that
    :func:`ridge_solve` solves with: ``F F^T + lam*I`` (n x n, the dual)
    when n < f, else ``F^T F + lam*I`` (f x f, the primal)."""
    n, f = features.shape
    gram = features @ features.T if n < f else features.T @ features
    gram.flat[:: len(gram) + 1] += lam
    return gram


def ridge_solve(features: np.ndarray, targets: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Ridge weights W for (n, f) features F and (n, k) targets Y, given F's
    regularised Gram matrix (:func:`_gram`).

    W solves (F^T F + lam*I) W = F^T Y.  The form solved is the smaller of two
    equal ones, chosen from the shape:

    - n >= f, the primal: the f x f system above;
    - n < f, the dual: W = F^T (F F^T + lam*I)^-1 Y, an n x n system
      (Rifkin & Lippert, "Notes on Regularized Least Squares", 2007).

    The two agree to rounding (about 1e-11 at n = 150, f = 1024).  The Gram
    matrix is built once per row set (:class:`_PreparedRows`), and every
    target fit on those rows solves with it.
    """
    n, f = features.shape
    if n < f:
        return features.T @ np.linalg.solve(gram, targets)
    return np.linalg.solve(gram, features.T @ targets)


def _decisions(feats: np.ndarray, weights: np.ndarray, intercepts: np.ndarray) -> np.ndarray:
    """The (n, k) decisions ``feats . weights[j] + intercepts[j]`` of (n, f)
    raw features and k stacked (f,) weight rows: every decision a per-row
    sum (``einsum``), so each one has the bits of its own row and weight row
    scored alone, whatever other rows or weight rows are stacked with them.
    A classifier, an LCPN model's parents and tree scoring's splits all
    decide with it."""
    return np.einsum("ij,kj->ik", feats, weights) + intercepts


def _decision_rows(n_classes: int) -> int:
    """Weight rows of a classifier over `n_classes` classes: one decision for
    two, one score per class for more."""
    return 1 if n_classes == 2 else n_classes


@dataclass(frozen=True, eq=False)
class TrainedClassifier:
    """Fitted model: class ids, weight rows and intercepts over the raw
    features, and nothing else.

    Two classes make one decision: one row whose score is positive for the
    first class and negative for the second.  More classes have one row per
    class, scored one-vs-rest.  The features are the raw series for
    ``linear`` and the raw kernel features for ``kernel-ridge`` (weight
    dimension 2 * num_kernels): a ``kernel-ridge`` fit folds the
    standardisation of its rows into its weights and intercepts.  It holds
    no bank, so the caller featurises new series of length M: for
    ``kernel-ridge``, ``KernelBank.generate(M, spec.num_kernels,
    spec.seed).transform(values)`` (the bank the fit's run drew), then
    :meth:`predict_features`.  Raises ValueError when the weights or
    intercepts have another number of rows.  A classifier holds arrays, so
    two are equal only when they are the same object, and it hashes by
    identity.
    """

    class_ids: tuple[int, ...]
    weights: np.ndarray  # (1, n_features) for two classes, else (n_classes, n_features)
    intercepts: np.ndarray  # (1,) for two classes, else (n_classes,)

    def __post_init__(self) -> None:
        rows = _decision_rows(len(self.class_ids))
        if self.weights.ndim != 2 or self.weights.shape[0] != rows or self.intercepts.shape != (rows,):
            raise ValueError(f"{len(self.class_ids)} classes take {rows} weight row(s) and intercept(s)")

    def scores(self, feats: np.ndarray) -> np.ndarray:
        """The (n,) decisions of two classes, or the (n, n_classes) scores of
        more, for rows whose raw features are at hand (:func:`_decisions`)."""
        scores = _decisions(feats, self.weights, self.intercepts)
        return scores[:, 0] if self.weights.shape[0] == 1 else scores

    def predict_features(self, feats: np.ndarray) -> np.ndarray:
        """The class of each row whose raw features (the kernel transform,
        or the series themselves) are at hand: the second of two classes
        where the decision is negative, else the first; for more classes the
        argmax over per-class scores, ties going to the smallest class id."""
        scores = self.scores(feats)
        ids = np.asarray(self.class_ids, dtype=np.int64)
        if ids.size == 2:  # what argmax([s, -s]) picks, ties and -0.0 included
            return np.where(scores < 0, ids[1], ids[0])
        return ids[np.argmax(scores, axis=1)]


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
        self.series_length = values.shape[1]
        self.labels = labels
        self.label_names = label_names
        self.classes, self.codes = np.unique(labels, return_inverse=True)
        self.code_of = {int(c): i for i, c in enumerate(self.classes)}
        self.spec = spec
        self.bank: KernelBank | None = None
        if spec.kind == "kernel-ridge":
            self.bank = KernelBank.generate(self.series_length, spec.num_kernels, spec.seed)
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
    the same bits as a fit on a dataset holding those rows.  :meth:`grouped`
    is the one class-set lookup on rows.
    """

    def __init__(self, run: Run, idx: np.ndarray, labels: np.ndarray | None = None) -> None:
        self.run = run
        self.idx = idx
        self.labels = run.labels[idx] if labels is None else labels
        self.series_length = run.series_length

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


class _PreparedRows:
    """The label-independent half of a ridge fit on `rows`, made once for
    every target fit on them: the (mean, scale, centre, centred) of
    :func:`_centred` and the regularised Gram matrix (:func:`_gram`) of the
    centred features.  Node fits, split scoring and tree scoring all solve
    with it, so each solve has the bits of a fresh fit's."""

    def __init__(self, rows: Rows, lam: float) -> None:
        self.mean, self.scale, self.centre, self.centred = _centred(rows)
        self.gram = _gram(self.centred, lam)

    def solve(self, targets: np.ndarray) -> np.ndarray:
        """(f, k) ridge weights of (n, k) targets on the standardised,
        centred features."""
        return ridge_solve(self.centred, targets, self.gram)

    def fit(self, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(weights (k, f), intercepts (k,)) over the raw features for the
        (n, k) boolean `members` as +/-1 targets.  w and b are solved for the
        targets less their mean on the features ``(raw - mean) / scale``,
        and the fit keeps ``w / scale`` and ``b - mean . (w / scale)``, which
        score the raw features with the same decisions to rounding."""
        targets = np.where(members, 1.0, -1.0)
        t_mean = np.add.reduce(targets, axis=0) / targets.shape[0]
        w = self.solve(targets - t_mean)
        intercepts = t_mean - self.centre @ w
        if self.mean is not None:
            w /= self.scale[:, None]
            intercepts -= self.mean @ w
        return w.T, intercepts

    def standardise(self, feats: np.ndarray) -> np.ndarray:
        """`feats`, a fresh gather of raw features, standardised and centred
        in place as the prepared rows were."""
        if self.mean is not None:
            feats -= self.mean
            feats /= self.scale
        feats -= self.centre
        return feats


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
    prepared = _PreparedRows(Run.rows_of(train, spec), spec.ridge_lambda)
    codes = train.labels
    indicators = np.zeros((codes.size, n_classes))
    indicators[np.arange(codes.size), codes] = 1.0
    weights = prepared.solve(indicators)
    return prepared.standardise(val.feats) @ weights  # a fresh gather, standardised in place


def fit_classifier(spec: ClassifierSpec, data: TimeSeriesDataset | Rows) -> TrainedClassifier:
    """Fit the classifier described by `spec`, ridge on +/-1 targets;
    deterministic for fixed inputs.  Two classes are one target column, +1
    for the first class and -1 for the second; more are one-vs-rest, one
    column per class.

    For ``kernel-ridge`` the fit folds the standardisation of its rows into
    its weights and intercepts (:meth:`_PreparedRows.fit`), so they score
    the raw features.

    `data` is a :class:`TimeSeriesDataset` or :class:`Rows` of a run; the fit
    takes the raw features of the rows from their run, and a dataset becomes
    a new run.  The fit keeps no spec and no bank: the caller featurises
    rows to score (see :class:`TrainedClassifier`).  Raises
    TrainingDataError for fewer than two classes.
    """
    rows = Run.rows_of(data, spec)
    labels = rows.labels
    class_ids = np.unique(labels)
    if class_ids.size < 2:
        raise TrainingDataError("training data must contain at least two classes")
    columns = class_ids[: _decision_rows(class_ids.size)]
    weights, intercepts = _PreparedRows(rows, spec.ridge_lambda).fit(labels[:, None] == columns[None, :])
    return TrainedClassifier(class_ids=tuple(int(c) for c in class_ids), weights=weights, intercepts=intercepts)
