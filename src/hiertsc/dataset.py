"""Labelled equal-length time-series collections and synthetic generators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np


class DataValidationError(ValueError):
    """Raised when a dataset violates its structural contract."""


class Labelled:
    """Row count and class statistics of anything with a `labels` array."""

    labels: np.ndarray

    @property
    def n_instances(self) -> int:
        return self.labels.shape[0]

    @property
    def label_space(self) -> tuple[int, ...]:
        return tuple(int(c) for c in np.unique(self.labels))

    @property
    def n_classes(self) -> int:
        return int(np.unique(self.labels).size)

    def class_counts(self) -> dict[int, int]:
        ids, counts = np.unique(self.labels, return_counts=True)
        return {int(c): int(n) for c, n in zip(ids, counts)}


@dataclass(frozen=True, eq=False)
class TimeSeriesDataset(Labelled):
    """N equal-length real-valued series, each with one integer class label.

    Parameters
    ----------
    values : (n_instances, series_length) array
        Finite reals only; every row has the same length.
    labels : (n_instances,) array of int
        Class ids. At least two distinct classes must be present.
    label_names : mapping int -> str, optional
        Original label tokens for densified class ids, kept for round-trips.

    Instances are immutable after construction; the backing arrays are
    marked read-only.  Datasets compare and hash by identity: they hold arrays.
    """

    values: np.ndarray
    labels: np.ndarray
    label_names: Mapping[int, str] | None = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if values.ndim != 2 or values.shape[1] < 1:
            raise DataValidationError(
                "values must be a 2-D matrix with at least one time point"
            )
        if not np.all(np.isfinite(values)):
            raise DataValidationError("values contain non-finite entries")
        if labels.ndim != 1 or labels.shape[0] != values.shape[0]:
            raise DataValidationError("labels must be 1-D with one entry per row")
        if np.unique(labels).size < 2:
            raise DataValidationError("at least two distinct classes are required")
        values = values.copy()
        labels = labels.copy()
        values.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)
        if self.label_names is not None:
            object.__setattr__(self, "label_names", dict(self.label_names))

    @property
    def series_length(self) -> int:
        return self.values.shape[1]

    def subset(self, indices: Sequence[int] | np.ndarray) -> "TimeSeriesDataset":
        """Row subset (an index array or a boolean mask) preserving the
        label-name map; the subset must still contain at least two classes."""
        idx = np.asarray(indices)
        return TimeSeriesDataset(self.values[idx], self.labels[idx], self.label_names)


def collinear_superclusters(
    n_per_class: int = 30,
    series_length: int = 16,
    class_gap: float = 1.0,
    cluster_gap: float = 4.0,
    noise: float = 0.75,
    seed: int = 0,
) -> TimeSeriesDataset:
    """Synthetic 4-class dataset with a latent two-super-cluster structure.

    Class mean levels sit on a line with a wide gap between classes {0, 1}
    and {2, 3}.  Binary group decisions (cluster vs cluster, then within a
    cluster) are simple thresholds, while a flat one-vs-rest linear model
    struggles on the two middle classes.
    """
    rng = np.random.default_rng(seed)
    levels = np.array(
        [0.0, class_gap, class_gap + cluster_gap, 2.0 * class_gap + cluster_gap]
    )
    blocks = []
    labels = []
    for cls, level in enumerate(levels):
        rows = level + rng.normal(0.0, noise, size=(n_per_class, series_length))
        blocks.append(rows)
        labels.append(np.full(n_per_class, cls, dtype=np.int64))
    return TimeSeriesDataset(np.vstack(blocks), np.concatenate(labels))
