"""Feature-versus-improvement correlation tests and computational-cost models."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .dataset import TimeSeriesDataset
from .lcpn import FitCounters
from .tree import HierarchyTree

FEATURE_NAMES = ("n_classes", "fc_score", "data_balance", "class_balance")

#: how far a measured mean depth may stray from the model's before it is a mismatch
DEPTH_TOLERANCE = 1e-12


class ConstantInputError(ValueError):
    """Raised when correlation is requested against a constant sequence."""


def pearson(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Sample Pearson correlation with a two-sided p-value.

    The p-value comes from the exact t transform r*sqrt((n-2)/(1-r^2))
    against a t distribution with n-2 degrees of freedom, evaluated through
    the regularised incomplete beta function.  scipy is imported here, on
    the first p-value, so the subcommands that never need one start with
    numpy alone.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D sequences of equal length")
    n = x.size
    if n < 3:
        raise ValueError("need at least three observations")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(dx @ dx)
    sy = float(dy @ dy)
    if sx == 0.0 or sy == 0.0:
        raise ConstantInputError("correlation is undefined for constant input")
    r = float(dx @ dy) / math.sqrt(sx * sy)
    r = max(-1.0, min(1.0, r))
    df = n - 2
    if 1.0 - r * r <= 0.0:
        return r, 0.0
    t_sq = r * r * df / (1.0 - r * r)
    from scipy.special import betainc

    p = float(betainc(df / 2.0, 0.5, df / (df + t_sq)))
    return r, p


def correlate_features(rows: Sequence[Mapping]) -> dict[str, tuple[float, float] | None]:
    """Pearson (r, p) of each of :data:`FEATURE_NAMES` against ``delta_g``
    over `rows`, fold rows as ``CvReport.fold_rows`` gives them (any
    mappings holding those names); None when the feature is constant over
    the rows (e.g. class balance under the leave-one-out splitter, which
    pins it at 1)."""
    deltas = [row["delta_g"] for row in rows]
    out: dict[str, tuple[float, float] | None] = {}
    for name in FEATURE_NAMES:
        try:
            out[name] = pearson([row[name] for row in rows], deltas)
        except ConstantInputError:
            out[name] = None
    return out


# -- computational-cost model -------------------------------------------------


@dataclass(frozen=True)
class CostEstimate:
    """Datapoint-processing and traversal-depth figures for one tree/data pair.

    exact_datapoint_units is the per-parent sum of (instances under parent) x
    (classes under parent) — the quantity instrumented fits must match.  The
    *_regime fields evaluate the balanced and chain level sums directly from
    (n_instances, n_classes); the chain regime keeps its terminal single-class
    term as printed, which is why it exceeds the per-parent sum on real chain
    trees (its closed form is also retained purely as a flagged diagnostic).
    """

    n_instances: int
    n_classes: int
    n_iter: int
    exact_datapoint_units: int
    per_parent_units: tuple[int, ...]
    balanced_regime_units: float
    chain_regime_units: int
    chain_closed_form_units: float
    exact_mean_depth: float
    lower_bound_balanced: float
    upper_bound_chain: float
    preprocessing_lower_bound: float
    preprocessing_upper_bound: float
    depth_lower_log: float
    depth_upper_half: float

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "per_parent_units": list(self.per_parent_units),
            "chain_closed_form_disagrees": self.chain_closed_form_units != self.chain_regime_units,
        }


def balanced_level_units(n_instances: int, n_classes: int) -> float:
    """Level sum assuming perfectly balanced halving: |X||C| * sum 2**-k over
    the levels down to two-class nodes."""
    levels = max(1, math.ceil(math.log2(n_classes)))
    return n_instances * n_classes * sum(2.0 ** -k for k in range(levels))


def chain_level_units(n_instances: int, n_classes: int) -> int:
    """Level sum assuming maximal imbalance with one datapoint and one class
    split off per level, terminal single-class term included as printed."""
    return sum(
        (n_instances - k) * (n_classes - k) for k in range(n_classes)
    )


def chain_closed_form_units(n_instances: int, n_classes: int) -> float:
    """The printed closed form of the chain level sum.  Disagrees with the
    direct summation (e.g. 566 vs 950 at 96 instances, 4 classes); exposed
    only so reports can flag it."""
    x, c = n_instances, n_classes
    return (3 * x * c**2 - 3 * x * c - c**3 + c) / 6.0


def cost_bounds(n_instances: int, n_classes: int, n_iter: int = 1) -> dict[str, float]:
    """The closed-form bounds for |X| instances and |C| classes: datapoint-class
    units from 2|X||C| (balanced) to |X||C|^2/2 (chain), n_iter times those
    for preprocessing, and traversal depth from log2|C| to |C|/2."""
    x, c = n_instances, n_classes
    lower, upper = 2.0 * x * c, x * c**2 / 2.0
    return {
        "lower_bound_balanced": lower,
        "upper_bound_chain": upper,
        "preprocessing_lower_bound": n_iter * lower,
        "preprocessing_upper_bound": n_iter * upper,
        "depth_lower_log": math.log2(c),
        "depth_upper_half": c / 2.0,
    }


def chain_mean_depth(n_classes: int) -> float:
    """Exact mean traversal depth of a chain tree with uniform class weights:
    (|C|-1)(|C|+2) / (2|C|); equals 1 at two classes."""
    c = n_classes
    return (c - 1) * (c + 2) / (2.0 * c)


def exact_datapoint_units(tree: HierarchyTree, data: TimeSeriesDataset) -> tuple[int, ...]:
    counts = data.class_counts()
    return tuple(
        sum(counts[c] for c in p.class_set) * len(p.class_set) for p in tree.parents
    )


def exact_mean_depth(tree: HierarchyTree, data: TimeSeriesDataset) -> float:
    """Mean root-to-true-leaf depth weighted by the data's class counts."""
    depths = tree.leaf_depths()
    counts = data.class_counts()
    total = sum(counts.values())
    return sum(depths[c] * counts[c] for c in counts) / total


def cost_model(
    tree: HierarchyTree, data: TimeSeriesDataset, n_iter: int = 1
) -> CostEstimate:
    """Analytic processing-cost figures for a tree over a dataset."""
    per_parent = exact_datapoint_units(tree, data)
    x, c = data.n_instances, len(tree.root_classes)
    return CostEstimate(
        n_instances=x,
        n_classes=c,
        n_iter=n_iter,
        exact_datapoint_units=sum(per_parent),
        per_parent_units=per_parent,
        balanced_regime_units=balanced_level_units(x, c),
        chain_regime_units=chain_level_units(x, c),
        chain_closed_form_units=chain_closed_form_units(x, c),
        exact_mean_depth=exact_mean_depth(tree, data),
        **cost_bounds(x, c, n_iter),
    )


@dataclass(frozen=True)
class CostDiscrepancyReport:
    """Comparison of instrumented counters against the analytic model.

    Discrepancies are reported, never raised.
    """

    units_match: bool
    measured_units: int
    expected_units: int
    per_parent_match: bool
    depth_match: bool
    measured_mean_depth: float
    expected_mean_depth: float
    depth_in_band: bool

    @property
    def ok(self) -> bool:
        return self.units_match and self.per_parent_match and self.depth_match


def verify_cost_model(
    estimate: CostEstimate,
    counters: FitCounters,
    depths: Sequence[int],
) -> CostDiscrepancyReport:
    """Check measured fit counters and traversal depths against `estimate`,
    depths to within ``DEPTH_TOLERANCE``."""
    measured_units = counters.datapoint_class_units
    measured_depth = float(np.mean(np.asarray(depths, dtype=np.float64)))
    return CostDiscrepancyReport(
        units_match=measured_units == estimate.exact_datapoint_units,
        measured_units=measured_units,
        expected_units=estimate.exact_datapoint_units,
        per_parent_match=tuple(counters.per_parent_units) == estimate.per_parent_units,
        depth_match=abs(measured_depth - estimate.exact_mean_depth) <= DEPTH_TOLERANCE,
        measured_mean_depth=measured_depth,
        expected_mean_depth=estimate.exact_mean_depth,
        depth_in_band=(
            estimate.depth_lower_log - DEPTH_TOLERANCE
            <= measured_depth
            <= estimate.depth_upper_half + 1.0 + DEPTH_TOLERANCE
        ),
    )
