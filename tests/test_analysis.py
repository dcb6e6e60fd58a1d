"""Correlation machinery, fold rows, and the cost model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiertsc import (
    ClassifierSpec,
    FitCounters,
    build_tree,
    correlate_features,
    cost_model,
    fit_lcpn,
    nested_cv,
    pearson,
    predict_lcpn,
    verify_cost_model,
)
from hiertsc.analysis import (
    ConstantInputError,
    chain_closed_form_units,
    chain_level_units,
    chain_mean_depth,
    exact_mean_depth,
)

from conftest import random_tree, separable_dataset


def brute_force_r(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    dx = x - x.mean()
    dy = y - y.mean()
    return float(np.sum(dx * dy) / math.sqrt(np.sum(dx * dx) * np.sum(dy * dy)))


def t_two_sided_p_by_quadrature(t_value, df, points=200_001):
    """Independent oracle: Simpson integration of the t density."""
    t_value = abs(t_value)
    const = math.exp(
        math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
    )

    def pdf(u):
        return const * (1.0 + u * u / df) ** (-(df + 1) / 2)

    grid = np.linspace(0.0, t_value, points)
    values = pdf(grid)
    h = grid[1] - grid[0]
    core = (h / 3.0) * (
        values[0]
        + values[-1]
        + 4.0 * values[1:-1:2].sum()
        + 2.0 * values[2:-1:2].sum()
    )
    return 1.0 - 2.0 * core


def correlated_pair(n, r, seed=0):
    """Vectors with exact sample correlation r, built by Gram-Schmidt."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    z = rng.normal(size=n)
    xc = x - x.mean()
    zc = z - z.mean()
    zo = zc - (zc @ xc) / (xc @ xc) * xc
    y = r * xc / np.linalg.norm(xc) + math.sqrt(1.0 - r * r) * zo / np.linalg.norm(zo)
    return x, y


# -- pearson --------------------------------------------------------------------


def test_pearson_exact_linear():
    r, p = pearson([1, 2, 3], [2, 4, 6])
    assert r == 1.0
    assert p == 0.0


def test_pearson_exact_antilinear():
    r, p = pearson([1, 2, 3], [6, 4, 2])
    assert r == -1.0
    assert p == 0.0


def test_pearson_against_brute_force_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(3, 40))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        r, _ = pearson(x, y)
        assert abs(r - brute_force_r(x, y)) <= 1e-12


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_pearson_property_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 60))
    x = rng.normal(size=n)
    y = rng.normal(size=n)
    r, p = pearson(x, y)
    assert abs(r - brute_force_r(x, y)) <= 1e-12
    r2, p2 = pearson(x, -y)
    assert r2 == pytest.approx(-r, abs=1e-15)
    assert p2 == pytest.approx(p, abs=1e-15)


def test_pearson_p_matches_quadrature_oracle():
    for n, r in [(10, 0.5), (30, -0.4), (230, 0.309), (50, 0.05)]:
        x, y = correlated_pair(n, r, seed=n)
        got_r, got_p = pearson(x, y)
        assert got_r == pytest.approx(r, abs=1e-12)
        t_value = got_r * math.sqrt((n - 2) / (1 - got_r * got_r))
        assert got_p == pytest.approx(
            t_two_sided_p_by_quadrature(t_value, n - 2), abs=1e-9
        )


def test_pearson_table_sized_case_is_significant():
    x, y = correlated_pair(230, 0.309, seed=42)
    r, p = pearson(x, y)
    assert r == pytest.approx(0.309, abs=1e-12)
    assert p < 0.001


def test_pearson_rejects_constant_input():
    with pytest.raises(ConstantInputError):
        pearson([1.0, 1.0, 1.0], [1, 2, 3])
    with pytest.raises(ValueError):
        pearson([1, 2], [1, 2])


# -- fold rows ---------------------------------------------------------------------


def make_report(splitter="potr", n_classes=4, noise=1.2, seed=11):
    data = separable_dataset(n_per_class=10, n_classes=n_classes, noise=noise, seed=seed)
    return nested_cv(
        data, ClassifierSpec(kind="linear"), splitter, n_iter=3, seed=0, dataset_id="t"
    )


def test_fold_rows_one_row_per_fold():
    report = make_report()
    rows = report.fold_rows()
    assert len(rows) == 5
    for row, fold in zip(rows, report.folds):
        assert row["delta_g"] == fold.delta_g
        assert row["improved"] == (fold.delta_g > 0)
        assert row["n_classes"] == report.n_classes
    assert sum(row["improved"] for row in rows) == report.aggregates()["improvements"]


def test_lsoo_rows_have_unit_class_balance():
    report = make_report(splitter="lsoo")
    rows = report.fold_rows()
    assert all(row["class_balance"] == 1.0 for row in rows)
    table = correlate_features(rows)
    assert table["class_balance"] is None  # constant feature, test not applicable


def test_correlation_table_keys():
    rows = make_report(noise=2.0).fold_rows()
    table = correlate_features(rows)
    assert set(table) == {"n_classes", "fc_score", "data_balance", "class_balance"}
    # n_classes is constant within a single report
    assert table["n_classes"] is None


# -- cost model --------------------------------------------------------------------


BALANCED4 = build_tree([({0, 1}, {2, 3}), ({0}, {1}), ({2}, {3})])
CHAIN4 = build_tree([({0}, {1, 2, 3}), ({1}, {2, 3}), ({2}, {3})])


def test_balanced_exact_units_96_instances():
    data = separable_dataset(n_per_class=24, n_classes=4, seed=0)
    estimate = cost_model(BALANCED4, data)
    assert estimate.exact_datapoint_units == 576
    assert estimate.per_parent_units == (384, 96, 96)
    assert estimate.balanced_regime_units == 576.0


def test_chain_regime_level_sum():
    assert chain_level_units(96, 4) == 96 * 4 + 95 * 3 + 94 * 2 + 93 * 1 == 950
    assert chain_level_units(10, 2) == 10 * 2 + 9 * 1


def test_chain_closed_form_flagged_as_diagnostic():
    # the printed closed form does not match its own summation
    assert chain_closed_form_units(96, 4) == pytest.approx(566.0)
    data = separable_dataset(n_per_class=24, n_classes=4, seed=0)
    doc = cost_model(CHAIN4, data).to_dict()
    assert doc["chain_closed_form_disagrees"] is True


def test_mean_depth_examples():
    data = separable_dataset(n_per_class=24, n_classes=4, seed=0)
    assert exact_mean_depth(CHAIN4, data) == pytest.approx(2.25, abs=1e-12)
    assert exact_mean_depth(BALANCED4, data) == 2.0
    assert chain_mean_depth(4) == pytest.approx(2.25, abs=1e-12)
    assert chain_mean_depth(2) == 1.0


def test_chain_mean_depth_formula_matches_path_enumeration():
    for c in range(2, 9):
        pairs = [({k}, set(range(k + 1, c))) for k in range(c - 2)]
        pairs.append(({c - 2}, {c - 1}))
        tree = build_tree(pairs)
        depths = tree.leaf_depths()
        mean = sum(depths.values()) / c
        assert chain_mean_depth(c) == pytest.approx(mean, abs=1e-12)


def test_bounds_per_regime():
    data = separable_dataset(n_per_class=24, n_classes=4, seed=0)
    estimate = cost_model(BALANCED4, data, n_iter=10)
    assert estimate.lower_bound_balanced == 2 * 96 * 4
    assert estimate.upper_bound_chain == 96 * 16 / 2
    assert estimate.preprocessing_lower_bound == 10 * 2 * 96 * 4


def test_exact_units_within_sanity_band(rng):
    for _ in range(30):
        n_classes = int(rng.integers(2, 17))
        tree = random_tree(range(n_classes), rng)
        labels = np.repeat(np.arange(n_classes), 4)
        values = np.zeros((labels.size, 3))
        values[:, 0] = labels
        from hiertsc import TimeSeriesDataset

        data = TimeSeriesDataset(values, labels)
        estimate = cost_model(tree, data)
        assert (
            estimate.lower_bound_balanced / 2
            <= estimate.exact_datapoint_units
            <= estimate.upper_bound_chain * 2
        )


def test_verify_cost_model_against_instrumented_run():
    data = separable_dataset(n_per_class=24, n_classes=4, seed=0)
    counters = FitCounters()
    model = fit_lcpn(BALANCED4, data, ClassifierSpec(kind="linear"), counters=counters)
    _, depths = predict_lcpn(model, data.values)
    estimate = cost_model(BALANCED4, data)
    report = verify_cost_model(estimate, counters, depths)
    assert report.ok
    assert report.measured_units == 576
    assert report.measured_mean_depth == 2.0
    assert report.depth_in_band


def test_verify_cost_model_two_classes_depth_one():
    data = separable_dataset(n_per_class=10, n_classes=2, seed=0)
    tree = build_tree([({0}, {1})])
    counters = FitCounters()
    model = fit_lcpn(tree, data, ClassifierSpec(kind="linear"), counters=counters)
    _, depths = predict_lcpn(model, data.values)
    assert np.all(depths == 1)
    report = verify_cost_model(cost_model(tree, data), counters, depths)
    assert report.ok


def test_verify_reports_discrepancies_without_raising():
    data = separable_dataset(n_per_class=24, n_classes=4, seed=0)
    counters = FitCounters()
    counters.per_parent_instances.extend([1, 1, 1])
    counters.per_parent_classes.extend([4, 2, 2])
    report = verify_cost_model(cost_model(BALANCED4, data), counters, [2, 2])
    assert not report.ok
    assert not report.units_match
