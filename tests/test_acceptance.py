"""Acceptance gate: each criterion at its stated tolerance, one line apiece.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines as they execute.
"""

import math
import time

import numpy as np
import pytest

from hiertsc import (
    ClassifierSpec,
    FitCounters,
    build_tree,
    class_balance_factor,
    collinear_superclusters,
    cost_model,
    count_distinct_trees,
    count_distinct_trees_one_sided,
    datapoint_balance_factor,
    enumerate_distinct_trees,
    exhaustive_split,
    f1_macro,
    fit_lcpn,
    flat_cv,
    grow_tree,
    leave_salient_one_out,
    nested_cv,
    pearson,
    pick_one_then_regroup,
    predict_lcpn,
    reflect,
    split_data,
    split_randomly_then_regroup,
    verify_cost_model,
)
from hiertsc.treegen import double_factorial_trees

from conftest import (
    StubContext,
    hash_scorer,
    orthogonal_dataset,
    peek_dataset,
    random_tree,
    separable_dataset,
    target_scorer,
)
from test_analysis import brute_force_r, correlated_pair


def _report(line: str) -> None:
    print(line)


def test_criterion_1_tree_counting():
    started = time.monotonic()
    expected = [1, 3, 15, 105, 945, 10395]
    enumerated = [
        sum(1 for _ in enumerate_distinct_trees(range(n))) for n in range(2, 8)
    ]
    assert enumerated == expected
    assert [count_distinct_trees(n) for n in range(2, 8)] == expected
    assert [double_factorial_trees(n) for n in range(2, 8)] == expected
    assert count_distinct_trees_one_sided(6) == 885 != count_distinct_trees(6)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _report(
        f"ACCEPTANCE 1 PASS - tree counts 2..7 = {expected}, printed recurrence "
        f"gives 885 at 6, in {elapsed:.2f}s"
    )


def test_criterion_2_balance_metrics():
    fig = build_tree([({1, 4}, {0, 2, 3}), ({3}, {2, 0}), ({1}, {4}), ({2}, {0})])
    assert class_balance_factor(fig) == 0.5

    hand = build_tree([({0}, {1, 2}), ({1}, {2})])
    labels = np.concatenate([np.zeros(10), np.ones(20), np.full(30, 2)]).astype(np.int64)
    values = np.zeros((60, 3))
    values[:, 0] = labels
    from hiertsc import TimeSeriesDataset

    data = TimeSeriesDataset(values, labels)
    assert abs(datapoint_balance_factor(hand, data) - 50 / 106) <= 1e-12

    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        tree = random_tree(range(n), rng)
        assert class_balance_factor(reflect(tree)) == -class_balance_factor(tree)

    for seed in range(50):
        n = 3 + seed % 6
        ctx = StubContext(hash_scorer(seed), seed=seed, label_space=range(n))
        tree = grow_tree(ctx, "lsoo")
        assert class_balance_factor(tree) == 1.0
    _report(
        "ACCEPTANCE 2 PASS - worked-example BFC 0.5, hand BFD 50/106, reflection "
        "antisymmetry on 1000 trees, leave-one-out trees pin BFC at 1"
    )


def test_criterion_3_splitter_bounds_and_optimality():
    for size in range(2, 9):
        classes = set(range(size))
        for seed in range(5):
            scorer = hash_scorer(seed)
            ctx = StubContext(scorer, seed=seed)
            assert pick_one_then_regroup(ctx, classes).evaluations <= size
            ctx = StubContext(scorer, seed=seed)
            assert split_randomly_then_regroup(ctx, classes).evaluations <= size + 1
            ctx = StubContext(scorer, seed=seed)
            assert leave_salient_one_out(ctx, classes).evaluations <= size
        ctx = StubContext(hash_scorer(0), seed=0)
        assert exhaustive_split(ctx, classes).evaluations == 2 ** (size - 1) - 1

    targets = {
        2: ({0}, {1}),
        3: ({0}, {1, 2}),
        4: ({0, 1}, {2, 3}),
        5: ({0, 1, 2}, {3, 4}),
    }
    for size, target in targets.items():
        scorer = target_scorer(*target)
        expected = {frozenset(target[0]), frozenset(target[1])}
        oracle = exhaustive_split(StubContext(scorer, 0), set(range(size)))
        assert oracle.score == 1.0
        for seed in range(100):
            for splitter in (pick_one_then_regroup, split_randomly_then_regroup):
                found = splitter(StubContext(scorer, seed=seed), set(range(size)))
                assert found.score == oracle.score == 1.0
                assert {found.c0, found.c1} == expected
    _report(
        "ACCEPTANCE 3 PASS - evaluation bounds hold for |C|=2..8; both regrouping "
        "splitters reach the exhaustive optimum for all 100 seeds at |C|<=5"
    )


def test_criterion_4_structural_invariants_bulk():
    started = time.monotonic()
    rng = np.random.default_rng(7)
    splitters = ("potr", "srtr", "lsoo")
    for run in range(10_000):
        n = int(rng.integers(2, 9))
        ctx = StubContext(hash_scorer(run), seed=run, label_space=range(n))
        tree = grow_tree(ctx, splitters[run % 3])
        assert len(tree.parents) == n - 1
        assert tree.n_nodes == 2 * n - 1
        sizes = [len(p.class_set) for p in tree.parents]
        assert sizes == sorted(sizes, reverse=True)
        for p in tree.parents:
            assert p.left and p.right and not p.left & p.right
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _report(
        f"ACCEPTANCE 4 PASS - 10000 random constructions keep |P|=|C|-1, "
        f"2|C|-1 nodes, disjoint siblings, monotone pop order, in {elapsed:.1f}s"
    )


def test_criterion_5_cost_model():
    balanced = build_tree([({0, 1}, {2, 3}), ({0}, {1}), ({2}, {3})])
    chain = build_tree([({0}, {1, 2, 3}), ({1}, {2, 3}), ({2}, {3})])
    data = separable_dataset(n_per_class=24, n_classes=4, seed=0)

    counters = FitCounters()
    model = fit_lcpn(balanced, data, ClassifierSpec(kind="linear"), counters=counters)
    _, depths = predict_lcpn(model, data.values)
    estimate = cost_model(balanced, data)
    check = verify_cost_model(estimate, counters, depths)
    assert check.units_match and check.per_parent_match
    assert counters.datapoint_class_units == estimate.exact_datapoint_units == 576
    assert check.depth_match
    assert check.measured_mean_depth == math.log2(4)

    chain_estimate = cost_model(chain, data)
    assert chain_estimate.chain_regime_units == 950
    assert chain_estimate.exact_mean_depth == pytest.approx(2.25, abs=1e-12)

    chain_counters = FitCounters()
    chain_model = fit_lcpn(
        chain, data, ClassifierSpec(kind="linear"), counters=chain_counters
    )
    _, chain_depths = predict_lcpn(chain_model, data.values)
    chain_check = verify_cost_model(chain_estimate, chain_counters, chain_depths)
    assert chain_check.units_match and chain_check.depth_match
    assert float(np.mean(chain_depths)) == pytest.approx(2.25, abs=1e-12)
    _report(
        "ACCEPTANCE 5 PASS - instrumented counters equal the per-parent sum "
        "(576 balanced), chain level sum 950, chain depth 2.25, balanced depth log2|C|"
    )


def test_criterion_6_metrics_and_folds():
    assert abs(f1_macro([0, 0, 1, 1], [0, 1, 1, 1]) - (2 / 3 + 4 / 5) / 2) <= 1e-12
    assert abs(f1_macro([0, 1], [0, 0]) - 1 / 3) <= 1e-12
    assert f1_macro([0, 1, 2], [0, 1, 2]) == 1.0

    rng = np.random.default_rng(3)
    for _ in range(50):
        k = int(rng.integers(2, 7))
        labels = np.concatenate(
            [np.full(int(rng.integers(k, 4 * k)), cls) for cls in range(3)]
        )
        data = peek_dataset(labels)
        plan = split_data(data, k, shuffle=bool(rng.integers(0, 2)), seed=int(rng.integers(100)))
        for cls in range(3):
            sizes = [
                int(np.sum(data.labels[plan.test_indices(f)] == cls))
                for f in range(k)
            ]
            assert max(sizes) - min(sizes) <= 1

    data = peek_dataset([0, 1, 2] * 8)
    a = split_data(data, 4)
    b = split_data(data, 4)
    assert np.array_equal(a.assignments, b.assignments)
    _report(
        "ACCEPTANCE 6 PASS - macro-F1 matches hand confusion matrices to 1e-12, "
        "fold spread <= 1, unshuffled plans call-stable"
    )


def test_criterion_7_cv_protocol():
    data = separable_dataset(n_per_class=10, n_classes=4, noise=1.5, seed=9)
    spec = ClassifierSpec(kind="linear")

    first = nested_cv(data, spec, "potr", n_iter=4, seed=0, dataset_id="cv")
    second = nested_cv(data, spec, "potr", n_iter=4, seed=0, dataset_id="cv")
    third = nested_cv(data, spec, "potr", n_iter=4, seed=0, dataset_id="cv")
    assert first.to_json() == second.to_json() == third.to_json()

    flat = flat_cv(data, spec, "potr", n_iter=4, seed=0, dataset_id="cv")
    flat_again = flat_cv(data, spec, "potr", n_iter=4, seed=0, dataset_id="cv")
    assert flat.to_json() == flat_again.to_json()
    for nested_fold, flat_fold in zip(first.folds, flat.folds):
        assert flat_fold.outer_test_score >= nested_fold.outer_test_score - 1e-12

    three = orthogonal_dataset(n_per_class=20, n_classes=3)
    capped = nested_cv(three, spec, "srtr", n_iter=50, seed=0)
    for fold in capped.folds:
        assert fold.distinct_trees <= 3
    _report(
        "ACCEPTANCE 7 PASS - reports byte-identical across runs, "
        "flat best dominates the nested pick per fold, 3-class search stops at 3 trees"
    )


def test_criterion_8_statistics():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(3, 30))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        r, _ = pearson(x, y)
        assert abs(r - brute_force_r(x, y)) <= 1e-12

    x, y = correlated_pair(230, 0.309, seed=1)
    r, p = pearson(x, y)
    assert abs(r - 0.309) <= 1e-12
    assert p < 0.001
    _report(
        f"ACCEPTANCE 8 PASS - correlation matches the brute-force oracle on 1000 "
        f"vectors; n=230, r=0.309 gives two-sided p={p:.2e} < 0.001"
    )


def test_criterion_9_end_to_end_improvement():
    started = time.monotonic()
    data = collinear_superclusters(n_per_class=30, seed=0)
    spec = ClassifierSpec(kind="linear")
    deltas = {}
    for splitter in ("potr", "srtr", "lsoo"):
        report = nested_cv(data, spec, splitter, n_iter=10, seed=0, dataset_id="synth")
        deltas[splitter] = report.hc_score - report.fc_score
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    assert max(deltas.values()) > 0.0
    winners = {k: round(v, 4) for k, v in deltas.items()}
    _report(
        f"ACCEPTANCE 9 PASS - hierarchical beats flat on the bundled synthetic "
        f"dataset (mean delta-g per splitter: {winners}) in {elapsed:.1f}s"
    )
