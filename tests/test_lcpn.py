"""Node routing, data allocation, instrumentation, and model bundles."""

import numpy as np
import pytest

from hiertsc import (
    ClassifierSpec,
    FitCounters,
    LcpnModel,
    TimeSeriesDataset,
    build_tree,
    fit_lcpn,
    predict_lcpn,
)
from hiertsc.lcpn import NodeTrainingError

from conftest import _GroupPeekModel, classifier_state, peek_dataset, separable_dataset


def oracle_model(tree, series_length=6):
    """LCPN model whose node decisions read the class encoded in the data."""
    models = tuple(
        _GroupPeekModel(p.right, series_length) for p in tree.parents
    )
    return LcpnModel(tree=tree, node_models=models)


BALANCED4 = [({0, 1}, {2, 3}), ({0}, {1}), ({2}, {3})]
CHAIN4 = [({0}, {1, 2, 3}), ({1}, {2, 3}), ({2}, {3})]


def test_worked_example_node_allocation(fig_tree):
    counts = {0: 4, 1: 5, 2: 6, 3: 7, 4: 8}
    labels = np.concatenate(
        [np.full(n, cls, dtype=np.int64) for cls, n in counts.items()]
    )
    data = peek_dataset(labels)
    counters = FitCounters()
    model = fit_lcpn(fig_tree, data, ClassifierSpec(kind="test-peek"), counters=counters)
    assert len(model.node_models) == 4
    # parent 1 is ({3}, {0, 2}): it sees only those classes' instances
    assert counters.per_parent_instances[1] == counts[3] + counts[0] + counts[2]
    assert counters.per_parent_classes == [5, 3, 2, 2]


def test_two_class_tree_single_model_sees_everything():
    data = peek_dataset([0, 0, 0, 1, 1, 1])
    counters = FitCounters()
    model = fit_lcpn(
        build_tree([({0}, {1})]), data, ClassifierSpec(kind="test-peek"), counters=counters
    )
    assert len(model.node_models) == 1
    assert counters.per_parent_instances == [6]


def test_balanced_tree_datapoint_routing():
    labels = np.repeat(np.arange(4), 25)
    data = peek_dataset(labels)
    counters = FitCounters()
    fit_lcpn(build_tree(BALANCED4), data, ClassifierSpec(kind="test-peek"), counters=counters)
    assert counters.per_parent_instances == [100, 50, 50]
    assert counters.datapoint_class_units == 100 * 4 + 50 * 2 + 50 * 2


def test_perfect_node_models_reproduce_labels(fig_tree):
    labels = np.asarray([0, 1, 2, 3, 4] * 6)
    data = peek_dataset(labels)
    model = oracle_model(fig_tree)
    predicted, depths = predict_lcpn(model, data.values)
    assert np.array_equal(predicted, labels)
    assert np.all((1 <= depths) & (depths <= 4))


def test_predictions_are_leaves_under_any_models():
    # constant-0 routing drives everything into the root's left subtree
    tree = build_tree(CHAIN4)

    class Const0:
        series_length = 6
        class_ids = (0, 1)

        def predict(self, values):
            return np.zeros(np.asarray(values).shape[0], dtype=np.int64)

    model = LcpnModel(tree=tree, node_models=(Const0(), Const0(), Const0()))
    values = peek_dataset([0, 1, 2, 3] * 3).values
    predicted, depths = predict_lcpn(model, values)
    assert set(predicted) <= set(tree.parents[0].left)
    assert np.all(predicted == 0)
    assert np.all(depths == 1)


def test_chain_mean_depth_uniform_classes():
    labels = np.repeat(np.arange(4), 24)
    data = peek_dataset(labels)
    model = oracle_model(build_tree(CHAIN4))
    _, depths = predict_lcpn(model, data.values)
    assert float(np.mean(depths)) == pytest.approx(2.25, abs=1e-12)


def test_balanced_tree_depth_exactly_log2():
    labels = np.repeat(np.arange(4), 10)
    data = peek_dataset(labels)
    model = oracle_model(build_tree(BALANCED4))
    _, depths = predict_lcpn(model, data.values)
    assert np.all(depths == 2)


def test_depth_bounds_hold():
    labels = np.asarray([0, 1, 2, 3, 4] * 5)
    data = peek_dataset(labels)
    tree = build_tree([({0}, {1, 2, 3, 4}), ({1}, {2, 3, 4}), ({2}, {3, 4}), ({3}, {4})])
    _, depths = predict_lcpn(oracle_model(tree), data.values)
    assert np.all((1 <= depths) & (depths <= 4))


def test_node_model_ignores_data_outside_its_subtree():
    labels = np.repeat(np.arange(4), 8)
    data = separable_dataset(n_per_class=8, n_classes=4, seed=2)
    spec = ClassifierSpec(kind="linear")
    tree = build_tree(BALANCED4)
    base = fit_lcpn(tree, data, spec)
    # perturb only class-3 rows; the {0} | {1} node must be unaffected
    values = data.values.copy()
    values[labels == 3] += 17.0
    perturbed = fit_lcpn(tree, TimeSeriesDataset(values, labels), spec)
    node_01 = tree.parent_index_of(frozenset({0, 1}))
    assert classifier_state(base.node_models[node_01]) == classifier_state(perturbed.node_models[node_01])


def test_missing_side_raises_with_parent_identity():
    tree = build_tree(CHAIN4)
    data = peek_dataset([0, 0, 1, 1, 3, 3])  # class 2 absent
    with pytest.raises(NodeTrainingError) as err:
        fit_lcpn(tree, data, ClassifierSpec(kind="test-peek"))
    assert "parent 2" in str(err.value)


def test_foreign_labels_rejected():
    tree = build_tree([({0}, {1})])
    data = peek_dataset([0, 1, 5, 5])
    with pytest.raises(NodeTrainingError):
        fit_lcpn(tree, data, ClassifierSpec(kind="test-peek"))


def test_predict_length_mismatch():
    data = peek_dataset([0, 0, 1, 1])
    model = fit_lcpn(build_tree([({0}, {1})]), data, ClassifierSpec(kind="test-peek"))
    with pytest.raises(ValueError):
        predict_lcpn(model, np.ones((2, 99)))


def test_bundle_round_trip():
    data = separable_dataset(n_per_class=6, n_classes=4, seed=6)
    spec = ClassifierSpec(kind="linear")
    model = fit_lcpn(build_tree(BALANCED4), data, spec)
    again = LcpnModel.from_bundle(model.to_bundle())
    p1, d1 = predict_lcpn(model, data.values)
    p2, d2 = predict_lcpn(again, data.values)
    assert np.array_equal(p1, p2)
    assert np.array_equal(d1, d2)
    assert again.to_bundle() == model.to_bundle()
