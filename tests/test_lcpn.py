"""Node routing, data allocation, instrumentation, and model bundles."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiertsc import (
    ClassifierSpec,
    FitCounters,
    LcpnModel,
    TimeSeriesDataset,
    build_tree,
    fit_lcpn,
    grow_tree,
    predict_lcpn,
)
from hiertsc import classifiers
from hiertsc.classifiers import Rows, Run, fit_classifier
from hiertsc.lcpn import NodeTrainingError, _check_fit

from conftest import CLASS_IDS, StubContext, hash_scorer, node_state, peek_dataset, separable_dataset

LINEAR = ClassifierSpec(kind="linear")
KERNEL = ClassifierSpec(kind="kernel-ridge", num_kernels=8)


def one_hot(labels, series_length=6):
    """Series that are 1 at the position of their class id, 0 elsewhere."""
    labels = np.asarray(labels, dtype=np.int64)
    values = np.zeros((labels.size, series_length))
    values[np.arange(labels.size), labels] = 1.0
    return values


def linear_model(tree, weights, intercepts=None):
    """A linear LCPN model with hand-set decisions over series as long as a
    weight row: parent i sends a row right where its decision is negative."""
    weights = np.asarray(weights, dtype=np.float64)
    intercepts = np.zeros(len(weights)) if intercepts is None else np.asarray(intercepts, dtype=np.float64)
    return LcpnModel(tree, LINEAR, weights.shape[1], None, weights, intercepts)


def oracle_model(tree, series_length=6):
    """LCPN model whose node decisions read the class of a one-hot series:
    each node's weight row is its left class indicator less its right one."""
    def indicator(classes):
        return one_hot(sorted(classes), series_length).sum(axis=0)

    return linear_model(tree, [indicator(p.left) - indicator(p.right) for p in tree.parents])


BALANCED4 = [({0, 1}, {2, 3}), ({0}, {1}), ({2}, {3})]
CHAIN4 = [({0}, {1, 2, 3}), ({1}, {2, 3}), ({2}, {3})]


def test_worked_example_node_allocation(fig_tree):
    counts = {0: 4, 1: 5, 2: 6, 3: 7, 4: 8}
    labels = np.concatenate(
        [np.full(n, cls, dtype=np.int64) for cls, n in counts.items()]
    )
    data = peek_dataset(labels)
    counters = FitCounters()
    model = fit_lcpn(fig_tree, data, LINEAR, counters=counters)
    assert model.weights.shape == (4, 6) and model.intercepts.shape == (4,)
    # parent 1 is ({3}, {0, 2}): it sees only those classes' instances
    assert counters.per_parent_instances[1] == counts[3] + counts[0] + counts[2]
    assert counters.per_parent_classes == [5, 3, 2, 2]


def test_two_class_tree_single_model_sees_everything():
    data = peek_dataset([0, 0, 0, 1, 1, 1])
    counters = FitCounters()
    model = fit_lcpn(
        build_tree([({0}, {1})]), data, LINEAR, counters=counters
    )
    assert model.weights.shape == (1, 6) and model.intercepts.shape == (1,)
    assert counters.per_parent_instances == [6]


def test_balanced_tree_datapoint_routing():
    labels = np.repeat(np.arange(4), 25)
    data = peek_dataset(labels)
    counters = FitCounters()
    fit_lcpn(build_tree(BALANCED4), data, LINEAR, counters=counters)
    assert counters.per_parent_instances == [100, 50, 50]
    assert counters.datapoint_class_units == 100 * 4 + 50 * 2 + 50 * 2


@pytest.mark.parametrize("spec", [LINEAR, KERNEL], ids=["linear", "kernel-ridge"])
def test_fit_lcpn_solves_once_per_parent_on_its_rows(fig_tree, spec, monkeypatch):
    """The paper's cost model counts one fit per parent node: each parent is
    one ridge solve over exactly the rows of its class set."""
    labels = np.repeat(np.arange(5), [4, 5, 6, 7, 8])
    data = TimeSeriesDataset(np.random.default_rng(2).normal(size=(labels.size, 16)) + labels[:, None], labels)
    solved = []
    solve = classifiers.ridge_solve

    def counted(features, targets, gram):
        solved.append(features.shape[0])
        return solve(features, targets, gram)

    monkeypatch.setattr(classifiers, "ridge_solve", counted)
    counters = FitCounters()
    fit_lcpn(fig_tree, data, spec, counters=counters)
    assert solved == counters.per_parent_instances
    assert solved == [np.isin(labels, sorted(p.class_set)).sum() for p in fig_tree.parents]


#: Class ids 0..4 of `fig_tree` mapped to sparse ids, out of their order.
SPARSE = np.array([10**12, -5, 7, -(2**40), 3])


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse-subset"])
@pytest.mark.parametrize("spec", [LINEAR, KERNEL], ids=["linear", "kernel-ridge"])
def test_each_model_row_is_its_node_fit_bit_for_bit(fig_tree, spec, sparse):
    """Parent i's row of the model is the one weight row and intercept of a
    two-class fit on the parent's rows, left -> 0 and right -> 1, of the
    same run, bit for bit; the model keeps that run's spec and bank.  So
    too at sparse class ids, out of their order, on a row subset that keeps
    every class."""
    labels = np.repeat(np.arange(5), [4, 5, 6, 7, 8])
    values = np.random.default_rng(3).normal(size=(labels.size, 16)) + labels[:, None]
    tree = fig_tree
    rows = Run.rows_of(TimeSeriesDataset(values, labels), spec)
    if sparse:
        tree = build_tree([({int(SPARSE[c]) for c in p.left}, {int(SPARSE[c]) for c in p.right}) for p in tree.parents])
        rows = Run.rows_of(TimeSeriesDataset(values, SPARSE[labels]), spec)
        rows = rows.subset(np.flatnonzero(np.arange(labels.size) % 3 != 1))
        assert rows.label_space == tuple(sorted(SPARSE.tolist()))
    model = fit_lcpn(tree, rows, spec)
    n_features = 16 if spec.kind == "linear" else 2 * spec.num_kernels
    assert model.weights.shape == (len(tree.parents), n_features)
    assert model.spec == spec and model.series_length == 16 and model.bank is rows.run.bank
    for i, parent in enumerate(tree.parents):
        node, _ = rows.grouped((parent.left, parent.right))
        fit = fit_classifier(spec, node)
        assert fit.class_ids == (0, 1)
        assert model.weights[i].tobytes() == fit.weights[0].tobytes()
        assert model.intercepts[i].tobytes() == fit.intercepts[0].tobytes()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: {"weights": m.weights[:2]}, "has 2 node models for 3 parent nodes"),
        (lambda m: {"weights": m.weights[:, :-1]}, r"takes \(3, 8\) weights and \(3,\) intercepts, not \(3, 7\)"),
        (lambda m: {"intercepts": m.intercepts[:, None]}, r"not \(3, 8\) and \(3, 1\)"),
        (lambda m: {"spec": KERNEL}, "linear node models have no kernel bank, kernel-ridge ones have one"),
        (lambda m: {"bank": classifiers.KernelBank.generate(8, 3, 0)}, "linear node models have no kernel bank"),
        (lambda m: {"spec": KERNEL, "bank": classifiers.KernelBank.generate(8, 3, 0)}, "spec names 8 kernels, its kernel bank has 3"),
        (lambda m: {"spec": KERNEL, "bank": classifiers.KernelBank.generate(9, 8, 0)}, "has a kernel bank for another series length"),
        (lambda m: {"spec": KERNEL, "bank": classifiers.KernelBank.generate(8, 8, 0)}, r"takes \(3, 16\) weights"),
    ],
)
def test_a_model_refuses_fields_of_another_shape(edit, message):
    model = oracle_model(build_tree(CHAIN4), series_length=8)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(model, **edit(model))


def test_perfect_node_models_reproduce_labels(fig_tree):
    labels = np.asarray([0, 1, 2, 3, 4] * 6)
    model = oracle_model(fig_tree)
    predicted, depths = predict_lcpn(model, one_hot(labels))
    assert np.array_equal(predicted, labels)
    assert np.all((1 <= depths) & (depths <= 4))


def test_predictions_are_leaves_under_any_models():
    # constant-0 routing drives everything into the root's left subtree
    tree = build_tree(CHAIN4)

    model = linear_model(tree, np.zeros((3, 6)), intercepts=np.ones(3))
    values = one_hot([0, 1, 2, 3] * 3)
    predicted, depths = predict_lcpn(model, values)
    assert set(predicted) <= set(tree.parents[0].left)
    assert np.all(predicted == 0)
    assert np.all(depths == 1)


def test_chain_mean_depth_uniform_classes():
    labels = np.repeat(np.arange(4), 24)
    model = oracle_model(build_tree(CHAIN4))
    _, depths = predict_lcpn(model, one_hot(labels))
    assert float(np.mean(depths)) == pytest.approx(2.25, abs=1e-12)


def test_balanced_tree_depth_exactly_log2():
    labels = np.repeat(np.arange(4), 10)
    model = oracle_model(build_tree(BALANCED4))
    _, depths = predict_lcpn(model, one_hot(labels))
    assert np.all(depths == 2)


def test_depth_bounds_hold():
    labels = np.asarray([0, 1, 2, 3, 4] * 5)
    tree = build_tree([({0}, {1, 2, 3, 4}), ({1}, {2, 3, 4}), ({2}, {3, 4}), ({3}, {4})])
    _, depths = predict_lcpn(oracle_model(tree), one_hot(labels))
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
    assert node_state(base, node_01) == node_state(perturbed, node_01)


def test_missing_side_raises_with_parent_identity():
    tree = build_tree(CHAIN4)
    data = peek_dataset([0, 0, 1, 1, 3, 3])  # class 2 absent
    with pytest.raises(NodeTrainingError) as err:
        fit_lcpn(tree, data, LINEAR)
    assert "parent 2" in str(err.value)


def first_fit_error(tree, labels):
    """The message of the first error a fit of `tree` meets on rows with
    `labels`, from one ``np.isin`` mask per class set, or None: labels
    outside the tree first, then the first parent in tree order with no
    rows on a side, left before right."""
    def held(classes):
        return np.isin(labels, np.fromiter(classes, dtype=np.int64, count=len(classes)))

    foreign = sorted(set(labels[~held(tree.root_classes)].tolist()))
    if foreign:
        return f"data contains labels {foreign} outside the tree's classes {sorted(tree.root_classes)}"
    for parent in tree.parents:
        for name, side in (("left", parent.left), ("right", parent.right)):
            if not held(side).any():
                return (
                    f"parent {parent.id} has no training instances on its {name} side "
                    f"({sorted(parent.left)} | {sorted(parent.right)})"
                )
    return None


@settings(max_examples=300, deadline=None)
@given(
    classes=st.frozensets(CLASS_IDS, min_size=2, max_size=7),
    seed=st.integers(0, 2**16),
    foreign=st.booleans(),
    data=st.data(),
)
def test_check_fit_raises_the_first_error_of_the_isin_oracle(classes, seed, foreign, data):
    """Random trees over sparse ids, on random row subsets that may drop
    whole classes or hold labels outside the tree: the side check raises
    exactly when the oracle finds an error, with its message."""
    tree = grow_tree(StubContext(hash_scorer(seed), seed=seed, label_space=classes), "potr")
    pool = CLASS_IDS if foreign else st.sampled_from(sorted(classes))
    # the run holds every class of the tree; the subset keeps about 3 rows in 4
    labels = np.asarray(sorted(classes) + data.draw(st.lists(pool, max_size=40)), dtype=np.int64)
    keep = data.draw(st.lists(st.integers(0, 3).map(bool), min_size=labels.size, max_size=labels.size))
    run = Run(np.zeros((labels.size, 2)), labels, LINEAR)
    idx = np.flatnonzero(keep)  # ascending; may drop whole classes
    want = first_fit_error(tree, labels[idx])
    if want is None:
        _check_fit(tree, Rows(run, idx))
    else:
        with pytest.raises(NodeTrainingError) as err:
            _check_fit(tree, Rows(run, idx))
        assert str(err.value) == want


def test_foreign_labels_rejected():
    tree = build_tree([({0}, {1})])
    data = peek_dataset([0, 1, 5, 5])
    with pytest.raises(NodeTrainingError):
        fit_lcpn(tree, data, LINEAR)


def test_predict_length_mismatch():
    data = peek_dataset([0, 0, 1, 1])
    model = fit_lcpn(build_tree([({0}, {1})]), data, LINEAR)
    with pytest.raises(ValueError):
        predict_lcpn(model, np.ones((2, 99)))


@pytest.mark.parametrize("kind", ["linear", "kernel-ridge"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predict_rejects_non_finite_rows(kind, bad):
    data = separable_dataset(n_per_class=6, n_classes=2, series_length=8)
    model = fit_lcpn(build_tree([({0}, {1})]), data, ClassifierSpec(kind=kind, num_kernels=8))
    values = data.values[:4].copy()
    values[2, 5] = values[3, 0] = bad
    message = "row 2 of the input holds a NaN or an infinity"
    with pytest.raises(ValueError, match=message):
        predict_lcpn(model, values)
    labels, _ = predict_lcpn(model, values[:2])
    assert np.array_equal(labels, data.labels[:2])


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
