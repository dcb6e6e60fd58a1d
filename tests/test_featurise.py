"""Featurise once: one kernel bank per run, each row transformed once.

Work counters spy on :meth:`KernelBank.generate` and :meth:`KernelBank.transform`;
parity checks compare the featurised path with fitting every node the way it
was fit before the run-level featuriser existed.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiertsc import (
    ClassifierSpec,
    Featuriser,
    KernelBank,
    LcpnModel,
    TimeSeriesDataset,
    build_tree,
    cli,
    fit_classifier,
    fit_lcpn,
    nested_cv,
    predict_lcpn,
    save_dataset,
)
from hiertsc.classifiers import _fit_on_features

CHAIN5 = [({0}, {1, 2, 3, 4}), ({1}, {2, 3, 4}), ({2}, {3, 4}), ({3}, {4})]
KERNEL = ClassifierSpec(kind="kernel-ridge", num_kernels=16, seed=3)


def shifted_dataset(n_per_class=10, n_classes=5, length=32, noise=0.2, seed=0):
    """Randomly shifted noisy bumps, one position per class: hard enough that
    no classifier here scores 1.0 on unseen rows."""
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    rows, labels = [], []
    for cls in range(n_classes):
        centre = 4 + cls * (length - 8) / max(n_classes - 1, 1)
        for _ in range(n_per_class):
            shift = rng.integers(-4, 5)
            bump = np.exp(-0.5 * ((t - centre - shift) / 2.0) ** 2)
            rows.append(bump + rng.normal(0, noise, length))
            labels.append(cls)
    return TimeSeriesDataset(np.vstack(rows), np.asarray(labels))


class WorkSpy:
    """Counts bank draws and the rows each transform call featurises."""

    def __init__(self, monkeypatch):
        self.generated = 0
        self.rows: list[bytes] = []
        self.calls = 0
        generate, transform = KernelBank.generate, KernelBank.transform

        def spy_generate(*args, **kwargs):
            self.generated += 1
            return generate(*args, **kwargs)

        def spy_transform(bank, values):
            self.calls += 1
            self.rows.extend(row.tobytes() for row in np.ascontiguousarray(values))
            return transform(bank, values)

        monkeypatch.setattr(KernelBank, "generate", staticmethod(spy_generate))
        monkeypatch.setattr(KernelBank, "transform", spy_transform)

    def reset(self):
        self.generated, self.rows, self.calls = 0, [], 0


def distinct_rows(values):
    return {row.tobytes() for row in np.ascontiguousarray(values)}


# -- the kernel transform and the bank -----------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 12),
    length=st.integers(11, 40),
    seed=st.integers(0, 2**16),
    picks=st.lists(st.integers(0, 11), min_size=1, max_size=6),
)
def test_transform_of_a_row_subset_is_bitwise_the_subset_of_the_transform(n, length, seed, picks):
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 1.0, size=(n, length)) * rng.uniform(0.1, 10.0)
    bank = KernelBank.generate(length, 12, seed)
    whole = bank.transform(values)
    rows = np.asarray([p % n for p in picks])
    assert np.array_equal(bank.transform(values[rows]), whole[rows])
    for i in rows:
        assert np.array_equal(bank.transform(values[i : i + 1])[0], whole[i])


def test_kernel_bank_is_a_read_only_value():
    bank = KernelBank.generate(20, 6, seed=4)
    for array in (bank.lengths, bank.weights, bank.biases, bank.dilations, bank.paddings):
        with pytest.raises(ValueError):
            array[0] = 5
    again = KernelBank.from_dict(bank.to_dict())
    assert again == bank and hash(again) == hash(bank)
    assert again != KernelBank.generate(20, 6, seed=5)
    assert bank != "not a bank"
    assert len({bank, again}) == 1


def test_kernel_bank_copies_the_arrays_it_is_given():
    weights = np.zeros(7)
    bank = KernelBank(7, np.array([7]), weights, np.zeros(1), np.ones(1), np.zeros(1))
    weights[0] = 1.0
    assert bank.weights[0] == 0.0
    assert weights.flags.writeable


def test_linear_featuriser_passes_the_rows_through():
    values = shifted_dataset().values
    assert Featuriser(ClassifierSpec(kind="linear"))(values) is values


def test_featuriser_rejects_a_spec_or_length_it_was_not_built_for():
    data = shifted_dataset(n_per_class=4)
    with pytest.raises(ValueError):
        fit_classifier(KERNEL, data, Featuriser(ClassifierSpec(kind="kernel-ridge", seed=9)))
    features = Featuriser(KERNEL)
    features(data.values)
    with pytest.raises(ValueError):
        features(data.values[:, :20])


# -- work counters ---------------------------------------------------------------


def run_cli(args):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(args)


def test_fit_draws_one_bank_and_transforms_each_row_once(tmp_path, monkeypatch):
    data = shifted_dataset(n_per_class=8, n_classes=4, seed=1)
    path = tmp_path / "data.tsv"
    save_dataset(data, path)
    args = [
        "fit", "--data", str(path), "--classifier", "kernel-ridge", "--kernels", "8",
        "--splitter", "lsoo", "--iters", "2", "--inner-folds", "3", "--out", str(tmp_path / "out"),
    ]
    spy = WorkSpy(monkeypatch)
    for _ in range(2):  # a second call in the same process starts from scratch
        spy.reset()
        assert run_cli(args) == 0
        assert spy.generated == 1
        assert sorted(spy.rows) == sorted(distinct_rows(data.values))


def test_nested_cv_draws_one_bank_and_transforms_each_row_once(monkeypatch):
    data = shifted_dataset(n_per_class=6, n_classes=4, seed=2)
    spec = ClassifierSpec(kind="kernel-ridge", num_kernels=8)
    spy = WorkSpy(monkeypatch)
    reports = []
    for _ in range(2):
        spy.reset()
        reports.append(nested_cv(data, spec, "potr", n_iter=2, n_outer=3, n_inner=2).to_json())
        assert spy.generated == 1
        assert sorted(spy.rows) == sorted(distinct_rows(data.values))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("loaded", [False, True])
def test_predict_transforms_each_row_once_whatever_the_depth(monkeypatch, loaded):
    data = shifted_dataset(seed=3)
    model = fit_lcpn(build_tree(CHAIN5), data, KERNEL)
    assert len({id(m.kernels) for m in model.node_models}) == 1
    spy = WorkSpy(monkeypatch)
    if loaded:
        model = LcpnModel.from_bundle(model.to_bundle())
        assert len({id(m.kernels) for m in model.node_models}) == 1
    unseen = shifted_dataset(seed=4).values
    _, depths = predict_lcpn(model, unseen)
    assert depths.max() >= 3
    assert spy.generated == 0
    assert spy.calls == 1 and sorted(spy.rows) == sorted(r.tobytes() for r in unseen)


# -- parity with fitting every node on its own -------------------------------------


def test_featurised_model_equals_nodes_fit_with_their_own_bank():
    data = shifted_dataset(seed=5)
    model = fit_lcpn(build_tree(CHAIN5), data, KERNEL)
    unseen = shifted_dataset(seed=6)
    predicted, _ = predict_lcpn(model, unseen.values)
    assert 0.3 < np.mean(predicted == unseen.labels) < 1.0
    for parent, node in zip(model.tree.parents, model.node_models):
        values, groups, _ = data.binary_groups(parent.left, parent.right)
        bank = KernelBank.generate(data.series_length, KERNEL.num_kernels, KERNEL.seed)
        node_data = TimeSeriesDataset(values, groups)
        alone = _fit_on_features(KERNEL, node_data, bank.transform(values), bank)
        assert alone.to_blob() == node.to_blob()


@pytest.mark.parametrize("kind", ["linear", "kernel-ridge"])
def test_predict_labels_ignore_row_order_and_batching(kind):
    spec = ClassifierSpec(kind=kind, num_kernels=16, seed=1)
    model = fit_lcpn(build_tree(CHAIN5), shifted_dataset(seed=7), spec)
    values = shifted_dataset(seed=8).values
    labels, depths = predict_lcpn(model, values)
    order = np.random.default_rng(0).permutation(len(values))
    shuffled, _ = predict_lcpn(model, values[order])
    assert np.array_equal(shuffled, labels[order])
    for size in (1, 3, 7):
        batched = [
            predict_lcpn(model, values[at : at + size]) for at in range(0, len(values), size)
        ]
        assert np.array_equal(np.concatenate([b[0] for b in batched]), labels)
        assert np.array_equal(np.concatenate([b[1] for b in batched]), depths)
