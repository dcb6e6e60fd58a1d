"""Featurise once: one kernel bank per run, each row transformed once.

Work counters spy on :meth:`KernelBank.generate` and :meth:`KernelBank.transform`;
parity checks compare the featurised path with fitting every node the way it
was fit before the run-level featuriser existed, and the grouped transform with
a per-kernel oracle, bit for bit.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hiertsc import (
    ClassifierSpec,
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
from hiertsc.classifiers import _PASS_ELEMENTS, Run, TrainingDataError, _fit_on_features

from conftest import classifier_state

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


def per_kernel_transform(bank, values):
    """The kernel transform one kernel at a time: pad, shift-and-add the taps
    in order, add the bias, then the share of positive outputs and the max."""
    n, m = values.shape
    feats = np.empty((n, 2 * bank.n_kernels))
    at = 0
    for i in range(bank.n_kernels):
        length = int(bank.lengths[i])
        w = bank.weights[at : at + length]
        at += length
        dilation, padding = int(bank.dilations[i]), int(bank.paddings[i])
        padded = np.zeros((n, m + 2 * padding))
        padded[:, padding : padding + m] = values
        out_len = padded.shape[1] - (length - 1) * dilation
        out = w[0] * padded[:, :out_len]
        for k in range(1, length):
            out += w[k] * padded[:, k * dilation : k * dilation + out_len]
        out += bank.biases[i]
        feats[:, 2 * i] = np.mean(out > 0, axis=1)
        feats[:, 2 * i + 1] = out.max(axis=1)
    return feats


def with_paddings(bank, mode):
    """`bank` as drawn, or with every kernel unpadded or padded."""
    if mode == "drawn":
        return bank
    doc = bank.to_dict()
    if mode == "all":
        doc["paddings"] = (bank.lengths - 1) * bank.dilations // 2
    else:
        doc["paddings"] = np.zeros_like(bank.paddings)
    return KernelBank.from_dict(doc)


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=60, deadline=None)
@given(
    length=st.integers(7, 300),
    n_kernels=st.integers(1, 64),
    seed=st.integers(0, 2**16),
    n=st.sampled_from([0, 1, 10, 10, 160]),
    padding=st.sampled_from(["drawn", "none", "all"]),
)
@example(length=7, n_kernels=8, seed=0, n=10, padding="drawn")  # only length 7 fits
@example(length=10, n_kernels=24, seed=1, n=1, padding="drawn")  # lengths 7 and 9
@example(length=300, n_kernels=64, seed=2, n=160, padding="all")
@example(length=64, n_kernels=64, seed=3, n=0, padding="none")
def test_grouped_transform_is_bitwise_the_per_kernel_transform(length, n_kernels, seed, n, padding):
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 1.0, size=(n, length)) * rng.uniform(0.1, 10.0)
    bank = with_paddings(KernelBank.generate(length, n_kernels, seed), padding)
    assert_same_bits(bank.transform(values), per_kernel_transform(bank, values))


def test_a_large_batch_convolves_groups_in_several_slices():
    rng = np.random.default_rng(11)
    values = rng.normal(0.0, 2.0, size=(240, 128))
    bank = KernelBank.generate(128, 64, seed=11)
    groups = bank._plan.groups
    slices = [-(-g.size // max(1, _PASS_ELEMENTS // (len(values) * g.out_len))) for g in groups]
    assert max(slices) > 1  # the case the slice bound protects
    assert len(groups) < bank.n_kernels
    assert_same_bits(bank.transform(values), per_kernel_transform(bank, values))


def test_transform_rejects_input_of_the_wrong_shape():
    bank = KernelBank.generate(64, 8, seed=0)
    for shape in [(3, 80), (3, 63), (64,), (2, 3, 64)]:
        with pytest.raises(ValueError, match=r"expected \(n, 64\) input, got"):
            bank.transform(np.zeros(shape))


def test_transform_rejects_a_kernel_that_does_not_fit():
    doc = KernelBank.generate(20, 4, seed=0).to_dict()
    doc["dilations"][2], doc["paddings"][2] = 20, 0  # from_dict builds it; KernelBank.decode would not
    bank = KernelBank.from_dict(doc)
    with pytest.raises(TrainingDataError, match="kernel does not fit the series even when padded"):
        bank.transform(np.zeros((2, 20)))


def test_empty_batches_give_empty_features_and_predictions():
    bank = KernelBank.generate(32, 16, seed=3)
    assert bank.transform(np.empty((0, 32))).shape == (0, 32)
    model = fit_lcpn(build_tree(CHAIN5), shifted_dataset(seed=9), KERNEL)
    labels, depths = predict_lcpn(model, np.empty((0, 32)))
    assert labels.shape == depths.shape == (0,)
    labels, depths = predict_lcpn(LcpnModel.from_bundle(model.to_bundle()), np.empty((0, 32)))
    assert labels.shape == depths.shape == (0,)


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


def test_a_linear_run_passes_its_rows_through():
    data = shifted_dataset()
    run = Run(data.values, data.labels, ClassifierSpec(kind="linear"))
    assert run.feats is data.values
    assert run.bank is None


def test_rows_reject_a_spec_their_run_was_not_built_for():
    data = shifted_dataset(n_per_class=4)
    other = ClassifierSpec(kind="kernel-ridge", num_kernels=16, seed=9)
    rows = Run.rows_of(data, other)
    assert rows.run.bank == KernelBank.generate(data.series_length, 16, 9)
    with pytest.raises(ValueError, match="the run was built for a different classifier spec"):
        fit_classifier(KERNEL, rows)
    with pytest.raises(ValueError, match="the run was built for a different classifier spec"):
        Run.rows_of(rows, KERNEL)


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
        in0 = np.isin(data.labels, sorted(parent.left))
        in1 = np.isin(data.labels, sorted(parent.right))
        values, groups = data.values[in0 | in1], in1[in0 | in1].astype(np.int64)
        bank = KernelBank.generate(data.series_length, KERNEL.num_kernels, KERNEL.seed)
        node_data = TimeSeriesDataset(values, groups)
        alone = _fit_on_features(KERNEL, node_data, bank.transform(values), bank)
        assert classifier_state(alone) == classifier_state(node)


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
