"""Featurise once: one kernel bank per run, each row transformed once.

Work counters spy on :meth:`KernelBank.generate` and :meth:`KernelBank.transform`;
parity checks compare the featurised path with fitting every node the way it
was fit before the run-level featuriser existed, and the grouped transform with
a per-kernel oracle, bit for bit.
"""

import contextlib
import hashlib
import io
import tracemalloc
from dataclasses import replace

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
from hiertsc.classifiers import (
    _PASS_ELEMENTS,
    Run,
    TrainingDataError,
    _decisions,
    _TransformPlan,
)

from conftest import classifier_state, node_state

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
    if mode == "all":
        return replace(bank, paddings=(bank.lengths - 1) * bank.dilations // 2)
    return replace(bank, paddings=np.zeros_like(bank.paddings))


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=60, deadline=None)
@given(
    length=st.integers(7, 300),
    n_kernels=st.integers(1, 64),
    seed=st.integers(0, 2**16),
    n=st.sampled_from([0, 1, 2, 10, 10, 160]),
    padding=st.sampled_from(["drawn", "none", "all"]),
)
@example(length=7, n_kernels=8, seed=0, n=10, padding="drawn")  # only length 7 fits
@example(length=10, n_kernels=24, seed=1, n=1, padding="drawn")  # lengths 7 and 9
@example(length=9, n_kernels=4, seed=0, n=1, padding="drawn")  # one row: needs the two-column floor
@example(length=32, n_kernels=16, seed=0, n=1, padding="drawn")
@example(length=300, n_kernels=64, seed=2, n=160, padding="all")
@example(length=64, n_kernels=64, seed=3, n=0, padding="none")
@example(length=300, n_kernels=8, seed=4, n=600, padding="all")  # one kernel > _PASS_ELEMENTS
@example(length=64, n_kernels=128, seed=0, n=2, padding="drawn")  # dilation-1 groups, served sizes
@example(length=64, n_kernels=128, seed=0, n=10, padding="drawn")
def test_grouped_transform_is_bitwise_the_per_kernel_transform(length, n_kernels, seed, n, padding):
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 1.0, size=(n, length)) * rng.uniform(0.1, 10.0)
    bank = with_paddings(KernelBank.generate(length, n_kernels, seed), padding)
    assert_same_bits(bank.transform(values), per_kernel_transform(bank, values))


def test_einsum_rounds_each_product_on_this_build():
    """The transform's einsum sums each output as rounded products.  With
    taps (1, a) against (-(1 + 2**-29), 1 + 2**-30), a = 1 + 2**-30, a fused
    multiply-add gives 2**-60 and two roundings give 0."""
    a = 1 + 2.0**-30
    x = np.array([-(1 + 2.0**-29), a])
    batch = np.repeat(x[:, None], 2, axis=1)  # positions x rows, as the transform lays it out
    s0, s1 = batch.strides
    windows = np.ndarray((2, 2), np.float64, batch, 0, (s0, s1))  # (tap, position*row), 1 position
    conv = np.einsum("kg,kq->gq", np.array([[1.0], [a]]), windows)
    bank = KernelBank(7, [7], [1.0, a, 0, 0, 0, 0, 0], [0.0], [1], [0])
    feats = bank.transform(np.concatenate([x, np.zeros(5)])[None])
    assert np.array_equal(conv, np.zeros((1, 2))) and np.array_equal(feats, [[0.0, 0.0]]), (
        "numpy's einsum fuses multiply and add on this build (see numpy.show_runtime()): "
        "kernel outputs differ from a shift-and-add in the last bit, so the bitwise "
        "transform tests and golden digests fail here, though features still do not "
        "depend on the batch"
    )


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 200),
    f=st.integers(1, 1100),
    k=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_a_stacked_decision_is_its_row_and_weight_row_scored_alone(n, f, k, seed, data):
    """Column j of the (rows, k) decisions of k stacked weight rows has, at
    any subset of the rows, the bits of weight row j alone over that subset:
    the form a model's parents and tree scoring's splits decide with gives
    each decision the bits of its own row and weight row.  Features are
    scaled over six decades per column, so a changed summation order shows."""
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, f)) * 10.0 ** rng.uniform(-3.0, 3.0, f)
    weights = rng.normal(size=(k, f)) * 10.0 ** rng.uniform(-3.0, 3.0, (k, 1))
    intercepts = rng.normal(size=k)
    rows = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=n) if n else st.just([])), dtype=np.int64)
    stacked = _decisions(feats, weights, intercepts)
    assert stacked.shape == (n, k)
    for j in range(k):
        alone = _decisions(feats[rows], weights[j : j + 1], intercepts[j : j + 1])[:, 0]
        assert np.array_equal(alone.view(np.uint64), stacked[rows, j].view(np.uint64)), j


@pytest.mark.parametrize("rows", [1, 2, 10, 160])
def test_every_einsum_window_is_two_d_with_the_taps_outside_the_inner_loop(monkeypatch, rows):
    """Each group's window is a (tap, position*row) view whose inner stride is
    one value and whose tap stride is larger, also for dilation 1: a tap
    stride equal to an inner stride would let einsum reorder the tap sums or
    split (position, row) into short loops."""
    bank = KernelBank.generate(64, 128, 0)
    assert any(group.dilation == 1 for group in bank._plan.groups)
    windows = []
    einsum = np.einsum

    def spy_einsum(subscripts, *operands, **kwargs):
        windows.append(operands[1])
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", spy_einsum)
    values = np.random.default_rng(rows).normal(size=(rows, 64))
    bank.transform(values)
    assert len(windows) >= len(bank._plan.groups)
    for window in windows:
        assert window.ndim == 2
        tap_stride, inner_stride = window.strides
        assert inner_stride == 8 and tap_stride > inner_stride


def test_a_large_batch_fills_the_bounded_buffer_several_times(monkeypatch):
    rng = np.random.default_rng(11)
    values = rng.normal(0.0, 2.0, size=(240, 128))
    bank = KernelBank.generate(128, 64, seed=11)
    assert len(bank._plan.groups) < bank.n_kernels
    fills = []
    pool = _TransformPlan.pool

    def spy_pool(plan, buf, first, stop, *pooled):
        assert buf.size <= _PASS_ELEMENTS
        fills.append(stop - first)
        return pool(plan, buf, first, stop, *pooled)

    monkeypatch.setattr(_TransformPlan, "pool", spy_pool)
    feats = bank.transform(values)
    assert len(fills) > 1 and sum(fills) == bank.n_kernels
    assert_same_bits(feats, per_kernel_transform(bank, values))


def test_a_transform_peaks_at_its_features_one_padded_copy_and_one_buffer():
    """A 160-row transform on the bank of a 128-kernel fit of length-64
    series.  Beyond the features, one padded copy and the buffer, the slack
    holds the pooled shares and maxima (as large as the features) and 64 KiB;
    a buffer for the whole batch would take about 8 MB."""
    bank = KernelBank.generate(64, 128, seed=0)
    values = np.random.default_rng(0).normal(size=(160, 64))
    bank.transform(values[:1])  # build the plan outside the trace
    tracemalloc.start()
    try:
        feats = bank.transform(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    padded = 8 * len(values) * (64 + 2 * int(bank.paddings.max()))
    buffer = 8 * _PASS_ELEMENTS
    assert peak < feats.nbytes + padded + buffer + (feats.nbytes + 65536)


def test_transform_rejects_input_of_the_wrong_shape():
    bank = KernelBank.generate(64, 8, seed=0)
    for shape in [(3, 80), (3, 63), (64,), (2, 3, 64)]:
        with pytest.raises(ValueError, match=r"expected \(n, 64\) input, got"):
            bank.transform(np.zeros(shape))


def test_transform_rejects_a_kernel_that_does_not_fit():
    bank = KernelBank.generate(20, 4, seed=0)
    dilations, paddings = bank.dilations.copy(), bank.paddings.copy()
    dilations[2], paddings[2] = 20, 0  # the constructor builds it; generate would not
    bank = replace(bank, dilations=dilations, paddings=paddings)
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
    again = KernelBank.generate(20, 6, seed=4)
    assert again is not bank and again == bank and hash(again) == hash(bank)
    assert again.digest == bank.digest and len(bank.digest) == 64
    assert again != KernelBank.generate(20, 6, seed=5)
    assert bank != "not a bank"
    assert len({bank, again}) == 1


def test_banks_equal_as_floats_but_not_as_bytes_are_unequal():
    """A weight of 0.0 and one of -0.0 compare equal as floats but differ in
    their bytes and so in the digest, which a bank hashes: equal banks must
    hash equal, so the two banks are unequal."""
    bank = KernelBank.generate(20, 6, seed=4)
    pos, neg = (replace(bank, weights=np.concatenate([[zero], bank.weights[1:]])) for zero in (0.0, -0.0))
    assert np.array_equal(pos.weights, neg.weights) and np.signbit(neg.weights[0])
    assert pos != neg and hash(pos) != hash(neg) and len({pos, neg}) == 2
    assert pos == replace(pos, weights=pos.weights.copy())


def test_the_bank_digest_tells_banks_apart():
    bank = KernelBank.generate(20, 6, seed=4)
    # the documented bundle format: the series length, then the arrays in
    # this order, all as little-endian 8-byte values
    arrays = [("lengths", "<i8"), ("weights", "<f8"), ("biases", "<f8"), ("dilations", "<i8"), ("paddings", "<i8")]
    raw = (20).to_bytes(8, "little") + b"".join(np.asarray(getattr(bank, n), t).tobytes() for n, t in arrays)
    assert bank.digest == hashlib.sha256(raw).hexdigest()
    others = [KernelBank.generate(20, 6, seed) for seed in (3, 5)]
    others += [KernelBank.generate(21, 6, 4), KernelBank.generate(20, 7, 4)]
    weights = bank.weights.copy()
    weights.view(np.int64)[0] ^= 1  # one bit of one weight
    others.append(replace(bank, weights=weights))
    assert len({bank.digest, *(other.digest for other in others)}) == 1 + len(others)
    assert all(other != bank for other in others)
    # the digest hashes the values, not the object: a copy has the same one
    assert replace(bank, weights=bank.weights.copy()).digest == bank.digest


#: The first 16 hex digits of ``KernelBank.generate(M, K, seed).digest`` for
#: seeds 0 and 5, captured from an earlier implementation of the draw: a
#: bundle stores only this digest, so a bank drawn another way is refused.
PINNED_BANK_DIGESTS = {
    (7, 1): ("9e48b094270dd7b6", "45689dfea9340413"),
    (7, 3): ("2ab5716ab4fc8056", "32618568ee2194ea"),
    (7, 64): ("05924609888052bc", "b1e96168d302a417"),
    (11, 1): ("b206a4315ce58f68", "e83fba5ff877a94b"),
    (11, 3): ("ab6e4aa6c610ae28", "fcc0451039a92b46"),
    (11, 64): ("507471597265b1e9", "26cce30cad1f5660"),
    (33, 1): ("345ba907307f5e76", "03c53279e0b7ef0d"),
    (33, 3): ("5f5bfc8ba5104f72", "f1c2b3fddd7aee77"),
    (33, 64): ("a657f349d6dba28f", "90a9eeb323219861"),
    (64, 1): ("6a2bab818392fafe", "3110c2d464d889ae"),
    (64, 3): ("4c6ef499e4b2fb09", "dcca8eee1ca76aaf"),
    (64, 64): ("efa7a1d3ea75f60f", "f0ea84e621b7f0e7"),
    (300, 1): ("b9d45521819a3f44", "591e3b93bc19b867"),
    (300, 3): ("cfa5b65c6183125e", "3eeed6362d68bf28"),
    (300, 64): ("1de160f6782ba205", "e183249bd01aa587"),
}


@pytest.mark.parametrize("series_length, n_kernels", sorted(PINNED_BANK_DIGESTS))
def test_a_bank_draws_the_pinned_stream(series_length, n_kernels):
    """Lengths 7 and 11 allow one or all three kernel lengths; 1, 3 and 64
    kernels cover one draw, a few, and many of every length."""
    got = tuple(KernelBank.generate(series_length, n_kernels, seed).digest[:16] for seed in (0, 5))
    assert got == PINNED_BANK_DIGESTS[series_length, n_kernels]


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
    spy = WorkSpy(monkeypatch)
    if loaded:
        model = LcpnModel.from_bundle(model.to_bundle())
    unseen = shifted_dataset(seed=4).values
    _, depths = predict_lcpn(model, unseen)
    assert depths.max() >= 3
    assert spy.generated == int(loaded)  # a load draws the bank again; predict never does
    assert spy.calls == 1 and sorted(spy.rows) == sorted(r.tobytes() for r in unseen)


# -- parity with fitting every node on its own -------------------------------------


def test_featurised_model_equals_nodes_fit_with_their_own_bank():
    data = shifted_dataset(seed=5)
    model = fit_lcpn(build_tree(CHAIN5), data, KERNEL)
    unseen = shifted_dataset(seed=6)
    predicted, _ = predict_lcpn(model, unseen.values)
    assert 0.3 < np.mean(predicted == unseen.labels) < 1.0
    for i, parent in enumerate(model.tree.parents):
        in0 = np.isin(data.labels, sorted(parent.left))
        in1 = np.isin(data.labels, sorted(parent.right))
        values, groups = data.values[in0 | in1], in1[in0 | in1].astype(np.int64)
        rows = Run.rows_of(TimeSeriesDataset(values, groups), KERNEL)  # a new run, which draws its own bank
        assert rows.run.bank is not model.bank and rows.run.bank == model.bank
        alone = fit_classifier(KERNEL, rows)
        assert classifier_state(alone) == node_state(model, i)
