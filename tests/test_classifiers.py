"""Base classifier contracts: determinism, the ridge solve, kernel features."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hiertsc import (
    ClassifierSpec,
    KernelBank,
    TimeSeriesDataset,
    collinear_superclusters,
    fit_classifier,
    flat_cv,
    nested_cv,
)
from hiertsc import classifiers
from hiertsc.classifiers import Rows, Run, TrainedClassifier, TrainingDataError, _centred, ridge_solve

from conftest import classifier_state, separable_dataset


def gaussian_two_class(n=40, m=10, gap=3.0, seed=1):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, size=(n, m))
    b = rng.normal(gap, 1.0, size=(n, m))
    labels = np.concatenate([np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)])
    return TimeSeriesDataset(np.vstack([a, b]), labels)


def test_linear_separable_training_accuracy():
    data = gaussian_two_class()
    model = fit_classifier(ClassifierSpec(kind="linear"), data)
    assert np.array_equal(model.predict(data.values), data.labels)


def test_linear_matches_normal_equations_oracle():
    data = gaussian_two_class(n=15, m=6)
    lam = 1e-2
    model = fit_classifier(ClassifierSpec(kind="linear", ridge_lambda=lam), data)
    centered = data.values - data.values.mean(axis=0)
    class_ids = np.unique(data.labels)
    targets = np.where(data.labels[:, None] == class_ids[None, :], 1.0, -1.0)
    targets = targets - targets.mean(axis=0)
    gram = centered.T @ centered + lam * np.eye(centered.shape[1])
    residual = gram @ model.weights.T - centered.T @ targets
    assert np.max(np.abs(residual)) <= 1e-8


def test_kernel_ridge_determinism():
    data = gaussian_two_class(n=10, m=20)
    spec = ClassifierSpec(kind="kernel-ridge", num_kernels=32, seed=0)
    a = fit_classifier(spec, data)
    b = fit_classifier(spec, data)
    assert classifier_state(a) == classifier_state(b)
    probe = data.values[:5]
    assert np.array_equal(a.predict(probe), b.predict(probe))


def test_kernel_seeds_differ():
    data = gaussian_two_class(n=10, m=20)
    a = fit_classifier(ClassifierSpec(kind="kernel-ridge", num_kernels=16, seed=0), data)
    b = fit_classifier(ClassifierSpec(kind="kernel-ridge", num_kernels=16, seed=1), data)
    assert classifier_state(a) != classifier_state(b)


def test_kernel_bank_invariants():
    bank = KernelBank.generate(series_length=50, num_kernels=200, seed=3)
    at = 0
    for i in range(bank.n_kernels):
        length = int(bank.lengths[i])
        w = bank.weights[at : at + length]
        at += length
        assert abs(w.sum()) <= 1e-9 * length
        assert length in (7, 9, 11)
        assert bank.dilations[i] >= 1
        assert (length - 1) * bank.dilations[i] <= 50 - 1
        assert -1.0 <= bank.biases[i] <= 1.0


def test_kernel_feature_shape():
    data = gaussian_two_class(n=8, m=16)
    bank = KernelBank.generate(16, 24, seed=0)
    feats = bank.transform(data.values)
    assert feats.shape == (16, 48)


def test_constant_positive_series_zero_bias_kernel():
    # zero-mean weights on a constant input give exactly zero outputs when
    # unpadded, so the positive share and the max are both 0
    w = np.array([1.0, -2.0, 0.5, 0.5, 1.0, -1.5, 0.5])
    w -= w.mean()
    bank = KernelBank(
        series_length=12,
        lengths=np.array([7]),
        weights=w,
        biases=np.array([0.0]),
        dilations=np.array([1]),
        paddings=np.array([0]),
    )
    rows = np.full((4, 12), 5.0)
    feats = bank.transform(rows)
    assert np.allclose(feats[:, 0], 0.0)
    assert np.allclose(feats[:, 1], 0.0, atol=1e-12)


def test_too_short_series_for_kernels():
    with pytest.raises(TrainingDataError):
        KernelBank.generate(series_length=5, num_kernels=4, seed=0)


def test_single_class_rejected():
    values = np.random.default_rng(0).normal(size=(6, 4))
    with pytest.raises(Exception):
        TimeSeriesDataset(values, np.zeros(6, dtype=np.int64))


def test_all_zero_weights_predicts_smallest_class():
    model = TrainedClassifier(
        spec=ClassifierSpec(kind="linear"),
        class_ids=(2, 5, 9),
        weights=np.zeros((3, 4)),
        intercepts=np.zeros(3),
        series_length=4,
    )
    out = model.predict(np.ones((7, 4)))
    assert np.all(out == 2)


def test_single_instance_prediction_shape():
    data = gaussian_two_class(n=6, m=5)
    model = fit_classifier(ClassifierSpec(kind="linear"), data)
    out = model.predict(data.values[:1])
    assert out.shape == (1,)


def test_length_mismatch_raises():
    data = gaussian_two_class(n=6, m=5)
    model = fit_classifier(ClassifierSpec(kind="linear"), data)
    with pytest.raises(ValueError):
        model.predict(np.ones((2, 9)))


def test_ridge_solve_identity():
    rng = np.random.default_rng(7)
    g = rng.normal(size=(20, 6))
    y = rng.normal(size=(20, 3))
    lam = 0.5
    w = ridge_solve(g, y, lam)
    residual = (g.T @ g + lam * np.eye(6)) @ w - g.T @ y
    assert np.max(np.abs(residual)) <= 1e-8


def test_relabeling_equivariance():
    data = separable_dataset(n_per_class=10, n_classes=3, seed=4)
    spec = ClassifierSpec(kind="linear")
    base = fit_classifier(spec, data)
    perm = {0: 7, 1: 3, 2: 11}
    relabeled = TimeSeriesDataset(
        data.values, np.asarray([perm[int(c)] for c in data.labels])
    )
    shuffled_model = fit_classifier(spec, relabeled)
    probe = data.values
    expected = np.asarray([perm[int(c)] for c in base.predict(probe)])
    assert np.array_equal(shuffled_model.predict(probe), expected)


def test_weight_dimensions():
    data = gaussian_two_class(n=8, m=14)
    linear = fit_classifier(ClassifierSpec(kind="linear"), data)
    assert linear.weights.shape == (2, 14)
    kernel = fit_classifier(ClassifierSpec(kind="kernel-ridge", num_kernels=9), data)
    assert kernel.weights.shape == (2, 18)


def test_blob_round_trip():
    """A classifier read back from its node document as JSON text, as a
    bundle stores it, is the same classifier."""
    data = gaussian_two_class(n=8, m=16)
    model = fit_classifier(ClassifierSpec(kind="kernel-ridge", num_kernels=12), data)
    doc = json.loads(json.dumps(model.to_node_doc()))
    again = TrainedClassifier.from_node_doc(doc, model.spec, model.series_length, model.kernels)
    assert classifier_state(again) == classifier_state(model)
    assert np.array_equal(again.predict(data.values), model.predict(data.values))


def test_unknown_kind_rejected():
    data = gaussian_two_class(n=6, m=5)
    with pytest.raises(ValueError):
        fit_classifier(ClassifierSpec(kind="no-such-kind"), data)


def test_spec_validation():
    with pytest.raises(ValueError):
        ClassifierSpec(num_kernels=0)
    with pytest.raises(ValueError):
        ClassifierSpec(ridge_lambda=0.0)
    with pytest.raises(ValueError, match="finite and positive"):
        ClassifierSpec(ridge_lambda=float("inf"))
    with pytest.raises(ValueError):
        ClassifierSpec(seed=-1)


def primal_ridge(features, targets, lam):
    """Oracle: the f x f normal equations (F^T F + lam*I) W = F^T Y, solved as
    written, whatever the shape."""
    gram = features.T @ features + lam * np.eye(features.shape[1])
    return np.linalg.solve(gram, features.T @ targets)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 40),
    f=st.integers(1, 40),
    k=st.integers(1, 3),
    lam=st.sampled_from([1e-2, 0.1, 1.0, 10.0]),
    centre=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=5, f=30, k=2, lam=1e-2, centre=True, seed=0)
@example(n=20, f=20, k=1, lam=1e-2, centre=True, seed=1)
@example(n=30, f=5, k=3, lam=1e-2, centre=False, seed=2)
def test_ridge_solve_forms_match_primal_oracle(n, f, k, lam, centre, seed):
    # n < f takes the dual form, n >= f the primal; both solve the same system
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, f))
    if centre:  # as every fit does: rank n - 1
        features -= features.mean(axis=0)
    targets = rng.normal(size=(n, k))
    w = ridge_solve(features, targets, lam)
    assert w.shape == (f, k)
    residual = (features.T @ features + lam * np.eye(f)) @ w - features.T @ targets
    assert np.max(np.abs(residual)) <= 1e-8
    oracle = primal_ridge(features, targets, lam)
    assert np.max(np.abs(w - oracle)) <= 1e-9
    if n >= f:
        assert np.array_equal(w, oracle)


@pytest.mark.parametrize("kind", ["linear", "kernel-ridge"])
def test_fit_with_fewer_rows_than_features_matches_primal_oracle(kind):
    data = gaussian_two_class(n=6, m=40)
    spec = ClassifierSpec(kind=kind, num_kernels=32, seed=5)
    model = fit_classifier(spec, data)
    feats = data.values
    if kind == "kernel-ridge":
        raw = KernelBank.generate(40, 32, seed=5).transform(data.values)
        scale = raw.std(axis=0)
        scale[scale == 0.0] = 1.0
        assert np.array_equal(model.feature_mean, raw.mean(axis=0))
        assert np.array_equal(model.feature_scale, scale)
        feats = (raw - raw.mean(axis=0)) / scale
    assert feats.shape[0] < feats.shape[1]
    class_ids = np.unique(data.labels)
    targets = np.where(data.labels[:, None] == class_ids[None, :], 1.0, -1.0)
    f_mean, t_mean = feats.mean(axis=0), targets.mean(axis=0)
    w = primal_ridge(feats - f_mean, targets - t_mean, spec.ridge_lambda)
    assert np.max(np.abs(model.weights - w.T)) <= 1e-9
    assert np.max(np.abs(model.intercepts - (t_mean - f_mean @ w))) <= 1e-9
    assert np.array_equal(model.predict(data.values), data.labels)


def random_features(rng, n, f):
    """n x f raw features of mixed columns: normal, offset far from zero,
    rounded to a few levels (as the proportion-of-positives pooling gives),
    and constant, zero or not."""
    feats = rng.normal(0.0, 1.0, (n, f)) * rng.choice([1e-3, 1.0, 1e3], f)
    kind = rng.integers(0, 4, f)
    feats[:, kind == 1] += 1e6
    feats[:, kind == 2] = np.round(feats[:, kind == 2] * 4) / rng.integers(1, 200)
    feats[:, kind == 3] = rng.choice([0.0, 1.0, -2.5, 1 / 3], (kind == 3).sum())
    return feats


@pytest.mark.parametrize("kind", ["linear", "kernel-ridge"])
@pytest.mark.parametrize("seed", range(20))
def test_centred_is_bitwise_the_plain_numpy_expressions(kind, seed):
    """The one-pass row-set preparation gives the bits of x.mean(0),
    x.std(0) (zeros read as 1), (x - m) / s, its .mean(0) and x - c, and
    leaves the run's feature matrix as it was."""
    rng = np.random.default_rng(seed)
    total, f = int(rng.integers(1, 260)), int(rng.integers(1, 1025))
    idx = np.sort(rng.choice(total, min(total, int(rng.integers(1, 201))), replace=False))
    feats = random_features(rng, total, f)
    before = feats.copy()
    spec = ClassifierSpec(kind=kind, num_kernels=1)
    run = Run(feats if kind == "linear" else np.zeros((total, 9)), np.zeros(total, np.int64), spec)
    run.feats = feats  # any raw features: the preparation never reads the bank
    mean, scale, centre, centred = _centred(Rows(run, idx))
    x = feats[idx]
    if kind == "linear":
        assert mean is None and scale is None
        z = x
    else:
        want_scale = x.std(axis=0)
        want_scale = np.where(want_scale == 0.0, 1.0, want_scale)
        assert mean.tobytes() == x.mean(axis=0).tobytes()
        assert scale.tobytes() == want_scale.tobytes()
        z = (x - x.mean(axis=0)) / want_scale
    assert centre.tobytes() == z.mean(axis=0).tobytes()
    assert centred.shape == x.shape
    assert centred.tobytes() == (z - z.mean(axis=0)).tobytes()
    assert run.feats is feats and feats.tobytes() == before.tobytes()


@pytest.mark.parametrize(
    "spec",
    [ClassifierSpec(kind="linear"), ClassifierSpec(kind="kernel-ridge", num_kernels=16)],
    ids=["linear", "kernel-ridge"],
)
def test_cv_reports_match_primal_only_solves(spec, monkeypatch):
    # a small, noisy set: fits land on both sides of n = f and no fold scores
    # 1.0, so a label flipped by the dual form would change a report
    data = collinear_superclusters(n_per_class=12, series_length=32, noise=1.5)
    shapes, oracle_calls = [], []

    def counted(features, targets, lam):
        shapes.append(features.shape)
        return ridge_solve(features, targets, lam)

    def counted_oracle(features, targets, lam):
        oracle_calls.append(features.shape)
        return primal_ridge(features, targets, lam)

    def reports():
        return [
            run(data, spec, splitter, n_iter=3, seed=1, dataset_id="parity")
            for run in (nested_cv, flat_cv)
            for splitter in ("potr", "srtr", "lsoo")
        ]

    monkeypatch.setattr(classifiers, "ridge_solve", counted)
    shipped = reports()
    monkeypatch.setattr(classifiers, "ridge_solve", counted_oracle)
    oracle = reports()
    assert oracle_calls == shapes  # the oracle replaced every solve
    assert any(n < f for n, f in shapes) and any(n >= f for n, f in shapes)
    assert all(
        fold.outer_test_score < 1.0 for report in shipped for fold in report.folds
    )
    assert [r.to_json() for r in shipped] == [r.to_json() for r in oracle]
