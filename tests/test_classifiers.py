"""Base classifier contracts: determinism, the ridge solve, kernel features."""

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
from hiertsc.classifiers import (
    Rows,
    Run,
    TrainedClassifier,
    TrainingDataError,
    _centred,
    _class_decisions,
    _gram,
    ridge_solve,
)

from conftest import classifier_state, separable_dataset


def standardise(raw, mean, scale):
    """`raw` features by the standardisation of a fit's rows; none for
    ``linear``, whose mean and scale are None."""
    return raw if mean is None else (raw - mean) / scale


def unfolded(model, mean, scale):
    """(weights, intercepts) of a fitted classifier on the standardised
    features of its rows, which a ``kernel-ridge`` fit solves for and then
    folds their `mean` and `scale` into."""
    if mean is None:
        return model.weights, model.intercepts
    return model.weights * scale, model.intercepts + model.weights @ mean


def gaussian_two_class(n=40, m=10, gap=3.0, seed=1):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, size=(n, m))
    b = rng.normal(gap, 1.0, size=(n, m))
    labels = np.concatenate([np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)])
    return TimeSeriesDataset(np.vstack([a, b]), labels)


def test_linear_separable_training_accuracy():
    data = gaussian_two_class()
    model = fit_classifier(ClassifierSpec(kind="linear"), data)
    assert np.array_equal(model.predict_features(data.values), data.labels)


def test_linear_matches_normal_equations_oracle():
    data = gaussian_two_class(n=15, m=6)
    lam = 1e-2
    model = fit_classifier(ClassifierSpec(kind="linear", ridge_lambda=lam), data)
    centered = data.values - data.values.mean(axis=0)
    # two classes are one target column: +1 for the first class, -1 for the second
    targets = np.where(data.labels[:, None] == data.labels.min(), 1.0, -1.0)
    targets = targets - targets.mean(axis=0)
    gram = centered.T @ centered + lam * np.eye(centered.shape[1])
    residual = gram @ model.weights.T - centered.T @ targets
    assert np.max(np.abs(residual)) <= 1e-8


def test_kernel_ridge_determinism():
    data = gaussian_two_class(n=10, m=20)
    spec = ClassifierSpec(kind="kernel-ridge", num_kernels=32, seed=0)
    rows_a, rows_b = Run.rows_of(data, spec), Run.rows_of(data, spec)
    assert rows_a.run.bank is not rows_b.run.bank and rows_a.run.bank == rows_b.run.bank
    a = fit_classifier(spec, rows_a)
    b = fit_classifier(spec, rows_b)
    assert classifier_state(a) == classifier_state(b)
    probe = KernelBank.generate(20, spec.num_kernels, spec.seed).transform(data.values[:5])
    assert np.array_equal(a.predict_features(probe), b.predict_features(probe))


def test_kernel_seeds_differ():
    data = gaussian_two_class(n=10, m=20)
    specs = [ClassifierSpec(kind="kernel-ridge", num_kernels=16, seed=seed) for seed in (0, 1)]
    rows_a, rows_b = (Run.rows_of(data, spec) for spec in specs)
    assert rows_a.run.bank != rows_b.run.bank
    a, b = fit_classifier(specs[0], rows_a), fit_classifier(specs[1], rows_b)
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
    model = TrainedClassifier(class_ids=(2, 5, 9), weights=np.zeros((3, 4)), intercepts=np.zeros(3))
    out = model.predict_features(np.ones((7, 4)))
    assert np.all(out == 2)


@pytest.mark.parametrize("intercept, want", [(0.0, 5), (-0.0, 5), (1e-300, 5), (-1e-300, 9)])
def test_a_two_class_decision_picks_the_second_class_only_below_zero(intercept, want):
    """As argmax([s, -s]) did: a zero decision, of either sign, is a tie
    and goes to the first class."""
    model = TrainedClassifier((5, 9), np.zeros((1, 4)), np.array([intercept]))
    assert np.array_equal(model.predict_features(np.ones((3, 4))), [want] * 3)


@pytest.mark.parametrize("class_ids, rows", [((0, 1), 2), ((0, 1, 2), 1), ((0, 1, 2), 2)])
def test_a_classifier_refuses_weight_rows_its_classes_do_not_take(class_ids, rows):
    with pytest.raises(ValueError, match="weight row"):
        TrainedClassifier(class_ids, np.zeros((rows, 4)), np.zeros(rows))


def test_single_instance_prediction_shape():
    data = gaussian_two_class(n=6, m=5)
    model = fit_classifier(ClassifierSpec(kind="linear"), data)
    out = model.predict_features(data.values[:1])
    assert out.shape == (1,)


def test_length_mismatch_raises():
    # features of another width than the weights' are refused, so raw series
    # are not scored as kernel features (or the other way) by mistake
    data = gaussian_two_class(n=6, m=5)
    model = fit_classifier(ClassifierSpec(kind="linear"), data)
    with pytest.raises(ValueError):
        model.predict_features(np.ones((2, 9)))
    kernel = fit_classifier(ClassifierSpec(kind="kernel-ridge", num_kernels=4), gaussian_two_class(n=6, m=12))
    with pytest.raises(ValueError):
        kernel.predict_features(np.ones((2, 12)))


def test_a_trained_classifier_is_equal_only_to_itself():
    """A classifier holds arrays: two fits of the same data are equal
    arrays but not equal classifiers, and each hashes by identity."""
    data = gaussian_two_class(n=6, m=5)
    spec = ClassifierSpec(kind="linear")
    first, second = fit_classifier(spec, data), fit_classifier(spec, data)
    assert first.weights.tobytes() == second.weights.tobytes()
    assert first == first and first != second
    assert hash(first) == hash(first) and len({first, second, first}) == 2


def test_ridge_solve_identity():
    rng = np.random.default_rng(7)
    g = rng.normal(size=(20, 6))
    y = rng.normal(size=(20, 3))
    lam = 0.5
    w = ridge_solve(g, y, _gram(g, lam))
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
    expected = np.asarray([perm[int(c)] for c in base.predict_features(probe)])
    assert np.array_equal(shuffled_model.predict_features(probe), expected)


def test_weight_dimensions():
    data = gaussian_two_class(n=8, m=14)
    linear = fit_classifier(ClassifierSpec(kind="linear"), data)
    assert linear.weights.shape == (1, 14) and linear.intercepts.shape == (1,)
    kernel = fit_classifier(ClassifierSpec(kind="kernel-ridge", num_kernels=9), data)
    assert kernel.weights.shape == (1, 18) and kernel.intercepts.shape == (1,)
    three = separable_dataset(n_per_class=4, n_classes=3, seed=1)
    model = fit_classifier(ClassifierSpec(kind="linear"), three)
    assert model.weights.shape == (3, three.series_length) and model.intercepts.shape == (3,)


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
    w = ridge_solve(features, targets, _gram(features, lam))
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
    feats, mean, scale = data.values, None, None
    if kind == "kernel-ridge":
        raw = KernelBank.generate(40, 32, seed=5).transform(data.values)
        mean, scale = raw.mean(axis=0), raw.std(axis=0)
        scale[scale == 0.0] = 1.0
        feats = (raw - mean) / scale
    assert feats.shape[0] < feats.shape[1]
    targets = np.where(data.labels[:, None] == data.labels.min(), 1.0, -1.0)
    f_mean, t_mean = feats.mean(axis=0), targets.mean(axis=0)
    w = primal_ridge(feats - f_mean, targets - t_mean, spec.ridge_lambda)
    weights, intercepts = unfolded(model, mean, scale)
    assert np.max(np.abs(weights - w.T)) <= 1e-9
    assert np.max(np.abs(intercepts - (t_mean - f_mean @ w))) <= 1e-9
    assert np.array_equal(model.predict_features(data.values if mean is None else raw), data.labels)


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


@pytest.mark.parametrize("kind", ["linear", "kernel-ridge"])
@pytest.mark.parametrize("seed", range(10))
def test_class_decisions_are_bitwise_the_out_of_place_expression(kind, seed):
    """Standardising and centring the validation rows in place on their
    fresh gather gives the bits of ``(standardise(x, mean, scale) - centre)
    @ weights`` and leaves the run's feature matrix as it was."""
    rng = np.random.default_rng(seed)
    total, f, k = int(rng.integers(8, 200)), int(rng.integers(1, 300)), int(rng.integers(2, 6))
    feats = random_features(rng, total, f)
    before = feats.copy()
    spec = ClassifierSpec(kind=kind, num_kernels=1)
    run = Run(feats if kind == "linear" else np.zeros((total, 9)), np.zeros(total, np.int64), spec)
    run.feats = feats  # any raw features: the decisions never read the bank
    order = rng.permutation(total)
    cut = int(rng.integers(k, total - 1))
    train_idx, val_idx = np.sort(order[:cut]), np.sort(order[cut:])
    train = Rows(run, train_idx, rng.integers(0, k, train_idx.size))
    val = Rows(run, val_idx, np.zeros(val_idx.size, np.int64))
    got = _class_decisions(spec, train, val, k)
    mean, scale, centre, centred = _centred(train)
    indicators = np.zeros((train_idx.size, k))
    indicators[np.arange(train_idx.size), train.labels] = 1.0
    weights = ridge_solve(centred, indicators, _gram(centred, spec.ridge_lambda))
    want = (standardise(feats[val_idx], mean, scale) - centre) @ weights
    assert got.tobytes() == want.tobytes()
    assert run.feats is feats and feats.tobytes() == before.tobytes()


def two_column_fit(spec, data):
    """Oracle: the two-class fit as it was before one decision per node,
    one-vs-rest with one +/-1 column per class; (weights, intercepts, the
    standardisation's mean and scale, labels predicted for rows whose raw
    features are given) as the argmax of the two scores."""
    rows = Run.rows_of(data, spec)
    class_ids = np.unique(rows.labels)
    mean, scale, centre, centred = _centred(rows)
    targets = np.where(rows.labels[:, None] == class_ids[None, :], 1.0, -1.0)
    t_mean = np.add.reduce(targets, axis=0) / rows.labels.size
    w = ridge_solve(centred, targets - t_mean, _gram(centred, spec.ridge_lambda))
    weights, intercepts = w.T, t_mean - centre @ w

    def predict_features(raw):
        scores = standardise(raw, mean, scale) @ weights.T + intercepts
        return class_ids[np.argmax(scores, axis=1)]

    return weights, intercepts, mean, scale, predict_features


@pytest.mark.parametrize("kind", ["linear", "kernel-ridge"])
@pytest.mark.parametrize("seed", range(12))
def test_a_two_class_fit_is_the_first_of_the_old_two_columns(kind, seed):
    """One +/-1 column gives the old column 0 to 1e-12, once the fold of the
    standardisation is undone, and the labels of the old two-column argmax,
    on shapes on both sides of n = f.  The old columns were exact
    negations.  No decision is near a tie, so a flipped label fails the
    test rather than passing by luck."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 60))
    dual = seed % 2 == 1
    f = int(rng.integers(n + 1, 2 * n + 2)) if dual else int(rng.integers(2, n + 1))
    length, num_kernels = (f, 1) if kind == "linear" else (16, (f + dual) // 2)
    spec = ClassifierSpec(kind=kind, num_kernels=num_kernels, seed=seed)
    side = np.arange(n + 40) % 2  # n training rows, then 40 unseen ones
    values = rng.normal(0.0, 1.0, (side.size, length)) + np.outer(side, rng.normal(0.0, 0.5, length))
    data = TimeSeriesDataset(values[:n], np.sort(rng.choice(50, 2, replace=False))[side[:n]])
    model = fit_classifier(spec, data)
    assert (model.weights.shape[1] > n) == dual
    weights, intercepts, mean, scale, old_predict = two_column_fit(spec, data)
    assert np.array_equal(weights[1], -weights[0]) and intercepts[1] == -intercepts[0]
    assert model.weights.shape == (1, weights.shape[1]) and model.intercepts.shape == (1,)
    new_weights, new_intercepts = unfolded(model, mean, scale)
    assert np.abs(new_weights[0] - weights[0]).max() <= 1e-12 * np.abs(weights[0]).max()
    assert abs(new_intercepts[0] - intercepts[0]) <= 1e-12 * max(1.0, abs(intercepts[0]))
    raw = values if kind == "linear" else KernelBank.generate(length, num_kernels, seed).transform(values)
    decisions = model.scores(raw)
    assert np.abs(decisions).min() > 1e-9 * np.abs(decisions).max()
    assert np.array_equal(model.predict_features(raw), old_predict(raw))


@pytest.mark.parametrize("kind", ["linear", "kernel-ridge"])
@pytest.mark.parametrize("n_classes", [2, 3])
@pytest.mark.parametrize("dual", [False, True], ids=["primal", "dual"])
@pytest.mark.parametrize("seed", range(4))
def test_folded_decisions_match_the_standardised_ones_of_the_same_solve(kind, n_classes, dual, seed):
    """A fit's weights and intercepts score the raw features with the
    decisions that the ridge solution it folded gives the standardised
    features, to 1e-12 of the largest, and the same labels.  No decision
    (no gap between the two best scores, for three classes) is near a tie,
    so a flipped label fails the test rather than passing by luck."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 60))
    f = int(rng.integers(n + 1, 2 * n + 2)) if dual else int(rng.integers(2, n + 1))
    length, num_kernels = (f, 1) if kind == "linear" else (16, (f + dual) // 2)
    spec = ClassifierSpec(kind=kind, num_kernels=num_kernels, seed=seed)
    group = np.arange(n + 40) % n_classes  # n training rows, then 40 unseen ones
    centres = rng.normal(0.0, 0.5, (n_classes, length))
    values = rng.normal(0.0, 1.0, (group.size, length)) + centres[group]
    data = TimeSeriesDataset(values[:n], group[:n])
    model = fit_classifier(spec, data)
    assert (model.weights.shape[1] > n) == dual
    rows = Run.rows_of(data, spec)
    mean, scale, centre, centred = _centred(rows)
    ids = np.arange(n_classes)
    targets = np.where(rows.labels[:, None] == ids[: 1 if n_classes == 2 else None], 1.0, -1.0)
    t_mean = targets.mean(axis=0)
    w = ridge_solve(centred, targets - t_mean, _gram(centred, spec.ridge_lambda))
    raw = values if kind == "linear" else KernelBank.generate(length, num_kernels, seed).transform(values)
    want = standardise(raw, mean, scale) @ w + (t_mean - centre @ w)
    got = model.scores(raw).reshape(want.shape)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    if n_classes == 2:
        margins, oracle = np.abs(want[:, 0]), np.where(want[:, 0] < 0, 1, 0)
    else:
        top = np.sort(want, axis=1)
        margins, oracle = top[:, -1] - top[:, -2], np.argmax(want, axis=1)
    assert margins.min() > 1e-9 * np.abs(want).max()
    assert np.array_equal(model.predict_features(raw), oracle)


@pytest.mark.parametrize("f", [7, 64, 256, 1000, 1024])
def test_a_two_class_decision_has_the_same_bits_in_any_batch(f):
    """Each row's decision is a per-row sum: the same bits alone, in any
    batch and in any row order, where a matrix-vector product's bits can
    depend on the rows sharing the call."""
    rng = np.random.default_rng(f)
    model = TrainedClassifier((0, 1), rng.normal(size=(1, f)), rng.normal(size=1))
    feats = rng.normal(size=(199, f)) * rng.choice([1e-3, 1.0, 1e3], f)
    decisions = model.scores(feats)
    assert decisions.shape == (199,)
    alone = np.concatenate([model.scores(feats[i : i + 1]) for i in range(len(feats))])
    assert alone.tobytes() == decisions.tobytes()
    for _ in range(20):
        idx = rng.choice(len(feats), int(rng.integers(1, len(feats) + 1)), replace=False)
        assert model.scores(feats[idx]).tobytes() == decisions[idx].tobytes()


@pytest.mark.parametrize("f", [7, 256, 1000])
@pytest.mark.parametrize("k", [3, 20])
def test_multi_class_scores_have_the_same_bits_in_any_batch(k, f):
    """Each row's k scores are per-row sums too, as the flat baseline's
    classifier takes them: the same bits alone, in any batch and order."""
    rng = np.random.default_rng(100 * k + f)
    model = TrainedClassifier(tuple(range(k)), rng.normal(size=(k, f)), rng.normal(size=k))
    feats = rng.normal(size=(199, f)) * rng.choice([1e-3, 1.0, 1e3], f)
    scores = model.scores(feats)
    assert scores.shape == (199, k)
    alone = np.concatenate([model.scores(feats[i : i + 1]) for i in range(len(feats))])
    assert alone.tobytes() == scores.tobytes()
    for _ in range(20):
        idx = rng.choice(len(feats), int(rng.integers(1, len(feats) + 1)), replace=False)
        assert model.scores(feats[idx]).tobytes() == scores[idx].tobytes()


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

    def counted(features, targets, gram):
        shapes.append(features.shape)
        return ridge_solve(features, targets, gram)

    def counted_oracle(features, targets, gram):
        oracle_calls.append(features.shape)
        return primal_ridge(features, targets, spec.ridge_lambda)

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
