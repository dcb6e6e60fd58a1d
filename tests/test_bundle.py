"""Model bundles: the version 6 format, refusal of every other version and
of keys version 6 does not define, the kernel bank drawn again from the
spec and checked against the stored digest, the token map every bundle
carries, refusal of bundles without one, typed decode errors, and
label-safe ``predict`` through that map."""

import base64
import dataclasses
import json
import string
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hiertsc import (
    ClassifierSpec,
    KernelBank,
    LcpnModel,
    ModelFormatError,
    TimeSeriesDataset,
    build_tree,
    collinear_superclusters,
    f1_macro,
    fit_lcpn,
    load_dataset,
    predict_lcpn,
    save_dataset,
)
from hiertsc.cli import main

NODE_ARRAYS = ("weights", "intercepts")
SPECS = {
    "linear": ClassifierSpec("linear"),
    "kernel-ridge": ClassifierSpec("kernel-ridge", num_kernels=8, seed=3),
}


def _split(classes, rng):
    """Parent pairs of a random binary hierarchy over `classes`, root first."""
    if len(classes) < 2:
        return []
    cut = int(rng.integers(1, len(classes)))
    left, right = classes[:cut], classes[cut:]
    return [(left, right), *_split(left, rng), *_split(right, rng)]


def random_problem(seed, n_classes, sparse_ids, named=False):
    """A small dataset, unseen rows and a random tree; class ids are
    0..k-1 or, with `sparse_ids`, distinct integers with gaps.  With `named`
    the dataset maps each id to a token, otherwise it has no map."""
    rng = np.random.default_rng(seed)
    ids = sorted(rng.choice(50, n_classes, replace=False).tolist()) if sparse_ids else list(range(n_classes))
    length = int(rng.integers(12, 20))
    levels = {c: 1.5 * i for i, c in enumerate(ids)}
    labels = np.repeat(ids, 4)
    values = np.asarray([levels[c] for c in labels])[:, None] + rng.normal(0, 0.8, (labels.size, length))
    unseen = rng.normal(0, 0.8, (30, length)) + rng.uniform(0, 1.5 * n_classes, (30, 1))
    order = rng.permutation(ids).tolist()
    names = {c: f"class-{c}" for c in ids} if named else None
    return TimeSeriesDataset(values, labels, names), unseen, build_tree(_split(order, rng))


def _run(args, capsys):
    code = main([str(a) for a in args])
    out, err = capsys.readouterr()
    return code, out, err


def _floats(text):
    """The float64 values of a bundle's array string."""
    return np.frombuffer(base64.b64decode(text), "<f8")


def _packed(values):
    """`values` as a bundle's array string."""
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")


def _dumps(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _as_version_5(text):
    """`text`, a version 6 bundle, in the version 5 layout: the kernel bank's
    arrays under ``bank`` (null for ``linear``) in place of its digest,
    integer arrays as number lists and float arrays as base64 strings."""
    doc = json.loads(text)
    del doc["bank_sha256"]
    doc["bank"] = None
    if doc["spec"]["kind"] == "kernel-ridge":
        bank = KernelBank.generate(doc["series_length"], doc["spec"]["num_kernels"], doc["spec"]["seed"])
        doc["bank"] = {"series_length": bank.series_length, "weights": _packed(bank.weights),
                       "biases": _packed(bank.biases), "lengths": bank.lengths.tolist(),
                       "dilations": bank.dilations.tolist(), "paddings": bank.paddings.tolist()}
    doc["version"] = 5
    return _dumps(doc)


def _as_version_4(text):
    """`text`, a version 6 bundle, in the version 4 layout: the bank under
    ``banks``, and per node its class ids, the index of its bank and, for
    ``kernel-ridge``, a feature mean and scale (here zeros and ones)."""
    doc = json.loads(_as_version_5(text))
    bank = doc.pop("bank")
    doc["banks"] = [] if bank is None else [bank]
    for node in doc["nodes"]:
        size = _floats(node["weights"]).size
        node.update(
            class_ids=[0, 1],
            bank=None if bank is None else 0,
            feature_mean=None if bank is None else _packed(np.zeros(size)),
            feature_scale=None if bank is None else _packed(np.ones(size)),
        )
    doc["version"] = 4
    return _dumps(doc)


# -- version 6 round trip -------------------------------------------------------


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(sorted(SPECS)),
    seed=st.integers(0, 2**16),
    n_classes=st.integers(2, 5),
    sparse_ids=st.booleans(),
    named=st.booleans(),
)
def test_round_trip_keeps_every_node_array_and_prediction(kind, seed, n_classes, sparse_ids, named):
    data, unseen, tree = random_problem(seed, n_classes, sparse_ids, named)
    model = fit_lcpn(tree, data, SPECS[kind])
    text = model.to_bundle()
    again = LcpnModel.from_bundle(text)
    assert again.tree == model.tree
    assert (again.spec, again.series_length) == (model.spec, model.series_length)
    assert again.weights.shape == model.weights.shape and again.intercepts.shape == (len(tree.parents),)
    for name in NODE_ARRAYS:
        assert getattr(model, name).tobytes() == getattr(again, name).tobytes(), name
    for values in (data.values, unseen):
        for got, want in zip(predict_lcpn(again, values), predict_lcpn(model, values)):
            assert np.array_equal(got, want)
    doc = json.loads(text)
    assert doc["version"] == 6
    assert sorted(doc) == ["bank_sha256", "label_names", "nodes", "series_length", "spec", "tree", "version"]
    # a node is its decision on the raw features: one weight row, one intercept
    assert all(sorted(node) == sorted(NODE_ARRAYS) for node in doc["nodes"])
    assert all(isinstance(node[name], str) for node in doc["nodes"] for name in NODE_ARRAYS)
    # every class of the tree is named: by the data's token, or by its id
    assert doc["label_names"] == {str(c): f"class-{c}" if named else str(c) for c in tree.root_classes}
    assert again.label_names == model.label_names
    if kind == "kernel-ridge":
        assert doc["bank_sha256"] == model.bank.digest
        assert again.bank == model.bank
    else:
        assert doc["bank_sha256"] is None and again.bank is None
    assert again.to_bundle() == text


@pytest.mark.parametrize("kind", sorted(SPECS))
@pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 7])
def test_a_bundle_of_another_version_exits_2_asking_for_a_refit(version, kind, tmp_path, capsys):
    data, _, tree = random_problem(11, 4, sparse_ids=True, named=True)
    doc = json.loads(_as_version_4(fit_lcpn(tree, data, SPECS[kind]).to_bundle()))
    (tmp_path / "model.json").write_text(_dumps({**doc, "version": version}))
    save_dataset(data, tmp_path / "batch.tsv")
    code, stdout, err = _run(["predict", "--model", tmp_path / "model.json", "--data", tmp_path / "batch.tsv",
                              "--out", tmp_path / "p"], capsys)
    assert code == 2 and stdout == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ModelFormatError"
    assert error["message"] == (
        f"unsupported model bundle version {version}: this program reads version 6 only; "
        "refit the model (hiertsc fit) to get one"
    )
    assert not (tmp_path / "p").exists()


def test_a_kernel_bundle_takes_at_most_11_bytes_per_float():
    """Base64 takes 10 2/3 characters per float64, number text about 20;
    the bank takes none, only its digest."""
    data, _, tree = random_problem(3, 8, sparse_ids=False)
    model = fit_lcpn(tree, data, ClassifierSpec("kernel-ridge", num_kernels=128))
    doc = json.loads(model.to_bundle())
    assert "bank" not in doc and len(doc["bank_sha256"]) == 64
    fields = [node[name] for node in doc["nodes"] for name in NODE_ARRAYS]
    floats = sum(getattr(model, name).size for name in NODE_ARRAYS)
    assert sum(_floats(text).size for text in fields) == floats
    assert sum(len(text.encode()) for text in fields) <= 11 * floats


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(sorted(SPECS)),
    seed=st.integers(0, 2**16),
    n_classes=st.integers(2, 5),
    sparse_ids=st.booleans(),
    shuffle=st.integers(0, 2**16),
)
def test_predictions_ignore_row_order_and_batching(kind, seed, n_classes, sparse_ids, shuffle):
    """Served labels and depths are the same in any row order and for
    batches of 1, 3, 7, 10 and all rows, fitted or loaded: each node's
    decision is a per-row sum."""
    data, unseen, tree = random_problem(seed, n_classes, sparse_ids)
    fitted = fit_lcpn(tree, data, SPECS[kind])
    loaded = LcpnModel.from_bundle(fitted.to_bundle())
    values = np.vstack([data.values, unseen])
    rng = np.random.default_rng(shuffle)
    order = rng.permutation(len(values))
    cut = int(rng.integers(0, len(values) + 1))
    for model in (fitted, loaded):
        labels, depths = predict_lcpn(model, values)
        shuffled = predict_lcpn(model, values[order])
        assert np.array_equal(shuffled[0], labels[order]) and np.array_equal(shuffled[1], depths[order])
        batchings = [[values[:cut], values[cut:]]]
        batchings += [[values[at : at + size] for at in range(0, len(values), size)] for size in (1, 3, 7, 10)]
        for batches in batchings:
            parts = [predict_lcpn(model, batch) for batch in batches]
            assert np.array_equal(np.concatenate([p[0] for p in parts]), labels)
            assert np.array_equal(np.concatenate([p[1] for p in parts]), depths)


def test_bundle_is_compact_json_with_the_token_map():
    data, _, tree = random_problem(1, 3, sparse_ids=False)
    named = TimeSeriesDataset(data.values, data.labels, {0: "x", 1: "y", 2: "z"})
    model = fit_lcpn(tree, named, SPECS["kernel-ridge"])
    assert model.label_names == {0: "x", 1: "y", 2: "z"}  # fit_lcpn keeps the data's map
    text = model.to_bundle()
    assert ", " not in text and ": " not in text
    doc = json.loads(text)
    assert doc["label_names"] == {"0": "x", "1": "y", "2": "z"}
    assert doc["series_length"] == data.series_length
    assert ClassifierSpec.decode(doc["spec"]) == SPECS["kernel-ridge"]
    assert LcpnModel.from_bundle(text).label_names == {0: "x", 1: "y", 2: "z"}


@pytest.mark.parametrize(
    "names, message",
    [
        ({0: "x", 1: "y"}, r"names classes \[0, 1\], the tree has \[0, 1, 2\]"),
        ({0: "x", 1: "x", 2: "z"}, "repeats a token"),
        ({0: "x", 1: "y", 2: 2}, "tokens must be strings"),
    ],
)
def test_to_bundle_rejects_a_token_map_it_could_not_read_back(names, message):
    data, _, tree = random_problem(1, 3, sparse_ids=False)
    model = fit_lcpn(tree, data, SPECS["linear"])
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(model, label_names=names).to_bundle()
    with pytest.raises(ValueError, match=message):  # fit_lcpn raises rather than drop the data's map
        fit_lcpn(tree, TimeSeriesDataset(data.values, data.labels, names), SPECS["linear"])


# -- bundles without a token map ------------------------------------------------


def _version_1_bundle():
    """A bundle in the retired version 1 layout: every node a JSON string
    holding its own spec, series length and bank, and no token map."""
    doc = json.loads(_as_version_5(BUNDLE_TEXT))
    nodes = [
        json.dumps({"version": 1, "spec": doc["spec"], "series_length": doc["series_length"],
                    "kernels": doc["bank"], "class_ids": [0, 1], **node}, sort_keys=True)
        for node in doc["nodes"]
    ]
    return json.dumps({"version": 1, "tree": doc["tree"], "node_models": nodes}, sort_keys=True)


def _null_map_bundle():
    return json.dumps({**json.loads(BUNDLE_TEXT), "label_names": None})


@pytest.mark.parametrize(
    "make, message",
    [(_version_1_bundle, "unsupported model bundle version 1"), (_null_map_bundle, "has no token map")],
    ids=["version-1", "null-map"],
)
def test_a_bundle_without_a_token_map_exits_2_asking_for_a_refit(make, message, tmp_path, capsys):
    (tmp_path / "model.json").write_text(make())
    data, _, _ = random_problem(5, 3, sparse_ids=False)
    save_dataset(data, tmp_path / "batch.tsv")
    code, stdout, err = _run(["predict", "--model", tmp_path / "model.json", "--data", tmp_path / "batch.tsv",
                              "--out", tmp_path / "p"], capsys)
    assert code == 2 and stdout == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ModelFormatError"
    assert message in error["message"] and "refit" in error["message"]
    assert not (tmp_path / "p").exists()


# -- typed decode errors ----------------------------------------------------------


def _linear_bundle():
    data, _, tree = random_problem(2, 3, sparse_ids=False)
    return fit_lcpn(tree, data, SPECS["linear"]).to_bundle()


def _without(key):
    doc = json.loads(_linear_bundle())
    del doc[key]
    return json.dumps(doc)


def _with_label_key(key):
    doc = json.loads(_linear_bundle())
    doc["label_names"][key] = "b"
    return json.dumps(doc)


def _with_tree(edit):
    doc = json.loads(_linear_bundle())
    doc["tree"] = edit(doc["tree"])
    return json.dumps(doc)


def _nodes(keep):
    doc = json.loads(_linear_bundle())
    doc["nodes"] = keep(doc["nodes"])
    return json.dumps(doc)


def _kind(bundle, kind):
    """`bundle` with its spec naming `kind`: a kernel-ridge bundle then has
    a bank digest under a linear spec, a linear one has none."""
    doc = json.loads(bundle)
    doc["spec"]["kind"] = kind
    return json.dumps(doc)


def _with_digest(bundle):
    """`bundle`, a linear one, with the digest of a bank of two kernels for
    its series length and its linear spec and nodes."""
    doc = json.loads(bundle)
    doc["bank_sha256"] = KernelBank.generate(doc["series_length"], 2, 1).digest
    return json.dumps(doc)


def _two_row_weights(nodes):
    """`nodes` with each node's weight row stored twice, as one row per
    class, which only bundles before version 4 held."""
    return [{**n, "weights": _packed(np.tile(_floats(n["weights"]), 2))} for n in nodes]


def _kernel_edit(edit):
    """A kernel-ridge bundle (two kernels) after `edit` of its decoded
    document."""
    doc = json.loads(_small_kernel_bundle())
    edit(doc)
    return json.dumps(doc)


def _as_list(name):
    """A kernel-ridge bundle whose first node's `name` array is a list of
    numbers, as version 2 stored it."""
    def edit(doc):
        doc["nodes"][0][name] = _floats(doc["nodes"][0][name]).tolist()
    return _kernel_edit(edit)


def _digest_edit(edit):
    """A kernel-ridge bundle whose ``bank_sha256`` is `edit` of its own."""
    return _kernel_edit(lambda doc: doc.update(bank_sha256=edit(doc["bank_sha256"])))


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "must be a JSON object, got list"),
        ("", "not valid JSON"),
        ('{"version": 7}', "unsupported model bundle version 7: this program reads version 6 only; refit"),
        ('{"version": 6}', "has no 'tree'"),
        (lambda: _kernel_edit(lambda doc: doc.update(version=5.0)), "unsupported model bundle version 5.0"),
        (lambda: _kernel_edit(lambda doc: doc.update(version=True)), "unsupported model bundle version True"),
        (lambda: _kernel_edit(lambda doc: doc["spec"].update(seed=True)), "seed must be an integer, got True"),
        (lambda: _linear_bundle().replace('"ridge_lambda":0.01', '"ridge_lambda":1' + "0" * 400), "ridge_lambda must be finite and positive"),
        (lambda: _without("bank_sha256"), "has no 'bank_sha256'"),
        (lambda: _without("nodes"), "has no 'nodes'"),
        (lambda: _without("label_names"), "has no 'label_names'"),
        (lambda: _linear_bundle().replace('"2":"2"', '"2":"0"'), "'label_names' repeats a token"),
        (lambda: _linear_bundle().replace(',"2":"2"', ""), r"'label_names' names classes \[0, 1\], the tree has \[0, 1, 2\]"),
        (lambda: _with_label_key("01"), "'label_names' key '01' is not a class id"),
        (lambda: _with_label_key("+1"), r"'label_names' key '\+1' is not a class id"),
        (lambda: _with_label_key("0_3"), "'label_names' key '0_3' is not a class id"),
        (lambda: _with_tree(lambda text: text.replace("1", "01")), "tree: not a tree text over class ids"),
        (lambda: _with_tree(lambda text: text.replace("2", str(2**63))), "tree: a class id is outside int64"),
        (lambda: _nodes(lambda nodes: nodes[:1]), "1 node models for 2 parent nodes"),
        (lambda: _nodes(lambda nodes: nodes * 2), "4 node models for 2 parent nodes"),
        (lambda: _nodes(lambda nodes: [{**n, "bank": 0} for n in nodes]), "node model has a key its format does not define: 'bank'"),
        (lambda: _nodes(_two_row_weights), "shape"),
        (lambda: _nodes(lambda nodes: [{**n, "class_ids": [0, 1]} for n in nodes]), "node model has a key its format does not define: 'class_ids'"),
        (lambda: _nodes(lambda nodes: [{"weights": n["weights"]} for n in nodes]), "node model has no 'intercepts'"),
        (lambda: _nodes(lambda nodes: {"0": nodes[0]}), "'nodes' must be a list"),
        (lambda: _linear_bundle().replace('"ridge_lambda":0.01', '"ridge_lambda":Infinity'), "finite and positive"),
        (lambda: _kind(_linear_bundle(), "no-such-kind"), "unknown classifier kind 'no-such-kind'"),
        # a bank digest only where the spec names a kernel bank, and then one
        # of 64 lowercase hex digits
        (lambda: _kind(_small_kernel_bundle(), "linear"), "'bank_sha256' must be null: linear node models have no kernel bank"),
        (lambda: _with_digest(_linear_bundle()), "'bank_sha256' must be null: linear node models have no kernel bank"),
        (lambda: _kind(_linear_bundle(), "kernel-ridge"), "'bank_sha256' must be 64 lowercase hex digits, got None"),
        (lambda: _digest_edit(lambda digest: None), "'bank_sha256' must be 64 lowercase hex digits, got None"),
        (lambda: _digest_edit(str.upper), "'bank_sha256' must be 64 lowercase hex digits"),
        (lambda: _digest_edit(lambda digest: digest[:-1]), "'bank_sha256' must be 64 lowercase hex digits"),
        (lambda: _digest_edit(lambda digest: digest + "\n"), "'bank_sha256' must be 64 lowercase hex digits"),
        (lambda: _digest_edit(lambda digest: int(digest, 16)), "'bank_sha256' must be 64 lowercase hex digits"),
        # the spec and the series length draw the bank again: an edit that
        # draws another bank is refused, however its nodes read
        (lambda: _kernel_edit(lambda doc: doc["spec"].update(seed=7)), "'bank_sha256' does not match the kernel bank its spec draws.*refit"),
        (lambda: _kernel_edit(lambda doc: doc.update(series_length=doc["series_length"] + 1)), "'bank_sha256' does not match the kernel bank its spec draws"),
        (lambda: _digest_edit(lambda digest: "0" * 64), "'bank_sha256' does not match the kernel bank its spec draws"),
        (lambda: _kernel_edit(lambda doc: doc.update(series_length=5)), "kernel bank cannot be drawn: series of length 5 are too short"),
        (lambda: _kernel_edit(lambda doc: doc.update(series_length=2**70)), "kernel bank cannot be drawn"),
        (lambda: _kernel_edit(lambda doc: doc.update(series_length=10**400)), "kernel bank cannot be drawn"),
        (lambda: _kernel_edit(lambda doc: doc["spec"].update(num_kernels=5)), r"node model weights holds 32 bytes, not the 8 x 10 of shape \(1, 10\)"),
        (lambda: _kernel_edit(lambda doc: doc["spec"].update(num_kernels=10**30)), f"not the 8 x {2 * 10**30} of shape"),
        (lambda: _kernel_edit(lambda doc: doc["nodes"][0].update(feature_scale=doc["nodes"][0]["weights"])), "node model has a key its format does not define: 'feature_scale'"),
        (lambda: _kernel_edit(lambda doc: doc["spec"].update(version=5)), "classifier spec has a key its format does not define: 'version'"),
        # a version 5 bundle stores its bank's arrays, and a version 4 node
        # standardises its features before its decision: with `version`
        # alone edited, neither loads
        (lambda: _dumps({**json.loads(_as_version_5(_small_kernel_bundle())), "version": 6}), "model bundle has a key its format does not define: 'bank'"),
        (lambda: _dumps({**json.loads(_as_version_4(_small_kernel_bundle())), "version": 6}), "model bundle has a key its format does not define: 'banks'"),
        (lambda: _kernel_edit(lambda doc: doc["nodes"][0].update(weights=_packed(_floats(doc["nodes"][0]["weights"]) * np.inf))), "weights holds a non-finite number"),
        (lambda: _kernel_edit(lambda doc: doc["nodes"][0].update(weights="é")), "weights is not strict base64 text"),
        (lambda: _kernel_edit(lambda doc: doc["nodes"][0].update(intercepts="A" * 22 + "==\n")), "intercepts is not strict base64"),
        (lambda: _kernel_edit(lambda doc: doc["nodes"][0].update(intercepts="A" * 22 + "==")), r"intercepts holds 16 bytes, not the 8 x 1 of shape \(1,\)"),
        (lambda: _as_list("weights"), "node model weights must be a base64 string"),
        (lambda: _kernel_edit(lambda doc: doc["nodes"][1].update(weights=_packed(_floats(doc["nodes"][1]["weights"])[:-1]))), r"node model weights holds 24 bytes, not the 8 x 4 of shape \(1, 4\)"),
    ],
)
def test_malformed_bundles_raise_model_format_error(text, message):
    text = text() if callable(text) else text
    with pytest.raises(ModelFormatError, match=message):
        LcpnModel.from_bundle(text)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: None, f"not the 8 x {2 * 10**30} of shape"),
        (lambda doc: doc.update(nodes=[]), "has 0 node models for 2 parent nodes"),
        (lambda doc: doc.update(nodes=doc["nodes"][:1]), "has 1 node models for 2 parent nodes"),
        (lambda doc: doc["nodes"][0].update(weights="é"), "weights is not strict base64 text"),
    ],
    ids=["kernels-beyond-the-rows", "no-nodes", "one-node-short", "bad-row"],
)
def test_node_rows_are_checked_before_the_bank_is_drawn(edit, message, monkeypatch):
    """A bundle cannot ask for more kernels than its node rows hold: the
    rows are decoded against the spec's kernel count, and their number
    against the tree, before any kernel is drawn."""
    doc = json.loads(_small_kernel_bundle())
    edit(doc)
    doc["spec"]["num_kernels"] = 10**30

    def refuse(*args):
        raise AssertionError("KernelBank.generate called")

    monkeypatch.setattr(KernelBank, "generate", staticmethod(refuse))
    with pytest.raises(ModelFormatError, match=message):
        LcpnModel.from_bundle(json.dumps(doc))


def test_a_model_compares_and_hashes_by_identity():
    """A model holds arrays, so `==` is identity, not an elementwise
    comparison whose truth value is ambiguous, and it can be hashed."""
    data, _, tree = random_problem(3, 4, sparse_ids=False)
    model = fit_lcpn(tree, data, SPECS["kernel-ridge"])
    again = LcpnModel.from_bundle(model.to_bundle())
    assert (model == again) is False and (model != again) is True
    assert (model == model) is True
    assert isinstance(hash(model), int) and hash(model) == hash(model)
    assert {model} == {model} and len({model, again}) == 2
    assert again.bank == model.bank and hash(again.bank) == hash(model.bank)


@pytest.mark.parametrize(
    "fields",
    [
        {"kind": "kernel-ridge", "num_kernels": np.int64(2), "seed": np.uint8(1)},
        {"ridge_lambda": np.float64(0.5)},
        {"ridge_lambda": np.float32(0.1)},
        {"ridge_lambda": np.int64(2)},
        {"ridge_lambda": 2},
    ],
)
def test_specs_with_numpy_or_int_fields_round_trip_as_python_numbers(fields):
    spec = ClassifierSpec(**fields)
    for name, value in fields.items():
        want = value.item() if isinstance(value, np.generic) else value
        assert type(getattr(spec, name)) is type(want) and getattr(spec, name) == want
    data, _, tree = random_problem(5, 3, sparse_ids=False)
    bundle = fit_lcpn(tree, data, spec).to_bundle()
    assert json.loads(bundle)["spec"] == spec.to_dict()
    assert LcpnModel.from_bundle(bundle).spec == spec


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"num_kernels": 2.5}, "num_kernels must be an integer, got 2.5"),
        ({"num_kernels": True}, "num_kernels must be an integer, got True"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": np.bool_(False)}, "seed must be an integer, got False"),
        ({"seed": 1.0}, "seed must be an integer, got 1.0"),
        ({"ridge_lambda": True}, "ridge_lambda must be a real number, got True"),
        ({"ridge_lambda": "0.1"}, "ridge_lambda must be a real number, got '0.1'"),
        ({"ridge_lambda": 10**400}, "ridge_lambda must be finite and positive"),
        ({"ridge_lambda": np.float64("nan")}, "ridge_lambda must be finite and positive"),
    ],
)
def test_spec_refuses_fields_a_bundle_could_not_hold(fields, message):
    with pytest.raises(ValueError, match=message):
        ClassifierSpec(**fields)


def _small_kernel_bundle():
    data, _, tree = random_problem(5, 3, sparse_ids=False)
    model = fit_lcpn(tree, data, ClassifierSpec("kernel-ridge", num_kernels=2, seed=1))
    return dataclasses.replace(model, label_names={0: "a", 1: "b", 2: "c"}).to_bundle()


#: the text the fuzz tests mutate: every section of a version 6 bundle, small
BUNDLE_TEXT = _small_kernel_bundle()


#: JSON punctuation, digits, the letters of numbers and literals, and the
#: base64 alphabet, so mutations land inside array strings too
JUNK = '{}[],:"0123456789.-+/= ' + string.ascii_letters


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_truncated_and_mutated_bundles_raise_only_model_format_errors(data):
    text = BUNDLE_TEXT
    action = data.draw(st.sampled_from(["truncate", "replace", "delete", "insert"]))
    at = data.draw(st.integers(0, len(text) - 1))
    if action == "truncate":
        text = text[:at]
    else:
        width = data.draw(st.integers(1, 8))
        junk = data.draw(st.text(alphabet=JUNK, min_size=1, max_size=width))
        if action == "replace":
            text = text[:at] + junk + text[at + width :]
        elif action == "delete":
            text = text[:at] + text[at + width :]
        else:
            text = text[:at] + junk + text[at:]
    try:
        LcpnModel.from_bundle(text)
    except ModelFormatError:
        pass


def _paths(doc, at=()):
    """The path of every value in a decoded JSON document, the root first."""
    yield at
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, (*at, key))


BUNDLE_PATHS = list(_paths(json.loads(BUNDLE_TEXT)))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 60) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _load_with_value_replaced(text, path, value):
    doc = json.loads(text)
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        doc = value
    try:
        LcpnModel.from_bundle(json.dumps(doc))
    except ModelFormatError:
        pass


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(BUNDLE_PATHS), value=JSON_VALUES)
def test_bundles_with_any_value_replaced_raise_only_model_format_errors(path, value):
    _load_with_value_replaced(BUNDLE_TEXT, path, value)


# -- the CLI ----------------------------------------------------------------------


@pytest.fixture()
def abc_model(tmp_path, capsys):
    """A ``linear`` model fit through the CLI on tokens {a, b, c}, and the
    rows of its data file by token."""
    data, _, _ = random_problem(7, 3, sparse_ids=False)
    names = {0: "a", 1: "b", 2: "c"}
    save_dataset(TimeSeriesDataset(data.values, data.labels, names), tmp_path / "abc.tsv")
    code, _, _ = _run(["fit", "--data", tmp_path / "abc.tsv", "--iters", "2", "--inner-folds", "2",
                       "--classifier", "linear", "--out", tmp_path / "fit"], capsys)
    assert code == 0
    lines = (tmp_path / "abc.tsv").read_text().splitlines()
    return tmp_path / "fit" / "model.json", {t: [l for l in lines if l.startswith(t + "\t")] for t in "abc"}


def test_predict_maps_a_file_with_some_classes_through_the_token_map(abc_model, tmp_path, capsys):
    model, rows = abc_model
    (tmp_path / "bc.tsv").write_text("\n".join(rows["b"] + rows["c"]) + "\n")
    code, stdout, _ = _run(["predict", "--model", model, "--data", tmp_path / "bc.tsv", "--out", tmp_path / "p"], capsys)
    assert code == 0
    assert json.loads(stdout)["f1_macro"] > 0.9
    lines = (tmp_path / "p" / "predictions.csv").read_text().splitlines()[1:]
    names = {"0": "a", "1": "b", "2": "c"}
    assert all(names[line.split(",")[1]] == line.split(",")[2] for line in lines)


def test_predict_rejects_a_token_the_model_does_not_know(abc_model, tmp_path, capsys):
    model, rows = abc_model
    d_rows = ["d" + line[1:] for line in rows["c"]]
    (tmp_path / "abd.tsv").write_text("\n".join(rows["a"] + rows["b"] + d_rows) + "\n")
    code, stdout, err = _run(["predict", "--model", model, "--data", tmp_path / "abd.tsv", "--out", tmp_path / "p"], capsys)
    assert code == 3 and stdout == ""
    error = json.loads(err)["error"]
    assert error["type"] == "DatasetFormatError"
    assert "label 'd' is not a class of the model (a, b, c)" in error["message"]


@pytest.mark.parametrize("pick", [lambda rows: rows["b"][:1], lambda rows: rows["c"]], ids=["one-row", "one-class"])
def test_predict_takes_a_file_with_one_row_or_one_class(abc_model, tmp_path, capsys, pick):
    model, rows = abc_model
    batch = pick(rows)
    (tmp_path / "batch.tsv").write_text("\n".join(batch) + "\n")
    code, stdout, _ = _run(["predict", "--model", model, "--data", tmp_path / "batch.tsv", "--out", tmp_path / "p"], capsys)
    assert code == 0
    summary = json.loads(stdout)
    assert summary["n_instances"] == len(batch)
    lines = (tmp_path / "p" / "predictions.csv").read_text().splitlines()[1:]
    hits = sum(line.split(",")[2] == row[0] for line, row in zip(lines, batch))
    # f1_macro over the one class present is that class's F1: 2 tp / (tp + n)
    assert summary["f1_macro"] == 2 * hits / (hits + len(batch))


def test_predict_names_the_line_of_an_unknown_token(abc_model, tmp_path, capsys):
    model, rows = abc_model
    lines = ["# a comment", rows["a"][0], "", rows["b"][0], "d" + rows["c"][0][1:], "d" + rows["c"][1][1:]]
    (tmp_path / "abd.tsv").write_text("\n".join(lines) + "\n")
    code, stdout, err = _run(["predict", "--model", model, "--data", tmp_path / "abd.tsv", "--out", tmp_path / "p"], capsys)
    assert code == 3 and stdout == ""
    assert json.loads(err)["error"]["message"].endswith("label 'd' is not a class of the model (a, b, c) (line 5)")


def test_predict_names_both_series_lengths(abc_model, tmp_path, capsys):
    model, rows = abc_model
    short = ["\t".join(line.split("\t")[:11]) for line in rows["a"] + rows["b"]]
    (tmp_path / "short.tsv").write_text("\n".join(short) + "\n")
    code, _, err = _run(["predict", "--model", model, "--data", tmp_path / "short.tsv", "--out", tmp_path / "p"], capsys)
    assert code == 3
    length = json.loads(Path(model).read_text())["series_length"]
    assert f"series have length 10, the model expects length {length}" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("content", [None, "[]", '{"version": 2}'])
def test_predict_with_an_unreadable_bundle_exits_2(content, tmp_path, capsys):
    model = tmp_path / "model.json"
    if content is not None:
        model.write_text(content)
    data, _, _ = random_problem(5, 3, sparse_ids=False)
    save_dataset(data, tmp_path / "batch.tsv")
    code, _, err = _run(["predict", "--model", model, "--data", tmp_path / "batch.tsv", "--out", tmp_path / "p"], capsys)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ModelFormatError"


def test_predict_with_a_class_id_beyond_int64_exits_2(abc_model, tmp_path, capsys):
    """A bundle whose tree and token map name a class id no int64 holds is
    refused on load, before any row is routed."""
    model, rows = abc_model
    doc = json.loads(model.read_text())
    big = "9999999999999999999"
    doc["tree"] = doc["tree"].replace("2", big)
    doc["label_names"][big] = doc["label_names"].pop("2")
    (tmp_path / "big.json").write_text(json.dumps(doc))
    (tmp_path / "batch.tsv").write_text("\n".join(rows["a"] + rows["c"]) + "\n")
    code, stdout, err = _run(["predict", "--model", tmp_path / "big.json", "--data", tmp_path / "batch.tsv",
                              "--out", tmp_path / "p"], capsys)
    assert code == 2 and stdout == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ModelFormatError"
    assert "a class id is outside int64" in error["message"]
    assert not (tmp_path / "p").exists()


def test_a_library_fit_on_a_loaded_file_keeps_its_token_map(tmp_path, capsys):
    data, _, _ = random_problem(7, 3, sparse_ids=False)
    save_dataset(TimeSeriesDataset(data.values, data.labels, {0: "a", 1: "b", 2: "c"}), tmp_path / "abc.tsv")
    model = fit_lcpn(build_tree([([0], [1, 2]), ([1], [2])]), load_dataset(tmp_path / "abc.tsv"), SPECS["linear"])
    (tmp_path / "model.json").write_text(model.to_bundle())
    bc = [line for line in (tmp_path / "abc.tsv").read_text().splitlines() if line[0] in "bc"]
    (tmp_path / "bc.tsv").write_text("\n".join(bc) + "\n")
    code, stdout, _ = _run(["predict", "--model", tmp_path / "model.json", "--data", tmp_path / "bc.tsv", "--out", tmp_path / "p"], capsys)
    assert code == 0
    assert json.loads(stdout)["f1_macro"] == 1.0
    lines = (tmp_path / "p" / "predictions.csv").read_text().splitlines()[1:]
    assert [line.split(",")[2] for line in lines] == [line[0] for line in bc]


def test_the_library_workflow_bundle_predicts_a_file_with_some_classes(tmp_path, capsys):
    """The README's library fit (a dataset without a token map), written
    with ``to_bundle``, scores a file of classes {2, 3} as in-process."""
    data = collinear_superclusters()
    tree = build_tree([([0, 1], [2, 3]), ([0], [1]), ([2], [3])])
    model = fit_lcpn(tree, data, ClassifierSpec("linear"))
    (tmp_path / "model.json").write_text(model.to_bundle())
    part = data.subset(np.flatnonzero(data.labels >= 2))
    save_dataset(part, tmp_path / "part.tsv")
    code, stdout, _ = _run(["predict", "--model", tmp_path / "model.json", "--data", tmp_path / "part.tsv",
                            "--out", tmp_path / "p"], capsys)
    assert code == 0
    predicted, _ = predict_lcpn(model, part.values)
    expected = f1_macro(part.labels, predicted)
    assert expected > 0.9
    assert json.loads(stdout)["f1_macro"] == expected
    lines = (tmp_path / "p" / "predictions.csv").read_text().splitlines()[1:]
    assert [line.split(",")[2] for line in lines] == [str(p) for p in predicted]
