"""Model bundles: the version 2 format, the token map every bundle carries,
refusal of bundles without one, typed decode errors, and label-safe
``predict`` through that map."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hiertsc import (
    ClassifierSpec,
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

NODE_ARRAYS = ("weights", "intercepts", "feature_mean", "feature_scale")
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


# -- version 2 round trip -------------------------------------------------------


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
    for a, b in zip(model.node_models, again.node_models):
        assert a.class_ids == b.class_ids
        for name in NODE_ARRAYS:
            x, y = getattr(a, name), getattr(b, name)
            assert (x is None and y is None) or x.tobytes() == y.tobytes(), name
    for values in (data.values, unseen):
        for got, want in zip(predict_lcpn(again, values), predict_lcpn(model, values)):
            assert np.array_equal(got, want)
    doc = json.loads(text)
    assert doc["version"] == 2
    # every class of the tree is named: by the data's token, or by its id
    assert doc["label_names"] == {str(c): f"class-{c}" if named else str(c) for c in tree.root_classes}
    assert again.label_names == model.label_names
    assert all(isinstance(node, dict) for node in doc["nodes"])
    if kind == "kernel-ridge":
        assert len(doc["banks"]) == 1
        assert {node["bank"] for node in doc["nodes"]} == {0}
        assert all(m.kernels is again.node_models[0].kernels for m in again.node_models)
    else:
        assert doc["banks"] == [] and all(m.kernels is None for m in again.node_models)
    assert again.to_bundle() == text


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(sorted(SPECS)),
    seed=st.integers(0, 2**16),
    n_classes=st.integers(2, 5),
    sparse_ids=st.booleans(),
    shuffle=st.integers(0, 2**16),
)
def test_predictions_ignore_row_order_and_batching(kind, seed, n_classes, sparse_ids, shuffle):
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
        parts = [predict_lcpn(model, values[:cut]), predict_lcpn(model, values[cut:])]
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
    assert ClassifierSpec.from_dict(doc["spec"]) == SPECS["kernel-ridge"]
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
        LcpnModel(model.tree, model.node_models, names).to_bundle()
    with pytest.raises(ValueError, match=message):  # fit_lcpn raises rather than drop the data's map
        fit_lcpn(tree, TimeSeriesDataset(data.values, data.labels, names), SPECS["linear"])


# -- bundles without a token map ------------------------------------------------


def _version_1_bundle():
    """A bundle in the retired version 1 layout: every node a JSON string
    holding its own spec, series length and bank, and no token map."""
    doc = json.loads(BUNDLE_TEXT)
    nodes = [
        json.dumps({"version": 1, "spec": doc["spec"], "series_length": doc["series_length"],
                    "kernels": doc["banks"][node.pop("bank")], **node}, sort_keys=True)
        for node in doc["nodes"]
    ]
    return json.dumps({"version": 1, "tree": doc["tree"], "node_models": nodes}, sort_keys=True)


def _null_map_bundle():
    return json.dumps({**json.loads(BUNDLE_TEXT), "label_names": None})


@pytest.mark.parametrize("make", [_version_1_bundle, _null_map_bundle], ids=["version-1", "null-map"])
def test_a_bundle_without_a_token_map_exits_2_asking_for_a_refit(make, tmp_path, capsys):
    (tmp_path / "model.json").write_text(make())
    data, _, _ = random_problem(5, 3, sparse_ids=False)
    save_dataset(data, tmp_path / "batch.tsv")
    code, stdout, err = _run(["predict", "--model", tmp_path / "model.json", "--data", tmp_path / "batch.tsv",
                              "--out", tmp_path / "p"], capsys)
    assert code == 2 and stdout == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ModelFormatError"
    assert "has no token map" in error["message"] and "refit" in error["message"]
    assert not (tmp_path / "p").exists()


# -- typed decode errors ----------------------------------------------------------


def _linear_bundle():
    data, _, tree = random_problem(2, 3, sparse_ids=False)
    return fit_lcpn(tree, data, SPECS["linear"]).to_bundle()


def _without(key):
    doc = json.loads(_linear_bundle())
    del doc[key]
    return json.dumps(doc)


def _nodes(keep):
    doc = json.loads(_linear_bundle())
    doc["nodes"] = keep(doc["nodes"])
    return json.dumps(doc)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "must be a JSON object, got list"),
        ("", "not valid JSON"),
        ('{"version": 3}', "unsupported model bundle version 3"),
        (lambda: _without("banks"), "has no 'banks'"),
        (lambda: _without("label_names"), "has no 'label_names'"),
        (lambda: _linear_bundle().replace('"2":"2"', '"2":"0"'), "'label_names' repeats a token"),
        (lambda: _linear_bundle().replace(',"2":"2"', ""), r"'label_names' names classes \[0, 1\], the tree has \[0, 1, 2\]"),
        (lambda: _nodes(lambda nodes: nodes[:1]), "1 node models for 2 parent nodes"),
        (lambda: _nodes(lambda nodes: nodes * 2), "4 node models for 2 parent nodes"),
        (lambda: _nodes(lambda nodes: [{**n, "bank": 0} for n in nodes]), "index into 0 banks"),
        (lambda: _nodes(lambda nodes: [{**n, "weights": n["weights"][:1]} for n in nodes]), "shape"),
        (lambda: _nodes(lambda nodes: [{**n, "class_ids": [0, 2]} for n in nodes]), r"class ids \[0, 2\], not \[0, 1\]"),
        (lambda: _linear_bundle().replace('"ridge_lambda":0.01', '"ridge_lambda":Infinity'), "finite and positive"),
    ],
)
def test_malformed_bundles_raise_model_format_error(text, message):
    text = text() if callable(text) else text
    with pytest.raises(ModelFormatError, match=message):
        LcpnModel.from_bundle(text)


def _small_kernel_bundle():
    data, _, tree = random_problem(5, 3, sparse_ids=False)
    model = fit_lcpn(tree, data, ClassifierSpec("kernel-ridge", num_kernels=2, seed=1))
    return LcpnModel(model.tree, model.node_models, {0: "a", 1: "b", 2: "c"}).to_bundle()


#: the text the fuzz test mutates: every section of a version 2 bundle, small
BUNDLE_TEXT = _small_kernel_bundle()


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
        junk = data.draw(st.text(alphabet='{}[],:"0123456789.-eE truefalsn', min_size=1, max_size=width))
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


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(BUNDLE_PATHS), value=JSON_VALUES)
def test_bundles_with_any_value_replaced_raise_only_model_format_errors(path, value):
    doc = json.loads(BUNDLE_TEXT)
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
