"""Dataset ingestion, the selection filter, and the command-line surface."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import hiertsc
from hiertsc import ClassifierSpec, TimeSeriesDataset, filter_datasets, load_dataset, save_dataset
from hiertsc.cli import main
from hiertsc.dataset import collinear_superclusters
from hiertsc.io import (
    DatasetFormatError,
    _parse_delimited,
    _parse_file,
    _parse_ts_text,
    read_labelled_rows,
    scan_catalog,
)

from conftest import orthogonal_dataset, peek_dataset, separable_dataset


# -- loaders -------------------------------------------------------------------


def test_load_tsv(tmp_path):
    path = tmp_path / "toy.tsv"
    path.write_text("1\t0.1\t0.2\n2\t0.3\t0.4\n1\t0.5\t0.6\n")
    data = load_dataset(path)
    assert data.n_instances == 3
    assert data.series_length == 2
    assert list(data.labels) == [0, 1, 0]
    assert data.label_names == {0: "1", 1: "2"}


def test_load_comma_separated(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("a,0.5,1.5\nb,2.5,3.5\n")
    data = load_dataset(path)
    assert data.label_names == {0: "a", 1: "b"}


def test_load_ts_format(tmp_path):
    path = tmp_path / "toy.ts"
    path.write_text(
        "# comment\n"
        "@problemName toy\n"
        "@classLabel true classA classB\n"
        "@data\n"
        "0.1,0.2,0.3:classA\n"
        "0.4,0.5,0.6:classB\n"
        "0.7,0.8,0.9:classA\n"
    )
    data = load_dataset(path)
    assert data.n_instances == 3
    assert data.series_length == 3
    assert data.label_names == {0: "classA", 1: "classB"}


def test_numeric_tokens_sort_by_value_even_next_to_text(tmp_path):
    path = tmp_path / "mixed.tsv"
    path.write_text("10\t0.1\na\t0.2\n9\t0.3\n")
    data = load_dataset(path)
    assert data.label_names == {0: "9", 1: "10", 2: "a"}
    assert list(data.labels) == [1, 2, 0]


def test_ragged_row_reports_line(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("1\t0.1\t0.2\t0.3\t0.4\n2\t0.1\t0.2\t0.3\n")
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert "line 2" in str(err.value)


def test_non_finite_value_rejected(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("1\t0.1\tnan\n2\t0.3\t0.4\n")
    with pytest.raises(DatasetFormatError):
        load_dataset(path)


@pytest.mark.parametrize("token", ["inf", "-inf", "nan", "1e999"])
@pytest.mark.parametrize(
    "name, text",
    [
        ("bad.tsv", "# header\na\t0.1\t0.2\nb\t0.3\t{}\na\t0.5\t0.6\n"),
        ("bad.ts", "@data\n0.1,0.2:a\n0.3,{}:b\n0.5,0.6:a\n"),
    ],
    ids=["delimited", "ts"],
)
def test_non_finite_token_names_its_line(tmp_path, token, name, text):
    path = tmp_path / name
    path.write_text(text.format(token))
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert err.value.line == 3
    assert str(err.value) == f"non-finite value '{token}' (line 3)"


@pytest.mark.parametrize(
    "name, text",
    [
        ("padded.tsv", " a \t 0.5 \t1.5 \nb\t 2.5\t3.5\n"),
        ("trailing.csv", "a,0.5,1.5,\nb,2.5,3.5,\n"),
        ("blank.csv", "a,0.5,,1.5\nb,,2.5,3.5\n"),
        ("padded.ts", "@data\n 0.5 , 1.5 :a\n2.5,3.5 : b\n"),
        ("trailing.ts", "@data\n0.5,1.5,:a\n2.5,3.5,:b\n"),
        ("blank.ts", "@data\n0.5,,1.5:a\n,2.5,3.5:b\n"),
    ],
)
def test_padded_tokens_and_blank_fields_load_the_same_values(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    data = load_dataset(path)
    assert data.values.tolist() == [[0.5, 1.5], [2.5, 3.5]]
    assert data.label_names == {0: "a", 1: "b"}


@pytest.mark.parametrize(
    "name, text", [("u.tsv", "a\t1_0\t2\nb\t3\t4\n"), ("u.ts", "@data\n1_0,2:a\n3,4:b\n")]
)
def test_underscored_digits_parse_as_python_floats(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    assert load_dataset(path).values.tolist() == [[10.0, 2.0], [3.0, 4.0]]


def test_blank_label_field_is_dropped_like_any_blank_field(tmp_path):
    path = tmp_path / "blank_label.csv"
    path.write_text(",1,0.5,1.5\n,2,2.5,3.5\n")
    data = load_dataset(path)
    assert data.label_names == {0: "1", 1: "2"}
    assert data.values.tolist() == [[0.5, 1.5], [2.5, 3.5]]


def test_finite_values_whose_sum_overflows_still_load(tmp_path):
    path = tmp_path / "big.tsv"
    path.write_text("a\t1e308\t1e308\nb\t-1e308\t-1e308\n")
    assert load_dataset(path).values.tolist() == [[1e308, 1e308], [-1e308, -1e308]]


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("padded.tsv", "a\t0.1\t0.2\nb\t 0.3 \t nan \n", "non-finite value 'nan' (line 2)"),
        ("blank.csv", "a,0.1,0.2\nb,,0.3,inf\n", "non-finite value 'inf' (line 2)"),
        ("ragged.tsv", "a\t0.1\t0.2\nb\tnan\t0.3\t0.4\n", "ragged row: 3 values where 2 expected (line 2)"),
        ("word.tsv", "a\t0.1\t0.2\nb\t0.3\t1e\n", "cannot parse value '1e' (line 2)"),
        ("short.csv", "a,0.1\nb,\n", "row needs a label and at least one value (line 2)"),
        ("label_only.tsv", "a\nb\t0.1\n", "row needs a label and at least one value (line 1)"),
        ("padded.ts", "@data\n0.1,0.2:a\n 0.3 , -inf :b\n", "non-finite value '-inf' (line 3)"),
        ("word.ts", "@data\n0.1,0.2:a\n0.3,,x:b\n", "cannot parse value 'x' (line 3)"),
        ("empty.ts", "@data\n0.1,0.2:a\n , :b\n", "empty series (line 3)"),
    ],
)
def test_malformed_rows_keep_their_errors(tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert str(err.value) == message


@pytest.mark.parametrize("name", ["bytes.tsv", "bytes.ts"])
def test_a_file_that_is_not_utf8_is_a_format_error(tmp_path, capsys, name):
    path = tmp_path / name
    text = b"a\t0.1\t0.2\nb\t0.3\t0.4\n" if name.endswith(".tsv") else b"@data\n0.1,0.2:a\n0.3,0.4:b\n"
    path.write_bytes(text.replace(b"b", b"\xff\xfe"))  # the second label is not UTF-8
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert str(err.value).startswith(f"cannot read {path}: 'utf-8' codec can't decode byte 0xff")
    assert main(["cv", "--data", str(path), "--out", str(tmp_path / "o")]) == 3
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "DatasetFormatError"


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
def test_a_decode_error_reports_the_offset_in_the_file(tmp_path, capsys, bom):
    """The reader decodes 8 KiB at a time; a bad byte far past the first
    block is still reported at its offset in the file, byte-order mark
    included."""
    rows = bom + b"0\t0.125\t0.25\n1\t0.5\t0.75\n" * 4000
    data = bytearray(rows[:80404])
    data[80400] = 0xFF
    path = tmp_path / "late.tsv"
    path.write_bytes(bytes(data))
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert str(err.value) == (
        f"cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 80400: "
        "invalid start byte"
    )
    assert main(["cv", "--data", str(path), "--out", str(tmp_path / "o")]) == 3
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "DatasetFormatError"


#: raw bytes, and byte strings built from the pieces the parsers look for
FILE_BYTES = st.one_of(
    st.binary(max_size=200),
    st.lists(
        st.sampled_from(
            [b"a", b"b", b"1", b"-2.5", b"1e999", b"nan", b".", b"e", b" ", b"\t", b",",
             b":", b"#", b"\n", b"\r", b"@data\n", b"\xff", b"\xc3\xa9"]
        ),
        max_size=60,
    ).map(b"".join),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=FILE_BYTES, suffix=st.sampled_from([".tsv", ".ts"]))
def test_any_bytes_load_or_raise_a_format_error(tmp_path, content, suffix):
    path = tmp_path / f"fuzz{suffix}"
    path.write_bytes(content)
    for load in (load_dataset, read_labelled_rows):
        try:
            load(path)
        except DatasetFormatError:
            pass


@pytest.mark.parametrize(
    "name, text",
    [
        ("bom.tsv", "0\t0.1\t0.2\n0\t0.3\t0.4\n1\t0.5\t0.6\n1\t0.7\t0.8\n"),
        ("bom.ts", "@data\n0.1,0.2:0\n0.3,0.4:0\n0.5,0.6:1\n0.7,0.8:1\n"),
    ],
    ids=["tsv", "ts"],
)
def test_a_leading_byte_order_mark_is_not_part_of_the_first_row(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert read_labelled_rows(path).tokens == ["0", "0", "1", "1"]
    data = load_dataset(path)
    assert data.label_names == {0: "0", 1: "1"}
    assert list(data.labels) == [0, 0, 1, 1]


def _parse_text(text: str, suffix: str):
    """What the parsers make of the whole text split by str.splitlines, or
    the error they raise: the reference a streamed read must reproduce."""
    lines = text.splitlines()
    first_real = next((l.strip() for l in lines if l.strip()), "")
    parse = _parse_ts_text if suffix == ".ts" or first_real.startswith("@") else _parse_delimited
    return _outcome(parse, lines)


def _outcome(parse, source):
    try:
        rows = parse(source)
    except DatasetFormatError as exc:
        return type(exc), str(exc)
    return rows.tokens, rows.values.shape, rows.values.tobytes(), rows.lines


def _assert_streams_like_splitlines(path, text):
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(_parse_file, path) == _parse_text(text, path.suffix)


#: every line break str.splitlines knows
LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
ROW_TEXTS = st.sampled_from(
    ["a\t0.1\t0.2", "b,0.3,0.4", "b 0.5 -1e3", "a\t0.1\t0.2\t0.3", "0.1,0.2:a", "0.3,0.4:b",
     "0.1,0.2,0.3:a", "", "  ", "# note", "@data", "@problemName x", "a\tnan\t1", "b\tx\t1", "é,1,2"]
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=st.lists(st.tuples(ROW_TEXTS, st.sampled_from(LINE_BREAKS)), max_size=12),
    final_break=st.booleans(),
    suffix=st.sampled_from([".tsv", ".ts"]),
)
@example(rows=[("a\t0.1\t0.2", "\r"), ("b\t0.3\t0.4", "\r\n")], final_break=False, suffix=".tsv")
def test_a_streamed_read_splits_lines_like_splitlines(tmp_path, rows, final_break, suffix):
    text = "".join(row + brk for row, brk in rows)
    if rows and not final_break:
        text = text[: -len(rows[-1][1])]
    _assert_streams_like_splitlines(tmp_path / f"lines{suffix}", text)


@pytest.mark.parametrize("offset", range(-2, 3))
def test_a_cr_lf_pair_across_a_read_chunk_is_one_break(tmp_path, offset):
    """A row about 8 KiB long, the size text files are decoded in, puts its
    CR LF pair on either side of the first chunk's end."""
    row = "a\t" + "\t".join(["0.5"] * 2047)
    row += "0" * (8191 + offset - len(row))
    text = row + "\r\n" + row.replace("a", "b", 1) + "\r\n"
    _assert_streams_like_splitlines(tmp_path / "long.tsv", text)
    assert read_labelled_rows(tmp_path / "long.tsv").lines == [1, 2]


def test_a_load_peaks_under_four_times_its_values(tmp_path):
    """Loading 300 x 256 values streams them into one buffer: the traced
    peak stays under four times the values, where holding the text, its
    lines and a Python float per value took about ten."""
    rng = np.random.default_rng(0)
    path = tmp_path / "big.tsv"
    save_dataset(TimeSeriesDataset(rng.normal(size=(300, 256)), np.arange(300) % 20), path)
    load_dataset(path)  # warm up outside the trace
    tracemalloc.start()
    try:
        data = load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * data.values.nbytes


def test_missing_ts_label_rejected(tmp_path):
    path = tmp_path / "bad.ts"
    path.write_text("@data\n0.1,0.2:\n")
    with pytest.raises(DatasetFormatError):
        load_dataset(path)


def test_save_load_round_trip(tmp_path):
    data = separable_dataset(n_per_class=4, n_classes=3, seed=0)
    path = tmp_path / "round.tsv"
    save_dataset(data, path)
    again = load_dataset(path)
    assert np.array_equal(again.values, data.values)
    assert np.array_equal(again.labels, data.labels)


# -- catalog filter ----------------------------------------------------------------


def write_dataset_dir(root, name, data):
    # halve within each class so both parts keep every class, as UCR pairs do
    d = root / name
    d.mkdir(parents=True)
    train_mask = np.zeros(data.n_instances, dtype=bool)
    for cls in np.unique(data.labels):
        idx = np.flatnonzero(data.labels == cls)
        train_mask[idx[::2]] = True
    save_dataset(data.subset(np.flatnonzero(train_mask)), d / f"{name}_TRAIN.tsv")
    save_dataset(data.subset(np.flatnonzero(~train_mask)), d / f"{name}_TEST.tsv")


def test_filter_rule(tmp_path):
    root = tmp_path / "catalog"
    # interleave labels so both halves keep every class
    binary = peek_dataset([0, 1] * 12)
    easy3 = orthogonal_dataset(n_per_class=12, n_classes=3, seed=0)
    hard3 = separable_dataset(n_per_class=12, n_classes=3, spread=0.05, noise=2.0, seed=1)
    write_dataset_dir(root, "BinaryToy", binary)
    write_dataset_dir(root, "EasyToy", easy3)
    write_dataset_dir(root, "HardToy", hard3)
    (root / "Broken").mkdir()
    (root / "Broken" / "Broken_TRAIN.tsv").write_text("1\t0.1\n1\t0.2\n")
    (root / "Broken" / "Broken_TEST.tsv").write_text("1\t0.3\n1\t0.4\n")

    entries = scan_catalog(root)
    assert [e.name for e in entries] == ["BinaryToy", "Broken", "EasyToy", "HardToy"]
    specs = (ClassifierSpec(kind="linear"), ClassifierSpec(kind="linear", ridge_lambda=1.0))
    decisions = {d.name: d for d in filter_datasets(entries, specs)}

    assert not decisions["BinaryToy"].kept  # two classes only
    assert not decisions["EasyToy"].kept  # near-ceiling for both classifiers
    assert decisions["HardToy"].kept
    assert not decisions["Broken"].kept
    assert "unusable" in decisions["Broken"].reason or "unreadable" in decisions["Broken"].reason


def test_filter_keeps_dataset_hard_for_one_classifier(tmp_path):
    # excluded only when BOTH classifiers are near ceiling
    root = tmp_path / "catalog"
    easy3 = orthogonal_dataset(n_per_class=12, n_classes=3, seed=0)
    write_dataset_dir(root, "OneSided", easy3)
    specs = (ClassifierSpec(kind="linear"), ClassifierSpec(kind="kernel-ridge", num_kernels=1, seed=0))
    decisions = filter_datasets(scan_catalog(root), specs)
    assert decisions[0].kept


# -- CLI ----------------------------------------------------------------------------


def write_synth(tmp_path, n_per_class=12):
    data = collinear_superclusters(n_per_class=n_per_class, seed=0)
    path = tmp_path / "synth.tsv"
    save_dataset(data, path)
    return path


def test_cli_trees_counts(capsys):
    assert main(["trees", "--classes", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["distinct_trees"] == 945
    assert doc["diagnostics"]["one_sided_recurrence"] == 885


def test_cli_trees_rejects_bad_classes(capsys):
    assert main(["trees", "--classes", "1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["exit_code"] == 2


def test_cli_bench_chain(capsys):
    assert main(["bench", "--tree", "chain", "--classes", "4", "--instances", "96"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exact_datapoints_processed"] == 950
    assert doc["mean_depth"] == pytest.approx(2.25)
    assert doc["diagnostics"]["chain_closed_form_disagrees"] is True


def test_cli_bench_balanced(capsys):
    assert main(["bench", "--tree", "balanced", "--classes", "4", "--instances", "96"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exact_datapoints_processed"] == 576.0
    assert doc["mean_depth"] == 2.0


def test_cli_cv_reproducible_bytes(tmp_path, capsys):
    data_path = write_synth(tmp_path)
    args = [
        "cv",
        "--mode",
        "nested",
        "--data",
        str(data_path),
        "--splitter",
        "potr",
        "--iters",
        "2",
        "--seed",
        "0",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    report_a = (tmp_path / "a" / "report.json").read_bytes()
    report_b = (tmp_path / "b" / "report.json").read_bytes()
    assert report_a == report_b
    folds_a = (tmp_path / "a" / "folds.csv").read_text()
    assert folds_a == (tmp_path / "b" / "folds.csv").read_text()
    assert folds_a.count("\n") == 6  # header + five folds


def test_cli_flat_mode_runs(tmp_path, capsys):
    data_path = write_synth(tmp_path)
    out = tmp_path / "flat"
    code = main(
        ["cv", "--mode", "flat", "--data", str(data_path), "--iters", "2", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["scheme"] == "flat"
    assert doc["n_inner"] is None


def test_cli_fit_predict_round_trip(tmp_path, capsys):
    data_path = write_synth(tmp_path)
    out = tmp_path / "fitout"
    assert main(["fit", "--data", str(data_path), "--iters", "2", "--out", str(out)]) == 0
    fit_doc = json.loads(capsys.readouterr().out)
    assert (out / "model.json").exists()
    assert main(
        [
            "predict",
            "--model",
            str(out / "model.json"),
            "--data",
            str(data_path),
            "--out",
            str(out),
        ]
    ) == 0
    pred_doc = json.loads(capsys.readouterr().out)
    assert pred_doc["n_instances"] == 48
    assert pred_doc["f1_macro"] > 0.9
    lines = (out / "predictions.csv").read_text().strip().splitlines()
    assert lines[0] == "index,predicted_id,predicted,depth"
    assert len(lines) == 49


def test_cli_analyze(tmp_path, capsys):
    data_path = write_synth(tmp_path)
    out_a = tmp_path / "r1"
    out_b = tmp_path / "r2"
    main(["cv", "--mode", "nested", "--data", str(data_path), "--iters", "2", "--out", str(out_a)])
    main(
        [
            "cv",
            "--mode",
            "nested",
            "--data",
            str(data_path),
            "--splitter",
            "lsoo",
            "--iters",
            "2",
            "--out",
            str(out_b),
        ]
    )
    capsys.readouterr()
    out = tmp_path / "analysis"
    code = main(
        [
            "analyze",
            "--reports",
            str(out_a / "report.json"),
            str(out_b / "report.json"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert (out / "features.csv").exists()
    assert (out / "correlations.csv").exists()
    assert (out / "correlations.json").exists()
    assert (out / "improvements_by_iteration.csv").exists()
    assert (out / "improvements_by_class_count.csv").exists()
    corr = (out / "correlations.csv").read_text().splitlines()
    assert corr[0] == "scheme,classifier_kind,splitter,feature,r,p"
    # the lsoo group's class-balance cell is blank (constant feature)
    lsoo_rows = [l for l in corr if ",lsoo,class_balance," in l]
    assert lsoo_rows and lsoo_rows[0].endswith(",,")


def test_cli_missing_data_exits_3(tmp_path, capsys):
    code = main(["cv", "--data", str(tmp_path / "nope.tsv")])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["exit_code"] == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        ("cv --data {data} --iters 0", "--iters must be >= 1"),
        ("cv --data {data} --outer-folds 1", "fold counts must be >= 2"),
        ("cv --mode flat --data {data} --inner-folds 1", "fold counts must be >= 2"),
        ("fit --data {data} --inner-folds 1", "fold counts must be >= 2"),
        ("bench --classes 3 --instances 5 --iters 0", "--iters must be >= 1"),
        ("bench --classes 3 --instances 2", "need at least 2 classes and instances >= classes"),
        ("filter", "--data-root (or HIERTSC_DATA) is required for filter"),
        # the range check runs before any file is read
        ("cv --data {missing} --iters 0", "--iters must be >= 1"),
    ],
)
def test_cli_range_errors_exit_2(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.delenv("HIERTSC_DATA", raising=False)
    data = write_synth(tmp_path)
    args = argv.format(data=data, missing=tmp_path / "missing.tsv").split()
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": {"exit_code": 2, "message": message, "type": "ConfigError"}
    }


@pytest.mark.parametrize("command", ["cv", "fit"])
def test_cli_rejects_a_non_finite_ridge_lambda(tmp_path, capsys, command):
    data = write_synth(tmp_path)
    args = [command, "--data", str(data), "--ridge-lambda", "inf", "--out", str(tmp_path / "o")]
    assert main(args) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["message"] == "ridge_lambda must be finite and positive"
    assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def nested_report(tmp_path_factory):
    """The decoded ``report.json`` of a small nested ``cv`` run."""
    tmp = tmp_path_factory.mktemp("report")
    assert main(["cv", "--data", str(write_synth(tmp)), "--iters", "1", "--out", str(tmp)]) == 0
    return json.loads((tmp / "report.json").read_text())


def _edited(field, value):
    """A report edit: set top-level `field`, or fold 0's when it starts with 'folds[0].'."""

    def edit(doc):
        target = doc["folds"][0] if field.startswith("folds[0].") else doc
        target[field.removeprefix("folds[0].")] = value
        return json.dumps(doc)

    return edit


@pytest.mark.parametrize(
    "content, cause",
    [
        (None, "FileNotFoundError"),
        ("[]", "TypeError"),
        ('{"folds": []}', "KeyError: 'scheme'"),
        pytest.param(
            _edited("n_classes", "x"),
            "ValueError: report field 'n_classes' must be an integer, got 'x'",
            id="n_classes-str",
        ),
        pytest.param(
            _edited("folds[0].fc_score", "x"),
            "ValueError: report field 'folds[0].fc_score' must be a finite number, got 'x'",
            id="fc_score-str",
        ),
        pytest.param(
            _edited("folds[0].delta_g", "x"),
            "ValueError: report field 'folds[0].delta_g' must be a finite number, got 'x'",
            id="delta_g-str",
        ),
        pytest.param(
            _edited("seed", True),
            "ValueError: report field 'seed' must be an integer, got True",
            id="seed-bool",
        ),
        pytest.param(
            _edited("folds[0].outer_test_score", 10**400),
            "ValueError: report field 'folds[0].outer_test_score' must be a finite number",
            id="score-huge-int",
        ),
        pytest.param(
            _edited("n_inner", None),  # null only in a flat report
            "ValueError: report field 'n_inner' must be an integer, got None",
            id="nested-n_inner-null",
        ),
        pytest.param(
            _edited("folds[0].inner_mean_score", None),
            "ValueError: report field 'folds[0].inner_mean_score' must be a finite number, got None",
            id="nested-inner_mean_score-null",
        ),
        pytest.param(
            _edited("folds[0].selected_tree", "{{{a},{b}}}"),
            "TreeStructureError: not a tree text over class ids",
            id="selected_tree-tokens",
        ),
        pytest.param(
            _edited("folds[0].selected_tree", "{{{0},{9999999999999999999}}}"),
            "TreeStructureError: a class id is outside int64",
            id="selected_tree-id-beyond-int64",
        ),
        pytest.param(
            lambda doc: json.dumps({**doc, "classifier": {**doc["classifier"], "kind": "no-such-kind"}}),
            "ModelFormatError: classifier spec: unknown classifier kind 'no-such-kind'",
            id="classifier-kind-unknown",
        ),
        pytest.param(
            _edited("dataset_id", 3),
            "ValueError: report field 'dataset_id' must be a string, got 3",
            id="dataset_id-int",
        ),
    ],
)
def test_cli_analyze_rejects_an_unreadable_report(tmp_path, capsys, nested_report, content, cause):
    report = tmp_path / "report.json"
    if callable(content):
        content = content(json.loads(json.dumps(nested_report)))
    if content is not None:
        report.write_text(content)
    assert main(["analyze", "--reports", str(report), "--out", str(tmp_path / "a")]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ConfigError"
    assert error["message"].startswith(f"cannot read CV report {report}: {cause}")


def test_cli_writes_utf8_under_a_non_utf8_locale(tmp_path):
    """Every text artifact is UTF-8, the encoding every reader uses, whatever
    the locale's preferred encoding is."""
    data = collinear_superclusters(n_per_class=8, series_length=16, seed=0)
    names = {0: "é", 1: "猫", 2: "b", 3: "c"}
    path = tmp_path / "Café.tsv"
    save_dataset(TimeSeriesDataset(data.values, data.labels, names), path)
    assert "猫" in path.read_bytes().decode("utf-8")
    env = {
        **os.environ,
        "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
        "PYTHONPATH": str(Path(hiertsc.__file__).parents[1]),
    }

    def run(*args):
        return subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
        )

    probe = run("-c", "import locale; print(locale.getpreferredencoding(False))")
    assert probe.stdout.strip().lower().replace("-", "") != "utf8"
    for argv in [
        ["cv", "--data", str(path), "--iters", "1", "--out", str(tmp_path / "cv")],
        ["fit", "--data", str(path), "--iters", "1", "--out", str(tmp_path / "fit")],
        ["predict", "--model", str(tmp_path / "fit" / "model.json"), "--data", str(path),
         "--out", str(tmp_path / "p")],
    ]:
        done = run("-m", "hiertsc", *argv)
        assert done.returncode == 0, done.stderr
    assert json.loads((tmp_path / "cv" / "report.json").read_bytes().decode("utf-8"))["dataset_id"] == "Café"
    assert (tmp_path / "cv" / "folds.csv").read_bytes().decode("utf-8").splitlines()[1].startswith("Café,")
    model = json.loads((tmp_path / "fit" / "model.json").read_bytes().decode("utf-8"))
    assert sorted(model["label_names"].values()) == sorted(names.values())
    predicted = (tmp_path / "p" / "predictions.csv").read_bytes().decode("utf-8")
    assert {"é", "猫"} <= {row.split(",")[2] for row in predicted.splitlines()[1:]}


def test_cli_env_var_data_dir(tmp_path, capsys, monkeypatch):
    data_path = write_synth(tmp_path)
    monkeypatch.setenv("HIERTSC_DATA", str(tmp_path))
    assert main(["trees", "--classes", "3"]) == 0  # sanity: env var not required
    code = main(
        ["cv", "--data", "synth.tsv", "--iters", "1", "--out", str(tmp_path / "env")]
    )
    assert code == 0


def test_cli_filter(tmp_path, capsys):
    root = tmp_path / "catalog"
    hard3 = separable_dataset(n_per_class=12, n_classes=3, spread=0.05, noise=2.0, seed=1)
    write_dataset_dir(root, "HardToy", hard3)
    out = tmp_path / "fout"
    code = main(["filter", "--data-root", str(root), "--out", str(out)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total"] == 1
    decisions = json.loads((out / "filter.json").read_text())
    assert decisions[0]["name"] == "HardToy"


def test_cli_filter_reads_every_classifier_flag_for_both_kinds(tmp_path, monkeypatch, capsys):
    root = tmp_path / "catalog"
    write_dataset_dir(root, "Toy", separable_dataset(n_per_class=6, n_classes=3, seed=1))
    seen = []
    monkeypatch.setattr(hiertsc.cli, "filter_datasets", lambda entries, specs: seen.append(specs) or [])
    flags = ["--kernels", "16", "--ridge-lambda", "0.5", "--seed", "3"]
    assert main(["filter", "--data-root", str(root), *flags, "--out", str(tmp_path / "out")]) == 0
    kinds = ("linear", "kernel-ridge")
    assert seen == [tuple(ClassifierSpec(kind, num_kernels=16, ridge_lambda=0.5, seed=3) for kind in kinds)]
    # filter runs every kind, so it has no flag that picks one
    with pytest.raises(SystemExit):
        main(["filter", "--data-root", str(root), "--classifier", "linear"])
