"""Byte parity of ``analyze`` and ``filter`` with values captured at a known-good commit.

``analyze`` reads six CV reports, in two orders:

* nested ``linear`` ``potr`` runs at ``--iters`` 2 and 10 on a 4-class
  dataset and at ``--iters`` 2 on a 10-class one, so one (scheme, kind,
  splitter) group holds two ``n_iter`` and two ``n_classes`` values, whose
  improvement rows sort numerically (``10`` after ``2`` and ``4``);
* a nested ``lsoo`` run, whose class balance is constant, so its
  correlation cells are blank;
* a flat ``kernel-ridge`` run with two outer folds, a group too small to
  correlate;
* a report with no folds under a splitter name and ``n_iter`` no other
  report uses: it adds no row to any table.

``filter`` reads a catalog with a kept entry, a 2-class entry, a
near-ceiling entry (orthogonal sine patterns), an unreadable entry and an
entry whose parts have different series lengths, with the default
``--kernels`` and with ``--kernels 16``.

``features.csv``, both improvement tables, ``filter.json`` and stdout are
hashed.  The r of ``correlations.csv`` and ``correlations.json`` comes from a
BLAS dot product, whose last bits can change with the CPU kernel, so those
files are compared field by field instead: text columns and blank cells
exactly, r and p within ``CORRELATION_TOLERANCE``.

After a deliberate change to the outputs, print the new values with
``PYTHONPATH=src python tests/test_golden_analysis.py``.
"""

import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

from hiertsc import TimeSeriesDataset, collinear_superclusters, save_dataset
from test_golden_reports import _run, _sha, shifted_bumps

CORRELATION_TOLERANCE = 1e-12
CORRELATION_TEXT = ("scheme", "classifier_kind", "splitter", "feature")

#: output directory: its cv arguments, after ``CV_COMMON``
NESTED_LINEAR = ("--mode", "nested", "--classifier", "linear")
CV_RUNS = {
    "potr-four-2": (*NESTED_LINEAR, "--data", "four.tsv", "--splitter", "potr", "--iters", "2"),
    "potr-four-10": (*NESTED_LINEAR, "--data", "four.tsv", "--splitter", "potr", "--iters", "10"),
    "potr-ten-2": (*NESTED_LINEAR, "--data", "ten.tsv", "--splitter", "potr", "--iters", "2"),
    "lsoo-four-2": (*NESTED_LINEAR, "--data", "four.tsv", "--splitter", "lsoo", "--iters", "2"),
    "flat-kernel16-four-2": (
        "--mode", "flat", "--classifier", "kernel-ridge", "--kernels", "16",
        "--data", "four.tsv", "--splitter", "potr", "--iters", "2", "--outer-folds", "2",
    ),
}
CV_COMMON = ("--outer-folds", "3", "--inner-folds", "2", "--seed", "0")
#: the report with no folds, and what it was made from
EMPTY_REPORT = "empty-srtr-7"
EMPTY_SOURCE = "potr-four-2"
REPORT_ORDERS = {
    "forward": (*CV_RUNS, EMPTY_REPORT),
    "reversed": (EMPTY_REPORT, *reversed(CV_RUNS)),
}
FILTER_CLASSIFIERS = {
    "linear": (),
    "kernel16": ("--kernels", "16"),
}

#: captured at commit 5083e71, before the output tables were built from one
#: row source each
GOLDEN = {
    "analyze-forward/features.csv": "d4795e6118367cc21459c2e9f881d9c31a5abb637a003fa92c0dd8b8d04dc908",
    "analyze-forward/improvements_by_class_count.csv": "34b5bb364afc5629e20643e8c4ed9f76d9122162f59dbd16e8c17a8e65017477",
    "analyze-forward/improvements_by_iteration.csv": "83a051698988e242f33d0e10191f183ff0e78d1cda501479d2f5696006d5f303",
    "analyze-forward/stdout": "77d6f950337711ce97af99a12ee67ab95e925ae28c758e4aa68efc3271d3b4f7",
    "analyze-reversed/features.csv": "8d3d071171acd247c9f7f875690504a01432940169841855cb3a10de94f94986",
    "analyze-reversed/improvements_by_class_count.csv": "34b5bb364afc5629e20643e8c4ed9f76d9122162f59dbd16e8c17a8e65017477",
    "analyze-reversed/improvements_by_iteration.csv": "83a051698988e242f33d0e10191f183ff0e78d1cda501479d2f5696006d5f303",
    "analyze-reversed/stdout": "77d6f950337711ce97af99a12ee67ab95e925ae28c758e4aa68efc3271d3b4f7",
    "filter-kernel16/filter.json": "5a3830d7756891336d03392f311fb080048613fd9c715a4d589f79bc3effb932",
    "filter-kernel16/stdout": "f8a51620c2626d244f878f19b8d1b30c783dd183103988d23926baa31f065103",
    "filter-linear/filter.json": "2c89e9d6efa9801ca5f20f964518c5d4d7f1bd4299087ff955d5c1512555a0be",
    "filter-linear/stdout": "f8a51620c2626d244f878f19b8d1b30c783dd183103988d23926baa31f065103",
}

#: (scheme, classifier_kind, splitter, feature, r, p) of each correlation
#: record, in file order; captured with GOLDEN
GOLDEN_CORRELATIONS = [
    ('flat', 'kernel-ridge', 'potr', 'n_classes', None, None),
    ('flat', 'kernel-ridge', 'potr', 'fc_score', None, None),
    ('flat', 'kernel-ridge', 'potr', 'data_balance', None, None),
    ('flat', 'kernel-ridge', 'potr', 'class_balance', None, None),
    ('nested', 'linear', 'lsoo', 'n_classes', None, None),
    ('nested', 'linear', 'lsoo', 'fc_score', -0.24917316136192877, 0.83968233844648),
    ('nested', 'linear', 'lsoo', 'data_balance', 0.5636214801906778, 0.6188153433833175),
    ('nested', 'linear', 'lsoo', 'class_balance', None, None),
    ('nested', 'linear', 'potr', 'n_classes', -0.9521625160096099, 7.522335702291405e-05),
    ('nested', 'linear', 'potr', 'fc_score', 0.2902769773118437, 0.4486168895024274),
    ('nested', 'linear', 'potr', 'data_balance', -0.8770591752917392, 0.0018984054756081246),
    ('nested', 'linear', 'potr', 'class_balance', -0.8788752163992124, 0.00180538488468807),
]


def sine_patterns(n_per_class=12, n_classes=3, length=24, noise=0.01, seed=0):
    """Class c is a sine of c + 1 periods over the series: orthogonal
    patterns every classifier separates exactly."""
    rng = np.random.default_rng(seed)
    t = np.arange(length) / length
    rows = [
        np.sin(2 * np.pi * (cls + 1) * t) + rng.normal(0.0, noise, length)
        for cls in range(n_classes)
        for _ in range(n_per_class)
    ]
    return TimeSeriesDataset(np.vstack(rows), np.repeat(np.arange(n_classes), n_per_class))


def write_entry(root: Path, name: str, train: TimeSeriesDataset, test: TimeSeriesDataset) -> None:
    (root / name).mkdir(parents=True)
    save_dataset(train, root / name / f"{name}_TRAIN.tsv")
    save_dataset(test, root / name / f"{name}_TEST.tsv")


def write_catalog(root: Path) -> None:
    kept = collinear_superclusters(n_per_class=12, series_length=16, noise=1.5)
    write_entry(root, "Kept", kept.subset(np.arange(0, 48, 2)), kept.subset(np.arange(1, 48, 2)))
    binary = shifted_bumps(seed=5, n_per_class=8, n_classes=2)
    write_entry(root, "Binary", binary.subset(np.arange(0, 16, 2)), binary.subset(np.arange(1, 16, 2)))
    sines = sine_patterns()
    write_entry(root, "Ceiling", sines.subset(np.arange(0, 36, 2)), sines.subset(np.arange(1, 36, 2)))
    short = collinear_superclusters(n_per_class=4, series_length=12, seed=2)
    write_entry(root, "Mismatched", kept.subset(np.arange(0, 48, 2)), short)
    (root / "Unreadable").mkdir()
    (root / "Unreadable" / "Unreadable_TRAIN.tsv").write_text("0\t0.5\tnot-a-number\n")
    (root / "Unreadable" / "Unreadable_TEST.tsv").write_text("0\t0.5\t0.25\n")


def run_corpus(root: Path):
    """(digest of every hashed output by name, the correlation files' text of
    every analyze run by order name) with `root` as the working directory."""
    digests, correlations = {}, {}
    cwd = os.getcwd()
    os.chdir(root)
    try:
        save_dataset(collinear_superclusters(n_per_class=8, series_length=16, noise=1.5), Path("four.tsv"))
        save_dataset(shifted_bumps(seed=4, n_per_class=8, n_classes=10), Path("ten.tsv"))
        for out, args in CV_RUNS.items():
            _run(("cv", *CV_COMMON, *args, "--out", out))
        doc = json.loads(Path(EMPTY_SOURCE, "report.json").read_text())
        doc.update(folds=[], splitter="srtr", n_iter=7)
        Path(EMPTY_REPORT).mkdir()
        Path(EMPTY_REPORT, "report.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        for order, names in REPORT_ORDERS.items():
            out = f"analyze-{order}"
            stdout = _run(("analyze", "--reports", *(f"{n}/report.json" for n in names), "--out", out))
            digests[f"{out}/stdout"] = _sha(stdout)
            for name in ("features.csv", "improvements_by_iteration.csv", "improvements_by_class_count.csv"):
                digests[f"{out}/{name}"] = _sha(Path(out, name).read_text())
            correlations[order] = tuple(
                Path(out, name).read_text() for name in ("correlations.csv", "correlations.json")
            )
        write_catalog(Path("catalog"))
        for clf, clf_args in FILTER_CLASSIFIERS.items():
            out = f"filter-{clf}"
            stdout = _run(("filter", "--data-root", "catalog", *clf_args, "--out", out))
            digests[f"{out}/stdout"] = _sha(stdout)
            digests[f"{out}/filter.json"] = _sha(Path(out, "filter.json").read_text())
    finally:
        os.chdir(cwd)
    return digests, correlations


def correlation_records(csv_text: str, json_text: str) -> list[tuple]:
    """The records of a ``correlations.csv`` and ``correlations.json`` pair,
    as (scheme, classifier_kind, splitter, feature, r, p), taken from the
    JSON at full precision once the CSV is checked to format the same
    records: the same text cells, blank cells where r and p are None, r by
    ``repr`` and p to three decimals (within the tolerance)."""
    doc = json.loads(json_text)
    assert json_text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    header, *rows = csv.reader(csv_text.splitlines())
    assert header == [*CORRELATION_TEXT, "r", "p"]
    assert len(rows) == len(doc)
    records = []
    for record, row in zip(doc, rows):
        assert sorted(record) == sorted([*CORRELATION_TEXT, "r", "p"])
        assert row[:4] == [record[name] for name in CORRELATION_TEXT]
        for cell, value, text in ((row[4], record["r"], repr), (row[5], record["p"], "{:.3f}".format)):
            if value is None:
                assert cell == ""
            else:
                assert float(cell) == pytest.approx(float(text(value)), rel=0, abs=CORRELATION_TOLERANCE)
        records.append(tuple(record[name] for name in (*CORRELATION_TEXT, "r", "p")))
    return records


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return run_corpus(tmp_path_factory.mktemp("golden-analysis"))


def test_analyze_and_filter_outputs_are_byte_identical_to_the_golden_digests(corpus):
    digests, _ = corpus
    assert sorted(digests) == sorted(GOLDEN)
    changed = sorted(name for name in GOLDEN if digests[name] != GOLDEN[name])
    assert not changed


@pytest.mark.parametrize("order", sorted(REPORT_ORDERS))
def test_correlations_match_the_golden_records(corpus, order):
    _, correlations = corpus
    records = correlation_records(*correlations[order])
    assert len(records) == len(GOLDEN_CORRELATIONS)
    for got, want in zip(records, GOLDEN_CORRELATIONS):
        assert got[:4] == want[:4]
        for g, w in zip(got[4:], want[4:]):
            if w is None:
                assert g is None, got
            else:
                assert g == pytest.approx(w, rel=0, abs=CORRELATION_TOLERANCE), got


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        found, correlations = run_corpus(Path(tmp))
    print("GOLDEN = {")
    for name, digest in sorted(found.items()):
        print(f'    "{name}": "{digest}",')
    print("}")
    print("GOLDEN_CORRELATIONS = [")
    for record in correlation_records(*correlations["forward"]):
        print(f"    {record!r},")
    print("]")
