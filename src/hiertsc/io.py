"""Dataset ingestion: delimited label-first rows and the '@data' text format.

Original label tokens are kept in a side map; class ids are densified to
0..|C|-1 by :func:`token_ids`, the one map from label tokens to ids: tokens
that parse as numbers first, in numeric order (even next to tokens that do
not), then those that parse as NaN, then the rest in text order.  So
{10, 9, a} loads as {0: 9, 1: 10, 2: a}.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import closing
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .dataset import DataValidationError, TimeSeriesDataset


class DatasetFormatError(ValueError):
    """Raised on malformed dataset files; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"{message} (line {line})" if line is not None else message)


class LabelledRows(NamedTuple):
    """A labelled file as parsed: each row's label token, the (n, M) values,
    and each row's line number in the file."""

    tokens: list[str]
    values: np.ndarray
    lines: list[int]


def token_ids(tokens: Iterable[str]) -> dict[str, int]:
    """Dense class ids 0..k-1 for the distinct label tokens, in sorted order:
    tokens that parse as numbers first, by value, then those that parse as
    NaN, then the rest as text.  So {'10', '9', 'nan', 'a'} gives
    {'9': 0, '10': 1, 'nan': 2, 'a': 3}, whatever the input order."""
    return {token: i for i, token in enumerate(sorted(set(tokens), key=_token_sort_key))}


def _token_sort_key(token: str):
    """Numbers by value, then NaN spellings, then the other tokens; ties in
    text order.  NaN has no place among the numbers, so it gets its own."""
    try:
        value = float(token)
    except ValueError:
        return (2, 0.0, token)
    return (1, 0.0, token) if math.isnan(value) else (0, value, token)


def _densify(raw_labels: list[str], rows) -> TimeSeriesDataset:
    to_id = token_ids(raw_labels)
    labels = np.asarray([to_id[t] for t in raw_labels], dtype=np.int64)
    values = np.asarray(rows, dtype=np.float64)
    return TimeSeriesDataset(values, labels, {i: n for n, i in to_id.items()})


def _parse_value(token: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise DatasetFormatError(f"cannot parse value '{token}'", line_no) from None
    if not math.isfinite(value):
        raise DatasetFormatError(f"non-finite value '{token}'", line_no)
    return value


def _fast_values(tokens: list[str]) -> list[float] | None:
    """The values of a row's tokens when there is at least one, none is blank
    and all parse to finite floats; None otherwise, and the caller parses the
    row token by token so every error keeps its message."""
    try:
        values = list(map(float, tokens))
    except ValueError:
        return None
    return values if values and math.isfinite(sum(values)) else None


def _split_row(line: str) -> list[str]:
    if "\t" in line:
        return line.split("\t")
    if "," in line:
        return line.split(",")
    return line.split()


def _parse_delimited(lines: Iterable[str]) -> LabelledRows:
    rows = _RowBuffer()
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = _split_row(line)
        label = tokens[0].strip()
        parsed = _fast_values(tokens[1:]) if label else None
        if parsed is None:
            parts = [p.strip() for p in tokens if p.strip() != ""]
            if len(parts) < 2:
                raise DatasetFormatError("row needs a label and at least one value", line_no)
            label, tokens = parts[0], parts[1:]
        else:
            tokens = tokens[1:]
        rows.check_width(len(tokens), line_no)
        rows.append(label, parsed or [_parse_value(v, line_no) for v in tokens], line_no)
    return rows.result()


def _parse_ts_text(lines: Iterable[str]) -> LabelledRows:
    rows = _RowBuffer()
    in_data = False
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("@"):
            if line.lower() == "@data":
                in_data = True
            continue
        if not in_data:
            raise DatasetFormatError("data row before the '@data' marker", line_no)
        segments = line.split(":")
        if len(segments) != 2:
            raise DatasetFormatError(
                "expected 'v1,v2,...:label' (univariate series only)", line_no
            )
        series_text, label = segments[0], segments[1].strip()
        if not label:
            raise DatasetFormatError("missing label after ':'", line_no)
        tokens = series_text.split(",")
        values = _fast_values(tokens) or [
            _parse_value(v.strip(), line_no) for v in tokens if v.strip() != ""
        ]
        if not values:
            raise DatasetFormatError("empty series", line_no)
        rows.check_width(len(values), line_no)
        rows.append(label, values, line_no)
    return rows.result()


class _RowBuffer:
    """Rows of one width as they are parsed: each row's label token and line
    number, and all values packed as float64 into one growing buffer, so no
    Python float outlives its row."""

    def __init__(self):
        self.labels: list[str] = []
        self.lines: list[int] = []
        self.width: int | None = None
        self.packed = bytearray()

    def check_width(self, width: int, line_no: int) -> None:
        if self.width is None:
            self.width = width
        elif width != self.width:
            raise DatasetFormatError(
                f"ragged row: {width} values where {self.width} expected", line_no
            )

    def append(self, label: str, values: list[float], line_no: int) -> None:
        self.labels.append(label)
        self.packed += struct.pack(f"{len(values)}d", *values)
        self.lines.append(line_no)

    def result(self) -> LabelledRows:
        if not self.labels:
            raise DatasetFormatError("no data rows found")
        values = np.frombuffer(self.packed, dtype=np.float64).reshape(len(self.labels), self.width)
        return LabelledRows(self.labels, values, self.lines)


def _read_lines(path: Path) -> Iterator[str]:
    """The lines of a UTF-8 file one at a time, exactly as ``text.splitlines()``
    would give them.  Text mode turns each CR LF pair and each lone CR into
    one newline, so every piece the file yields ends at a break of its own;
    each piece is split again at the other breaks str.splitlines knows (form
    feed, U+2028 and the rest).  A leading byte-order mark is dropped.

    The reader decodes a block at a time, so its decode error counts bytes
    from the start of the block; the error raised decodes the whole file
    again, to count them from the start of the file."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for piece in fh:
                yield from piece.splitlines()
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"cannot read {path}: {_file_decode_error(path, exc)}") from exc
    except OSError as exc:
        raise DatasetFormatError(f"cannot read {path}: {exc}") from exc


def _file_decode_error(path: Path, exc: UnicodeDecodeError) -> UnicodeDecodeError:
    """The error of decoding all of the file's bytes at once, whose position
    is the bad byte's offset in the file; `exc` when that decode succeeds."""
    try:
        path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as whole:
        return whole
    except OSError:
        pass
    return exc


def _parse_file(path: Path) -> LabelledRows:
    """Parse a file in one pass over its lines; the first non-blank line (or
    the suffix) picks the format."""
    with closing(_read_lines(path)) as lines:
        head: list[str] = []
        for line in lines:
            head.append(line)
            if line.strip():
                break
        is_ts = path.suffix.lower() == ".ts" or (head and head[-1].lstrip().startswith("@"))
        return (_parse_ts_text if is_ts else _parse_delimited)(chain(head, lines))


def load_dataset(path: str | Path) -> TimeSeriesDataset:
    """Load a labelled time-series file of UTF-8 text for training.

    Files whose suffix is ``.ts`` (or whose header starts with '@') use the
    text format with ``series:label`` rows after ``@data``; anything else is
    treated as delimited rows with the class label in the first column.
    Every failure, the dataset's own rules included (at least two classes),
    raises DatasetFormatError.
    """
    path = Path(path)
    parsed = _parse_file(path)
    try:
        return _densify(parsed.tokens, parsed.values)
    except DataValidationError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from exc


def read_labelled_rows(path: str | Path) -> LabelledRows:
    """Parse a file in :func:`load_dataset`'s formats without the rules of a
    training set: one row or one class is fine.  Malformed files raise
    DatasetFormatError."""
    return _parse_file(Path(path))


def save_dataset(data: TimeSeriesDataset, path: str | Path) -> None:
    """Write tab-separated label-first rows; floats keep full precision so a
    reload reproduces values and labels exactly."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for row, token in zip(data.values, _tokens(data)):
            fh.write("\t".join([token, *[repr(float(v)) for v in row]]) + "\n")


def _tokens(data: TimeSeriesDataset) -> list[str]:
    """Each row's label token: its name in the dataset's map, or its id."""
    names = data.label_names or {}
    return [names.get(int(l), str(int(l))) for l in data.labels]


# -- dataset catalogs ---------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    train_path: Path
    test_path: Path


def scan_catalog(root: str | Path) -> list[CatalogEntry]:
    """Find <root>/<Name>/<Name>_TRAIN.* plus matching _TEST.* pairs; an
    empty directory holds none.  Raises DatasetFormatError naming `root`
    when it is not a directory."""
    root = Path(root)
    if not root.is_dir():
        raise DatasetFormatError(f"catalog root is not a directory: {root}")
    entries = []
    for child in sorted(root.iterdir()):
        if not child.is_dir():
            continue
        train = _find_part(child, "_TRAIN")
        test = _find_part(child, "_TEST")
        if train is not None and test is not None:
            entries.append(CatalogEntry(child.name, train, test))
    return entries


def _find_part(directory: Path, marker: str) -> Path | None:
    for candidate in sorted(directory.iterdir()):
        if candidate.is_file() and marker in candidate.stem:
            return candidate
    return None


def merge_datasets(a: TimeSeriesDataset, b: TimeSeriesDataset) -> TimeSeriesDataset:
    """Stack two datasets, reconciling class ids through their label tokens.

    Each loaded file densifies its own labels, so the same original token can
    map to different ids in different files; merging goes back to tokens.
    """
    if a.series_length != b.series_length:
        raise DataValidationError(
            f"series lengths differ: {a.series_length} vs {b.series_length}"
        )
    return _densify(_tokens(a) + _tokens(b), np.vstack([a.values, b.values]))


def default_data_dir() -> Path | None:
    value = os.environ.get("HIERTSC_DATA")
    return Path(value) if value else None
