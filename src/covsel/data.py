"""Dataset ingestion and sufficient statistics for mean-zero Gaussian samples.

Observations are rows. The scatter matrix s = sum_i x_i x_i^T together with
its diagonal and trace is all any evidence computation in this package needs.
"""

import csv
import io
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from .errors import CsvParseError, EmptyDatasetError, SupportError
from .specialfn import symmetrize

__all__ = ["Dataset", "SuffStats", "load_csv", "suff_stats", "center_columns", "concat"]


@dataclass(frozen=True)
class Dataset:
    """n x d observation matrix with optional column names."""

    rows: np.ndarray
    columns: Optional[tuple] = None

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2:
            raise ValueError(f"rows must be 2-d (n x d), got ndim {rows.ndim}")
        if not np.all(np.isfinite(rows)):
            raise ValueError("dataset entries must be finite")
        object.__setattr__(self, "rows", rows)
        if self.columns is not None:
            cols = tuple(self.columns)
            if len(cols) != rows.shape[1]:
                raise ValueError("column name count does not match data width")
            object.__setattr__(self, "columns", cols)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]

    def select(self, columns: Sequence) -> "Dataset":
        """Subset of columns, by name (requires header) or 0-based index; a str
        is one column."""
        idx = _resolve_columns(columns, self.columns, self.d)
        names = tuple(self.columns[i] for i in idx) if self.columns else None
        return Dataset(self.rows[:, idx], names)


@dataclass(frozen=True)
class SuffStats:
    """Scatter matrix of a sample: s = sum_i x_i x_i^T, symmetrized, with its
    diagonal and trace read on request.

    n = 0 is legal and gives an all-zero scatter (evidence 0 for every
    structure), which anchors the trivial sanity tests.
    """

    n: int
    d: int
    s: np.ndarray

    def __post_init__(self):
        if self.n < 0 or self.d < 1:
            raise ValueError(f"need n >= 0 and d >= 1, got n={self.n}, d={self.d}")
        s = symmetrize(self.s)
        if s.shape != (self.d, self.d):
            raise ValueError(f"scatter shape {s.shape} does not match d={self.d}")
        object.__setattr__(self, "s", s)

    @property
    def s_diag(self) -> np.ndarray:
        return np.diag(self.s)

    @property
    def s_total(self) -> float:
        return float(np.trace(self.s))


def suff_stats(data: Dataset) -> SuffStats:
    """Accumulate s = sum_i x_i x_i^T (zero for no rows); `SuffStats` symmetrizes it.
    SupportError where an entry of s overflows."""
    with np.errstate(over="ignore"):
        s = data.rows.T @ data.rows
    if not np.isfinite(s).all():
        raise SupportError("the scatter matrix of the data overflows")
    return SuffStats(n=data.n, d=data.d, s=s)


def center_columns(data: Dataset) -> Dataset:
    """Subtract each column's sample mean. Requires n >= 1.

    Centering changes every evidence value, so it is never applied
    implicitly; callers opt in (the CLI exposes --center).
    """
    if data.n == 0:
        raise EmptyDatasetError("cannot center an empty dataset")
    return Dataset(data.rows - data.rows.mean(axis=0, keepdims=True), data.columns)


def concat(first: Dataset, second: Dataset) -> Dataset:
    if first.d != second.d:
        raise ValueError("datasets have different widths")
    return Dataset(np.vstack([first.rows, second.rows]), first.columns)


def load_csv(path, has_header: bool = True, columns: Optional[Sequence] = None) -> Dataset:
    """Read an RFC-4180 style CSV of numbers into a Dataset.

    With `columns`, keeps only the named (header required) or 0-based
    indexed columns. Parse failures report 1-based data row and column.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:  # drops a byte-order mark
        text = fh.read()
    ds = None if any(c in text for c in '"\r\0') else _read_plain(text, has_header)
    if ds is None:
        ds = _read_csv(text, has_header)
    if columns is not None:
        ds = ds.select(columns)
    return ds


def _read_plain(text: str, has_header: bool) -> Optional[Dataset]:
    """The Dataset of a CSV text with no quote, carriage return or NUL, which
    `csv.reader` splits at each newline and comma: in one float pass, or None
    where the text has a fault, which `_read_csv` then reports."""
    lines = [line for line in text.split("\n") if line.replace(",", "").strip()]  # no blank rows
    if not lines:
        return None
    header = tuple(name.strip() for name in lines.pop(0).split(",")) if has_header else None
    width = len(header) if header is not None else lines[0].count(",") + 1
    if set(map(str.count, lines, repeat(","))) - {width - 1}:  # a row of another width
        return None
    try:
        cells = ",".join(lines).split(",") if lines else []
        data = np.array(list(map(float, cells))).reshape(len(lines), width)
    except ValueError:  # a cell that is not a number
        return None
    return Dataset(data, header) if np.isfinite(data).all() else None


def _read_csv(text: str, has_header: bool) -> Dataset:
    """The Dataset of a CSV text as `csv.reader` reads it: the reference for
    `_read_plain`, and the one source of CsvParseError's messages."""
    rows = [row for row in csv.reader(io.StringIO(text, newline="")) if any(map(str.strip, row))]
    header = None
    if has_header:
        if not rows:
            raise CsvParseError("file has no header row")
        header = tuple(name.strip() for name in rows[0])
        rows = rows[1:]
    width = len(header) if header is not None else (len(rows[0]) if rows else 0)
    if width == 0:
        raise CsvParseError("no columns found")
    try:  # one float pass per row; only a file with a fault is scanned cell by cell
        data = np.array([list(map(float, row)) for row in rows]).reshape(len(rows), width)
    except ValueError:  # a cell that is not a number, or rows of another width
        data = None
    if data is None or not np.isfinite(data).all():
        raise _first_fault(rows, width)
    return Dataset(data, header)


def _first_fault(rows, width) -> CsvParseError:
    """The error of the first wrong-width row or non-finite cell, in reading order."""
    for i, row in enumerate(rows):
        if len(row) != width:
            return CsvParseError(
                f"row {i + 1} has {len(row)} fields, expected {width}", row=i + 1
            )
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                return CsvParseError(
                    f"row {i + 1}, column {j + 1}: not a finite number: {cell!r}",
                    row=i + 1,
                    column=j + 1,
                )


def _resolve_columns(columns, names, width):
    """0-based indices of `columns`: header names, or indices given as integers
    or as strings of decimal digits (as on a command line) that are not names.
    A str is one column, not a sequence of one-letter names. A name the header
    repeats is ambiguous and is not selected."""
    columns = [columns] if isinstance(columns, str) else list(columns)  # may be an iterator
    if not columns:
        raise CsvParseError("empty column selection")
    idx = []
    for c in columns:
        if isinstance(c, str) and c.isdecimal() and (names is None or c not in names):
            c = int(c)
        if isinstance(c, str):
            if names is None:
                raise CsvParseError(f"column {c!r} selected by name but file has no header")
            if c not in names:
                raise CsvParseError(f"unknown column {c!r}; available: {list(names)}")
            if names.count(c) > 1:
                raise CsvParseError(
                    f"column {c!r} is named {names.count(c)} times in the header; "
                    "select it by index"
                )
            idx.append(names.index(c))
        else:
            i = int(c)
            if not 0 <= i < width:
                raise CsvParseError(f"column index {i} out of range [0, {width})")
            idx.append(i)
    return idx
