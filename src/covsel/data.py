"""Dataset ingestion and sufficient statistics for mean-zero Gaussian samples.

Observations are rows. The scatter matrix s = sum_i x_i x_i^T together with
its diagonal and trace is all any evidence computation in this package needs.
"""

import csv
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import CsvParseError, EmptyDatasetError
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
        """Subset of columns, by name (requires header) or 0-based index."""
        idx = _resolve_columns(columns, self.columns, self.d)
        names = tuple(self.columns[i] for i in idx) if self.columns else None
        return Dataset(self.rows[:, idx], names)


@dataclass(frozen=True)
class SuffStats:
    """Scatter matrix of a sample: s = sum_i x_i x_i^T, with views.

    n = 0 is legal and gives an all-zero scatter (evidence 0 for every
    structure), which anchors the trivial sanity tests.
    """

    n: int
    d: int
    s: np.ndarray
    s_diag: np.ndarray = field(init=False)
    s_total: float = field(init=False)

    def __post_init__(self):
        if self.n < 0 or self.d < 1:
            raise ValueError(f"need n >= 0 and d >= 1, got n={self.n}, d={self.d}")
        s = symmetrize(self.s)
        if s.shape != (self.d, self.d):
            raise ValueError(f"scatter shape {s.shape} does not match d={self.d}")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "s_diag", np.diag(s).copy())
        object.__setattr__(self, "s_total", float(np.trace(s)))


def suff_stats(data: Dataset) -> SuffStats:
    """Accumulate s = sum_i x_i x_i^T (exactly symmetric by construction)."""
    x = data.rows
    if data.n == 0:
        s = np.zeros((data.d, data.d))
    else:
        s = x.T @ x
        s = (s + s.T) / 2
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
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row and not all(c.strip() == "" for c in row)]
    header = None
    if has_header:
        if not rows:
            raise CsvParseError("file has no header row")
        header = tuple(name.strip() for name in rows[0])
        rows = rows[1:]
    width = len(header) if header is not None else (len(rows[0]) if rows else 0)
    if width == 0:
        raise CsvParseError("no columns found")
    data = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        if len(row) != width:
            raise CsvParseError(
                f"row {i + 1} has {len(row)} fields, expected {width}", row=i + 1
            )
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise CsvParseError(
                    f"row {i + 1}, column {j + 1}: not a finite number: {cell!r}",
                    row=i + 1,
                    column=j + 1,
                )
            data[i, j] = value
    ds = Dataset(data, header)
    if columns is not None:
        ds = ds.select(columns)
    return ds


def _resolve_columns(columns, names, width):
    if len(list(columns)) == 0:
        raise CsvParseError("empty column selection")
    idx = []
    for c in columns:
        if isinstance(c, str):
            if names is None:
                raise CsvParseError(f"column {c!r} selected by name but file has no header")
            if c not in names:
                raise CsvParseError(f"unknown column {c!r}; available: {list(names)}")
            idx.append(names.index(c))
        else:
            i = int(c)
            if not 0 <= i < width:
                raise CsvParseError(f"column index {i} out of range [0, {width})")
            idx.append(i)
    return idx
