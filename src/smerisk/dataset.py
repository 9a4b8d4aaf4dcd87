"""SME loan dataset: one validated columnar table, CSV round trip,
splitting, standardization.

A Dataset holds a read-only (n, 6) float64 feature matrix ``X`` in the
canonical column order (five continuous risk features, then the binary
industry sector code) and an optional (n,) int64 default label array
``y``; ``y`` is None for unlabeled scoring data. Both are checked once,
with vectorized tests, when the Dataset is built. There is no per-row
object: models, the generator and the CSV reader and writer all work on
the arrays, and ``records`` derives plain row tuples on demand for
equality checks.

CSV files carry exactly the canonical columns, in this order, with the
label column optional for unlabeled scoring data. Lines end in CRLF, LF
or a bare CR. The reader checks every data line with one regular
expression and parses them all with one ``np.loadtxt`` call, so no Python
code runs per row; the csv module reads the header and the first bad line.
"""

from __future__ import annotations

import csv
import math
import operator
import re
from dataclasses import dataclass
from itertools import compress, count, islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DataError,
    EmptyInputError,
    ParameterError,
    ParseError,
    RowParseError,
    SchemaError,
)

CONTINUOUS_FEATURES = (
    "Revenue_Growth",
    "Cash_Flow_Variability",
    "Debt_Equity_Ratio",
    "Profit_Margin",
    "Commodity_Price_Dependency",
)
SECTOR_COLUMN = "Industry_Sector"
LABEL_COLUMN = "Default_Status"
FEATURE_COLUMNS = CONTINUOUS_FEATURES + (SECTOR_COLUMN,)
ALL_COLUMNS = FEATURE_COLUMNS + (LABEL_COLUMN,)

# Physical (low, high, rule) bounds of each continuous feature, inclusive.
# Commodity price dependency is a correlation coefficient against commodity
# prices.
_ANY = (-math.inf, math.inf, "a finite number")
_NON_NEGATIVE = (0.0, math.inf, "a finite number >= 0")
FEATURE_BOUNDS = {
    "Revenue_Growth": _ANY,
    "Cash_Flow_Variability": _NON_NEGATIVE,
    "Debt_Equity_Ratio": _NON_NEGATIVE,
    "Profit_Margin": _ANY,
    "Commodity_Price_Dependency": (-1.0, 1.0, "a finite number in [-1, 1]"),
}


def _first_invalid(X: np.ndarray, y: np.ndarray | None) -> tuple[int, str] | None:
    """(row, message) for the first row holding an invalid value, or None.

    Continuous features must be finite and inside their physical bounds;
    the sector and the label must be 0 or 1. Within the offending row the
    leftmost bad column is named.
    """
    columns = list(zip(FEATURE_COLUMNS, X.T))
    if y is not None:
        columns.append((LABEL_COLUMN, y))
    checks = []  # (name, values, mask of bad entries, rule)
    for name, values in columns:
        if name in (SECTOR_COLUMN, LABEL_COLUMN):
            checks.append((name, values, (values != 0) & (values != 1), "0 or 1"))
        else:
            low, high, rule = FEATURE_BOUNDS[name]
            ok = (values >= low) & (values <= high) & np.isfinite(values)
            checks.append((name, values, ~ok, rule))
    bad_rows = np.flatnonzero(np.any([mask for _, _, mask, _ in checks], axis=0))
    if len(bad_rows) == 0:
        return None
    row = int(bad_rows[0])
    name, values, _, rule = next(check for check in checks if check[2][row])
    return row, f"{name} must be {rule}, got {values[row].item()!r}"


@dataclass(frozen=True, eq=False)
class Dataset:
    """Ordered, immutable loan book in the canonical schema.

    ``X`` is the (n, 6) float64 feature matrix in FEATURE_COLUMNS order,
    sector encoded 0.0/1.0; ``y`` is the (n,) int64 default label array
    (1 for a default), or None when the data is unlabeled. Both are copied
    and made read-only. Raises ParameterError naming the column and the
    first offending row if a value breaks the schema.
    """

    X: np.ndarray
    y: np.ndarray | None = None

    def __post_init__(self):
        X = np.array(self.X, dtype=float)
        if X.size == 0:
            X = X.reshape(0, len(FEATURE_COLUMNS))
        if X.ndim != 2 or X.shape[1] != len(FEATURE_COLUMNS):
            raise ParameterError(f"feature matrix must have shape (n, {len(FEATURE_COLUMNS)}), got {X.shape}")
        y = None
        if self.y is not None:
            y = np.array(self.y, dtype=float)
            if y.shape != (len(X),):
                raise ParameterError(f"label array must have shape ({len(X)},), got {y.shape}")
        bad = _first_invalid(X, y)
        if bad is not None:
            raise ParameterError(f"row {bad[0]}: {bad[1]}")
        if y is not None:
            y = y.astype(np.int64)
            y.setflags(write=False)
        X.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return len(self.X)

    @property
    def labeled(self) -> bool:
        return self.y is not None

    @property
    def records(self) -> tuple[tuple, ...]:
        """One hashable tuple per row, in ALL_COLUMNS order (label None when
        unlabeled). Built on each access; for equality checks and counting.
        Unused in the package: perfbench's set-up check compares by it."""
        labels = self.y.tolist() if self.y is not None else [None] * len(self)
        return tuple((*row, label) for row, label in zip(self.X.tolist(), labels))

    @property
    def default_rate(self) -> float:
        self._require_nonempty()
        self._require_labeled()
        return float(np.mean(self.y))

    def feature_matrix(self) -> np.ndarray:
        """The read-only (n, 6) float64 matrix ``X``."""
        return self.X

    def labels(self) -> np.ndarray:
        self._require_labeled()
        return self.y

    def subset(self, indices: Sequence[int]) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(self.X[idx], None if self.y is None else self.y[idx])

    def _require_nonempty(self):
        if len(self) == 0:
            raise EmptyInputError("dataset holds no records")

    def _require_labeled(self):
        if not self.labeled:
            raise ParameterError("operation requires a labeled dataset")


# A cell is a JSON number, which every write_csv output is: no sign '+',
# padding, digit separators, bare '.5' or '1.', or non-ASCII digits. A
# data line is such cells, each bare or in double quotes, as in "0.3".
_NUMBER = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
_CELL = re.compile(_NUMBER)
_LINE_CELL = re.compile(f'{_NUMBER}|"{_NUMBER}"')
# one line and its end, split where a file opened with newline="" splits
# it: at \r\n, \n and \r only
_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")


def load_csv(path: str | Path) -> Dataset:
    """Read a canonical CSV file into a Dataset.

    The header must match the canonical columns exactly (label column
    optional). Lines end in CRLF, LF or a bare CR. Each data line must be
    one row of JSON numbers, bare or in double quotes; the first line that
    is not is read as the csv module reads it and described. Raises
    SchemaError for header drift, RowParseError with the offending
    data-row index for bad or out-of-range cells, EmptyInputError for a
    file with no data rows, and ParseError for text that is not UTF-8 or
    that the csv module refuses, such as a cell over its field size limit.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            text = fh.read()
        if not text:
            raise EmptyInputError(f"{path} is empty")
        records = csv.reader(m.group() for m in _LINE.finditer(text))
        header = tuple(next(records))
        if header not in (ALL_COLUMNS, FEATURE_COLUMNS):
            raise SchemaError(_describe_header_mismatch(header))
        lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        if not lines[-1]:
            lines.pop()  # the empty text after the last line end
        body = lines[records.line_num :]
        if not body:
            raise EmptyInputError(f"{path} has a header but no data rows")
        i = _leading_number_rows(body, len(header))
        if i < len(body):
            # each line before it is one whole record, so the csv reader's
            # record after those is the one line i starts
            raise _describe_row(i, next(islice(records, i, None)), body[i], header)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except (csv.Error, UnicodeDecodeError) as exc:  # e.g. a cell over the csv field size limit
        raise ParseError(f"{path} is not a readable UTF-8 CSV: {exc}") from None
    table = np.loadtxt(body, delimiter=",", quotechar='"', ndmin=2, comments=None)
    X = table[:, : len(FEATURE_COLUMNS)]
    y = table[:, len(FEATURE_COLUMNS)] if header == ALL_COLUMNS else None
    # checked before Dataset does, so the error is a row-indexed RowParseError
    bad = _first_invalid(X, y)
    if bad is not None:
        raise RowParseError(*bad)
    return Dataset(X, y)


def _leading_number_rows(lines: list[str], width: int) -> int:
    """How many lines, from the first, are rows of ``width`` cells that the
    csv module reads as they stand: each a JSON number, bare or in double
    quotes, and none longer than the csv field size limit."""
    row = re.compile(",".join([f"(?:{_LINE_CELL.pattern})"] * width))
    n = next(compress(count(), map(operator.not_, map(row.fullmatch, lines))), len(lines))
    # only a line longer than the limit can hold a cell longer than it
    limit = csv.field_size_limit()
    if max(map(len, lines)) > limit:
        too_long = (i for i, line in enumerate(lines[:n]) if max(len(c.strip('"')) for c in line.split(",")) > limit)
        n = next(too_long, n)
    return n


def _describe_row(i: int, record: list[str], line: str, header: tuple[str, ...]) -> RowParseError:
    """The error for data row ``i``, which the csv module reads as
    ``record`` from the text that starts with ``line``: its cell count, or
    its first cell that is not a number."""
    if len(record) != len(header):
        return RowParseError(i, f"expected {len(header)} cells, got {len(record)}")
    pattern = _CELL
    if all(map(pattern.fullmatch, record)):
        # the line quotes part of a cell, as in "0."1: name it as written
        record, pattern = line.split(","), _LINE_CELL
    cell, col = next((cell, col) for cell, col in zip(record, header) if not pattern.fullmatch(cell))
    return RowParseError(i, f"non-numeric value {cell!r} in column {col}")


def _describe_header_mismatch(header: tuple[str, ...]) -> str:
    expected = ALL_COLUMNS if len(header) >= len(ALL_COLUMNS) else FEATURE_COLUMNS
    for got, want in zip(header, expected):
        if got != want:
            return f"unknown column {got!r} where {want!r} was expected"
    if len(header) < len(FEATURE_COLUMNS):
        return f"missing column {FEATURE_COLUMNS[len(header)]!r}"
    return f"unexpected extra column {header[len(expected)]!r}"


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a Dataset to a canonical CSV file.

    Columns are rendered whole: features by ``repr``, the shortest digits
    that round-trip, so ``load_csv(write_csv(d))`` reproduces ``d``
    exactly; the sector and the label as integers.
    """
    dataset._require_nonempty()
    header = ALL_COLUMNS if dataset.labeled else FEATURE_COLUMNS
    k = len(CONTINUOUS_FEATURES)
    columns = [[repr(v) for v in column] for column in dataset.X[:, :k].T.tolist()]
    columns.append([str(int(v)) for v in dataset.X[:, k].tolist()])
    if dataset.labeled:
        columns.append([str(v) for v in dataset.y.tolist()])
    write_csv_table(path, header, zip(*columns))


def write_csv_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Write a header and rows of cells as CSV, byte for byte as
    ``csv.writer`` does: each row ends in CRLF and no cell is quoted. Only
    cells that need no quoting may come here: numbers, and names without
    commas, quotes or line breaks. Rows are written as they come, so the
    file's text is never held whole."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(row) + "\r\n" for row in rows)


def split_train_test(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Uniformly shuffled partition into (train, test).

    The test part gets ``round(n * test_fraction)`` records. The partition
    is a pure function of (record order, test_fraction, seed).
    """
    dataset._require_nonempty()
    dataset._require_labeled()
    if not 0.0 < test_fraction < 1.0:
        raise ParameterError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    n = len(dataset)
    n_test = round(n * test_fraction)
    if n_test == 0 or n_test == n:
        raise ParameterError(
            f"test_fraction {test_fraction} leaves an empty part for {n} records"
        )
    perm = np.random.Generator(np.random.PCG64(seed)).permutation(n)
    return dataset.subset(perm[n_test:]), dataset.subset(perm[:n_test])


@dataclass(frozen=True)
class StandardizationParams:
    """Per-feature centering and scaling fitted on a training set.

    One (mean, sd) pair per continuous feature, population standard
    deviation. Features with zero spread are flagged constant and carry
    sd = 0; they standardize to 0 rather than raising.
    """

    means: tuple[float, ...]
    sds: tuple[float, ...]
    constant_flags: tuple[bool, ...]

    def __post_init__(self):
        sizes = (len(self.means), len(self.sds), len(self.constant_flags))
        if sizes != (len(CONTINUOUS_FEATURES),) * 3:
            raise ParameterError(f"standardization lists need {len(CONTINUOUS_FEATURES)} entries each, got {sizes}")
        if not all(math.isfinite(v) for v in self.means + self.sds):
            raise ParameterError("standardization means and sds must be finite")
        for sd, flag in zip(self.sds, self.constant_flags):
            if sd < 0 or (sd == 0) != flag:
                raise ParameterError("sd must be > 0 exactly where the constant flag is unset")


def fit_standardizer(train: Dataset) -> StandardizationParams:
    """Mean and population standard deviation of each continuous feature.

    A column whose values are all equal (or whose sd is 0.0) is flagged
    constant with sd 0.0: its computed sd can be a rounding residue, such
    as 1.9e-15 for 400 copies of 0.3, which would z-score it into a column
    of ones rather than zeros."""
    train._require_nonempty()
    matrix = train.X[:, : len(CONTINUOUS_FEATURES)]
    means = matrix.mean(axis=0)
    sds = matrix.std(axis=0)  # ddof=0: population sd
    flags = (matrix.max(axis=0) == matrix.min(axis=0)) | (sds == 0.0)
    sds[flags] = 0.0
    return StandardizationParams(
        means=tuple(float(m) for m in means),
        sds=tuple(float(s) for s in sds),
        constant_flags=tuple(bool(f) for f in flags),
    )


def apply_standardizer(params: StandardizationParams, dataset: Dataset) -> np.ndarray:
    """The (n, 6) model matrix of ``dataset``: continuous features z-scored
    under ``params`` (constant-flagged ones become 0), sector unchanged."""
    out = np.array(dataset.X)
    k = len(CONTINUOUS_FEATURES)
    out[:, :k] = (out[:, :k] - np.asarray(params.means)) / np.where(params.constant_flags, 1.0, params.sds)
    out[:, np.flatnonzero(params.constant_flags)] = 0.0
    return out
