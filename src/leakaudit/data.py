"""Tabular dataset ingestion, validation and deduplication.

The on-disk format is a header-bearing UTF-8 CSV with columns
``id,label[,meta_*...],f_0..f_{d-1}``; the column names are fixed
(:data:`ID_COLUMN`, :data:`LABEL_COLUMN`, :data:`META_PREFIX`), while
feature columns may carry any name. Labels are binary; feature and
metadata values finite. :func:`load_dataset` reads and checks such a
file and removes duplicates before it builds the one :class:`Dataset`:
exact duplicate feature vectors (``-0.0`` equal to ``0.0``) with the
same label collapse to one record, identical feature vectors with
conflicting labels are all removed, and one log line counts both.
The rows are parsed in one C pass (``np.loadtxt``). A file that pass
refuses, or may read otherwise than :mod:`csv` and ``float()``, is read
again value by value; only that scan refuses a row, and it names the row.

In memory a :class:`Dataset` is columnar: a tuple of ids, a read-only
feature matrix, a label vector and one array per metadata column, all
indexed by row. A row position is the one handle of a sample: a game's
split and challenge hold rows (see :func:`leakaudit.game.draw_challenge`),
and sub-datasets are taken by row (:meth:`Dataset.take`);
:meth:`Dataset.rows` and :meth:`Dataset.subset` serve callers holding ids.
"""

from __future__ import annotations

import csv
import logging
import warnings
from array import array
from pathlib import Path
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np

__all__ = [
    "IngestError",
    "Dataset",
    "load_dataset",
    "save_dataset",
    "class_weights",
]

log = logging.getLogger(__name__)

ID_COLUMN = "id"
LABEL_COLUMN = "label"
META_PREFIX = "meta_"
# the characters that the C parse strips around a number as white space but float() refuses
_C_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# bytes of rows that _deduplicate copies and hashes at once: 2-3x faster than a bytes object a row held
# for all rows at once, on 12,000 x 16 and 4,000 x 2,048 features, with a peak of about a block
_HASH_BLOCK_BYTES = 1 << 18


class IngestError(ValueError):
    """Raised for malformed input files or invalid records."""


class Dataset:
    """Immutable columnar dataset: ``ids``, features ``X`` (n x d), labels ``y``, ``meta`` columns.

    Row ``r`` of every column describes sample ``ids[r]``; the arrays are
    read-only copies. The constructor refuses duplicate ids, non-binary
    labels, non-finite features and columns of the wrong length;
    deduplication of feature vectors is the loader's job.
    """

    def __init__(
        self,
        ids: Sequence[str],
        X: np.ndarray,
        y: Sequence[int],
        meta: Mapping[str, Sequence[float]] | None = None,
    ):
        self.ids = tuple(ids)
        self.X = np.array(X, dtype=float)
        self.y = np.array(y, dtype=int)
        self.meta = {key: np.array(col, dtype=float) for key, col in (meta or {}).items()}
        n = len(self.ids)
        if not n:
            raise IngestError("dataset must contain at least one sample")
        if self.X.ndim != 2 or self.X.shape[0] != n or self.y.shape != (n,):
            raise IngestError(f"{n} ids need an (n, d) feature matrix and n labels, "
                              f"got {self.X.shape} and {self.y.shape}")
        for key, col in self.meta.items():
            if col.shape != (n,):
                raise IngestError(f"meta column {key!r}: expected {n} values, got {col.shape}")
        for bad, what in (((self.y != 0) & (self.y != 1), "label must be 0 or 1"),
                          (~np.isfinite(self.X).all(axis=1), "non-finite feature value")):
            if bad.any():
                raise IngestError(f"sample {self.ids[np.argmax(bad)]!r}: {what}")
        self._index = {sample_id: r for r, sample_id in enumerate(self.ids)}
        if len(self._index) != n:
            # the index keeps each id's last row, so an earlier row of a duplicate disagrees
            dup = next(i for r, i in enumerate(self.ids) if self._index[i] != r)
            raise IngestError(f"duplicate id {dup!r}")
        for arr in (self.X, self.y, *self.meta.values()):
            arr.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.X.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def rows(self, ids: Iterable[str]) -> np.ndarray:
        """Row positions of ``ids``, in the order given."""
        try:
            return np.array([self._index[i] for i in ids], dtype=np.intp)
        except KeyError as exc:
            raise KeyError(f"sample id {exc.args[0]!r} is not in the dataset") from None

    def take(self, rows: Sequence[int] | np.ndarray) -> "Dataset":
        """Sub-dataset of the given row positions, in the order given."""
        rows = np.asarray(rows, dtype=np.intp)
        return Dataset([self.ids[r] for r in rows], self.X[rows], self.y[rows],
                       {k: col[rows] for k, col in self.meta.items()})

    def subset(self, ids: Iterable[str]) -> "Dataset":
        """Sub-dataset restricted to ``ids``, preserving this dataset's order."""
        return self.take(np.unique(self.rows(ids)))

    def features_array(self) -> np.ndarray:
        return self.X

    def labels_array(self) -> np.ndarray:
        return self.y


def _parse_header(header: Sequence[str]) -> tuple[list[str], list[str]]:
    if len(header) < 3 or header[0] != ID_COLUMN or header[1] != LABEL_COLUMN:
        raise IngestError(f"header must start with {ID_COLUMN!r},{LABEL_COLUMN!r}, got {header[:2]}")
    meta_cols: list[str] = []
    i = 2
    while i < len(header) and header[i].startswith(META_PREFIX):
        meta_cols.append(header[i])
        i += 1
    feature_cols = list(header[i:])
    if not feature_cols:
        raise IngestError("no feature columns found")
    return meta_cols, feature_cols


def load_dataset(path: str | Path) -> Dataset:
    """Read, validate and deduplicate a CSV dataset.

    Raises :class:`IngestError` naming the offending row for malformed
    input. Removed records are counted in one log line; the dataset is
    built once, from the rows that remain.
    """
    path = Path(path)
    if not path.exists():
        raise IngestError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise IngestError(f"{path}: empty file") from None
        except csv.Error as exc:  # such as a column name over csv.field_size_limit()
            raise IngestError(f"{path}: row 1: {exc}") from None
        meta_cols, _ = _parse_header(header)
        rows = _parse_rows(path, fh, len(header))
    ids, labels, table = rows or _scan_rows(path, len(header), len(meta_cols))
    keep, n_dup, n_conflict = _deduplicate(table[:, len(meta_cols):], labels)
    if keep.size == 0:
        raise IngestError(f"{path}: no samples remain after cleaning")
    if n_dup or n_conflict:
        log.info(
            "cleaned %s: removed %d exact duplicates, %d conflicting-label records",
            path, n_dup, n_conflict,
        )
        ids, table, labels = [ids[r] for r in keep], table[keep], [labels[r] for r in keep]
    meta = {col[len(META_PREFIX):]: table[:, j] for j, col in enumerate(meta_cols)}
    return Dataset(ids, table[:, len(meta_cols):], labels, meta)


def _parse_rows(path: Path, fh: TextIO, n_cols: int) -> tuple[list[str], list[int], np.ndarray] | None:
    """The ids, labels and meta-and-feature table of the rows left in ``fh``, parsed in C.

    ``fh`` is the open file after its header. Returns None when the rows
    hold anything :func:`_scan_rows` refuses, or anything the C parse may
    read otherwise than ``float()``; the scan then reads the file again,
    and names the bad row. Unlike :mod:`csv`, the C parse has no field
    size limit (``csv.field_size_limit()``, 128 KiB by default).
    """
    with open(path, "rb") as raw:
        while chunk := raw.read(1 << 20):
            if any(c in chunk for c in _C_ONLY_SPACE):
                return None
    dtype = [("id", object), ("label", object), ("v", float, (n_cols - 2,))]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt warns, and returns nothing, on no rows
            rows = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, quotechar='"', ndmin=1)
        label_of = {text: int(text) for text in set(rows["label"].tolist())}
    except (ValueError, UserWarning):
        return None
    ids = rows["id"].tolist()
    table = rows["v"]
    if not set(label_of.values()) <= {0, 1} or len(set(ids)) < len(ids) or not np.isfinite(table).all():
        return None
    return ids, [label_of[text] for text in rows["label"].tolist()], table


def _scan_rows(path: Path, n_cols: int, n_meta: int) -> tuple[list[str], list[int], np.ndarray]:
    """The rows after the header, read value by value: the error path of :func:`load_dataset`.

    Raises :class:`IngestError` naming the first bad row, counting the
    header as row 1 and blank lines too; so does a row that :mod:`csv`
    refuses, such as one with a field over ``csv.field_size_limit()``.
    Returns the rows only for the literals that ``float()`` reads and the
    C parse does not, such as ``1_0``.
    """
    row_of: dict[str, int] = {}  # sample id -> CSV row number, in file order
    labels: list[int] = []
    values = array("d")  # meta and feature values, row after row, without a Python object per value
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)  # the header, checked by the caller
        row_no = 1
        try:
            for row_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != n_cols:
                    raise IngestError(f"{path}: row {row_no}: expected {n_cols} columns, got {len(row)}")
                sample_id = row[0]
                if sample_id in row_of:
                    raise IngestError(f"{path}: row {row_no}: duplicate id {sample_id!r}")
                try:
                    label = int(row[1])
                except ValueError:
                    raise IngestError(f"{path}: row {row_no}: non-integer label {row[1]!r}") from None
                if label not in (0, 1):
                    raise IngestError(f"{path}: row {row_no}: label must be 0 or 1, got {label}")
                try:
                    values.extend([float(v) for v in row[2:]])
                except ValueError:
                    raise IngestError(f"{path}: row {row_no}: non-numeric value") from None
                row_of[sample_id] = row_no
                labels.append(label)
        except csv.Error as exc:  # such as a field over csv.field_size_limit(), in the row after the last read
            raise IngestError(f"{path}: row {row_no + 1}: {exc}") from None

    if not row_of:
        raise IngestError(f"{path}: no samples remain after cleaning")
    table = np.frombuffer(values, dtype=float).reshape(len(row_of), n_cols - 2)
    for what, cols in (("feature", table[:, n_meta:]), ("meta", table[:, :n_meta])):
        bad = np.flatnonzero(~np.isfinite(cols).all(axis=1))
        if bad.size:
            raise IngestError(f"{path}: row {list(row_of.values())[bad[0]]}: non-finite {what} value")
    return list(row_of), labels, table


def _deduplicate(X: np.ndarray, labels: list[int]) -> tuple[np.ndarray, int, int]:
    """Rows to keep: the first of each group of identical feature vectors, unless labels conflict.

    If the rows' hashes all differ, so do the rows, and every row is kept without grouping. The rows
    are hashed a block at a time, so that only one block's copy and bytes are held at once.
    """
    hashes: set[int] = set()
    step = max(1, _HASH_BLOCK_BYTES // (X.itemsize * X.shape[1]))
    for start in range(0, len(X), step):
        block = X[start:start + step] + 0.0  # + 0.0 turns -0.0 into 0.0, and the copy is C-contiguous
        hashes.update(map(hash, block.view(np.dtype((np.void, block.itemsize * block.shape[1]))).ravel().tolist()))
    if len(hashes) == len(X):
        return np.arange(len(X), dtype=np.intp), 0, 0
    groups: dict[bytes, list[int]] = {}
    for r, x in enumerate(X + 0.0):
        groups.setdefault(x.tobytes(), []).append(r)
    keep: list[int] = []
    n_dup = 0
    n_conflict = 0
    for group in groups.values():
        if len({labels[r] for r in group}) > 1:
            n_conflict += len(group)
        else:
            keep.append(group[0])
            n_dup += len(group) - 1
    return np.sort(np.array(keep, dtype=np.intp)), n_dup, n_conflict


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Serialize a dataset to CSV; byte-stable for a fixed dataset."""
    meta_keys = sorted(dataset.meta)
    header = [ID_COLUMN, LABEL_COLUMN] + [META_PREFIX + k for k in meta_keys]
    header += [f"f_{j}" for j in range(dataset.dimension)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        meta = [dataset.meta[k].tolist() for k in meta_keys]
        for r, (sample_id, label, x) in enumerate(zip(dataset.ids, dataset.y.tolist(), dataset.X.tolist())):
            row = [sample_id, str(label)]
            row += [repr(col[r]) for col in meta]
            row += [repr(v) for v in x]
            writer.writerow(row)


def class_weights(labels: Sequence[int] | np.ndarray) -> tuple[float, float]:
    """Inverse-frequency class weights w_c = n / (2 * n_c).

    The weighted class masses balance exactly: w_0*n_0 == w_1*n_1.
    """
    y = np.asarray(labels)
    n1 = int(np.count_nonzero(y == 1))
    n0 = len(y) - n1
    if n0 == 0 or n1 == 0:
        raise ValueError("class weights undefined: both classes must be present")
    n = n0 + n1
    return (n / (2.0 * n0), n / (2.0 * n1))
