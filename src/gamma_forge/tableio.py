"""Read and write Cayley tables in the plain ".tbl" text format.

Format: optional '#' comment lines, then a line holding n, then n lines of n
whitespace-separated integers in 0..n-1 (row x, column y holds x*y); only
blank and '#' lines may follow the last row.  Of the comments only a
'# name:' line is read.  An n above the table cap is refused at its line,
before the table is allocated, as a spec's order is.  Import normalizes the
identity to index 0 and reports the relabeling applied; export always writes
normalized tables with a '# name:' header.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from .core import TABLE_CAP_ENV, CayleyTable, ConstructionError, classify, element_dtype, row_blocks, table_cap


@dataclass
class ImportResult:
    table: CayleyTable
    relabeling: list[int] | None  # old index -> new index, None if untouched
    name: str | None


def parse_tbl(source: str | Iterable[str]) -> tuple[np.ndarray, str | None]:
    """Parse .tbl text, or the lines of an open .tbl file as they are read, into
    (raw array, declared name).  An element count above table_cap() is
    refused before any row is read.  Each row is range-checked as
    read, then stored in one array of the element dtype, allocated at the
    first row: numpy reads a clean row (_clean_row), the line parser
    (_parsed_row) any other."""
    if isinstance(source, str):
        lines = source.splitlines()
    else:  # split as str.splitlines splits the whole text
        lines = (part for line in source for part in line.splitlines())
    name = arr = n = None
    k = 0  # rows read
    numbered = enumerate(lines, start=1)
    for lineno, line in numbered:
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            if body.startswith("name:"):
                name = body[len("name:"):].strip()
            continue
        if n is None:
            try:
                n = int(stripped)
            except ValueError:
                raise ConstructionError(f"line {lineno}: expected element count, got {stripped!r}")
            if n < 1:
                raise ConstructionError(f"line {lineno}: element count must be >= 1")
            if n > (cap := table_cap()):
                raise ConstructionError(f"line {lineno}: order {n} is above the table cap {cap}; "
                                        f"{TABLE_CAP_ENV} raises the cap")
            continue
        row = _clean_row(stripped, n)
        if row is None:
            row = _parsed_row(stripped, n, lineno)
        if arr is None:
            try:
                arr = np.empty((n, n), dtype=element_dtype(n))
            except MemoryError:
                raise ConstructionError(f"line {lineno}: a table of {n} rows does not fit in memory")
        arr[k] = row
        k += 1
        if k == n:
            break
    for lineno, line in numbered:  # what follows the last row
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            raise ConstructionError(f"line {lineno}: unexpected content after the {n} table rows")
    if n is None:
        raise ConstructionError("no element count found")
    if k != n:
        raise ConstructionError(f"expected {n} rows, found {k}")
    return arr, name


def _clean_row(line: str, n: int) -> np.ndarray | None:
    """The n values of a stripped row line, read by numpy, if it holds only
    ASCII digits, spaces and tabs and reads as n values in 0..n-1; else None.
    numpy's separator matches zero blanks, so '1-2' would read as two values;
    a value of 2^63 or more reads as the int64 maximum, out of range."""
    if not line.isascii() or line.encode().translate(None, b"0123456789 \t"):
        return None
    row = np.fromstring(line, dtype=np.int64, sep=" ")
    return row if row.size == n and row.min() >= 0 and row.max() < n else None


def _parsed_row(line: str, n: int, lineno: int) -> list[int]:
    """The n values of a stripped row line as int() reads them, or the error
    that names the line."""
    parts = line.split()
    if len(parts) != n:
        raise ConstructionError(f"line {lineno}: expected {n} entries, got {len(parts)}")
    try:
        row = [int(p) for p in parts]
    except ValueError:
        raise ConstructionError(f"line {lineno}: non-integer entry")
    for col, v in enumerate(row):
        if not 0 <= v < n:
            raise ConstructionError(f"line {lineno}: entry {v} at column {col} outside 0..{n - 1}")
    return row


def normalize_identity(arr: np.ndarray, e: int | None) -> tuple[np.ndarray, list[int] | None]:
    """Relabel a writable table with entries in 0..n-1 in place, so that its
    two-sided identity e (None if it has none) sits at index 0: by the
    transposition (0 e), rows, columns and values 0 and e swap, the values
    through one gather per block of rows.

    Returns (arr, relabeling) where relabeling maps old index -> new index;
    relabeling is None when nothing was moved (identity already 0 or absent).
    """
    if e is None or e == 0:
        return arr, None
    sigma = np.arange(len(arr), dtype=arr.dtype)
    sigma[[0, e]] = e, 0
    arr[[0, e]] = arr[[e, 0]]
    arr[:, [0, e]] = arr[:, [e, 0]]
    for r in row_blocks(len(arr)):
        arr[r] = sigma[arr[r]]
    return arr, sigma.tolist()


def import_table(path: str | Path) -> ImportResult:
    """Load a .tbl file, normalizing its identity to index 0; the rows flow
    into one array that the CayleyTable takes without a copy, together with
    the array's one classification: the transposition (0 e) keeps the Latin
    verdict and its witness, and moves the identity to 0."""
    try:
        with open(path) as fh:
            arr, name = parse_tbl(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConstructionError(f"cannot read {path}: {exc}")
    cls = classify(arr)
    _, sigma = normalize_identity(arr, cls.identity_index)
    arr.setflags(write=False)
    if sigma is not None:
        cls = replace(cls, identity_index=0)
    table = CayleyTable(arr, name=name or Path(path).stem, classification=cls)
    return ImportResult(table=table, relabeling=sigma, name=name)


def _tbl_chunks(arr: np.ndarray, name: str, extra_comments: list[str] | None):
    """.tbl text of a table: the headers, then a block of rows per piece."""
    head = [f"# name: {name}"] if name else []
    head += [f"# {c}" for c in extra_comments or []]
    yield "".join(f"{line}\n" for line in head + [str(len(arr))])
    labels = np.array([str(v) for v in range(len(arr))], dtype=object)
    for r in row_blocks(len(arr)):
        yield "".join([" ".join(labels[row].tolist()) + "\n" for row in arr[r]])


def format_tbl(table: CayleyTable, extra_comments: list[str] | None = None) -> str:
    """Render a table as .tbl text with the standard headers."""
    return "".join(_tbl_chunks(table.table, table.name, extra_comments))


def export_table(table: CayleyTable, path: str | Path,
                 extra_comments: list[str] | None = None) -> None:
    """Write a table to a .tbl file a block of rows at a time, relabeled (on a
    copy) so that its identity, if any, sits at index 0."""
    arr = table.table
    e = table.classification.identity_index
    if e:  # neither None nor 0
        arr, _ = normalize_identity(arr.copy(), e)
    try:
        with open(path, "w") as fh:
            fh.writelines(_tbl_chunks(arr, table.name, extra_comments))
    except OSError as exc:
        raise ConstructionError(f"cannot write {path}: {exc}")
