"""Read and write Cayley tables in the plain ".tbl" text format.

Format: optional '#' comment lines, then a line holding n, then n lines of n
whitespace-separated integers in 0..n-1 (row x, column y holds x*y); only
blank and '#' lines may follow the last row.  Import normalizes the identity
to index 0 and reports the relabeling applied; export always writes
normalized tables with a '# name:' header.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import _ROW_BLOCK, CayleyTable, ConstructionError, classify


@dataclass
class ImportResult:
    table: CayleyTable
    relabeling: list[int] | None  # old index -> new index, None if untouched
    name: str | None
    comments: list[str] = field(default_factory=list)


def parse_tbl(text: str) -> tuple[np.ndarray, str | None, list[str]]:
    """Parse .tbl text into (raw array, declared name, comment lines); numpy
    reads the rows whole if they are clean (_clean_rows), else line by line."""
    name = None
    comments = []
    rows: list[list[int]] | np.ndarray = []
    n = None
    all_lines = text.splitlines()
    lines = enumerate(all_lines, start=1)
    for lineno, line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            comments.append(stripped)
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
            block = _clean_rows(all_lines[lineno:lineno + n], n)
            if block is not None:  # the rows are read: go on after them
                rows, lines = block, enumerate(all_lines[lineno + n:], start=lineno + n + 1)
                break
            continue
        parts = stripped.split()
        if len(parts) != n:
            raise ConstructionError(f"line {lineno}: expected {n} entries, got {len(parts)}")
        try:
            row = [int(p) for p in parts]
        except ValueError:
            raise ConstructionError(f"line {lineno}: non-integer entry")
        for col, v in enumerate(row):
            if not 0 <= v < n:
                raise ConstructionError(f"line {lineno}: entry {v} at column {col} outside 0..{n - 1}")
        rows.append(row)
        if len(rows) == n:
            break
    for lineno, line in lines:  # what follows the last row
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            raise ConstructionError(f"line {lineno}: unexpected content after the {n} table rows")
    if n is None:
        raise ConstructionError("no element count found")
    if len(rows) != n:
        raise ConstructionError(f"expected {n} rows, found {len(rows)}")
    return np.asarray(rows, dtype=np.int32), name, comments


def _clean_rows(lines: list[str], n: int) -> np.ndarray | None:
    """The (n, n) table of n row lines if each holds only ASCII digits, spaces
    and tabs, with a digit, and reads as n values in 0..n-1 (as int() reads
    them); else None.  numpy's separator matches zero blanks, so '1-2' or '1+2'
    would read as two values, and a line of only blanks reads as one 0.  A value
    of 2^63 or more reads as the int64 maximum and fails the range check."""
    text = "\n".join(lines)
    if (len(lines) < n or any(map(str.isspace, lines)) or not text.isascii()
            or text.encode().translate(None, b"0123456789 \t\n")):
        return None
    rows = [np.fromstring(line, dtype=np.int64, sep=" ") for line in lines]
    if any(row.size != n for row in rows):
        return None
    arr = np.stack(rows)
    return arr.astype(np.int32) if ((arr >= 0) & (arr < n)).all() else None


def normalize_identity(arr: np.ndarray) -> tuple[np.ndarray, list[int] | None]:
    """Relabel so a two-sided identity, if present, sits at index 0.

    Returns (table, relabeling) where relabeling maps old index -> new index;
    relabeling is None when nothing was moved (identity already 0 or absent).
    """
    t = CayleyTable(arr)
    cls = classify(t)
    e = cls.identity_index
    if e is None or e == 0:
        return arr, None
    sigma = np.arange(arr.shape[0], dtype=np.int32)
    sigma[0], sigma[e] = e, 0  # transposition moving e to slot 0
    out = np.empty_like(arr)
    out[np.ix_(sigma, sigma)] = sigma[arr]
    return out, sigma.tolist()


def import_table(path: str | Path) -> ImportResult:
    """Load a .tbl file, normalizing its identity to index 0."""
    text = Path(path).read_text()
    arr, name, comments = parse_tbl(text)
    norm, sigma = normalize_identity(arr)
    table = CayleyTable(norm, name=name or Path(path).stem)
    return ImportResult(table=table, relabeling=sigma, name=name, comments=comments)


def format_tbl(table: CayleyTable, extra_comments: list[str] | None = None) -> str:
    """Render a table as .tbl text with the standard headers."""
    lines = []
    if table.name:
        lines.append(f"# name: {table.name}")
    for c in extra_comments or []:
        lines.append(f"# {c}")
    lines.append(str(table.n))
    labels = np.array([str(v) for v in range(table.n)], dtype=object)
    for lo in range(0, table.n, _ROW_BLOCK):  # a block of rows per step, so memory stays flat
        lines.extend(map(" ".join, labels[table.table[lo:lo + _ROW_BLOCK]].tolist()))
    return "\n".join(lines) + "\n"


def export_table(table: CayleyTable, path: str | Path,
                 extra_comments: list[str] | None = None) -> None:
    """Write a table to a .tbl file (identity-normalized form expected)."""
    arr, sigma = normalize_identity(np.asarray(table.table))
    if sigma is not None:
        table = CayleyTable(arr, name=table.name)
    Path(path).write_text(format_tbl(table, extra_comments))
