"""Minimal Matrix Market exchange-format reader and writer.

Supports the two layouts the benchmark matrices use: ``coordinate`` and
``array``, field ``real`` (or ``integer``), symmetry ``general`` or
``symmetric``. Symmetric files store one triangle and are expanded to the
full matrix; duplicate coordinate entries are summed; indices are 1-based on
disk and 0-based in memory. NaN and infinite values, files that are not
UTF-8 text, and size lines that declare a negative size or more than
``MAX_DENSE_ENTRIES`` entries, raise ``ParseError``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParseError, UnsupportedFieldError

_BANNER_PREFIX = "%%MatrixMarket"
# the reader builds a dense float64 array: refuse sizes above 512 MB of it
MAX_DENSE_ENTRIES = 2**26


def read_matrix_market(path) -> np.ndarray:
    """Parse a Matrix Market file into a dense float array."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(data.count(b"\n", 0, exc.start) + 1, "not UTF-8 text") from None
    if not lines:
        raise ParseError(1, "empty file")

    banner = lines[0].split()
    if not lines[0].startswith(_BANNER_PREFIX) or len(banner) < 5:
        raise ParseError(1, f"banner must begin '{_BANNER_PREFIX}'")
    obj, layout, field, symmetry = (w.lower() for w in banner[1:5])
    if obj != "matrix":
        raise ParseError(1, f"unsupported object {obj!r}")
    if layout not in ("coordinate", "array"):
        raise ParseError(1, f"unsupported format {layout!r}")
    if field not in ("real", "integer"):
        raise UnsupportedFieldError(f"unsupported field {field!r} (need real or integer)")
    if symmetry not in ("general", "symmetric"):
        raise UnsupportedFieldError(f"unsupported symmetry {symmetry!r}")

    pos = 1
    while pos < len(lines) and (lines[pos].startswith("%") or not lines[pos].strip()):
        pos += 1
    if pos == len(lines):
        raise ParseError(len(lines), "missing size line")

    size_parts = lines[pos].split()
    if layout == "coordinate":
        if len(size_parts) != 3:
            raise ParseError(pos + 1, "coordinate size line needs 'm n nnz'")
        try:
            m, n, nnz = (int(p) for p in size_parts)
        except ValueError:
            raise ParseError(pos + 1, f"bad size line {lines[pos]!r}") from None
        _check_size(pos + 1, m, n)
        return _read_coordinate(lines, pos + 1, m, n, nnz, symmetry)
    if len(size_parts) != 2:
        raise ParseError(pos + 1, "array size line needs 'm n'")
    try:
        m, n = (int(p) for p in size_parts)
    except ValueError:
        raise ParseError(pos + 1, f"bad size line {lines[pos]!r}") from None
    _check_size(pos + 1, m, n)
    return _read_array(lines, pos + 1, m, n, symmetry)


def _check_size(line_number: int, m: int, n: int) -> None:
    if m < 0 or n < 0:
        raise ParseError(line_number, f"negative size {m}x{n}")
    if m * n > MAX_DENSE_ENTRIES:
        raise ParseError(line_number, f"size {m}x{n} exceeds the cap of {MAX_DENSE_ENTRIES} dense entries")


def _read_coordinate(lines, start, m, n, nnz, symmetry) -> np.ndarray:
    out = np.zeros((m, n))
    seen = 0
    for pos in range(start, len(lines)):
        text = lines[pos].strip()
        if not text or text.startswith("%"):
            continue
        parts = text.split()
        if len(parts) != 3:
            raise ParseError(pos + 1, f"entry needs 'i j value', got {text!r}")
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ParseError(pos + 1, f"bad entry {text!r}") from None
        if not math.isfinite(v):
            raise ParseError(pos + 1, f"non-finite value {parts[2]!r}")
        if not (1 <= i <= m and 1 <= j <= n):
            raise ParseError(pos + 1, f"index ({i},{j}) outside {m}x{n}")
        out[i - 1, j - 1] += v
        if symmetry == "symmetric" and i != j:
            out[j - 1, i - 1] += v
        seen += 1
    if seen != nnz:
        raise ParseError(len(lines), f"expected {nnz} entries, found {seen}")
    return out


def _read_array(lines, start, m, n, symmetry) -> np.ndarray:
    values = []
    for pos in range(start, len(lines)):
        text = lines[pos].strip()
        if not text or text.startswith("%"):
            continue
        try:
            v = float(text)
        except ValueError:
            raise ParseError(pos + 1, f"bad value {text!r}") from None
        if not math.isfinite(v):
            raise ParseError(pos + 1, f"non-finite value {text!r}")
        values.append(v)
    out = np.zeros((m, n))
    if symmetry == "general":
        if len(values) != m * n:
            raise ParseError(len(lines), f"expected {m * n} values, found {len(values)}")
        # column-major per the format
        out[:] = np.asarray(values).reshape((n, m)).T
        return out
    if m != n:
        raise ParseError(len(lines), "symmetric array matrix must be square")
    expected = n * (n + 1) // 2
    if len(values) != expected:
        raise ParseError(len(lines), f"expected {expected} values, found {len(values)}")
    k = 0
    for j in range(n):
        for i in range(j, n):
            out[i, j] = values[k]
            out[j, i] = values[k]
            k += 1
    return out


def write_matrix_market(path, matrix, comment: str | None = None) -> None:
    """Write a dense array as coordinate/real/general with repr-exact values."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError("matrix must be 2-D")
    m, n = a.shape
    rows, cols = np.nonzero(a)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        if comment:
            fh.write(f"% {comment}\n")
        fh.write(f"{m} {n} {rows.size}\n")
        for i, j in zip(rows, cols):
            fh.write(f"{i + 1} {j + 1} {float(a[i, j])!r}\n")
