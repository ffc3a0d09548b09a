"""Minimal Matrix Market exchange-format reader and writer.

Supports the two layouts the benchmark matrices use: ``coordinate`` and
``array``, field ``real`` (or ``integer``), symmetry ``general`` or
``symmetric``. After the banner, blank lines are skipped, and so is every
comment, a line whose first non-blank character is ``%`` (indented or not);
the first other line is the size line. Symmetric files must be square; they
store one triangle and are expanded to the full matrix. Duplicate coordinate
entries are summed in file order; indices are 1-based on disk and 0-based in
memory. NaN and infinite values, duplicate entries whose sum overflows to an
infinite value, files that are not UTF-8 text, and size lines that declare
a negative size, more than ``MAX_DENSE_ENTRIES`` entries, or a symmetric
matrix that is not square, raise ``ParseError``.
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

    coordinate, symmetric = layout == "coordinate", symmetry == "symmetric"
    # one pass: the first line that is neither blank nor a comment is the
    # size line, every later one an entry
    content = ((number, text) for number, line in enumerate(lines[1:], 2)
               if (text := line.strip()) and not text.startswith("%"))
    number, text = next(content, (len(lines), None))
    if text is None:
        raise ParseError(number, "missing size line")
    size = text.split()
    if len(size) != (3 if coordinate else 2):
        raise ParseError(number, f"{layout} size line needs {'m n nnz' if coordinate else 'm n'!r}")
    try:
        m, n, *nnz = (int(p) for p in size)
    except ValueError:
        raise ParseError(number, f"bad size line {lines[number - 1]!r}") from None
    if m < 0 or n < 0:
        raise ParseError(number, f"negative size {m}x{n}")
    if m * n > MAX_DENSE_ENTRIES:
        raise ParseError(number, f"size {m}x{n} exceeds the cap of {MAX_DENSE_ENTRIES} dense entries")
    if symmetric and m != n:
        raise ParseError(number, f"symmetric matrix must be square, got {m}x{n}")

    rows, cols, values, numbers = [], [], [], []
    for number, text in content:
        parts = text.split() if coordinate else (text,)  # an array line is one value
        if coordinate and len(parts) != 3:
            raise ParseError(number, f"entry needs 'i j value', got {text!r}")
        try:
            if coordinate:
                i, j, value = int(parts[0]), int(parts[1]), float(parts[2])
            else:
                value = float(text)
        except ValueError:
            raise ParseError(number, f"bad {'entry' if coordinate else 'value'} {text!r}") from None
        if not math.isfinite(value):
            raise ParseError(number, f"non-finite value {parts[-1]!r}")
        if coordinate:
            if not (1 <= i <= m and 1 <= j <= n):
                raise ParseError(number, f"index ({i},{j}) outside {m}x{n}")
            rows.append(i)
            cols.append(j)
            numbers.append(number)
        values.append(value)
    expected = nnz[0] if coordinate else n * (n + 1) // 2 if symmetric else m * n
    if len(values) != expected:
        noun = "entries" if coordinate else "values"
        raise ParseError(len(lines), f"expected {expected} {noun}, found {len(values)}")

    out = np.zeros((m, n))
    if coordinate:
        i, j = np.array([rows, cols], dtype=np.intp) - 1  # 0-based in memory
        if symmetric:
            # an entry above the diagonal folds onto its mirror, so each cell
            # of the lower triangle sums its entries in file order
            i, j = np.maximum(i, j), np.minimum(i, j)
        values = np.array(values)
        with np.errstate(over="ignore"):
            np.add.at(out, (i, j), values)
        overflowed = np.flatnonzero(np.isinf(out[i, j]))
        if overflowed.size:
            # the error names the entry whose term took its cell's file-order sum past the range
            e = overflowed[0]
            cell = np.flatnonzero((i == i[e]) & (j == j[e]))
            with np.errstate(over="ignore"):
                last = cell[np.argmax(np.isinf(np.cumsum(values[cell])))]
            raise ParseError(numbers[last], f"entries of cell ({i[e] + 1},{j[e] + 1}) sum to a non-finite value")
    elif symmetric:
        j, i = np.triu_indices(n)  # the lower triangle, column by column
        out[i, j] = values
    else:
        out[:] = np.reshape(values, (n, m)).T  # column-major per the format
    if symmetric:
        i, j = np.triu_indices(n, 1)
        out[i, j] = out[j, i]
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
