"""Linear system representation with mandatory row normalization.

All solvers in this package assume unit rows (||a_i||_2 = 1), which makes
greedy subset sampling uniform and turns every hyperplane projection into a
step of size equal to the row residual. ``normalize_rows`` is the one entry
point that constructs a :class:`LinearSystem` from raw data.

This module is also the one home of the package's argument checks, which
every other module imports: a real array (``_real``), a real, finite vector
(``_real_vector``), two vectors of one length (``_check_vectors``), a real
2-D matrix (``_real_matrix``), a finite nonnegative or positive number
(``_check_nonnegative``), a count (``_is_integer``) and a row index
(``_check_row``). Each raises the package's exception for its kind of fault
and names the argument; the solvers' loops call none of them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, IndexOutOfRangeError, NonFiniteDataError, ZeroRowError

_UNIT_NORM_TOL = 1e-12
_ZERO_ROW_TOL = 1e-14
# the row norms square at most this many entries at a time (one row if it is longer)
_NORM_BAND = 2**16


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """The Euclidean norm of every row of the 2-D float array ``rows``.

    The rows are squared into one buffer of at most ``_NORM_BAND`` entries
    (or one row), a band at a time, so no m x n temporary is made. Each band
    is summed by the pairwise ``np.add.reduce`` that
    ``np.linalg.norm(rows, axis=1)`` uses, so on C-ordered or row-strided
    input the norms are that call's, bit for bit. A row of finite entries
    whose squares overflow is measured again after scaling by its largest
    magnitude; a row holding NaN or inf keeps a NaN or infinite norm.
    """
    m, n = rows.shape
    height = max(1, min(m, _NORM_BAND // max(n, 1)))
    squares = np.empty((height, n))
    sums = np.empty(m)
    with np.errstate(over="ignore"):
        for start in range(0, m, height):
            band = rows[start:start + height]
            square = squares[:band.shape[0]]
            np.multiply(band, band, out=square)
            np.add.reduce(square, axis=1, out=sums[start:start + height])
        norms = np.sqrt(sums, out=sums)
        for i in np.flatnonzero(np.isinf(norms)):
            row = rows[i]
            if np.isfinite(row).all():
                scale = np.abs(row).max()
                norms[i] = scale * np.sqrt(np.add.reduce(np.square(row / scale)))
    return norms


def _is_integer(value) -> bool:
    """An int or a numpy integer; a bool is no count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _real(value, name: str) -> np.ndarray:
    """``value`` as an array, refused with a ``TypeError`` naming ``name`` if
    it is complex: a cast to float would keep its real part alone."""
    arr = np.asarray(value)
    if arr.dtype.kind == "c":
        raise TypeError(f"{name} must be real, got complex dtype {arr.dtype}")
    return arr


def _real_vector(value, name: str, n: int | None = None) -> np.ndarray:
    """``value`` as a float vector, refused unless it is real (``TypeError``),
    1-D of length ``n`` where ``n`` is given (:class:`DimensionMismatchError`)
    and finite (:class:`NonFiniteDataError`), each naming ``name``."""
    arr = np.asarray(_real(value, name), dtype=float)
    if arr.ndim != 1 or n is not None and arr.shape != (n,):
        expected = "1-D" if n is None else f"shape ({n},)"
        raise DimensionMismatchError(f"{name} has shape {arr.shape}, expected {expected}")
    if not np.isfinite(arr).all():
        raise NonFiniteDataError(f"{name} has a NaN or infinite entry")
    return arr


def _check_vectors(a: np.ndarray, v: np.ndarray, names: str) -> None:
    """Refuses the arrays ``a`` and ``v`` unless both are vectors of one
    length (:class:`DimensionMismatchError` naming them, ``names``)."""
    if v.ndim != 1 or a.shape != v.shape:
        raise DimensionMismatchError(f"{names} must be vectors of one length, got shapes {a.shape} and {v.shape}")


def _real_matrix(value, name: str, finite: bool = False) -> np.ndarray:
    """``value`` as a float array, refused unless it is real (``TypeError``),
    finite where ``finite`` is set (:class:`NonFiniteDataError`) and 2-D
    (:class:`DimensionMismatchError`), in that order, each naming ``name``.
    The finite test makes an m x n mask, so a :class:`LinearSystem`, which
    builds none, finds a NaN row through its row norms instead."""
    arr = np.asarray(_real(value, name), dtype=float)
    if finite and not np.isfinite(arr).all():
        raise NonFiniteDataError(f"{name} has a NaN or infinite entry")
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got ndim={arr.ndim}")
    return arr


def _check_nonnegative(value, name: str, *, positive: bool = False) -> None:
    """Refuses a ``value`` that is not finite and nonnegative, or with
    ``positive`` not finite and positive (``ValueError`` naming ``name``);
    NaN fails the comparison."""
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        kind = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be finite and {kind}, got {value!r}")


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """An m x n system A x = b with unit rows.

    ``rows`` holds the normalized matrix, ``rhs`` the rescaled right-hand
    side, ``row_scales`` the original row norms (1.0 everywhere if the input
    was already normalized). The solution set equals that of the raw system.
    A system has at least one row. Complex rows, rhs or row scales raise
    ``TypeError``, a NaN or infinite row, rhs entry or row scale
    :class:`NonFiniteDataError`, and a zero or negative scale
    :class:`ZeroRowError`, naming the first such row and its scale.
    Instances are immutable and safe to share across concurrent readers:
    ``rhs`` and ``row_scales`` are copied, and ``rows`` is made read-only in
    place, so a float matrix is held once. The unit-norm check of the rows
    squares them a band at a time, so building a system allocates no m x n
    array: its peak is the row-norm buffer (512 kB, or one row if that is
    longer) and a few length-m vectors. The singular values of ``rows``
    are computed on first use and kept.
    """

    rows: np.ndarray
    rhs: np.ndarray
    row_scales: np.ndarray

    def __post_init__(self):
        # copies, so that the caller's arrays stay the caller's
        rhs = np.array(_real(self.rhs, "rhs"), dtype=float).reshape(-1)
        scales = np.array(_real(self.row_scales, "row_scales"), dtype=float).reshape(-1)
        rows = _real_matrix(self.rows, "rows")
        m = rows.shape[0]
        if m == 0:
            raise DimensionMismatchError("a system needs at least one row, got m=0")
        if rhs.shape[0] != m or scales.shape[0] != m:
            raise DimensionMismatchError(
                f"rhs/row_scales length must equal m={m}, got {rhs.shape[0]}/{scales.shape[0]}"
            )
        norms = _row_norms(rows)
        bad = np.flatnonzero(~(np.isfinite(norms) & np.isfinite(rhs) & np.isfinite(scales)))
        if bad.size:
            raise NonFiniteDataError(f"row {int(bad[0])}, its rhs entry or its row scale is not finite")
        if np.max(np.abs(norms - 1.0)) > _UNIT_NORM_TOL:
            worst = int(np.argmax(np.abs(norms - 1.0)))
            raise DimensionMismatchError(
                f"row {worst} has norm {norms[worst]!r}; rows must be unit (use normalize_rows)"
            )
        bad = np.flatnonzero(scales <= 0.0)
        if bad.size:
            # a scale is a row norm: name the scale, not a zero norm
            error = ZeroRowError(int(bad[0]))
            error.args = (f"row {bad[0]} has row scale {float(scales[bad[0]])!r}; it must be positive",)
            raise error
        for arr, name in ((rows, "rows"), (rhs, "rhs"), (scales, "row_scales")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def m(self) -> int:
        return self.rows.shape[0]

    @property
    def n(self) -> int:
        return self.rows.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows.shape

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Singular values of ``rows`` in descending order, by one dense SVD (read-only)."""
        svals = np.linalg.svd(self.rows, compute_uv=False)
        svals.setflags(write=False)
        return svals

    def with_rhs(self, new_rhs) -> "LinearSystem":
        """Same rows, different right-hand side (used for noise injection).

        The new system is built and checked as any other; it shares the
        read-only ``rows``, so its peak is that of the check (no m x n
        array), and computes its own singular values on first use.
        """
        return LinearSystem(rows=self.rows, rhs=new_rhs, row_scales=self.row_scales)


def normalize_rows(raw_rows, raw_rhs) -> LinearSystem:
    """Scale every row (and its rhs entry) to unit Euclidean norm.

    Raises :class:`ZeroRowError` for any row with norm below 1e-14; callers
    that want to drop such rows must filter them out first. Raises
    :class:`NonFiniteDataError` if a row or rhs entry is NaN or infinite,
    and ``TypeError`` if either is complex. A finite row whose squares
    overflow is accepted when its norm is finite.

    The unit rows are written to one new matrix and the caller's arrays are
    left as they were; past that matrix the peak is the row-norm buffer
    (512 kB, or one row if that is longer), as no m x n temporary is made.
    """
    b = np.asarray(_real(raw_rhs, "raw_rhs"), dtype=float).reshape(-1)
    raw = _real_matrix(raw_rows, "raw_rows")
    if raw.shape[0] != b.shape[0]:
        raise DimensionMismatchError(
            f"rhs length {b.shape[0]} does not match row count {raw.shape[0]}"
        )
    return _normalized(raw, b)


def _normalized(raw: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> LinearSystem:
    """The system of the 2-D float rows ``raw`` and rhs ``b`` (of matching
    length), its unit rows written to ``out``: a new matrix when ``None``,
    and ``raw`` itself to normalize in place."""
    norms = _row_norms(raw)
    small = np.flatnonzero(norms < _ZERO_ROW_TOL)
    if small.size:
        raise ZeroRowError(int(small[0]))
    with np.errstate(invalid="ignore"):  # an inf row gives NaN, which LinearSystem rejects
        rows = np.divide(raw, norms[:, None], out=out)
    return LinearSystem(rows=rows, rhs=b / norms, row_scales=norms)


def residual(system: LinearSystem, x) -> np.ndarray:
    """Residual vector A x - b. An ``x`` that is complex raises ``TypeError``,
    one that is not of length n :class:`DimensionMismatchError`, and one with
    a NaN or infinite entry :class:`NonFiniteDataError`."""
    return system.rows @ _real_vector(x, "x", system.n) - system.rhs


def _check_row(system: LinearSystem, i: int) -> None:
    """Refuses a row index that is no integer (``TypeError``; a bool is
    none, where numpy would read a boolean slice) or lies outside [0, m)."""
    if not _is_integer(i):
        raise TypeError(f"row index must be an integer, got {i!r}")
    if not 0 <= i < system.m:
        raise IndexOutOfRangeError(f"row index {i} outside [0, {system.m})")

