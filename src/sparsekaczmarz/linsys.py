"""Linear system representation with mandatory row normalization.

All solvers in this package assume unit rows (||a_i||_2 = 1), which makes
greedy subset sampling uniform and turns every hyperplane projection into a
step of size equal to the row residual. ``normalize_rows`` is the one entry
point that constructs a :class:`LinearSystem` from raw data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, IndexOutOfRangeError, NonFiniteDataError, ZeroRowError

_UNIT_NORM_TOL = 1e-12
_ZERO_ROW_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """An m x n system A x = b with unit rows.

    ``rows`` holds the normalized matrix, ``rhs`` the rescaled right-hand
    side, ``row_scales`` the original row norms (1.0 everywhere if the input
    was already normalized). The solution set equals that of the raw system.
    A system has at least one row. Instances are immutable and safe to share
    across concurrent readers: ``rhs`` and ``row_scales`` are copied, and
    ``rows`` is made read-only in place, so a float matrix is held once.
    The singular values of ``rows`` are computed on first use and kept.
    """

    rows: np.ndarray
    rhs: np.ndarray
    row_scales: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        # copies, so that the caller's arrays stay the caller's
        rhs = np.array(self.rhs, dtype=float).reshape(-1)
        scales = np.array(self.row_scales, dtype=float).reshape(-1)
        if rows.ndim != 2:
            raise DimensionMismatchError(f"rows must be 2-D, got ndim={rows.ndim}")
        m = rows.shape[0]
        if m == 0:
            raise DimensionMismatchError("a system needs at least one row, got m=0")
        if rhs.shape[0] != m or scales.shape[0] != m:
            raise DimensionMismatchError(
                f"rhs/row_scales length must equal m={m}, got {rhs.shape[0]}/{scales.shape[0]}"
            )
        norms = np.linalg.norm(rows, axis=1)
        bad = np.flatnonzero(~(np.isfinite(norms) & np.isfinite(rhs)))
        if bad.size:
            raise NonFiniteDataError(f"row {int(bad[0])} or its rhs entry is not finite")
        if np.max(np.abs(norms - 1.0)) > _UNIT_NORM_TOL:
            worst = int(np.argmax(np.abs(norms - 1.0)))
            raise DimensionMismatchError(
                f"row {worst} has norm {norms[worst]!r}; rows must be unit (use normalize_rows)"
            )
        if np.any(scales <= 0.0):
            raise ZeroRowError(int(np.argmin(scales)))
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

        Only the new rhs is checked: the rows and row scales, checked when
        this system was built, are shared, and so are its singular values if
        they have been computed.
        """
        rhs = np.array(new_rhs, dtype=float).reshape(-1)
        if rhs.shape[0] != self.m:
            raise DimensionMismatchError(f"rhs length must equal m={self.m}, got {rhs.shape[0]}")
        bad = np.flatnonzero(~np.isfinite(rhs))
        if bad.size:
            raise NonFiniteDataError(f"rhs entry {int(bad[0])} is not finite")
        rhs.setflags(write=False)
        copy = object.__new__(LinearSystem)
        for name, arr in (("rows", self.rows), ("rhs", rhs), ("row_scales", self.row_scales)):
            object.__setattr__(copy, name, arr)
        if "singular_values" in self.__dict__:
            copy.__dict__["singular_values"] = self.singular_values
        return copy


def normalize_rows(raw_rows, raw_rhs) -> LinearSystem:
    """Scale every row (and its rhs entry) to unit Euclidean norm.

    Raises :class:`ZeroRowError` for any row with norm below 1e-14; callers
    that want to drop such rows must filter them out first. Raises
    :class:`NonFiniteDataError` if a row or rhs entry is NaN or infinite.
    """
    raw = np.asarray(raw_rows, dtype=float)
    b = np.asarray(raw_rhs, dtype=float).reshape(-1)
    if raw.ndim != 2:
        raise DimensionMismatchError(f"raw rows must be 2-D, got ndim={raw.ndim}")
    if raw.shape[0] != b.shape[0]:
        raise DimensionMismatchError(
            f"rhs length {b.shape[0]} does not match row count {raw.shape[0]}"
        )
    norms = np.linalg.norm(raw, axis=1)
    small = np.flatnonzero(norms < _ZERO_ROW_TOL)
    if small.size:
        raise ZeroRowError(int(small[0]))
    with np.errstate(invalid="ignore"):  # an inf row gives NaN, which LinearSystem rejects
        rows = raw / norms[:, None]
    return LinearSystem(rows=rows, rhs=b / norms, row_scales=norms)


def residual(system: LinearSystem, x) -> np.ndarray:
    """Residual vector A x - b."""
    x = np.asarray(x, dtype=float)
    if x.shape != (system.n,):
        raise DimensionMismatchError(f"x has shape {x.shape}, expected ({system.n},)")
    return system.rows @ x - system.rhs


def _check_row(system: LinearSystem, i: int) -> None:
    if not 0 <= i < system.m:
        raise IndexOutOfRangeError(f"row index {i} outside [0, {system.m})")


def row_residual(system: LinearSystem, i: int, x) -> float:
    """<a_i, x> - b_i for a single row."""
    _check_row(system, i)
    x = np.asarray(x, dtype=float)
    if x.shape != (system.n,):
        raise DimensionMismatchError(f"x has shape {x.shape}, expected ({system.n},)")
    return float(np.dot(system.rows[i], x) - system.rhs[i])
