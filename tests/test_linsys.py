import tracemalloc
import warnings

import numpy as np
import pytest

from sparsekaczmarz import LinearSystem, inexact_step, normalize_rows, residual
from sparsekaczmarz.errors import (
    DimensionMismatchError,
    NonFiniteDataError,
    ZeroRowError,
)
from sparsekaczmarz.linsys import _NORM_BAND, _row_norms

from oracles import naive_residual


def test_normalize_scales_rows_and_rhs():
    system = normalize_rows([[3.0, 4.0]], [5.0])
    assert np.allclose(system.rows, [[0.6, 0.8]])
    assert np.allclose(system.rhs, [1.0])
    assert np.allclose(system.row_scales, [5.0])


def test_normalize_unit_rows_unchanged():
    system = normalize_rows([[1.0, 0.0], [0.0, 1.0]], [2.0, 3.0])
    assert np.array_equal(system.rows, np.eye(2))
    assert np.array_equal(system.rhs, [2.0, 3.0])
    assert np.array_equal(system.row_scales, [1.0, 1.0])


def test_normalize_rejects_zero_row():
    with pytest.raises(ZeroRowError) as exc:
        normalize_rows([[0.0, 0.0]], [1.0])
    assert exc.value.row_index == 0


@pytest.mark.parametrize(
    "raw, b",
    [
        ([[1.0, 0.0], [np.nan, 1.0]], [1.0, 2.0]),
        ([[1.0, 0.0], [np.inf, 1.0]], [1.0, 2.0]),
        ([[1.0, 0.0], [0.0, 1.0]], [1.0, np.inf]),
        ([[1.0, 0.0], [0.0, 1.0]], [np.nan, 2.0]),
    ],
)
def test_normalize_rejects_non_finite_data(raw, b):
    with pytest.raises(NonFiniteDataError):
        normalize_rows(raw, b)


@pytest.mark.parametrize(
    "scale, error",
    [(np.nan, NonFiniteDataError), (np.inf, NonFiniteDataError), (-np.inf, NonFiniteDataError),
     (0.0, ZeroRowError), (-1.0, ZeroRowError)],
)
def test_system_rejects_a_bad_row_scale(scale, error):
    with pytest.raises(error, match="row 1"):
        LinearSystem(rows=np.eye(2), rhs=[1.0, 2.0], row_scales=[1.0, scale])


@pytest.mark.parametrize("scales", [[1.0, -1.0], [0.0, -1.0]])
def test_a_bad_row_scale_names_the_first_bad_row_and_its_scale(scales):
    first = next(i for i, scale in enumerate(scales) if scale <= 0.0)
    with pytest.raises(ZeroRowError, match=f"row {first} has row scale {scales[first]!r}") as exc:
        LinearSystem(rows=np.eye(len(scales)), rhs=np.ones(len(scales)), row_scales=scales)
    assert exc.value.row_index == first


def test_with_rhs_rejects_non_finite_rhs():
    system = normalize_rows([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0])
    with pytest.raises(NonFiniteDataError):
        system.with_rhs([1.0, np.nan])


@pytest.mark.parametrize("where", ["raw_rows", "raw_rhs"])
@pytest.mark.parametrize("as_list", [False, True])
def test_normalize_refuses_complex_input(where, as_list):
    # complex rows were cut to their real part with only a ComplexWarning, and
    # a list with a complex rhs entry failed in numpy's float()
    raw, b = np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, 2.0])
    if where == "raw_rows":
        raw = np.array([[1 + 1j, 2], [3, 4j]])
    else:
        b = np.array([1 + 1j, 2])
    if as_list:
        raw, b = raw.tolist(), b.tolist()
    with pytest.raises(TypeError, match=f"{where} must be real"):
        normalize_rows(raw, b)


@pytest.mark.parametrize("where", ["rows", "rhs", "row_scales"])
def test_system_refuses_complex_input(where):
    # even with no imaginary part: the dtype is refused, before any cast
    fields = {"rows": np.eye(2), "rhs": np.ones(2), "row_scales": np.ones(2)}
    fields[where] = fields[where].astype(complex)
    with pytest.raises(TypeError, match=f"{where} must be real"):
        LinearSystem(**fields)


def test_with_rhs_refuses_a_complex_rhs():
    system = normalize_rows([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0])
    with pytest.raises(TypeError, match="rhs must be real"):
        system.with_rhs([1.0, 2j])


def test_with_rhs_shares_rows():
    # the noisy system is built as any other, and shares the read-only rows
    rng = np.random.default_rng(3)
    system = normalize_rows(rng.standard_normal((6, 4)), rng.standard_normal(6))
    noisy = system.with_rhs(system.rhs + 0.1)
    assert noisy.rows is system.rows
    assert np.array_equal(noisy.rhs, system.rhs + 0.1) and not noisy.rhs.flags.writeable
    with pytest.raises(DimensionMismatchError):
        system.with_rhs(np.ones(5))


def test_a_system_with_no_rows_is_refused():
    with pytest.raises(DimensionMismatchError, match="m=0"):
        normalize_rows(np.empty((0, 5)), np.empty(0))
    with pytest.raises(DimensionMismatchError, match="m=0"):
        LinearSystem(rows=np.empty((0, 5)), rhs=np.empty(0), row_scales=np.empty(0))


def test_system_keeps_no_view_of_the_callers_rhs_and_scales():
    rows, rhs, scales = np.array([[0.6, 0.8], [1.0, 0.0]]), np.array([1.0, 2.0]), np.array([5.0, 3.0])
    system = LinearSystem(rows=rows, rhs=rhs, row_scales=scales)
    rhs[0] = 7.0
    scales[1] = -2.0
    assert np.array_equal(system.rhs, [1.0, 2.0])
    assert np.array_equal(system.row_scales, [5.0, 3.0])
    assert not system.rhs.flags.writeable and not system.row_scales.flags.writeable


def test_normalize_rejects_mismatched_rhs():
    with pytest.raises(DimensionMismatchError):
        normalize_rows([[1.0, 0.0]], [1.0, 2.0])


def test_rows_are_unit_after_normalization():
    rng = np.random.default_rng(3)
    system = normalize_rows(rng.standard_normal((20, 7)), rng.standard_normal(20))
    norms = np.linalg.norm(system.rows, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_system_is_immutable():
    system = normalize_rows([[3.0, 4.0]], [5.0])
    with pytest.raises(ValueError):
        system.rows[0, 0] = 9.0


def test_residual_exact_solution():
    system = normalize_rows(np.eye(2), [1.0, 1.0])
    assert np.array_equal(residual(system, [1.0, 1.0]), [0.0, 0.0])


def test_residual_single_row():
    system = normalize_rows([[1.0, 0.0]], [1.0])
    assert np.array_equal(residual(system, [3.0, 4.0]), [2.0])


def test_residual_matches_naive_oracle():
    rng = np.random.default_rng(11)
    raw = rng.standard_normal((5, 3))
    rhs = rng.standard_normal(5)
    system = normalize_rows(raw, rhs)
    x = rng.standard_normal(3)
    expected = naive_residual(system.rows, system.rhs, x)
    assert np.max(np.abs(residual(system, x) - expected)) < 1e-15


def test_residual_rejects_bad_shape():
    system = normalize_rows([[1.0, 0.0]], [1.0])
    with pytest.raises(DimensionMismatchError):
        residual(system, [1.0, 2.0, 3.0])


def test_inexact_step_on_each_row_equals_the_full_residual():
    # the residual of one row is the inexact step on it
    rng = np.random.default_rng(5)
    system = normalize_rows(rng.standard_normal((8, 4)), rng.standard_normal(8))
    x = rng.standard_normal(4)
    full = residual(system, x)
    for i in range(8):
        assert inexact_step(x, system.rows[i], system.rhs[i]) == pytest.approx(full[i], abs=1e-14)


def test_normalization_preserves_rowwise_solution_set():
    rng = np.random.default_rng(17)
    raw = rng.standard_normal((10, 6)) * rng.uniform(0.1, 40.0, size=(10, 1))
    rhs = rng.standard_normal(10)
    system = normalize_rows(raw, rhs)
    x = rng.standard_normal(6)
    scaled_back = residual(system, x) * system.row_scales
    original = raw @ x - rhs
    assert np.max(np.abs(scaled_back - original) / (1.0 + np.abs(original))) < 1e-12


def test_residual_linearity_in_x():
    rng = np.random.default_rng(23)
    system = normalize_rows(rng.standard_normal((6, 4)), rng.standard_normal(6))
    x = rng.standard_normal(4)
    alpha = 2.75
    lhs = residual(system, alpha * x)
    rhs_vec = alpha * (system.rows @ x) - system.rhs
    assert np.max(np.abs(lhs - rhs_vec)) < 1e-12


def test_direct_construction_requires_unit_rows():
    with pytest.raises(DimensionMismatchError):
        LinearSystem(rows=np.array([[3.0, 4.0]]), rhs=np.array([5.0]), row_scales=np.array([1.0]))


# ------------------------------------------------------------ row norms


@pytest.mark.parametrize("n", [1, 7, 8, 129, 70000])
def test_row_norms_equal_numpy_bit_for_bit(n):
    # bands of at most _NORM_BAND entries (one row past it) summed by numpy's
    # pairwise reduce: the norms are np.linalg.norm's on C-ordered and
    # row-strided input, with m no multiple of the band and row scales from
    # 1e-8 to 1e8
    rng = np.random.default_rng(n)
    height = max(1, _NORM_BAND // n)
    m = 2 * height + 3 if height > 1 else 5
    a = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-8, 8, size=(m, 1))
    for rows in (a, a[::2], a[1::3]):
        expected = np.linalg.norm(rows, axis=1)
        assert _row_norms(rows).tobytes() == expected.tobytes()


@pytest.mark.parametrize("strict", [False, True], ids=["default", "warnings-as-errors"])
def test_normalize_accepts_finite_rows_whose_squares_overflow(strict):
    # the squares of row 0 overflow, its norm does not: the row is measured
    # again by its largest entry, and row 1 keeps np.linalg.norm's bits
    with warnings.catch_warnings():
        if strict:
            warnings.simplefilter("error", RuntimeWarning)
        system = normalize_rows([[1e200, 1e200], [1.0, 2.0]], [1.0, 1.0])
    assert system.row_scales[0] == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)
    assert system.row_scales[1] == np.linalg.norm([1.0, 2.0])
    assert np.allclose(system.rows, [[2**-0.5, 2**-0.5], [5**-0.5, 2 * 5**-0.5]], rtol=1e-15, atol=0)
    assert system.rhs[0] == pytest.approx(1.0 / (np.sqrt(2.0) * 1e200), rel=1e-15)


@pytest.mark.parametrize(
    "row",
    [[1e200, np.nan], [1e200, np.inf], [np.inf, -np.inf], [1.5e308, 1.5e308]],
    ids=["nan", "inf", "two-infs", "norm-past-the-range"],
)
def test_normalize_rejects_a_non_finite_row_whose_squares_overflow(row):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteDataError, match="row 1"):
            normalize_rows([[1.0, 0.0], row], [1.0, 1.0])


def test_normalize_leaves_the_callers_array_unmodified_and_writeable():
    rng = np.random.default_rng(5)
    raw, b = rng.standard_normal((30, 9)), rng.standard_normal(30)
    before_raw, before_b = raw.copy(), b.copy()
    system = normalize_rows(raw, b)
    assert not np.shares_memory(system.rows, raw)
    assert raw.flags.writeable and b.flags.writeable
    assert raw.tobytes() == before_raw.tobytes() and b.tobytes() == before_b.tobytes()


# building a system allocates no m x n temporary: at 2000 x 1000 (15.3 MiB)
# each peak stays within one new matrix, or none, and 1 MiB
_FOOTPRINT_SHAPE = (2000, 1000)
_MIB = 2**20


def _peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_normalize_rows_peaks_at_one_new_matrix():
    rng = np.random.default_rng(9)
    raw, b = rng.standard_normal(_FOOTPRINT_SHAPE), rng.standard_normal(_FOOTPRINT_SHAPE[0])
    assert _peak(lambda: normalize_rows(raw, b)) <= raw.nbytes + _MIB


def test_building_or_rebuilding_a_unit_system_allocates_no_matrix():
    rng = np.random.default_rng(10)
    system = normalize_rows(rng.standard_normal(_FOOTPRINT_SHAPE), rng.standard_normal(_FOOTPRINT_SHAPE[0]))
    new_rhs = rng.standard_normal(system.m)
    assert _peak(lambda: LinearSystem(rows=system.rows, rhs=system.rhs, row_scales=system.row_scales)) <= _MIB
    assert _peak(lambda: system.with_rhs(new_rhs)) <= _MIB
