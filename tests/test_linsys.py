import numpy as np
import pytest

from sparsekaczmarz import LinearSystem, normalize_rows, residual, row_residual
from sparsekaczmarz.errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    NonFiniteDataError,
    ZeroRowError,
)

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


def test_with_rhs_rejects_non_finite_rhs():
    system = normalize_rows([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0])
    with pytest.raises(NonFiniteDataError):
        system.with_rhs([1.0, np.nan])


def test_with_rhs_shares_rows_and_computed_singular_values(monkeypatch):
    # the copy shares the checked rows and scales, and one SVD serves both systems
    rng = np.random.default_rng(3)
    system = normalize_rows(rng.standard_normal((6, 4)), rng.standard_normal(6))
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(args) or svd(*args, **kwargs))
    early = system.with_rhs(system.rhs)
    svals = system.singular_values
    noisy = system.with_rhs(system.rhs + 0.1)
    assert noisy.singular_values is svals and len(calls) == 1
    assert noisy.rows is system.rows and noisy.row_scales is system.row_scales
    assert np.array_equal(noisy.rhs, system.rhs + 0.1) and not noisy.rhs.flags.writeable
    # a copy made before the SVD computes its own on first use
    assert "singular_values" not in early.__dict__
    assert np.array_equal(early.singular_values, svals) and len(calls) == 2
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


def test_row_residual_on_satisfied_row():
    system = normalize_rows([[1.0, 0.0]], [1.0])
    assert row_residual(system, 0, [1.0, 5.0]) == 0.0


def test_row_residual_value():
    system = normalize_rows([[0.6, 0.8]], [0.0])
    assert row_residual(system, 0, [1.0, 1.0]) == pytest.approx(1.4, abs=1e-15)


def test_row_residual_matches_full_residual():
    rng = np.random.default_rng(5)
    system = normalize_rows(rng.standard_normal((8, 4)), rng.standard_normal(8))
    x = rng.standard_normal(4)
    full = residual(system, x)
    for i in range(8):
        assert row_residual(system, i, x) == pytest.approx(full[i], abs=1e-14)


def test_row_residual_rejects_bad_index():
    system = normalize_rows([[1.0, 0.0]], [1.0])
    with pytest.raises(IndexOutOfRangeError):
        row_residual(system, 1, [0.0, 0.0])


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
