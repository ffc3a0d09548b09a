import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sparsekaczmarz import (
    DualPair,
    StepMode,
    contraction_factor,
    density,
    error_bound_margin,
    gamma_from_residuals,
    gamma_k,
    gaussian_instance,
    min_abs_nonzero,
    mse,
    noisy_envelope,
    normalize_rows,
    one_two_norm,
    smallest_nonzero_singular_value,
)
from sparsekaczmarz.errors import (
    AllZeroError,
    InvalidBetaError,
    InvalidGammaError,
    NonFiniteDataError,
    ZeroMatrixError,
    ZeroResidualError,
    ZeroTruthError,
)

from oracles import (
    gamma_bruteforce,
    gamma_order_statistics,
    gamma_sorted,
    max_rank_weights,
    singular_values_via_gram,
)


# ----------------------------------------------------------------- mse


def test_mse_values():
    x_hat = np.array([1.0, -2.0, 0.5])
    assert mse(x_hat, x_hat) == 0.0
    assert mse(np.zeros(3), x_hat) == pytest.approx(1.0, rel=1e-15)
    assert mse(2.0 * x_hat, x_hat) == pytest.approx(1.0, rel=1e-15)


def test_mse_rejects_zero_truth():
    with pytest.raises(ZeroTruthError):
        mse(np.ones(2), np.zeros(2))


# ------------------------------------------------------- singular values


def test_singular_values_identity():
    sv = smallest_nonzero_singular_value(np.eye(3))
    assert sv.smallest_nonzero == pytest.approx(1.0)
    assert sv.smallest == pytest.approx(1.0)
    assert sv.largest == pytest.approx(1.0)


def test_singular_values_excludes_zero():
    sv = smallest_nonzero_singular_value(np.diag([2.0, 0.0]))
    assert sv.smallest_nonzero == pytest.approx(2.0)
    assert sv.smallest == pytest.approx(0.0, abs=1e-14)
    assert sv.cond == np.inf


def test_singular_values_match_gram_eigenvalues():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 4))
    sv = smallest_nonzero_singular_value(a)
    ref = singular_values_via_gram(a)
    assert sv.largest == pytest.approx(ref[0], abs=1e-8)
    assert sv.smallest == pytest.approx(ref[-1], abs=1e-8)


def test_singular_values_zero_matrix():
    with pytest.raises(ZeroMatrixError):
        smallest_nonzero_singular_value(np.zeros((2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_singular_values_refuse_a_non_finite_entry(bad):
    # without the check the SVD's NaN values leave no nonzero singular value:
    # an IndexError, not the library's error
    a = np.eye(3)
    a[1, 2] = bad
    with pytest.raises(NonFiniteDataError):
        smallest_nonzero_singular_value(a)


# ------------------------------------------------------- min abs nonzero


def test_min_abs_nonzero():
    assert min_abs_nonzero([0.0, -0.5, 2.0]) == 0.5
    assert min_abs_nonzero([3.0]) == 3.0
    assert min_abs_nonzero([1e-15, 1.0]) == 1.0


def test_min_abs_nonzero_all_zero():
    with pytest.raises(AllZeroError):
        min_abs_nonzero([0.0, 1e-14])


# ----------------------------------------------------------------- gamma


def test_gamma_single_nonzero_residual_is_exactly_one():
    r = np.zeros(9)
    r[4] = 2.7
    for beta in (1, 3, 6, 9):
        assert gamma_from_residuals(r, beta) == 1.0


def test_gamma_constant_magnitude_is_exactly_beta():
    signs = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
    for beta in (1, 2, 4, 6):
        assert gamma_from_residuals(signs, beta) == float(beta)
    # integer arithmetic keeps any constant magnitude exact
    for mag in (0.5, 0.1, 3.7e-200, 1e200):
        assert gamma_from_residuals(mag * signs, 3) == 3.0


def test_gamma_worked_example():
    assert gamma_from_residuals(np.array([1.0, 2.0, 2.0]), 2) == 1.5


def test_gamma_matches_bruteforce_and_order_statistics():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = int(rng.integers(2, 10))
        beta = int(rng.integers(1, m + 1))
        r = rng.standard_normal(m)
        gamma = gamma_from_residuals(r, beta)
        assert gamma == pytest.approx(gamma_bruteforce(r, beta), rel=1e-12)
        assert gamma == pytest.approx(gamma_order_statistics(r, beta), rel=1e-12)


def test_gamma_range():
    rng = np.random.default_rng(2)
    for _ in range(200):
        m = int(rng.integers(2, 12))
        beta = int(rng.integers(1, m + 1))
        assert 1.0 <= gamma_from_residuals(rng.standard_normal(m), beta) <= beta + 1e-12


@pytest.mark.parametrize("beta", [True, 2.5, 0, 5])
def test_gamma_refuses_a_bad_beta(beta):
    # m = 4: a bool is no count, 2.5 no integer, and 0 and 5 lie outside [1, m]
    with pytest.raises(InvalidBetaError, match="beta"):
        gamma_from_residuals(np.array([1.0, -2.0, 0.5, 3.0]), beta)


def test_gamma_zero_residual():
    with pytest.raises(ZeroResidualError):
        gamma_from_residuals(np.zeros(4), 2)


def test_gamma_exact_at_astronomical_subset_counts():
    rng = np.random.default_rng(3)
    r = rng.standard_normal(60)
    assert gamma_from_residuals(r, 30) == pytest.approx(gamma_order_statistics(r, 30), rel=1e-12)
    r = rng.standard_normal(2000)
    ref = gamma_sorted(r, 1000, max_rank_weights(2000, 1000))
    assert gamma_from_residuals(r, 1000) == pytest.approx(ref, rel=1e-12)


def test_gamma_rejects_non_finite_residuals():
    for bad in ([np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf]):
        with pytest.raises(NonFiniteDataError):
            gamma_from_residuals(bad, 1)


def test_gamma_does_not_overflow_on_finite_residuals():
    # the squares of 1e200 overflow a float, not the integer mantissas
    gamma = gamma_from_residuals([1e200, 1.0], 2)
    assert np.isfinite(gamma) and 1.0 <= gamma <= 2.0
    assert gamma_from_residuals([1e200, -1e200, 1e-300], 2) == pytest.approx(4.0 / 3.0, rel=1e-15)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda m: st.tuples(
            st.lists(st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 3.0]), min_size=m, max_size=m),
            st.integers(1, m),
        )
    )
)
def test_gamma_property_matches_bruteforce(r_beta):
    r, beta = r_beta
    assume(any(r))
    gamma = gamma_from_residuals(r, beta)
    assert gamma == pytest.approx(gamma_bruteforce(r, beta), rel=1e-12)
    assert 1.0 <= gamma <= beta


def test_gamma_k_uses_system_residual():
    rng = np.random.default_rng(4)
    system, x_hat, _ = gaussian_instance(8, 5, 2, rng)
    x = rng.standard_normal(5)
    r = system.rows @ x - system.rhs
    assert gamma_k(system, x, 3) == pytest.approx(gamma_from_residuals(r, 3), rel=1e-14)


# --------------------------------------------------------- contraction


def test_contraction_rk_rate_at_beta_one():
    # lam=0, beta=1, gamma=1 reduces to 1 - sigma_min^2 / m
    q = contraction_factor(0.6, 0.0, 1.0, 1, 1.0, 10)
    assert q.value == pytest.approx(1.0 - 0.36 / 10.0, rel=1e-15)


def test_contraction_worked_example():
    q = contraction_factor(np.sqrt(0.5), 1.0, 1.0, 2, 1.5, 3)
    assert q.value == pytest.approx(26.0 / 27.0, rel=1e-12)
    assert q.in_unit_interval


def test_contraction_worst_case_gamma_is_uniform_row_rate():
    # gamma = beta cancels the subset-size advantage, leaving the
    # uniform-row sparse rate 1 - sigma^2/(2m) * xmin/(xmin + 2 lam)
    sigma, xmin, lam, m = 0.7, 0.4, 1.0, 12
    for beta in (1, 6, 12):
        q = contraction_factor(sigma, lam, xmin, beta, float(beta), m)
        assert q.value == pytest.approx(
            1.0 - sigma**2 / (2.0 * m) * xmin / (xmin + 2.0 * lam), rel=1e-12
        )


def test_contraction_flags_super_fast_regime():
    q = contraction_factor(4.0, 0.0, 1.0, 2, 1.0, 2)
    assert q.value < 0.0
    assert not q.in_unit_interval


def test_contraction_monotone_in_beta_over_gamma():
    # larger beta/gamma (other inputs fixed) means a smaller factor
    qs = [
        contraction_factor(0.5, 1.0, 0.8, beta, 2.0, 12).value for beta in (2, 4, 8, 12)
    ]
    assert all(a > b for a, b in zip(qs, qs[1:]))


def test_contraction_rejects_bad_gamma():
    with pytest.raises(InvalidGammaError):
        contraction_factor(0.5, 1.0, 1.0, 2, 5.0, 10)
    with pytest.raises(InvalidGammaError):
        contraction_factor(0.5, 1.0, 1.0, 2, 0.5, 10)


@pytest.mark.parametrize("beta", [True, 2.5, 0, 11])
def test_contraction_refuses_a_bad_beta(beta):
    # beta is checked before gamma: gamma = 1 is in range for any beta >= 1
    with pytest.raises(InvalidBetaError, match="beta"):
        contraction_factor(0.5, 1.0, 1.0, beta, 1.0, 10)


# --------------------------------------------------------- error bound


def test_error_bound_margin_zero_at_truth():
    rng = np.random.default_rng(5)
    system, x_hat, _ = gaussian_instance(12, 6, 2, rng)
    # a dual that thresholds (essentially) onto the truth
    pair = DualPair.from_dual(x_hat + np.sign(x_hat), 1.0)
    assert np.allclose(pair.primal, x_hat)
    margin = error_bound_margin(
        pair, system, x_hat, 1.0, smallest_nonzero_singular_value(system).smallest_nonzero
    )
    assert abs(margin) < 1e-9


def test_error_bound_margin_orthonormal_equality_at_lam_zero():
    # for orthonormal square A both sides equal half the squared error
    system = normalize_rows(np.eye(4), np.array([0.3, -1.0, 2.0, 0.7]))
    rng = np.random.default_rng(6)
    x_hat = system.rhs.copy()
    pair = DualPair.from_dual(rng.standard_normal(4), 0.0)
    margin = error_bound_margin(pair, system, x_hat, 0.0, 1.0)
    assert margin == pytest.approx(0.0, abs=1e-12)


def test_error_bound_margin_nonnegative_along_runs():
    from sparsekaczmarz import SolverSpec, StoppingRule, run

    rng = np.random.default_rng(7)
    system, x_hat, _ = gaussian_instance(15, 8, 2, rng)
    sv = smallest_nonzero_singular_value(system)
    spec = SolverSpec.sskm(1.0, 7, seed=3, stop=StoppingRule(max_iters=150))
    pair, trace = run(system, spec, ground_truth=x_hat, residuals=True)
    # reconstruct margins from trace columns: rhs_coef * ||r||^2 - D
    xmin = min_abs_nonzero(x_hat)
    coef = (xmin + 2.0) / (xmin * sv.smallest_nonzero**2)
    margins = coef * trace.residual_norm2 - trace.bregman_to_truth
    assert np.min(margins) >= -1e-9


# ------------------------------------------------------------- envelope


def test_envelope_first_step_value():
    env = noisy_envelope([0.9], 1.0, np.array([1.0, 0.0]), 0.0, 1.0, StepMode.EXACT)
    assert env[0] == pytest.approx(np.sqrt(2.7), rel=1e-15)


def test_envelope_noiseless_reduction():
    rng = np.random.default_rng(8)
    q = rng.uniform(0.7, 0.99, size=20)
    x_hat = rng.standard_normal(6)
    lam = 1.0
    for mode in (StepMode.EXACT, StepMode.INEXACT):
        env = noisy_envelope(q, lam, x_hat, 0.0, 3.0, mode)
        c0 = 2.0 * lam * np.abs(x_hat).sum() + np.dot(x_hat, x_hat)
        assert np.allclose(env, np.sqrt(np.cumprod(q) * c0))


def test_envelope_exact_mode_dominates_inexact():
    rng = np.random.default_rng(9)
    q = rng.uniform(0.8, 0.99, size=30)
    x_hat = rng.standard_normal(5)
    inexact = noisy_envelope(q, 1.0, x_hat, 0.2, 4.0, StepMode.INEXACT)
    exact = noisy_envelope(q, 1.0, x_hat, 0.2, 4.0, StepMode.EXACT)
    assert np.all(exact >= inexact)


def test_one_two_norm():
    system = normalize_rows([[3.0, 4.0], [1.0, 0.0]], [1.0, 1.0])
    assert one_two_norm(system) == pytest.approx(1.4, rel=1e-15)


# ---------------------------------------------------------- theory report


def test_build_theory_report_along_run():
    from sparsekaczmarz import SolverSpec, StoppingRule, build_theory_report, run

    rng = np.random.default_rng(11)
    system, x_hat, _ = gaussian_instance(14, 9, 2, rng)
    beta = 7
    spec = SolverSpec.sskm(1.0, beta, seed=2, stop=StoppingRule(max_iters=60))
    _, trace = run(system, spec, ground_truth=x_hat)
    report = build_theory_report(system, x_hat, trace, lam=1.0, beta=beta)
    assert report.sigma_min_tilde > 0.0
    assert report.x_min_abs > 0.0
    assert report.checkpoints.shape == (60,)  # tiny system: every iteration
    live = ~np.isnan(report.gamma)
    assert np.all(report.gamma[live] >= 1.0) and np.all(report.gamma[live] <= beta + 1e-12)
    assert np.all((report.q[live] > 0.0) & (report.q[live] < 1.0))
    assert np.nanmin(report.bound_margins) >= -1e-9
    # q must agree with a direct recomputation at the first checkpoint
    g0 = gamma_from_residuals(system.rows @ np.zeros(9) - system.rhs, beta)
    q0 = contraction_factor(report.sigma_min_tilde, 1.0, report.x_min_abs, beta, g0, 14).value
    assert report.q[0] == pytest.approx(q0, rel=1e-14)


def test_replay_duals_rebuilds_the_run():
    from sparsekaczmarz import SolverSpec, StepMode, StoppingRule, replay_duals, run

    rng = np.random.default_rng(12)
    system, x_hat, _ = gaussian_instance(30, 20, 3, rng)
    spec = SolverSpec.sskm(1.0, 10, StepMode.EXACT, seed=5, stop=StoppingRule(max_iters=40))
    pair, trace = run(system, spec, ground_truth=x_hat)
    duals = list(replay_duals(system, trace))
    assert len(duals) == trace.iterations
    assert np.array_equal(duals[0], np.zeros(20))
    last = duals[-1] - trace.step[-1] * system.rows[trace.chosen[-1]]
    assert np.array_equal(last, pair.dual)
    assert not any(np.shares_memory(a, b) for a, b in zip(duals, duals[1:]))


def test_build_theory_report_checkpoints_keep_their_labels():
    from sparsekaczmarz import SolverSpec, StoppingRule, build_theory_report, run

    rng = np.random.default_rng(11)
    system, x_hat, _ = gaussian_instance(14, 9, 2, rng)
    spec = SolverSpec.sskm(1.0, 7, seed=2, stop=StoppingRule(max_iters=60))
    _, trace = run(system, spec, ground_truth=x_hat)
    full = build_theory_report(system, x_hat, trace, lam=1.0, beta=7)
    some = build_theory_report(system, x_hat, trace, lam=1.0, beta=7, checkpoints=[50, 5, 20, 5])
    assert some.checkpoints.tolist() == [5, 20, 50]
    for name in ("gamma", "q", "bound_margins"):
        assert np.array_equal(getattr(some, name), getattr(full, name)[[5, 20, 50]], equal_nan=True)
    for bad in ([60], [-1], [5, 5, 1000]):
        with pytest.raises(ValueError):
            build_theory_report(system, x_hat, trace, lam=1.0, beta=7, checkpoints=bad)


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_theory_reports_take_one_svd_and_equal_the_validated_pair_path(monkeypatch, lam):
    from sparsekaczmarz import SolverSpec, StoppingRule, build_theory_report, replay_duals, residual, run

    system, x_hat, _ = gaussian_instance(30, 20, 3, np.random.default_rng(13))
    beta = 10
    spec = SolverSpec.sskm(lam, beta, StepMode.EXACT, seed=3, stop=StoppingRule(max_iters=40))
    _, trace = run(system, spec, ground_truth=x_hat)
    checkpoints = np.arange(trace.iterations)
    svd = np.linalg.svd
    calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or svd(*args, **kw))
    reports = [build_theory_report(system, x_hat, trace, lam, beta, checkpoints=checkpoints) for _ in range(2)]
    assert len(calls) == 1
    monkeypatch.undo()

    # the reference takes a fresh SVD and, at every checkpoint, a validated
    # pair, its residual and error_bound_margin
    sv = smallest_nonzero_singular_value(system.rows)
    xmin = min_abs_nonzero(x_hat)
    gamma, q, margins = (np.full(trace.iterations, np.nan) for _ in range(3))
    for k, dual in enumerate(replay_duals(system, trace)):
        pair = DualPair.from_dual(dual, lam)
        r = residual(system, pair.primal)
        if np.any(r != 0.0):
            gamma[k] = gamma_from_residuals(r, beta)
            q[k] = contraction_factor(sv.smallest_nonzero, lam, xmin, beta, gamma[k], system.m).value
        margins[k] = error_bound_margin(pair, system, x_hat, lam, sv.smallest_nonzero)
    for report in reports:
        assert (report.sigma_min_tilde, report.sigma_min, report.sigma_max) == sv
        assert report.x_min_abs == xmin
        assert np.array_equal(report.gamma, gamma, equal_nan=True)
        assert np.array_equal(report.q, q, equal_nan=True)
        assert np.array_equal(report.bound_margins, margins)


# --------------------------------------------------------------- density


def test_density_values():
    assert density(np.eye(3)) == pytest.approx(1.0 / 3.0)
    assert density(np.array([[1.0, 2.0], [3.0, 4.0]])) == 1.0


def test_density_matches_hand_count():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((30, 20))
    a[rng.random((30, 20)) < 0.8] = 0.0
    count = sum(1 for i in range(30) for j in range(20) if a[i, j] != 0.0)
    assert density(a) == pytest.approx(count / 600.0, rel=1e-15)
