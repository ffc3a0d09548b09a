import itertools
from fractions import Fraction

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
    DimensionMismatchError,
    InvalidBetaError,
    InvalidGammaError,
    NonFiniteDataError,
    ZeroMatrixError,
    ZeroResidualError,
    ZeroTruthError,
)

from sparsekaczmarz.diagnostics import _max_rank_sums

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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["x", "x_hat"])
def test_mse_refuses_a_non_finite_entry(name, bad):
    # mse(np.ones(3), [nan, 1, 1]) returned NaN
    args = {"x": np.ones(3), "x_hat": np.ones(3)}
    args[name] = np.r_[bad, 1.0, 1.0]
    with pytest.raises(NonFiniteDataError, match=f"^{name} has a NaN or infinite entry"):
        mse(args["x"], args["x_hat"])


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


@pytest.mark.parametrize("residuals", [np.ones((3, 2)), np.array(1.0)], ids=["2-D", "0-d"])
def test_gamma_refuses_input_that_is_not_one_dimensional(residuals):
    with pytest.raises(DimensionMismatchError, match="1-D"):
        gamma_from_residuals(residuals, 1)


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


@pytest.mark.parametrize("kind", ["normal", "spread", "tied"])
def test_max_rank_sums_equal_the_enumerated_subset_maxima(kind):
    rng = np.random.default_rng(21)
    for _ in range(40):
        m = int(rng.integers(1, 9))
        if kind == "normal":
            r = rng.standard_normal(m)
        elif kind == "spread":
            r = rng.standard_normal(m) * 10.0 ** rng.uniform(-150.0, 150.0, size=m)
        else:
            r = rng.choice([0.0, 0.5, -0.5, 1.0, -1.0, 3.0], size=m)
        mags = np.abs(r)
        for beta in range(1, m + 1):
            sq, total = _max_rank_sums(mags, beta)
            # each square is exact, up to one power of two common to all entries
            scales = {Fraction(s) / Fraction(float(v)) ** 2 for s, v in zip(sq, mags) if v != 0.0}
            assert len(scales) <= 1
            for scale in scales:
                assert 1 in (scale.numerator, scale.denominator)
                assert all(k & (k - 1) == 0 for k in (scale.numerator, scale.denominator))
            assert all(s == 0 for s, v in zip(sq, mags) if v == 0.0)
            subsets = itertools.combinations(range(m), beta)
            assert total == sum(max(sq[i] for i in subset) for subset in subsets)


# --------------------------------------------------------- contraction


def test_contraction_rk_rate_at_beta_one():
    # lam=0, beta=1, gamma=1 reduces to 1 - sigma_min^2 / m
    q = contraction_factor(0.6, 0.0, 1.0, 1, 1.0, 10)
    assert q == pytest.approx(1.0 - 0.36 / 10.0, rel=1e-15)


def test_contraction_worked_example():
    q = contraction_factor(np.sqrt(0.5), 1.0, 1.0, 2, 1.5, 3)
    assert q == pytest.approx(26.0 / 27.0, rel=1e-12)
    assert 0.0 < q < 1.0


def test_contraction_worst_case_gamma_is_uniform_row_rate():
    # gamma = beta cancels the subset-size advantage, leaving the
    # uniform-row sparse rate 1 - sigma^2/(2m) * xmin/(xmin + 2 lam)
    sigma, xmin, lam, m = 0.7, 0.4, 1.0, 12
    for beta in (1, 6, 12):
        q = contraction_factor(sigma, lam, xmin, beta, float(beta), m)
        assert q == pytest.approx(
            1.0 - sigma**2 / (2.0 * m) * xmin / (xmin + 2.0 * lam), rel=1e-12
        )


def test_contraction_flags_super_fast_regime():
    q = contraction_factor(4.0, 0.0, 1.0, 2, 1.0, 2)
    assert q < 0.0


def test_contraction_monotone_in_beta_over_gamma():
    # larger beta/gamma (other inputs fixed) means a smaller factor
    qs = [
        contraction_factor(0.5, 1.0, 0.8, beta, 2.0, 12) for beta in (2, 4, 8, 12)
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
    pair = DualPair(x_hat + np.sign(x_hat), 1.0)
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
    pair = DualPair(rng.standard_normal(4), 0.0)
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


@pytest.mark.parametrize(
    "q, error",
    [([np.nan, 0.5], NonFiniteDataError),
     ([0.5, np.inf], NonFiniteDataError),
     ([[0.5, 0.5]], DimensionMismatchError),
     ([0.5 + 1j, 0.5], TypeError),
     ([-0.5, 0.5], ValueError)],
)
def test_envelope_refuses_a_malformed_q_sequence(q, error):
    # a NaN q gave an all-NaN envelope, a 2-D one was flattened, a complex
    # one raised numpy's bare TypeError, and a negative one warned in sqrt
    with pytest.raises(error, match="^q_sequence"):
        noisy_envelope(q, 1.0, np.ones(3), 0.1, 1.0, StepMode.EXACT)


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
    q0 = contraction_factor(report.sigma_min_tilde, 1.0, report.x_min_abs, beta, g0, 14)
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


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_theory_reports_take_one_svd_and_equal_the_validated_pair_path(monkeypatch, lam):
    from sparsekaczmarz import SolverSpec, StoppingRule, build_theory_report, replay_duals, residual, run

    # m <= 20, so every iteration is a checkpoint
    system, x_hat, _ = gaussian_instance(20, 14, 3, np.random.default_rng(13))
    beta = 10
    spec = SolverSpec.sskm(lam, beta, StepMode.EXACT, seed=3, stop=StoppingRule(max_iters=40))
    _, trace = run(system, spec, ground_truth=x_hat)
    svd = np.linalg.svd
    calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or svd(*args, **kw))
    reports = [build_theory_report(system, x_hat, trace, lam, beta) for _ in range(2)]
    assert len(calls) == 1
    monkeypatch.undo()

    # the reference takes a fresh SVD and, at every checkpoint, a validated
    # pair, its residual and error_bound_margin
    sv = smallest_nonzero_singular_value(system.rows)
    xmin = min_abs_nonzero(x_hat)
    gamma, q, margins = (np.full(trace.iterations, np.nan) for _ in range(3))
    for k, dual in enumerate(replay_duals(system, trace)):
        pair = DualPair(dual, lam)
        r = residual(system, pair.primal)
        if np.any(r != 0.0):
            gamma[k] = gamma_from_residuals(r, beta)
            q[k] = contraction_factor(sv.smallest_nonzero, lam, xmin, beta, gamma[k], system.m)
        margins[k] = error_bound_margin(pair, system, x_hat, lam, sv.smallest_nonzero)
    for report in reports:
        assert np.array_equal(report.checkpoints, np.arange(trace.iterations))
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


# --------------------------------------------------------------- bad lam


@pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
@pytest.mark.parametrize(
    "function", ["contraction_factor", "error_bound_margin", "noisy_envelope", "build_theory_report"]
)
def test_diagnostics_refuse_a_bad_lam(function, lam):
    from sparsekaczmarz import IterationTrace, build_theory_report

    system, x_hat, _ = gaussian_instance(12, 8, 2, np.random.default_rng(12))
    # a trace of no iterations: the report thresholds no iterate with lam
    empty = IterationTrace(
        chosen=np.empty(0, dtype=int), step=np.empty(0), residual_norm2=None, mse=None, bregman_to_truth=None
    )
    pair = DualPair(np.zeros(8), 0.0)
    calls = {
        "contraction_factor": lambda: contraction_factor(0.5, lam, 1.0, 2, 1.5, 10),
        "error_bound_margin": lambda: error_bound_margin(pair, system, x_hat, lam, 0.5),
        "noisy_envelope": lambda: noisy_envelope([0.9, 0.8], lam, x_hat, 0.1, 1.0, StepMode.EXACT),
        "build_theory_report": lambda: build_theory_report(system, x_hat, empty, lam, 2),
    }
    with pytest.raises(ValueError, match="lam must be finite and nonnegative"):
        calls[function]()


# ------------------------------------------------------ bad theory numbers


@pytest.mark.parametrize(
    "function, name, bad",
    [("contraction_factor", "sigma_min", bad) for bad in (np.nan, -0.5, np.inf)]
    + [("contraction_factor", "x_min_abs", bad) for bad in (np.nan, -3.0, 0.0, np.inf)]
    + [("error_bound_margin", "sigma_min", bad) for bad in (np.nan, -0.3, 0.0, np.inf)]
    + [("noisy_envelope", name, bad) for name in ("delta_inf", "a_one_two_norm") for bad in (np.nan, -0.5, np.inf)],
)
def test_theory_diagnostics_refuse_bad_numbers(function, name, bad):
    # each would return NaN, read a negative value as its magnitude or divide
    # by zero; the error names the argument, before any arithmetic
    system, x_hat, _ = gaussian_instance(12, 8, 2, np.random.default_rng(12))
    pair = DualPair(np.zeros(8), 1.0)
    args = {"sigma_min": 0.5, "x_min_abs": 1.0, "delta_inf": 0.1, "a_one_two_norm": 1.0, name: bad}
    calls = {
        "contraction_factor": lambda: contraction_factor(args["sigma_min"], 1.0, args["x_min_abs"], 2, 1.5, 10),
        "error_bound_margin": lambda: error_bound_margin(pair, system, x_hat, 1.0, args["sigma_min"]),
        "noisy_envelope": lambda: noisy_envelope(
            [0.9, 0.8], 1.0, x_hat, args["delta_inf"], args["a_one_two_norm"], StepMode.EXACT
        ),
    }
    with pytest.raises(ValueError, match=f"^{name} must be finite and"):
        calls[function]()


def test_theory_diagnostics_take_their_zero_edges():
    # a zero smallest singular value at lam = 0, where no x_min_abs is read,
    # and no noise: each is a value the theory allows
    assert contraction_factor(0.0, 0.0, float("nan"), 2, 1.5, 10) == 1.0
    assert contraction_factor(0.0, 1.0, 1.0, 2, 1.5, 10) == 1.0
    env = noisy_envelope([0.25], 0.0, np.array([1.0, 0.0]), 0.0, 0.0, StepMode.EXACT)
    assert env.tolist() == [0.5]


# ------------------------------------------------------- bad ground truth


_BAD_TRUTHS = {
    "length 1": (lambda x: x[:1], DimensionMismatchError),
    "length n+1": (lambda x: np.r_[x, 1.0], DimensionMismatchError),
    "2-D": (lambda x: x[:, None], DimensionMismatchError),
    "complex": (lambda x: x + np.r_[1j, np.zeros(x.size - 1)], TypeError),
    "NaN": (lambda x: np.r_[np.nan, x[1:]], NonFiniteDataError),
}
# the functions that know n (mse from its x); the others take a vector of any length
_SIZED = ("error_bound_margin", "build_theory_report", "mse")


@pytest.mark.parametrize(
    "function,case",
    [(f, case) for f in _SIZED + ("noisy_envelope", "min_abs_nonzero") for case in _BAD_TRUTHS
     if f in _SIZED or not case.startswith("length")],
)
def test_diagnostics_refuse_a_malformed_ground_truth_before_any_work(monkeypatch, function, case):
    # a length-1 truth had broadcast into a false "violated" margin, a
    # complex one had lost its imaginary part, and a NaN had given NaN margins
    from sparsekaczmarz import SolverSpec, StoppingRule, build_theory_report, diagnostics, run

    system, x_hat, _ = gaussian_instance(40, 20, 3, np.random.default_rng(4))
    spec = SolverSpec.sskm(1.0, 20, StepMode.EXACT, seed=1, stop=StoppingRule(max_iters=30))
    pair, trace = run(system, spec, ground_truth=x_hat)

    def no_work(*args):
        raise AssertionError("worked before the ground-truth check")

    for name in ("residual", "smallest_nonzero_singular_value"):
        monkeypatch.setattr(diagnostics, name, no_work)
    make, error = _BAD_TRUTHS[case]
    bad = make(x_hat)
    calls = {
        "error_bound_margin": lambda: error_bound_margin(pair, system, bad, 1.0, 0.5),
        "build_theory_report": lambda: build_theory_report(system, bad, trace, 1.0, 20),
        "noisy_envelope": lambda: noisy_envelope([0.9, 0.8], 1.0, bad, 0.1, 1.0, StepMode.EXACT),
        "min_abs_nonzero": lambda: min_abs_nonzero(bad),
        "mse": lambda: mse(pair.primal, bad),
    }
    with pytest.raises(error, match="x_hat"):
        calls[function]()
