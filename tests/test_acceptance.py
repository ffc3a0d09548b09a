"""End-to-end acceptance suite.

Each test checks one numbered criterion at its stated tolerance and prints a
single PASS/FAIL line (visible with ``pytest -s``). Criteria 5, 6, and 10
share one 200-trial study of the greedy solver on a fixed small instance.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import stats

import sparsekaczmarz as sk
from sparsekaczmarz import (
    DualPair,
    SamplerConfig,
    SelectionRule,
    SolverSpec,
    StepMode,
    StoppingRule,
    bregman_distance,
    child_rng,
    child_seed,
    contraction_factor,
    error_bound_margin,
    exact_step,
    gamma_from_residuals,
    gaussian_instance,
    init_state,
    min_abs_nonzero,
    noisy_envelope,
    one_two_norm,
    read_matrix_market,
    residual,
    run,
    sample_subset,
    smallest_nonzero_singular_value,
    soft_threshold,
    step_once,
    write_matrix_market,
)
from oracles import (
    bisection_exact_step,
    conjugate_sup_oracle,
    conjugate_value,
    gamma_sorted,
    max_rank_weights,
    pick_index,
)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {name} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: per-iteration Bregman decrease, both step modes
# ---------------------------------------------------------------------------


def test_c01_bregman_monotonicity():
    start = time.perf_counter()
    m, n, k, lam, beta = 60, 40, 5, 1.0, 30
    worst = np.inf
    for inst in range(50):
        system, x_hat, _ = gaussian_instance(m, n, k, child_rng(31, inst, 0))
        for mode_id, mode in ((0, StepMode.INEXACT), (1, StepMode.EXACT)):
            rng = np.random.default_rng(child_seed(31, inst, 2, mode_id))
            pair = init_state(n, lam)
            d_cur = bregman_distance(pair, x_hat)
            for _ in range(120):
                r = residual(system, pair.primal)
                subset = sample_subset(m, beta, rng)
                i = int(subset[int(np.argmax(r[subset] ** 2))])
                pair = step_once(pair, system, i, mode)
                d_next = bregman_distance(pair, x_hat)
                worst = min(worst, d_cur - 0.5 * r[i] ** 2 + 1e-10 - d_next)
                d_cur = d_next
    elapsed = time.perf_counter() - start
    ok = worst >= 0.0 and elapsed < 10.0
    _report(1, "Bregman per-step decrease", ok, f"min slack {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: exact step against a bisection oracle
# ---------------------------------------------------------------------------


def test_c02_exact_step_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_gap = 0.0
    worst_feas = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        dual = rng.standard_normal(n) * rng.uniform(0.3, 4.0)
        a = rng.standard_normal(n)
        a /= np.linalg.norm(a)
        b = float(rng.standard_normal())
        lam = float(rng.choice([0.0, 0.1, 1.0, 5.0]))
        t = exact_step(dual, a, b, lam)
        worst_gap = max(worst_gap, abs(t - bisection_exact_step(dual, a, b, lam)))
        x_new = soft_threshold(dual - t * a, lam)
        worst_feas = max(worst_feas, abs(float(np.dot(a, x_new)) - b))
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-8 and worst_feas <= 1e-10 and elapsed < 5.0
    _report(
        2,
        "exact step vs. bisection oracle",
        ok,
        f"max |t - oracle| {worst_gap:.2e}, max infeasibility {worst_feas:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 3: conjugate closed form against the sup oracle
# ---------------------------------------------------------------------------


def test_c03_conjugate_closed_form():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 4))
        xstar = rng.standard_normal(n) * rng.uniform(0.2, 4.0)
        lam = float(rng.choice([0.0, 0.1, 0.5, 1.0, 2.5]))
        worst = max(worst, abs(conjugate_value(xstar, lam) - conjugate_sup_oracle(xstar, lam)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    _report(3, "conjugate vs. sup oracle", ok, f"max gap {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: sparse recovery in the favorable region
# ---------------------------------------------------------------------------


def test_c04_recovery_at_scale():
    start = time.perf_counter()
    finals = []
    for trial in range(20):
        system, x_hat, _ = gaussian_instance(300, 200, 5, child_rng(42, trial, 0))
        spec = SolverSpec.sskm(
            1.0,
            150,
            StepMode.EXACT,
            seed=child_seed(42, trial, 2),
            stop=StoppingRule(max_iters=200_000, mse_target=1e-6),
        )
        finals.append(run(system, spec, ground_truth=x_hat)[1].final_mse)
    elapsed = time.perf_counter() - start
    median = float(np.median(finals))
    ok = median < 1e-6 and elapsed < 120.0
    _report(4, "recovery m=300 n=200 k=5", ok, f"median final MSE {median:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# shared 200-trial study for criteria 5, 6, 10
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def contraction_study():
    m, n, k, lam, beta = 12, 8, 2, 1.0, 6
    trials, iters = 200, 50
    system, x_hat, _ = gaussian_instance(m, n, k, child_rng(1234, 0))
    sv = smallest_nonzero_singular_value(system)
    xmin = min_abs_nonzero(x_hat)
    d0 = bregman_distance(init_state(n, lam), x_hat)
    floor = 1e-12 * d0  # below this the distance is float rounding noise

    ratios = np.full((trials, iters), np.nan)
    qs = np.full((trials, iters), np.nan)
    errors = np.full((trials, iters), np.nan)
    envelopes = np.full((trials, iters), np.nan)
    min_eb_margin = np.inf
    start = time.perf_counter()
    for t in range(trials):
        rng = np.random.default_rng(child_seed(1234, t, 2))
        pair = init_state(n, lam)
        d_cur = d0
        q_seq = np.empty(iters)
        for j in range(iters):
            r = residual(system, pair.primal)
            gamma = gamma_from_residuals(r, beta)
            q = contraction_factor(sv.smallest_nonzero, lam, xmin, beta, gamma, m)
            subset = sample_subset(m, beta, rng)
            i = int(subset[int(np.argmax(r[subset] ** 2))])
            pair = step_once(pair, system, i, StepMode.EXACT)
            d_next = bregman_distance(pair, x_hat)
            if d_cur > floor:
                ratios[t, j] = d_next / d_cur
                qs[t, j] = q
            q_seq[j] = q
            errors[t, j] = np.linalg.norm(pair.primal - x_hat)
            min_eb_margin = min(
                min_eb_margin,
                error_bound_margin(pair, system, x_hat, lam, sv.smallest_nonzero),
            )
            d_cur = d_next
        envelopes[t] = noisy_envelope(q_seq, lam, x_hat, 0.0, one_two_norm(system), StepMode.EXACT)
    return {
        "ratios": ratios,
        "qs": qs,
        "errors": errors,
        "envelopes": envelopes,
        "min_eb_margin": min_eb_margin,
        "trials": trials,
        "iters": iters,
        "elapsed": time.perf_counter() - start,
    }


def test_c05_contraction_in_expectation(contraction_study):
    s = contraction_study
    # NaN marks trials whose distance hit the float-rounding floor: the
    # iterate equals the truth to machine precision, so the contraction holds
    # trivially there and the statistic is taken over the live trials.
    margins = s["qs"] - s["ratios"]
    counts = np.sum(~np.isnan(margins), axis=0)
    live = counts >= 2
    mean = np.nanmean(margins[:, live], axis=0)
    se = np.nanstd(margins[:, live], axis=0, ddof=1) / np.sqrt(counts[live])
    slack = mean + 3.0 * se
    ok = bool(np.all(slack >= 0.0)) and s["elapsed"] < 60.0
    _report(
        5,
        "expected contraction vs. factor q",
        ok,
        f"min slack {slack.min():.3f}, live iterations {int(live.sum())}/{s['iters']}, {s['elapsed']:.1f}s",
    )


def test_c06_error_bound_along_traces(contraction_study):
    margin = contraction_study["min_eb_margin"]
    ok = margin >= -1e-9
    _report(6, "residual error bound along traces", ok, f"min margin {margin:.2e}")


# ---------------------------------------------------------------------------
# criterion 7: gamma range and its extreme witnesses
# ---------------------------------------------------------------------------


def test_c07_gamma_range_and_witnesses():
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    ok_range = True
    for _ in range(1000):
        m = int(rng.integers(2, 13))
        beta = int(rng.integers(1, m + 1))
        gamma = gamma_from_residuals(rng.standard_normal(m), beta)
        ok_range = ok_range and 1.0 <= gamma <= beta + 1e-12

    ok_witness = True
    for m, beta in ((5, 2), (9, 4), (12, 6), (12, 12)):
        single = np.zeros(m)
        single[m // 2] = 1.7
        ok_witness = ok_witness and gamma_from_residuals(single, beta) == 1.0
        for mag in (1.0, 0.5, 2.0):
            signs = np.where(np.arange(m) % 2 == 0, mag, -mag)
            ok_witness = ok_witness and gamma_from_residuals(signs, beta) == float(beta)
    elapsed = time.perf_counter() - start
    ok = ok_range and ok_witness and elapsed < 5.0
    _report(7, "gamma range and witnesses", ok, f"range ok {ok_range}, witnesses ok {ok_witness}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 8: beta=1 greedy sampling is the uniform-row method
# ---------------------------------------------------------------------------


def test_c08_beta_one_equals_uniform():
    m, n, k, lam = 50, 30, 3, 1.0
    system, x_hat, _ = gaussian_instance(m, n, k, child_rng(55, 0))

    config = SamplerConfig(rule=SelectionRule.SKM_GREEDY, beta=1)
    draw_rng = np.random.default_rng(99)
    counts = np.zeros(m, dtype=int)
    r0 = residual(system, np.zeros(n))
    for _ in range(100_000):
        counts[pick_index(config, system, draw_rng, r0)] += 1
    p_chi = float(stats.chisquare(counts).pvalue)

    finals_greedy, finals_uniform = [], []
    for t in range(100):
        seed = child_seed(55, t, 2)
        stop = StoppingRule(max_iters=250)
        greedy = SolverSpec.sskm(lam, 1, StepMode.EXACT, seed=seed, stop=stop)
        uniform = SolverSpec.srk(lam, StepMode.EXACT, seed=seed, stop=stop)
        finals_greedy.append(run(system, greedy, ground_truth=x_hat)[1].final_mse)
        finals_uniform.append(run(system, uniform, ground_truth=x_hat)[1].final_mse)
    p_mw = float(stats.mannwhitneyu(finals_greedy, finals_uniform).pvalue)

    ok = p_chi > 0.01 and p_mw > 0.01
    _report(8, "beta=1 equals uniform row choice", ok, f"chi2 p={p_chi:.3f}, MW p={p_mw:.3f}")


# ---------------------------------------------------------------------------
# criterion 9: noisy data favors the inexact step; error envelopes hold
# ---------------------------------------------------------------------------


def test_c09_noisy_ordering_and_envelope():
    start = time.perf_counter()
    m, n, k, lam, beta = 200, 100, 5, 1.0, 100
    trials, iters = 50, 1500
    checkpoints = (10, 100, 1000)
    weights = max_rank_weights(m, beta)
    modes = (("inexact", StepMode.INEXACT), ("exact", StepMode.EXACT))

    finals = {name: [] for name, _ in modes}
    margins = {(name, c): [] for name, _ in modes for c in checkpoints}
    for t in range(trials):
        system, x_hat, _ = gaussian_instance(m, n, k, child_rng(777, t, 0))
        b_noisy, _, delta_inf = sk.add_noise(system.rhs, 0.1, child_rng(777, t, 1))
        noisy = system.with_rhs(b_noisy)
        sv = smallest_nonzero_singular_value(system)
        xmin = min_abs_nonzero(x_hat)
        onetwo = one_two_norm(system)
        x_norm = np.linalg.norm(x_hat)
        for mode_id, (name, mode) in enumerate(modes):
            spec = SolverSpec.sskm(
                lam,
                beta,
                mode,
                seed=child_seed(777, t, 2, mode_id),
                stop=StoppingRule(max_iters=iters, mse_target=1e-6),
            )
            _, trace = run(noisy, spec, ground_truth=x_hat)
            finals[name].append(trace.final_mse)
            # q along the replayed iterates; the exact library gamma is too slow for 150k calls
            q_seq = np.empty(trace.iterations)
            for j, dual in enumerate(sk.replay_duals(system, trace)):
                x = soft_threshold(dual, lam)
                gamma = gamma_sorted(system.rows @ x - system.rhs, beta, weights)
                q_seq[j] = contraction_factor(sv.smallest_nonzero, lam, xmin, beta, gamma, m)
            env = noisy_envelope(q_seq, lam, x_hat, delta_inf, onetwo, mode)
            for c in checkpoints:
                if c <= trace.iterations:
                    err = np.sqrt(trace.mse[c - 1]) * x_norm
                    margins[(name, c)].append(env[c - 1] - err)

    med_inexact = float(np.median(finals["inexact"]))
    med_exact = float(np.median(finals["exact"]))
    ok_order = med_inexact <= med_exact
    ok_env = True
    for key, vals in margins.items():
        v = np.asarray(vals)
        ok_env = ok_env and (v.mean() + 3.0 * v.std(ddof=1) / np.sqrt(len(v)) >= 0.0)
    elapsed = time.perf_counter() - start
    ok = ok_order and ok_env and elapsed < 120.0
    _report(
        9,
        "noisy ordering and envelope",
        ok,
        f"median inexact {med_inexact:.2e} <= exact {med_exact:.2e}: {ok_order}, "
        f"envelopes ok {ok_env}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 10: noiseless expected-error envelope
# ---------------------------------------------------------------------------


def test_c10_noiseless_envelope(contraction_study):
    s = contraction_study
    margins = s["envelopes"] - s["errors"]
    mean = margins.mean(axis=0)
    se = margins.std(axis=0, ddof=1) / np.sqrt(s["trials"])
    slack = mean + 3.0 * se
    ok = bool(np.all(slack >= 0.0))
    _report(10, "noiseless expected-error envelope", ok, f"min slack {slack.min():.3f}")


# ---------------------------------------------------------------------------
# criterion 11: CLI determinism
# ---------------------------------------------------------------------------


def test_c11_cli_determinism(tmp_path):
    config = {
        "m": 20,
        "n": 12,
        "k": 2,
        "lambda": 1.0,
        "beta": "m/2",
        "step_mode": "both",
        "methods": ["srk", "sskm"],
        "max_iters": 150,
        "m_grid": [20],
        "k_grid": [2],
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    bodies = []
    for label in ("a", "b"):
        out_dir = tmp_path / label
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "sparsekaczmarz",
                "compare",
                "--config",
                str(config_path),
                "--seed",
                "42",
                "--trials",
                "5",
                "--out",
                str(out_dir),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        bodies.append(
            {
                name: (out_dir / name).read_bytes()
                for name in ("mse_grid_noiseless.csv", "convergence_curves.csv")
            }
        )
    ok = bodies[0] == bodies[1]
    _report(11, "CLI compare determinism", ok, f"{len(bodies[0])} CSV bodies byte-identical: {ok}")


# ---------------------------------------------------------------------------
# criterion 12: Matrix Market fixtures
# ---------------------------------------------------------------------------


def test_c12_matrix_market_fixtures(tmp_path):
    checks = []

    coord = tmp_path / "coord.mtx"
    coord.write_text(
        "%%MatrixMarket matrix coordinate real general\n3 3 4\n1 1 2.5\n2 2 -1.25\n3 1 0.5\n3 3 4.0\n"
    )
    expected = np.array([[2.5, 0.0, 0.0], [0.0, -1.25, 0.0], [0.5, 0.0, 4.0]])
    checks.append(np.array_equal(read_matrix_market(coord), expected))

    sym = tmp_path / "sym.mtx"
    sym.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 4\n1 1 1.0\n2 1 -3.5\n3 2 0.75\n3 3 2.0\n"
    )
    expected_sym = np.array([[1.0, -3.5, 0.0], [-3.5, 0.0, 0.75], [0.0, 0.75, 2.0]])
    checks.append(np.array_equal(read_matrix_market(sym), expected_sym))

    one_based = tmp_path / "one.mtx"
    one_based.write_text("%%MatrixMarket matrix coordinate real general\n3 3 1\n3 1 -2.0\n")
    got = read_matrix_market(one_based)
    checks.append(got[2, 0] == -2.0 and np.count_nonzero(got) == 1)

    dup = tmp_path / "dup.mtx"
    dup.write_text(
        "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 1.5\n1 1 2.5\n2 3 1.0\n"
    )
    got = read_matrix_market(dup)
    checks.append(got[0, 0] == 4.0 and got[1, 2] == 1.0)

    rng = np.random.default_rng(12)
    original = rng.standard_normal((3, 3))
    original[rng.random((3, 3)) < 0.4] = 0.0
    rt = tmp_path / "rt.mtx"
    write_matrix_market(rt, original)
    checks.append(np.array_equal(read_matrix_market(rt), original))

    ok = all(checks)
    _report(12, "Matrix Market fixtures", ok, f"{sum(checks)}/5 fixture checks bit-exact")
