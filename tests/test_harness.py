import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from sparsekaczmarz import (
    ExperimentConfig,
    RunStatus,
    SolverSpec,
    StepMode,
    StoppingRule,
    add_noise,
    child_rng,
    child_seed,
    compare_methods,
    gaussian_instance,
    harness,
    load_config,
    real_matrix_bench,
    residual,
    resolve_beta,
    run,
    solve_single,
    sweep_beta,
    sweep_lambda,
    write_matrix_market,
)
from sparsekaczmarz import cli
from sparsekaczmarz.errors import (
    ConfigError,
    InvalidSparsityError,
    NonFiniteIterateError,
    ParseError,
    ZeroMatrixError,
)

ZERO_MTX = "%%MatrixMarket matrix coordinate real general\n3 2 0\n"
# declares 10**12 entries on its size line (line 2)
HUGE_MTX = "%%MatrixMarket matrix coordinate real general\n1000000 1000000 1\n1 1 1.0\n"


def tiny_config(tmp_path, **overrides):
    base = dict(
        m=20,
        n=12,
        k=2,
        lam=1.0,
        beta="m/2",
        step_mode="both",
        methods=("srk", "sskm"),
        noise_level=0.0,
        trials=3,
        master_seed=7,
        mse_target=1e-6,
        max_iters=400,
        out_dir=str(tmp_path / "out"),
        m_grid=(20,),
        k_grid=(2,),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ------------------------------------------------------------ instances


def test_gaussian_instance_sparsity_and_consistency():
    rng = np.random.default_rng(0)
    system, x_hat, b_raw = gaussian_instance(30, 20, 5, rng)
    assert np.count_nonzero(x_hat) == 5
    assert np.max(np.abs(residual(system, x_hat))) < 1e-10
    assert b_raw.shape == (30,)


def test_gaussian_instance_rejects_bad_sparsity():
    rng = np.random.default_rng(1)
    with pytest.raises(InvalidSparsityError):
        gaussian_instance(10, 5, 6, rng)


def test_gaussian_instance_entry_moments():
    # recover the pre-normalization matrix from the stored row scales and
    # check its entries look standard normal over 10^6 draws
    rng = np.random.default_rng(2)
    system, _, _ = gaussian_instance(1000, 1000, 10, rng)
    raw = system.rows * system.row_scales[:, None]
    assert abs(raw.mean()) < 0.005
    assert abs(raw.var() - 1.0) < 0.01


def test_add_noise_zero_level():
    rng = np.random.default_rng(3)
    b = rng.standard_normal(10)
    b_noisy, d2, dinf = add_noise(b, 0.0, rng)
    assert np.array_equal(b_noisy, b)
    assert d2 == 0.0 and dinf == 0.0


def test_add_noise_exact_relative_norm():
    rng = np.random.default_rng(4)
    b = rng.standard_normal(50)
    b_noisy, d2, dinf = add_noise(b, 0.1, rng)
    rel = np.linalg.norm(b_noisy - b) / np.linalg.norm(b)
    assert rel == pytest.approx(0.1, abs=1e-12)
    assert d2 == pytest.approx(0.1 * np.linalg.norm(b), rel=1e-12)
    assert dinf == pytest.approx(np.abs(b_noisy - b).max(), rel=1e-12)


def test_add_noise_deterministic():
    b = np.arange(1.0, 9.0)
    a1, _, _ = add_noise(b, 0.2, np.random.default_rng(5))
    a2, _, _ = add_noise(b, 0.2, np.random.default_rng(5))
    assert np.array_equal(a1, a2)


# --------------------------------------------------------------- config


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "m": 40,
                "n": 30,
                "k": 3,
                "lambda": 0.5,
                "beta": "m/4",
                "trials": 2,
                "master_seed": 123,
                "max_iters": 100,
                "out_dir": "results",
            }
        )
    )
    config = load_config(path)
    assert config.m == 40
    assert config.lam == 0.5
    assert config.beta == "m/4"
    assert config.master_seed == 123


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"m": 10, "bogus": 1}))
    with pytest.raises(ConfigError):
        load_config(path)


def test_resolve_beta():
    assert resolve_beta("m/2", 200) == 100
    assert resolve_beta("m/4", 200) == 50
    assert resolve_beta("m", 200) == 200
    assert resolve_beta("1", 200) == 1
    assert resolve_beta(32, 200) == 32
    with pytest.raises(ConfigError):
        resolve_beta("m/3", 200)
    with pytest.raises(ConfigError):
        resolve_beta(0, 200)
    assert resolve_beta(np.int64(32), 200) == 32
    # a count is an integer: no float, integral or not, and no bool
    for beta in (2.7, 2.0, True, None):
        with pytest.raises(ConfigError, match="beta must be an integer"):
            resolve_beta(beta, 10)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(k=50, n=20)
    with pytest.raises(ConfigError):
        ExperimentConfig(step_mode="sometimes")
    for methods in (("srk", "newton"), ("srk", ["sskm"]), ("srk", 1), ()):
        with pytest.raises(ConfigError, match="methods"):
            ExperimentConfig(methods=methods)
    with pytest.raises(ConfigError, match="k_grid"):
        ExperimentConfig(n=8).grid()
    assert ExperimentConfig(n=8, k_grid=(2, 8)).grid()[1] == (2, 8)
    for noise in (-0.1, float("inf"), float("nan")):
        with pytest.raises(ConfigError):
            ExperimentConfig(noise_level=noise)
    for beta in ("m/3", 0, 2.5, True):
        with pytest.raises(ConfigError):
            ExperimentConfig(beta=beta)
    bad = {
        "m": (12.0, 0, True, "12"), "k": (2.0, 0), "trials": (2.5, 0), "max_iters": (1e3, 0),
        "master_seed": (-1, 1.0), "lam": (-1.0, float("nan"), "1", None), "mse_target": ("1e-6", -1e-6, float("inf")),
        "epsilon": (-1.0, float("nan")), "m_grid": ((20, 0), (20.0,)), "k_grid": ((0,), (5, 201)),
        "out_dir": (5,),
    }
    for name, values in bad.items():
        for value in values:
            with pytest.raises(ConfigError, match={"lam": "lambda", "k_grid": "k"}.get(name, name)):
                ExperimentConfig(**{name: value})
    # integers where a float is expected, numpy integers, and None for the optional stops
    ExperimentConfig(lam=1, mse_target=None, epsilon=0, m=np.int64(30), master_seed=np.int32(4))


def test_config_refuses_epsilon_with_an_mse_target():
    # every harness solve passes its truth, so run's MSE stop would silently
    # replace the epsilon stop: the pair is refused, naming both keys
    for extra in ({}, {"mse_target": 1e-3}, {"mse_target": 0.0}):
        with pytest.raises(ConfigError, match="epsilon.*mse_target"):
            ExperimentConfig(epsilon=1e3, **extra)
    assert ExperimentConfig(epsilon=1e3, mse_target=None).epsilon == 1e3


@pytest.mark.parametrize("name", ["methods", "m_grid", "k_grid"])
def test_config_refuses_a_repeated_entry(tmp_path, name):
    # a repeated method would solve every trial twice, a repeated m or k
    # would write its grid rows twice
    value = {"methods": ("srk", "sskm", "srk"), "m_grid": (20, 20), "k_grid": (2, 3, 2)}[name]
    with pytest.raises(ConfigError, match=f"^{name} repeats"):
        tiny_config(tmp_path, **{name: value})
    config = tmp_path / "config.json"
    config.write_text(json.dumps({name: list(value)}))
    with pytest.raises(ConfigError, match=name):
        load_config(config)


# --------------------------------------------------------------- sweeps


def test_sweep_lambda_winner_is_argmin(tmp_path):
    config = tiny_config(tmp_path, trials=2, max_iters=200)
    out = sweep_lambda(config)
    means = {}
    best = None
    for m, k, stat, value in out["rows"]:
        if stat.startswith("mean_mse[lambda="):
            means[stat] = value
        elif stat == "best_lambda":
            best = value
    assert best is not None
    winner_mean = min(means.values())
    assert any(
        abs(v - winner_mean) < 1e-18 and f"lambda={best:g}" in key for key, v in means.items()
    )


def test_sweep_beta_candidates_for_m_200(tmp_path):
    config = tiny_config(tmp_path, m=200, n=30, k=2, trials=1, max_iters=50, m_grid=None, k_grid=None)
    out = sweep_beta(config)
    betas = sorted({row[1] for row in out["rows"]})
    assert betas == [1, 50, 100, 200]


def test_sweep_beta_deterministic(tmp_path):
    config = tiny_config(tmp_path, trials=2, max_iters=150)
    rows_a = sweep_beta(config)["rows"]
    rows_b = sweep_beta(config)["rows"]
    assert rows_a == rows_b


def test_sweep_beta_large_subsets_beat_single_rows(tmp_path):
    # within a tight budget, greedy over m/2 rows reaches a far lower error
    # than single-row sampling (order-of-magnitude gap)
    config = tiny_config(
        tmp_path, m=40, n=30, k=3, trials=4, max_iters=80, step_mode="exact"
    )
    out = sweep_beta(config)
    stats = {(r[0], r[1]): r[3] for r in out["rows"] if r[2] == "mean_mse"}
    assert stats[("exact", 20)] < 0.1 * stats[("exact", 1)]


def test_protocol_grid_defaults():
    from sparsekaczmarz.harness import DEFAULT_K_GRID, DEFAULT_M_GRID, LAMBDA_CANDIDATES

    assert DEFAULT_M_GRID == tuple(range(140, 301, 20))
    assert DEFAULT_K_GRID == (5, 10, 15, 20, 25, 30)
    assert LAMBDA_CANDIDATES == (0.01, 0.1, 1.0, 5.0, 10.0)
    config = ExperimentConfig()
    assert config.grid() == (DEFAULT_M_GRID, DEFAULT_K_GRID)


# -------------------------------------------------------------- compare


def test_compare_emits_grids_and_curves(tmp_path):
    config = tiny_config(tmp_path, noise_level=0.1, trials=2, max_iters=150)
    out = compare_methods(config)
    assert (tmp_path / "out" / "mse_grid_noiseless.csv").exists()
    assert (tmp_path / "out" / "mse_grid_noisy.csv").exists()
    assert (tmp_path / "out" / "convergence_curves.csv").exists()
    stats = {row[4] for row in out["grid_rows"]}
    assert {"mean_mse", "median_mse", "mean_iters"} <= stats
    assert out["bregman_monotone"]
    # curves cover every variant
    variants = {(r[0], r[1]) for r in out["curve_rows"]}
    assert ("sskm", "exact") in variants and ("srk", "inexact") in variants


def test_compare_refuses_a_grid_without_its_curve_cell(tmp_path, monkeypatch):
    # the curves are recorded at (m, k) alone, so a grid without that cell
    # would write a header-only curves file; sweep_lambda takes such a grid
    sweep_lambda(tiny_config(tmp_path / "sweep", m_grid=(24,), k_grid=(3,), trials=1, max_iters=50))

    def no_solve(*args):
        raise AssertionError("compare solved before refusing its grid")

    monkeypatch.setattr(harness, "_solve", no_solve)
    for grids in ({"m_grid": (24,)}, {"k_grid": (3,)}, {"m_grid": (24,), "k_grid": (3,)}):
        with pytest.raises(ConfigError, match=r"\(20, 2\).*m_grid.*k_grid"):
            compare_methods(tiny_config(tmp_path, **grids))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("driver", [compare_methods, sweep_lambda])
def test_grid_drivers_resolve_beta_for_every_m_before_the_first_solve(tmp_path, monkeypatch, driver):
    # beta = 8 fits m = 12 but not m = 6: the grid is refused before the
    # m = 12 cells are solved, not when the loop reaches m = 6
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before resolving beta for the whole grid")

    monkeypatch.setattr(harness, "_solve", no_solve)
    config = tiny_config(tmp_path, m=12, n=8, beta=8, m_grid=(12, 6), k_grid=(2,), trials=1)
    with pytest.raises(ConfigError, match=r"beta=8 outside \[1, m=6\]"):
        driver(config)
    assert not (tmp_path / "out").exists()


def test_compare_greedy_beats_uniform_cellwise(tmp_path):
    cell = dict(m=30, n=20, k=3, trials=6, step_mode="exact", m_grid=(30, 40), k_grid=(3,))
    out = compare_methods(tiny_config(tmp_path / "target", max_iters=2500, **cell))
    iters = {(r[0], r[2]): r[5] for r in out["grid_rows"] if r[4] == "mean_iters"}
    # the MSE is compared at a fixed budget: run to a target, both methods
    # stop just below it, and which median lands lower is a coin flip
    out = compare_methods(tiny_config(tmp_path / "budget", mse_target=None, max_iters=100, **cell))
    median = {(r[0], r[2]): r[5] for r in out["grid_rows"] if r[4] == "median_mse"}
    for m in (30, 40):
        assert median[(m, "sskm")] <= median[(m, "srk")]
        assert iters[(m, "sskm")] < iters[(m, "srk")]


def test_compare_csv_bodies_reproducible(tmp_path):
    config_a = tiny_config(tmp_path / "a", trials=2, max_iters=100)
    config_b = tiny_config(tmp_path / "b", trials=2, max_iters=100)
    compare_methods(config_a)
    compare_methods(config_b)
    for name in ("mse_grid_noiseless.csv", "convergence_curves.csv"):
        body_a = (tmp_path / "a" / "out" / name).read_bytes()
        body_b = (tmp_path / "b" / "out" / name).read_bytes()
        assert body_a == body_b


def _tiny_compare_trace(method, mode, trial, max_iters):
    """The trace of compare's solve of (method, mode) on trial ``trial`` of
    ``tiny_config``'s cell (20, 2), rebuilt from the stream contract: instance
    child_rng(seed, m, k, t, 0), solver child_seed(seed, m, k, t, 2, method
    id, step-mode id)."""
    system, x_hat, _ = gaussian_instance(20, 12, 2, child_rng(7, 20, 2, trial, 0))
    stop = StoppingRule(max_iters=max_iters, mse_target=1e-6)
    method_ids = {"rk": 0, "srk": 1, "sskm": 2}
    mode_ids = {"inexact": 0, "exact": 1}
    seed = child_seed(7, 20, 2, trial, 2, method_ids[method], mode_ids[mode])
    if method == "rk":
        spec = SolverSpec.rk(seed=seed, stop=stop)
    elif method == "srk":
        spec = SolverSpec.srk(lam=1.0, step_mode=StepMode(mode), seed=seed, stop=stop)
    else:
        spec = SolverSpec.sskm(lam=1.0, beta=10, step_mode=StepMode(mode), seed=seed, stop=stop)
    return run(system, spec, ground_truth=x_hat)[1]


@pytest.mark.parametrize("trials", [1, 4])
def test_compare_curves_match_a_per_checkpoint_loop(tmp_path, trials):
    # the curve rows rebuilt one checkpoint at a time from the same seeded
    # solves; a solve that stopped before a checkpoint counts with its final MSE
    config = tiny_config(tmp_path, trials=trials, methods=("rk", "srk", "sskm"), max_iters=2500)
    out = compare_methods(config)
    checkpoints = harness._checkpoint_iterates(config.max_iters)
    assert checkpoints[-1] == config.max_iters and len(checkpoints) < config.max_iters
    expected, stopped = [], []
    for method, mode in harness._variants(config):
        per_trial = []
        for trial in range(trials):
            trace = _tiny_compare_trace(method, mode, trial, config.max_iters)
            stopped.append(trace.iterations < config.max_iters)
            per_trial.append(
                [float(trace.mse[c - 1]) if c <= trace.iterations else trace.final_mse for c in checkpoints]
            )
        for col, iterate in enumerate(checkpoints):
            vals = np.array([curve[col] for curve in per_trial])
            expected.append(
                (
                    method,
                    mode,
                    int(iterate),
                    float(np.median(vals)),
                    float(np.quantile(vals, 0.25)),
                    float(np.quantile(vals, 0.75)),
                    float(vals.min()),
                    float(vals.max()),
                )
            )
    assert any(stopped)
    assert out["curve_rows"] == expected


def test_compare_seeds_follow_the_stream_contract(tmp_path):
    # trial t of cell (m, k): instance child_rng(seed, m, k, t, 0), solver
    # child_seed(seed, m, k, t, 2, method id, step-mode id); benchmarks rely on it
    config = tiny_config(tmp_path, trials=1, methods=("rk", "srk", "sskm"), max_iters=3000)
    out = compare_methods(config)
    iters = {(r[2], r[3]): r[5] for r in out["grid_rows"] if r[4] == "mean_iters"}
    assert len(iters) == 5
    for (method, mode), mean_iters in iters.items():
        trace = _tiny_compare_trace(method, mode, 0, 3000)
        assert mean_iters == trace.iterations, (method, mode)


@pytest.mark.parametrize(
    "driver, cells, noise",
    [(sweep_lambda, 4, 0.0), (sweep_beta, 1, 0.0), (compare_methods, 4, 0.1)],
    ids=["sweep_lambda", "sweep_beta", "compare_methods"],
)
def test_each_trial_instance_is_built_once(tmp_path, monkeypatch, driver, cells, noise):
    # one instance per (m, k, trial), shared by every solve made on it; the
    # sweeps refuse noise, compare also builds the noisy system from it
    calls = []

    def counted(*args):
        calls.append(args[:3])
        return gaussian_instance(*args)

    monkeypatch.setattr(harness, "gaussian_instance", counted)
    config = tiny_config(tmp_path, trials=2, max_iters=30, m_grid=(20, 24), k_grid=(2, 3), noise_level=noise)
    driver(config)
    assert len(calls) == config.trials * cells
    assert len(set(calls)) == cells


def test_solve_rk_matches_compare_rk_variant(tmp_path):
    # RK always takes the inexact step: solve runs compare's rk-inexact solve
    config = tiny_config(tmp_path, trials=1, methods=("rk",), max_iters=20000)
    out = compare_methods(config)
    (mean_iters,) = [r[5] for r in out["grid_rows"] if r[4] == "mean_iters"]
    single = solve_single(config)
    assert single["trace"].status is RunStatus.CONVERGED
    assert single["trace"].iterations == mean_iters
    assert single["experiment_id"] == "solve-rk-inexact-m20-n12-k2"


# ----------------------------------------------------------- real bench


def test_real_matrix_bench(tmp_path):
    rng = np.random.default_rng(6)
    a = rng.standard_normal((24, 10))
    a[rng.random((24, 10)) < 0.4] = 0.0
    path = tmp_path / "small.mtx"
    write_matrix_market(path, a)
    config = tiny_config(tmp_path, k=4, trials=2, max_iters=3000, methods=("srk", "sskm"), step_mode="exact")
    out = real_matrix_bench([str(path)], config)
    stats = {row[3]: row[4] for row in out["rows"]}
    assert stats["density"] == pytest.approx(np.count_nonzero(a) / a.size)
    assert "mean_iters[sskm-exact]" in stats
    assert not out["errors"]


def test_real_matrix_bench_marks_nonconvergent(tmp_path):
    # RK cannot hit a sparse target on an underdetermined system
    rng = np.random.default_rng(7)
    a = rng.standard_normal((8, 30))
    path = tmp_path / "wide.mtx"
    write_matrix_market(path, a)
    config = tiny_config(
        tmp_path, k=3, trials=2, max_iters=500, methods=("rk",), step_mode="inexact"
    )
    out = real_matrix_bench([str(path)], config)
    stats = {row[3]: row[4] for row in out["rows"]}
    assert stats["mean_iters[rk-inexact]"] == "--"
    assert stats["converged[rk-inexact]"] == 0


def test_real_matrix_bench_skips_bad_file(tmp_path):
    bad = tmp_path / "bad.mtx"
    bad.write_text("not a matrix\n")
    zero = tmp_path / "zero.mtx"
    zero.write_text(ZERO_MTX)
    binary = tmp_path / "binary.mtx"
    binary.write_bytes(np.random.default_rng(0).bytes(200))
    rng = np.random.default_rng(8)
    good = tmp_path / "good.mtx"
    write_matrix_market(good, rng.standard_normal((10, 6)))
    config = tiny_config(tmp_path, k=2, trials=1, max_iters=500, methods=("sskm",), step_mode="exact")
    out = real_matrix_bench([str(bad), str(zero), str(good), str(binary)], config)
    assert set(out["errors"]) == {str(bad), str(zero), str(binary)}
    assert isinstance(out["errors"][str(zero)], ZeroMatrixError)
    assert isinstance(out["errors"][str(binary)], ParseError)
    assert {row[0] for row in out["rows"]} == {"good"}


def test_real_matrix_bench_skips_file_with_fewer_rows_than_beta(tmp_path):
    rng = np.random.default_rng(8)
    short = tmp_path / "short.mtx"
    write_matrix_market(short, rng.standard_normal((4, 3)))
    good = tmp_path / "good.mtx"
    write_matrix_market(good, rng.standard_normal((12, 8)))
    config = tiny_config(tmp_path, k=2, trials=1, max_iters=500, beta=6, methods=("sskm",), step_mode="exact")
    out = real_matrix_bench([str(short), str(good)], config)
    assert set(out["errors"]) == {str(short)}
    assert isinstance(out["errors"][str(short)], ConfigError)
    assert "beta=6 outside [1, m=4]" in str(out["errors"][str(short)])
    assert {row[0] for row in out["rows"]} == {"good"}


def test_real_matrix_bench_skips_file_above_the_size_cap(tmp_path):
    # the size line declares 10**12 entries: refused before any array is built
    huge = tmp_path / "huge.mtx"
    huge.write_text(HUGE_MTX)
    good = tmp_path / "good.mtx"
    write_matrix_market(good, np.random.default_rng(8).standard_normal((10, 6)))
    config = tiny_config(tmp_path, k=2, trials=1, max_iters=500, methods=("sskm",), step_mode="exact")
    out = real_matrix_bench([str(huge), str(good)], config)
    assert set(out["errors"]) == {str(huge)}
    assert isinstance(out["errors"][str(huge)], ParseError)
    assert out["errors"][str(huge)].line_number == 2
    assert {row[0] for row in out["rows"]} == {"good"}


def test_real_matrix_bench_refuses_noise_before_reading_a_file(tmp_path, monkeypatch):
    # the systems are built noiseless from each file, so a noise level is
    # refused, not ignored, and no file is opened
    def no_read(path):
        raise AssertionError("read a file before refusing the noise level")

    monkeypatch.setattr(harness, "read_matrix_market", no_read)
    with pytest.raises(ConfigError, match="noise_level=0.5"):
        real_matrix_bench([str(tmp_path / "a.mtx")], tiny_config(tmp_path, noise_level=0.5))
    assert not (tmp_path / "out").exists()


def test_real_matrix_bench_propagates_unexpected_errors(tmp_path, monkeypatch):
    # only read and data errors are per-file; a fault in the program is not hidden
    def broken_reader(path):
        raise RuntimeError("bug")

    monkeypatch.setattr(harness, "read_matrix_market", broken_reader)
    with pytest.raises(RuntimeError, match="bug"):
        real_matrix_bench([str(tmp_path / "any.mtx")], tiny_config(tmp_path, trials=1))


# ------------------------------------------------------------------ CLI


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "sparsekaczmarz", *args],
        capture_output=True,
        text=True,
    )


def test_cli_solve_and_trace(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"m": 20, "n": 12, "k": 2, "trials": 1, "max_iters": 300, "master_seed": 3})
    )
    proc = run_cli(
        "solve", "--config", str(config), "--out", str(tmp_path / "out"), "--method", "sskm"
    )
    assert proc.returncode == 0, proc.stderr
    trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert trace[0] == "experiment_id,trial,k_iter,mse,residual2,bregman,i_k,t_k"
    assert len(trace) > 1


def test_cli_unknown_config_key_exit_code(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"definitely_not_a_key": 1}))
    proc = run_cli("compare", "--config", str(config))
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "entry",
    [
        {"max_iters": 1e3},
        {"m": 12.0},
        {"mse_target": "1e-6"},
        {"lambda": -1},
        {"max_iters": 0},
        {"trials": 2.5},
    ],
    ids=lambda entry: json.dumps(entry),
)
@pytest.mark.parametrize("command", ["solve", "compare"])
def test_cli_malformed_config_value_exit_code(tmp_path, command, entry):
    # a value of the wrong type or range is refused before any solve, with
    # exit 2 and one line, not a traceback
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"m": 20, "n": 12, "k": 2, "trials": 1, "max_iters": 50, **entry}))
    proc = run_cli(command, "--config", str(config), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: "), proc.stderr
    name = next(iter(entry))
    assert name in lines[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, entry, key",
    [
        ("solve", {"methods": [[1]]}, "methods"),
        ("solve", {"methods": []}, "methods"),
        ("compare", {"m": 12, "n": 8, "k": 2}, "k_grid"),
        ("sweep-lambda", {"m": 12, "n": 8, "k": 2}, "k_grid"),
    ],
    ids=lambda value: json.dumps(value) if isinstance(value, dict) else value,
)
def test_cli_bad_methods_or_k_grid_exit_code(tmp_path, command, entry, key):
    # a methods entry that is no string, an empty methods, and a default k grid
    # (5..30) with entries above n are each refused before any solve, with
    # exit 2 and one line that names the key
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"trials": 1, "max_iters": 50, **entry}))
    proc = run_cli(command, "--config", str(config), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ") and key in lines[0], proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, entry, keys",
    [
        ("solve", {"epsilon": 1000.0}, ("epsilon", "mse_target")),
        ("compare", {"m_grid": [20], "k_grid": [2]}, ("(40, 3)", "m_grid", "k_grid")),
    ],
    ids=["epsilon-with-mse_target", "compare-grid-without-m-k"],
)
def test_cli_conflicting_config_keys_exit_code(tmp_path, command, entry, keys):
    # keys that are each valid but conflict are refused before any solve, with
    # exit 2 and one line that names them
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"m": 40, "n": 30, "k": 3, "trials": 2, "max_iters": 300, **entry}))
    proc = run_cli(command, "--config", str(config), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: "), proc.stderr
    assert all(key in lines[0] for key in keys), proc.stderr
    assert not (tmp_path / "out").exists()


def test_cli_solve_stops_on_epsilon_with_the_mse_stop_off(tmp_path):
    # a loose epsilon stops the run after its first iteration once mse_target is null
    config = tmp_path / "config.json"
    entry = {"m": 40, "n": 30, "k": 3, "trials": 1, "max_iters": 3000, "epsilon": 1000.0, "mse_target": None}
    config.write_text(json.dumps(entry))
    proc = run_cli("solve", "--config", str(config), "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / "out" / "trace.csv").read_text().splitlines()) == 2


def test_cli_solve_ignores_the_default_k_grid(tmp_path):
    # solve reads k alone, so a default k grid above n is no error for it
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"m": 12, "n": 8, "k": 2, "trials": 1, "max_iters": 50}))
    proc = run_cli("solve", "--config", str(config), "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "trace.csv").exists()


def test_cli_missing_matrix_file_exit_code(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"m": 10, "n": 8, "k": 2, "trials": 1, "max_iters": 50}))
    proc = run_cli(
        "real", "--config", str(config), "--out", str(tmp_path / "out"), str(tmp_path / "nope.mtx")
    )
    assert proc.returncode == 3


def test_cli_non_finite_matrix_file_exit_code(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"m": 10, "n": 8, "k": 2, "trials": 1, "max_iters": 50}))
    mtx = tmp_path / "nan.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 nan\n")
    proc = run_cli("real", "--config", str(config), "--out", str(tmp_path / "out"), str(mtx))
    assert proc.returncode == 3, proc.stderr
    assert "skipped" in proc.stderr and "line 4" in proc.stderr


def test_cli_zero_matrix_file_exit_code(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"m": 10, "n": 8, "k": 2, "trials": 1, "max_iters": 50}))
    mtx = tmp_path / "zero.mtx"
    mtx.write_text(ZERO_MTX)
    proc = run_cli("real", "--config", str(config), "--out", str(tmp_path / "out"), str(mtx))
    assert proc.returncode == 3, proc.stderr
    assert "skipped" in proc.stderr and "identically zero" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_real_skips_a_non_square_symmetric_file(tmp_path):
    # the size line 3 x 2 cannot hold the mirror of entry (3, 1): the file is
    # skipped with its line, and the good file's rows are written
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"m": 10, "n": 8, "k": 2, "trials": 1, "max_iters": 50}))
    bad = tmp_path / "nonsquare.mtx"
    bad.write_text("%%MatrixMarket matrix coordinate real symmetric\n3 2 2\n1 1 1.0\n3 1 2.0\n")
    good = tmp_path / "good.mtx"
    write_matrix_market(good, np.random.default_rng(8).standard_normal((10, 6)))
    proc = run_cli("real", "--config", str(config), "--out", str(tmp_path / "out"), str(bad), str(good))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"skipped {bad}: line 2"), proc.stderr
    rows = (tmp_path / "out" / "real_bench.csv").read_text().splitlines()[1:]
    assert rows and all(row.startswith("good,") for row in rows)


def test_cli_real_skips_a_file_whose_duplicate_entries_overflow(tmp_path):
    # two finite entries of cell (1, 1) sum to inf: the file is skipped with the
    # line of the second, not ended by a traceback, and the good file's rows are written
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"m": 10, "n": 8, "k": 2, "trials": 1, "max_iters": 50}))
    bad = tmp_path / "overflow.mtx"
    bad.write_text("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.5e308\n2 2 1.0\n1 1 1.5e308\n")
    good = tmp_path / "good.mtx"
    write_matrix_market(good, np.random.default_rng(8).standard_normal((10, 6)))
    proc = run_cli("real", "--config", str(config), "--out", str(tmp_path / "out"), str(bad), str(good))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert lines == [f"skipped {bad}: line 5: entries of cell (1,1) sum to a non-finite value"], proc.stderr
    rows = (tmp_path / "out" / "real_bench.csv").read_text().splitlines()[1:]
    assert rows and all(row.startswith("good,") for row in rows)


def test_cli_oversized_matrix_file_exit_code(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"m": 10, "n": 8, "k": 2, "trials": 1, "max_iters": 50}))
    mtx = tmp_path / "huge.mtx"
    mtx.write_text(HUGE_MTX)
    proc = run_cli("real", "--config", str(config), "--out", str(tmp_path / "out"), str(mtx))
    assert proc.returncode == 3, proc.stderr
    assert "skipped" in proc.stderr and "line 2" in proc.stderr and "exceeds the cap" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_non_finite_rhs_exit_code(tmp_path):
    # a non-finite noise level is refused as configuration, before any rhs is built
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"m": 20, "n": 12, "k": 2, "trials": 1, "max_iters": 50}))
    for noise in ("inf", "nan"):
        proc = run_cli("solve", "--config", str(config), "--out", str(tmp_path / "out"), "--noise", noise)
        assert proc.returncode == 2, (noise, proc.stderr)
        assert "config error" in proc.stderr and "noise_level" in proc.stderr


@pytest.mark.parametrize("command", ["sweep-lambda", "sweep-beta", "real"])
def test_cli_noisy_sweep_exit_code(tmp_path, command):
    # the sweeps and real solve noiseless systems, so a noise level is
    # refused, not ignored; real refuses it with a good file to read
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"m": 20, "n": 12, "k": 2, "trials": 1, "max_iters": 50}))
    paths = []
    if command == "real":
        paths = [str(tmp_path / "good.mtx")]
        write_matrix_market(paths[0], np.random.default_rng(8).standard_normal((20, 12)))
    out = tmp_path / "out"
    proc = run_cli(command, "--config", str(config), "--out", str(out), "--noise", "0.05", *paths)
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr and "noise_level=0.05" in proc.stderr
    assert not out.exists()


# (flag, its text, the config file's key and value); each is off the defaults
# and off OVERRIDE_BASE, so each changes what compare solves or where it writes
OVERRIDE_BASE = {"m": 12, "n": 8, "k": 2, "trials": 2, "max_iters": 200, "m_grid": [12], "k_grid": [2]}
OVERRIDES = [
    ("--seed", "3", "master_seed", 3),
    ("--trials", "3", "trials", 3),
    ("--out", "elsewhere", "out_dir", "elsewhere"),
    ("--method", "sskm", "methods", ["sskm"]),
    ("--step", "inexact", "step_mode", "inexact"),
    ("--lambda", "0.5", "lambda", 0.5),
    ("--beta", "m/4", "beta", "m/4"),
    ("--noise", "0.05", "noise_level", 0.05),
]


@pytest.mark.parametrize("flag, text, key, value", OVERRIDES, ids=[case[0] for case in OVERRIDES])
def test_cli_override_flag_writes_the_field_it_names(tmp_path, monkeypatch, capsys, flag, text, key, value):
    field = "lam" if key == "lambda" else key
    expected = tuple(value) if isinstance(value, list) else value
    args = cli.build_parser().parse_args(["compare", flag, text])
    assert cli._config_from_args(args) == dataclasses.replace(ExperimentConfig(), **{field: expected})

    # the flag on top of a config file writes what the file holding its value writes
    monkeypatch.chdir(tmp_path)
    bodies = []
    for entry, argv in (({}, [flag, text]), ({key: value}, [])):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**OVERRIDE_BASE, **entry}))
        assert cli.main(["compare", "--config", str(config), *argv]) == 0, capsys.readouterr().err
        out = tmp_path / (value if key == "out_dir" else "out")
        bodies.append({csv.name: csv.read_text() for csv in sorted(out.glob("*.csv"))})
        for csv in out.glob("*.csv"):
            csv.unlink()
    assert bodies[0] == bodies[1]
    assert "convergence_curves.csv" in bodies[0]
    assert ("mse_grid_noisy.csv" in bodies[0]) == (key == "noise_level")


# each command's override flags but --noise, which the sweeps and real refuse
COMMAND_FLAGS = {
    "solve": ("--seed", "--out", "--method", "--step", "--lambda", "--beta", "--noise"),
    "sweep-lambda": ("--seed", "--trials", "--out", "--step", "--beta"),
    "sweep-beta": ("--seed", "--trials", "--out", "--step", "--lambda"),
    "compare": tuple(case[0] for case in OVERRIDES),
    "real": tuple(case[0] for case in OVERRIDES if case[0] != "--noise"),
}
COMMAND_OVERRIDES = [(command, *case) for command, flags in COMMAND_FLAGS.items() for case in OVERRIDES if case[0] in flags]


def _written_csvs(root):
    """Every CSV under ``root`` by its path, which is then removed; real's CPU
    times are left out, as they differ from run to run."""
    bodies = {}
    for csv in sorted(root.rglob("*.csv")):
        lines = csv.read_text().splitlines(keepends=True)
        bodies[csv.relative_to(root).as_posix()] = "".join(line for line in lines if ",mean_cpu[" not in line)
        csv.unlink()
    return bodies


@pytest.mark.parametrize(
    "command, flag, text, key, value", COMMAND_OVERRIDES, ids=[f"{case[0]}{case[1]}" for case in COMMAND_OVERRIDES]
)
def test_cli_each_command_reads_the_flags_it_takes(tmp_path, monkeypatch, capsys, command, flag, text, key, value):
    # every flag a command takes lands in its field, and it changes what the
    # command writes just as the config file holding its value does
    paths = []
    if command == "real":
        paths = [str(tmp_path / "good.mtx")]
        write_matrix_market(paths[0], np.random.default_rng(8).standard_normal((12, 8)))
    field = "lam" if key == "lambda" else key
    expected = tuple(value) if isinstance(value, list) else value
    args = cli.build_parser().parse_args([command, flag, text, *paths])
    assert cli._config_from_args(args) == dataclasses.replace(ExperimentConfig(), **{field: expected})

    # solve reads beta only for SSKM
    base = {**OVERRIDE_BASE, "methods": ["sskm"]} if (command, flag) == ("solve", "--beta") else OVERRIDE_BASE
    monkeypatch.chdir(tmp_path)
    writes = []
    for entry, argv in (({}, [flag, text]), ({key: value}, []), ({}, [])):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**base, **entry}))
        assert cli.main([command, "--config", str(config), *argv, *paths]) == 0, capsys.readouterr().err
        writes.append(_written_csvs(tmp_path))
    assert writes[0] and writes[0] == writes[1]
    assert writes[0] != writes[2]


REMOVED_FLAGS = [
    ("solve", "--trials", "3"),
    ("sweep-lambda", "--method", "rk"),
    ("sweep-lambda", "--lambda", "0.5"),
    ("sweep-beta", "--method", "rk"),
    ("sweep-beta", "--beta", "m/4"),
]


@pytest.mark.parametrize("command, flag, text", REMOVED_FLAGS, ids=[f"{case[0]}{case[1]}" for case in REMOVED_FLAGS])
def test_cli_refuses_a_flag_its_command_does_not_read(tmp_path, command, flag, text):
    # solve runs one trial, the sweeps solve SSKM only, sweep-lambda sweeps
    # its own weights and sweep-beta its own subset sizes
    config = tmp_path / "config.json"
    config.write_text(json.dumps(OVERRIDE_BASE))
    proc = run_cli(command, "--config", str(config), "--out", str(tmp_path / "out"), flag, text)
    assert proc.returncode == 2, proc.stderr
    assert f"unrecognized arguments: {flag} {text}" in proc.stderr
    assert not list(tmp_path.rglob("*.csv"))


def test_cli_solver_error_exit_code(tmp_path, monkeypatch, capsys):
    # a non-finite iterate ends the command with exit 4 and one line on stderr
    def diverging(system, spec, ground_truth=None, residuals=False):
        raise NonFiniteIterateError("iterate became non-finite at iteration 7")

    monkeypatch.setattr(harness, "run", diverging)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"m": 20, "n": 12, "k": 2, "trials": 1, "max_iters": 50}))
    code = cli.main(["solve", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_SOLVER_ERROR == 4
    err = capsys.readouterr().err
    assert err == "solver error: iterate became non-finite at iteration 7\n"
