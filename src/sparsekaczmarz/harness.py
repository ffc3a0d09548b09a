"""Experiment harness: synthetic instances, noise, parameter sweeps, reports.

Protocols follow the benchmark conventions used throughout: standard normal
matrices with a k-sparse standard normal ground truth, relative-error
stopping at 1e-6 with a 200000-iteration budget, and per-trial RNG streams
derived from a master seed so that every report is reproducible byte for
byte. All CSV output uses a header row, LF line endings, and floats with 17
significant digits.

Every driver takes one trial path. Trial t of cell (m, k) builds its instance
once, from ``child_rng(master_seed, m, k, t, 0)``, and its noise from
``child_rng(master_seed, m, k, t, 1)``; every solve on it is seeded with
``child_seed(master_seed, m, k, t, 2, ...)``. The trailing ids are (method
id, step-mode id) in ``compare_methods`` and ``solve_single``, the lambda
index in ``sweep_lambda`` and (step-mode id, beta index) in ``sweep_beta``;
``real_matrix_bench`` puts the CRC-32 of the file name in place of (m, k).
RK always takes the inexact step, so a single RK solve is ``rk-inexact``.
Matrix Market files that cannot be read or parsed, hold an identically zero
matrix, or have fewer rows than an integer beta, are skipped and reported.
The two sweeps and ``real_matrix_bench`` run on noiseless data and refuse a
positive noise level. ``compare_methods`` and ``sweep_lambda`` resolve beta
for every m of their grid before the first solve.

Every solve goes through ``_solve``, which returns ``run``'s trace with its
MSE and Bregman records; only ``solve_single``, whose ``trace.csv`` writes
them, asks for its residual norms as well. A driver reduces each trace to
what its CSV needs as soon as the solve returns (final MSE, iteration count,
the curve at the checkpoints), so no driver holds a trace past that;
``solve_single`` returns its one trace. ``real_matrix_bench`` times each ``_solve`` call.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
import sys
import time
import zlib
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from .bregman import StepMode
from .diagnostics import density, smallest_nonzero_singular_value
from .errors import (
    ConfigError,
    InvalidSparsityError,
    ParseError,
    UnsupportedFieldError,
    ZeroMatrixError,
)
from .linsys import LinearSystem, _check_nonnegative, _normalized, _real_vector, _row_norms, normalize_rows
from .matrixmarket import read_matrix_market
from .sampling import _is_integer
from .solvers import IterationTrace, RunStatus, SolverSpec, StoppingRule, run

# grid and candidate values for the standard sweep protocols
LAMBDA_CANDIDATES = (0.01, 0.1, 1.0, 5.0, 10.0)
DEFAULT_M_GRID = tuple(range(140, 301, 20))
DEFAULT_K_GRID = tuple(range(5, 31, 5))
BETA_CANDIDATE_FRACTIONS = ("1", "m/4", "m/2", "m")

_METHOD_IDS = {"rk": 0, "srk": 1, "sskm": 2}
_MODE_IDS = {"inexact": 0, "exact": 1}


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for one experiment; mirrored one-to-one by the JSON config file.

    Every numeric field is checked for its type (an integer field takes no
    float, no field takes a bool or a string) and its range, every k of
    ``k_grid`` against n too; a bad value raises :class:`ConfigError`. So
    does a repeated entry in ``methods``, ``m_grid`` or ``k_grid``, which
    would solve or write the same cell twice. Every solve passes its ground
    truth and stops on ``mse_target`` (none when it is null) or on
    ``max_iters``. The CLI's override flags write the fields they name,
    ``--method`` as the one entry of ``methods``.
    """

    m: int = 300
    n: int = 200
    k: int = 5
    lam: float = 1.0
    beta: int | str = "m/2"
    step_mode: str = "both"  # "exact", "inexact", or "both"
    methods: tuple[str, ...] = ("srk", "sskm")
    noise_level: float = 0.0
    trials: int = 100
    master_seed: int = 0
    mse_target: float | None = 1e-6
    max_iters: int = 200_000
    out_dir: str = "out"
    m_grid: tuple[int, ...] | None = None
    k_grid: tuple[int, ...] | None = None

    def __post_init__(self):
        for name in ("m", "n", "k", "trials", "max_iters"):
            _check_integer(name, getattr(self, name), 1)
        _check_integer("master_seed", self.master_seed, 0)
        for name in ("m_grid", "k_grid"):
            for value in getattr(self, name) or ():
                _check_integer(name, value, 1)
        for name in ("lam", "noise_level", "mse_target"):
            value = getattr(self, name)
            if value is None and name == "mse_target":
                continue
            key = "lambda" if name == "lam" else name  # as the config file spells it
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{key} must be a number, got {value!r}")
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{key} must be finite and nonnegative, got {value}")
        _check_sparsity("k", (self.k,), self.n)
        _check_sparsity("k_grid", self.k_grid or (), self.n)
        if not isinstance(self.out_dir, (str, os.PathLike)):
            raise ConfigError(f"out_dir must be a path, got {self.out_dir!r}")
        if self.step_mode not in ("exact", "inexact", "both"):
            raise ConfigError(f"step_mode must be exact/inexact/both, got {self.step_mode!r}")
        if not self.methods:
            raise ConfigError("methods must name at least one method")
        for name in self.methods:
            if not isinstance(name, str) or name not in _METHOD_IDS:
                raise ConfigError(f"unknown method {name!r} in methods")
        for name in ("methods", "m_grid", "k_grid"):
            values = getattr(self, name) or ()
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} repeats an entry: {list(values)}")
        # the spec's type and form here; its range is checked against each system's m
        resolve_beta(self.beta, sys.maxsize)

    def grid(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The (m, k) grid, its k grid checked against n: a given one is also
        checked at construction, the default one only here, as only the grid
        drivers read it."""
        k_grid = tuple(self.k_grid) if self.k_grid else DEFAULT_K_GRID
        _check_sparsity("k_grid" if self.k_grid else f"the default k_grid {DEFAULT_K_GRID}", k_grid, self.n)
        return tuple(self.m_grid) if self.m_grid else DEFAULT_M_GRID, k_grid


def _check_integer(name: str, value, low: int) -> None:
    if not _is_integer(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")


def _check_sparsity(name: str, ks, n: int) -> None:
    for k in ks:
        if k > n:
            raise ConfigError(f"{name}: sparsity k={k} outside [1, n={n}]")


def load_config(path) -> ExperimentConfig:
    """Read a flat JSON config file; unknown keys are errors.

    Keys are the ``ExperimentConfig`` field names, except that the
    regularization weight is spelled ``lambda`` (``lam`` is unknown).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    names = {f.name for f in fields(ExperimentConfig)}
    kwargs = {}
    for key, value in raw.items():
        name = "lam" if key == "lambda" else key
        if key == "lam" or name not in names:
            raise ConfigError(f"unknown config key {key!r}")
        if name in ("methods", "m_grid", "k_grid") and value is not None:
            if not isinstance(value, list):
                raise ConfigError(f"{key} must be a list, got {value!r}")
            value = tuple(value)
        kwargs[name] = value
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def resolve_beta(beta: int | str, m: int) -> int:
    """Turn a beta spec (an integer, or one of '1', 'm', 'm/2', 'm/4') into a
    count; a float or a bool is a :class:`ConfigError`, as is a bad string."""
    if isinstance(beta, str):
        spec = beta.strip().lower().replace(" ", "")
        if spec == "m":
            value = m
        elif spec in ("m/2", "m/4"):
            value = m // int(spec[2:])
        else:
            try:
                value = int(spec)
            except ValueError:
                raise ConfigError(f"bad beta spec {beta!r}") from None
    elif _is_integer(beta):
        value = int(beta)
    else:
        raise ConfigError(f"beta must be an integer or a spec string, got {beta!r}")
    if not 1 <= value <= m:
        raise ConfigError(f"beta={value} outside [1, m={m}]")
    return value


def child_seed(master_seed: int, *parts: int) -> int:
    """Deterministic 64-bit seed derived from the master seed and context ids."""
    ss = np.random.SeedSequence([int(master_seed), *(int(p) for p in parts)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def child_rng(master_seed: int, *parts: int) -> np.random.Generator:
    return np.random.default_rng(child_seed(master_seed, *parts))


def _sparse_truth(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-sparse standard normal vector: the support is drawn first, then the values.

    The two draws stay separate statements: an assignment evaluates its right
    side first, which would swap them and change every stream.
    """
    support = rng.choice(n, size=k, replace=False)
    x_hat = np.zeros(n)
    x_hat[support] = rng.standard_normal(k)
    return x_hat


def gaussian_instance(
    m: int, n: int, k: int, rng: np.random.Generator
) -> tuple[LinearSystem, np.ndarray, np.ndarray]:
    """Standard normal matrix, k-sparse standard normal truth, consistent rhs.

    Returns the row-normalized system, the ground truth, and the raw
    (pre-normalization) right-hand side. The system's rows are the draw
    itself, normalized in place once the raw rhs is formed, so the peak is
    the one m x n draw and the row-norm buffer; the system is bit for bit
    what ``normalize_rows`` builds from a copy of the draw.
    """
    if not 1 <= k <= n:
        raise InvalidSparsityError(f"k={k} outside [1, n={n}]")
    a_raw = rng.standard_normal((m, n))
    x_hat = _sparse_truth(n, k, rng)
    b_raw = a_raw @ x_hat
    return _normalized(a_raw, b_raw, out=a_raw), x_hat, b_raw


def add_noise(b, level: float, rng: np.random.Generator) -> tuple[np.ndarray, float, float]:
    """Add a Gaussian-direction perturbation with exact relative 2-norm ``level``.

    Returns (noisy rhs, ||e||_2, ||e||_inf); the 2-norm equals
    level * ||b||_2 by construction, so the noise magnitude is known exactly.
    A ``level`` that is negative, infinite or NaN raises ``ValueError``, and
    a ``b`` that is complex ``TypeError``, not 1-D
    :class:`DimensionMismatchError` and not finite :class:`NonFiniteDataError`.
    """
    _check_nonnegative(level, "noise level")
    b = _real_vector(b, "b")
    if level == 0.0:
        return b.copy(), 0.0, 0.0
    e = rng.standard_normal(b.shape[0])
    e *= level * np.linalg.norm(b) / np.linalg.norm(e)
    return b + e, float(np.linalg.norm(e)), float(np.abs(e).max())


def _variants(config: ExperimentConfig) -> list[tuple[str, str]]:
    modes = ("exact", "inexact") if config.step_mode == "both" else (config.step_mode,)
    out = []
    for method in config.methods:
        if method == "rk":
            out.append(("rk", "inexact"))
        else:
            out.extend((method, mode) for mode in modes)
    return out


def _variant_ids(variant: tuple[str, str]) -> tuple[int, int]:
    """(method id, step-mode id): the trailing parts of a variant's solver seed."""
    method, mode = variant
    return _METHOD_IDS[method], _MODE_IDS[mode]


def _instance(config: ExperimentConfig, m: int, k: int, trial: int) -> tuple[LinearSystem, np.ndarray, LinearSystem]:
    """Trial ``trial`` of cell (m, k): system, truth, noisy system.

    Without noise the noisy system is the system itself.
    """
    rng = child_rng(config.master_seed, m, k, trial, 0)
    system, x_hat, _ = gaussian_instance(m, config.n, k, rng)
    if config.noise_level == 0:
        return system, x_hat, system
    noise_rng = child_rng(config.master_seed, m, k, trial, 1)
    b_noisy, _, _ = add_noise(system.rhs, config.noise_level, noise_rng)
    return system, x_hat, system.with_rhs(b_noisy)


def _solve(
    config: ExperimentConfig,
    system: LinearSystem,
    x_hat: np.ndarray,
    variant: tuple[str, str],
    beta: int,
    seed: int,
    *,
    residuals: bool = False,
) -> IterationTrace:
    """One solve of ``(method, mode)`` with the config's lambda and stopping rule.

    Returns ``run``'s trace. Every solve passes its ground truth, so the trace
    has its MSE and Bregman records, and ``run`` takes at least one iteration.
    ``residuals`` is passed to ``run``: only with it does the trace hold
    residual norms.
    """
    method, mode = variant
    stop = StoppingRule(max_iters=config.max_iters, mse_target=config.mse_target)
    if method == "rk":
        spec = SolverSpec.rk(seed=seed, stop=stop)
    elif method == "srk":
        spec = SolverSpec.srk(lam=config.lam, step_mode=StepMode(mode), seed=seed, stop=stop)
    else:
        spec = SolverSpec.sskm(
            lam=config.lam, beta=beta, step_mode=StepMode(mode), seed=seed, stop=stop
        )
    return run(system, spec, ground_truth=x_hat, residuals=residuals)[1]


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path, header: Sequence[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write(config: ExperimentConfig, name: str, header: Sequence[str], rows) -> str:
    """Write one CSV into the output directory, creating it; returns the path."""
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, name)
    write_csv(path, header, rows)
    return path


TRACE_HEADER = ("experiment_id", "trial", "k_iter", "mse", "residual2", "bregman", "i_k", "t_k")


def trace_rows(experiment_id: str, trace: IterationTrace):
    """The rows of ``TRACE_HEADER``, one per iteration of a trace with a ground truth
    and residual norms. ``solve`` runs one trial, so ``trial`` is 0 in every row."""
    columns = (trace.mse, trace.residual_norm2, trace.bregman_to_truth, trace.chosen, trace.step)
    for k, record in enumerate(zip(*(column.tolist() for column in columns))):
        yield (experiment_id, 0, k, *record)


def _checkpoint_iterates(max_iters: int) -> np.ndarray:
    """Deterministic 1-based iterate checkpoints, log-spaced past 2000 iterations."""
    if max_iters <= 2000:
        return np.arange(1, max_iters + 1)
    pts = np.unique(np.round(np.logspace(0, np.log10(max_iters), 2000)).astype(int))
    return pts[pts >= 1]


# ---------------------------------------------------------------------------
# Experiment drivers
# ---------------------------------------------------------------------------


def _noiseless_only(config: ExperimentConfig, name: str) -> None:
    """The sweeps and ``real_matrix_bench`` solve noiseless systems; refuse a
    noise level rather than ignore it."""
    if config.noise_level > 0:
        raise ConfigError(f"{name} solves noiseless systems only, got noise_level={config.noise_level}")


def sweep_lambda(config: ExperimentConfig) -> dict:
    """Best regularization weight per (m, k) grid cell, by mean final MSE.

    Every solve is SSKM, whatever ``methods`` holds, over the weights of
    ``LAMBDA_CANDIDATES`` in place of ``lam``, in one step mode: the one
    ``step_mode`` names, or exact when it is ``both``. Noiseless data only:
    a positive ``noise_level`` is a :class:`ConfigError`, and so is an m of
    the grid below an integer beta, both before the first solve.
    """
    _noiseless_only(config, "sweep_lambda")
    m_grid, k_grid = config.grid()
    betas = {m: resolve_beta(config.beta, m) for m in m_grid}
    variant = _variants(replace(config, methods=("sskm",)))[0]
    lam_configs = [replace(config, lam=lam) for lam in LAMBDA_CANDIDATES]
    rows = []
    for m, beta in betas.items():
        for k in k_grid:
            finals = [[] for _ in lam_configs]
            for trial in range(config.trials):
                system, x_hat, _ = _instance(config, m, k, trial)
                for lam_idx, lam_config in enumerate(lam_configs):
                    seed = child_seed(config.master_seed, m, k, trial, 2, lam_idx)
                    trace = _solve(lam_config, system, x_hat, variant, beta, seed)
                    finals[lam_idx].append(trace.final_mse)
            means = [float(np.mean(values)) for values in finals]
            for lam, mean_mse in zip(LAMBDA_CANDIDATES, means):
                rows.append((m, k, f"mean_mse[lambda={lam:g}]", mean_mse))
            best = LAMBDA_CANDIDATES[int(np.argmin(means))]
            rows.append((m, k, "best_lambda", float(best)))
    path = _write(config, "lambda_sweep.csv", ("m", "k", "stat", "value"), rows)
    return {"rows": rows, "path": path}


def sweep_beta(config: ExperimentConfig) -> dict:
    """Mean and spread of the final MSE across subset sizes, per step mode.

    Every solve is SSKM, whatever ``methods`` holds, over the subset sizes of
    ``BETA_CANDIDATE_FRACTIONS`` in place of ``beta``, in the step modes
    ``step_mode`` names. Noiseless data only: a positive ``noise_level`` is
    a :class:`ConfigError`.
    """
    _noiseless_only(config, "sweep_beta")
    m, k = config.m, config.k
    betas = [resolve_beta(spec, m) for spec in BETA_CANDIDATE_FRACTIONS]
    modes = [mode for mode in ("inexact", "exact") if config.step_mode in ("both", mode)]
    # keyed by beta index: two fractions can resolve to the same beta
    finals = {(mode, beta_idx): [] for mode in modes for beta_idx in range(len(betas))}
    for trial in range(config.trials):
        system, x_hat, _ = _instance(config, m, k, trial)
        for mode, beta_idx in finals:
            seed = child_seed(config.master_seed, m, k, trial, 2, _MODE_IDS[mode], beta_idx)
            trace = _solve(config, system, x_hat, ("sskm", mode), betas[beta_idx], seed)
            finals[mode, beta_idx].append(trace.final_mse)
    rows = []
    for (mode, beta_idx), values in finals.items():
        beta = betas[beta_idx]
        rows.append((mode, beta, "mean_mse", float(np.mean(values))))
        rows.append((mode, beta, "std_mse", float(np.std(values, ddof=1)) if len(values) > 1 else 0.0))
    path = _write(config, "beta_sweep.csv", ("step", "beta", "stat", "value"), rows)
    return {"rows": rows, "path": path}


def compare_methods(config: ExperimentConfig) -> dict:
    """MSE grids (noiseless, and noisy when configured) plus convergence curves.

    Grid cells cover the configured (m, k) grid; instances are paired across
    method variants within each trial. Convergence curves (median and
    quartile bands across trials, at deterministic checkpoints) are recorded
    for the primary cell (config.m, config.k) on noiseless data; a solve that
    stopped before a checkpoint counts there with its final MSE. A grid
    without that cell, or with an m below an integer beta, raises
    :class:`ConfigError` before the first solve.
    """
    m_grid, k_grid = config.grid()
    if config.m not in m_grid or config.k not in k_grid:
        raise ConfigError(
            f"compare records its curves at (m, k) = ({config.m}, {config.k}), "
            f"a cell outside m_grid {list(m_grid)} x k_grid {list(k_grid)}"
        )
    betas = {m: resolve_beta(config.beta, m) for m in m_grid}
    variants = _variants(config)
    grid_rows = []
    noisy_rows = []
    curve_rows = []
    checkpoints = _checkpoint_iterates(config.max_iters)
    breg_ok = True

    for m, beta in betas.items():
        for k in k_grid:
            primary = (m, k) == (config.m, config.k)
            finals = {v: [] for v in variants}
            finals_noisy = {v: [] for v in variants}
            iters = {v: [] for v in variants}
            curves = {v: [] for v in variants}
            for trial in range(config.trials):
                system, x_hat, noisy_system = _instance(config, m, k, trial)
                for variant in variants:
                    seed = child_seed(config.master_seed, m, k, trial, 2, *_variant_ids(variant))
                    trace = _solve(config, system, x_hat, variant, beta, seed)
                    finals[variant].append(trace.final_mse)
                    iters[variant].append(trace.iterations)
                    if primary:
                        curves[variant].append(trace.mse[np.minimum(checkpoints, trace.iterations) - 1])
                        breg_ok = breg_ok and not np.any(np.diff(trace.bregman_to_truth) > 1e-10)
                    if config.noise_level > 0:
                        noisy_trace = _solve(config, noisy_system, x_hat, variant, beta, seed)
                        finals_noisy[variant].append(noisy_trace.final_mse)
            for (method, mode), values in finals.items():
                arr = np.asarray(values)
                grid_rows.append((m, k, method, mode, "mean_mse", float(arr.mean())))
                grid_rows.append((m, k, method, mode, "median_mse", float(np.median(arr))))
                grid_rows.append((m, k, method, mode, "mean_iters", float(np.mean(iters[(method, mode)]))))
            for (method, mode), values in finals_noisy.items():
                if values:
                    arr = np.asarray(values)
                    noisy_rows.append((m, k, method, mode, "mean_mse", float(arr.mean())))
                    noisy_rows.append((m, k, method, mode, "median_mse", float(np.median(arr))))
            if primary:
                for (method, mode), per_trial in curves.items():
                    # trials along axis 0, one column per checkpoint
                    mat = np.asarray(per_trial)
                    stats = (
                        np.median(mat, axis=0),
                        np.quantile(mat, 0.25, axis=0),
                        np.quantile(mat, 0.75, axis=0),
                        mat.min(axis=0),
                        mat.max(axis=0),
                    )
                    for iterate, *values in zip(checkpoints.tolist(), *(stat.tolist() for stat in stats)):
                        curve_rows.append((method, mode, iterate, *values))

    grid_header = ("m", "k", "method", "step", "stat", "value")
    paths = {"grid": _write(config, "mse_grid_noiseless.csv", grid_header, grid_rows)}
    if noisy_rows:
        paths["grid_noisy"] = _write(config, "mse_grid_noisy.csv", grid_header, noisy_rows)
    paths["curves"] = _write(
        config,
        "convergence_curves.csv",
        ("method", "step", "k_iter", "median_mse", "q25_mse", "q75_mse", "min_mse", "max_mse"),
        curve_rows,
    )
    return {
        "grid_rows": grid_rows,
        "noisy_rows": noisy_rows,
        "curve_rows": curve_rows,
        "paths": paths,
        "bregman_monotone": breg_ok,
    }


def real_matrix_bench(paths: Sequence[str], config: ExperimentConfig) -> dict:
    """Iteration and CPU cost of each method on externally supplied matrices.

    Files that cannot be read or parsed, hold an identically zero matrix, or
    have fewer rows than an integer ``beta``, are reported in ``errors`` and
    skipped. Rows with numerically zero norm are dropped (and counted) before
    normalization. Ground truths are synthetic k-sparse vectors, one per
    trial; means are over converged trials and '--' marks methods for which
    no trial converged within the budget. The systems are noiseless: a
    positive ``noise_level`` is a :class:`ConfigError`, before any file is read.
    Each file's rows are normalized once, into one new matrix beside the
    file's (a copy of the kept rows is made only when a row is dropped),
    and each trial's system shares them with its own rhs.
    """
    _noiseless_only(config, "real_matrix_bench")
    variants = _variants(config)
    rows = []
    errors = {}
    for path in paths:
        name = os.path.splitext(os.path.basename(path))[0]
        name_id = zlib.crc32(name.encode("utf-8"))
        try:
            raw = read_matrix_market(path)
            sv = smallest_nonzero_singular_value(raw)
            keep = _row_norms(raw) >= 1e-14
            kept = raw if keep.all() else raw[keep]
            beta = resolve_beta(config.beta, kept.shape[0])
        except (OSError, ParseError, UnsupportedFieldError, ZeroMatrixError, ConfigError) as exc:
            errors[path] = exc  # report per file, keep going
            continue
        dropped = int(np.count_nonzero(~keep))
        m, n = kept.shape
        k = min(config.k, n)
        rows.append((name, m, n, "density", density(raw)))
        rows.append((name, m, n, "cond", sv.cond))
        rows.append((name, m, n, "sigma_min_tilde", sv.smallest_nonzero))
        rows.append((name, m, n, "dropped_zero_rows", dropped))
        converged = {v: [] for v in variants}
        # the rows are normalized once; each trial's rhs is divided by the same scales
        unit = normalize_rows(kept, np.zeros(m))
        for trial in range(config.trials):
            x_hat = _sparse_truth(n, k, child_rng(config.master_seed, name_id, trial, 0))
            system = unit.with_rhs((kept @ x_hat) / unit.row_scales)
            for variant in variants:
                seed = child_seed(config.master_seed, name_id, trial, 2, *_variant_ids(variant))
                start = time.perf_counter()
                trace = _solve(config, system, x_hat, variant, beta, seed)
                elapsed = time.perf_counter() - start
                if trace.status is RunStatus.CONVERGED:
                    converged[variant].append((trace.iterations, elapsed))
        for (method, mode), done in converged.items():
            label = f"{method}-{mode}"
            mean_iters = mean_cpu = "--"
            if done:
                its, cpus = zip(*done)
                mean_iters, mean_cpu = float(np.mean(its)), float(np.mean(cpus))
            rows.append((name, m, n, f"mean_iters[{label}]", mean_iters))
            rows.append((name, m, n, f"mean_cpu[{label}]", mean_cpu))
            rows.append((name, m, n, f"converged[{label}]", len(done)))
    out_path = _write(config, "real_bench.csv", ("matrix", "m", "n", "stat", "value"), rows)
    return {"rows": rows, "path": out_path, "errors": errors}


def solve_single(config: ExperimentConfig) -> dict:
    """One seeded run of the first method of ``config.methods``, on trial 0 of
    cell (config.m, config.k).

    Writes the full iteration trace and returns ``run``'s trace under
    ``"trace"``. The variant is the first that ``compare_methods`` runs, so
    RK is always ``rk-inexact``.
    """
    variant = _variants(config)[0]
    m, k = config.m, config.k
    _, x_hat, system = _instance(config, m, k, 0)
    seed = child_seed(config.master_seed, m, k, 0, 2, *_variant_ids(variant))
    trace = _solve(config, system, x_hat, variant, resolve_beta(config.beta, m), seed, residuals=True)
    experiment_id = f"solve-{'-'.join(variant)}-m{m}-n{config.n}-k{k}"
    path = _write(config, "trace.csv", TRACE_HEADER, trace_rows(experiment_id, trace))
    return {"trace": trace, "path": path, "experiment_id": experiment_id}
