"""Theoretical quantities for checking solver convergence behavior at runtime.

Everything here is pure computation on systems, iterates, and traces: the
smallest nonzero singular value, the residual-concentration ratio gamma (a
value in [1, beta] that modulates the per-step contraction factor), the
contraction factor itself, the error bound relating Bregman distance to the
residual, and the expected-error envelopes for noiseless and noisy data.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import NamedTuple

import numpy as np

from .bregman import DualPair, StepMode, _bregman_gap, soft_threshold
from .errors import (
    AllZeroError,
    InvalidGammaError,
    NonFiniteDataError,
    ZeroMatrixError,
    ZeroResidualError,
    ZeroTruthError,
)
from .linsys import LinearSystem, residual
from .sampling import _check_beta, _max_rank_sums

NONZERO_ENTRY_TOL = 1e-12
SINGULAR_VALUE_CUTOFF = 1e-10


def mse(x, x_hat) -> float:
    """Relative squared error ||x - x_hat||^2 / ||x_hat||^2."""
    x = np.asarray(x, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    denom = float(np.dot(x_hat, x_hat))
    if denom == 0.0:
        raise ZeroTruthError("ground truth is zero; relative error undefined")
    diff = x - x_hat
    return float(np.dot(diff, diff)) / denom


class SingularValues(NamedTuple):
    smallest_nonzero: float
    smallest: float
    largest: float

    @property
    def cond(self) -> float:
        return self.largest / self.smallest if self.smallest > 0 else float("inf")


def smallest_nonzero_singular_value(system: LinearSystem | np.ndarray) -> SingularValues:
    """Singular value summary via a dense SVD.

    ``smallest_nonzero`` excludes values below 1e-10 times the largest;
    ``smallest`` may be zero for rank-deficient matrices. A
    :class:`LinearSystem` keeps its singular values, so the SVD runs once per
    system. An array with a NaN or infinite entry raises
    :class:`NonFiniteDataError`.
    """
    if isinstance(system, LinearSystem):
        svals = system.singular_values
    else:
        a = np.asarray(system, dtype=float)
        if not np.isfinite(a).all():
            raise NonFiniteDataError("matrix has a NaN or infinite entry")
        svals = np.linalg.svd(a, compute_uv=False)
    largest = float(svals[0]) if svals.size else 0.0
    if largest == 0.0:
        raise ZeroMatrixError("matrix is identically zero")
    nonzero = svals[svals > SINGULAR_VALUE_CUTOFF * largest]
    return SingularValues(
        smallest_nonzero=float(nonzero[-1]),
        smallest=float(svals[-1]),
        largest=largest,
    )


def min_abs_nonzero(x_hat) -> float:
    """Smallest absolute value among entries larger than 1e-12 in magnitude."""
    x_hat = np.asarray(x_hat, dtype=float)
    mags = np.abs(x_hat)
    mags = mags[mags > NONZERO_ENTRY_TOL]
    if mags.size == 0:
        raise AllZeroError("vector has no entry above 1e-12")
    return float(mags.min())


def gamma_from_residuals(residuals, beta: int) -> float:
    """Ratio of subset-summed squared 2-norms to squared max-norms of residual subvectors.

    Sums run over all C(m, beta) subsets, exactly and with no enumeration:
    every entry lies in C(m-1, beta-1) subsets, and sorted by magnitude the
    entry at rank p is the subset maximum in C(m-1-p, beta-1) of them. The
    sums are Python integers (squared integer mantissas, so finite input
    never overflows) and the ratio is one correctly rounded division. It is
    exactly 1 for a single nonzero entry and exactly beta for constant
    magnitudes. Raises NonFiniteDataError for a NaN or infinite entry and
    InvalidBetaError for a beta that is no integer or lies outside [1, m].
    """
    r = np.asarray(residuals, dtype=float)
    m = r.shape[0]
    _check_beta(beta, m)
    sq, total, _ = _max_rank_sums(r, beta, r)
    if total == 0:
        raise ZeroResidualError("gamma is undefined at a solution")
    return comb(m - 1, beta - 1) * sum(sq) / total


def gamma_k(system: LinearSystem, x, beta: int) -> float:
    """``gamma_from_residuals`` evaluated at the residual of ``x``."""
    return gamma_from_residuals(residual(system, x), beta)


class ContractionFactor(NamedTuple):
    value: float
    in_unit_interval: bool


def contraction_factor(
    sigma_min: float,
    lam: float,
    x_min_abs: float,
    beta: int,
    gamma: float,
    m: int,
) -> ContractionFactor:
    """Per-step expected contraction factor of the Bregman distance.

    For lam > 0: 1 - (beta * sigma_min^2) / (2 * gamma * m) * x_min_abs / (x_min_abs + 2*lam).
    For lam = 0: 1 - beta * sigma_min^2 / (gamma * m); pass the smallest
    (possibly zero) singular value in that case, the smallest nonzero one
    otherwise. Values outside (0, 1) are reported with the flag cleared.
    A beta that is no integer or lies outside [1, m] raises
    :class:`InvalidBetaError`, before gamma is checked against [1, beta].
    """
    _check_beta(beta, m)
    if not (1.0 - 1e-9 <= gamma <= beta + 1e-9):
        raise InvalidGammaError(f"gamma={gamma} outside [1, beta={beta}]")
    if lam > 0:
        q = 1.0 - (beta * sigma_min**2) / (2.0 * gamma * m) * (x_min_abs / (x_min_abs + 2.0 * lam))
    else:
        q = 1.0 - (beta * sigma_min**2) / (gamma * m)
    return ContractionFactor(value=q, in_unit_interval=0.0 < q < 1.0)


def error_bound_margin(
    pair: DualPair,
    system: LinearSystem,
    x_hat,
    lam: float,
    sigma_min: float,
) -> float:
    """Slack in the bound relating Bregman distance to the squared residual.

    Returns RHS - LHS where LHS is the Bregman distance from the pair to
    ``x_hat`` and RHS is the residual-based bound; nonnegative when the bound
    holds. For lam > 0 the pair's dual must lie in the row space (true for
    any solver run started at zero); for lam = 0 the matrix must have full
    column rank.
    """
    r = residual(system, pair.primal)
    x_hat = np.asarray(x_hat, dtype=float)
    xmin = min_abs_nonzero(x_hat) if lam > 0 else 0.0
    return _margin(float(np.dot(r, r)), pair.primal, pair.dual, x_hat, lam, sigma_min, xmin)


def _margin(res2: float, x, dual, x_hat, lam: float, sigma_min: float, xmin: float) -> float:
    """:func:`error_bound_margin` from the squared residual of x = soft_threshold(dual, lam)."""
    if lam > 0:
        rhs = res2 / sigma_min**2 * (xmin + 2.0 * lam) / xmin
    else:
        rhs = res2 / (2.0 * sigma_min**2)
    return rhs - _bregman_gap(x, dual, x_hat, lam)


def one_two_norm(system: LinearSystem) -> float:
    """max_i ||a_i||_1 over the (normalized) rows."""
    return float(np.abs(system.rows).sum(axis=1).max())


def noisy_envelope(
    q_sequence,
    lam: float,
    x_hat,
    delta_inf: float,
    a_one_two_norm: float,
    mode: StepMode,
) -> np.ndarray:
    """Upper envelope for the expected error under noisy data.

    Element j bounds E[||x_{j+1} - x_hat||_2] using contraction factors
    q_0..q_j: the noiseless term sqrt(prod(q) * (2*lam*||x_hat||_1 +
    ||x_hat||_2^2)) plus a noise term sqrt(sum(q) * delta_inf^2 / 2), the
    latter inflated by (1 + 4*lam*||A||_{1,2}) in exact mode. With
    delta_inf = 0 this reduces to the noiseless envelope.
    """
    q = np.asarray(q_sequence, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    c0 = 2.0 * lam * np.abs(x_hat).sum() + float(np.dot(x_hat, x_hat))
    noiseless = np.sqrt(np.cumprod(q) * c0)
    noise_scale = delta_inf**2 / 2.0
    if mode is StepMode.EXACT:
        noise_scale *= 1.0 + 4.0 * lam * a_one_two_norm
    return noiseless + np.sqrt(np.cumsum(q) * noise_scale)


def density(matrix) -> float:
    """Fraction of structurally nonzero entries."""
    a = matrix.rows if isinstance(matrix, LinearSystem) else np.asarray(matrix, dtype=float)
    return float(np.count_nonzero(a)) / a.size


@dataclass(frozen=True, eq=False)
class TheoryReport:
    """Theory quantities evaluated along one run, at checkpoint iterations."""

    sigma_min_tilde: float
    sigma_min: float
    sigma_max: float
    x_min_abs: float
    checkpoints: np.ndarray
    gamma: np.ndarray
    q: np.ndarray
    bound_margins: np.ndarray
    a_one_two_norm: float


def replay_duals(system: LinearSystem, trace):
    """Yield the dual iterate before each iteration of ``trace``, from zero as ``run`` starts.

    The trace stores only scalars, so the iterates are rebuilt from its
    recorded steps and chosen rows. Each yielded array is a fresh one.
    """
    dual = np.zeros(system.n)
    for k in range(trace.iterations):
        yield dual
        dual = dual - trace.step[k] * system.rows[trace.chosen[k]]


def build_theory_report(
    system: LinearSystem,
    x_hat,
    trace,
    lam: float,
    beta: int,
    checkpoints=None,
) -> TheoryReport:
    """Evaluate the theory quantities along a finished solver trace.

    The iterates come from :func:`replay_duals`, up to the last checkpoint.
    Default checkpoints are every iteration on tiny systems and
    every 100th iteration otherwise. Given checkpoints are sorted and
    deduplicated, and the report's arrays follow that order; each must lie
    in [0, trace.iterations), else ValueError.
    """
    x_hat = np.asarray(x_hat, dtype=float)
    sv = smallest_nonzero_singular_value(system)
    xmin = min_abs_nonzero(x_hat)
    iters = trace.iterations
    if checkpoints is None:
        stride = 1 if system.m <= 20 else 100
        checkpoints = np.arange(0, iters, stride)
    checkpoints = np.unique(np.asarray(checkpoints, dtype=int))
    if checkpoints.size and (checkpoints[0] < 0 or checkpoints[-1] >= iters):
        raise ValueError(f"checkpoints must lie in [0, {iters}), got {checkpoints.tolist()}")

    gammas = np.full(checkpoints.shape[0], np.nan)
    qs = np.full(checkpoints.shape[0], np.nan)
    margins = np.full(checkpoints.shape[0], np.nan)
    pos = 0
    for k, dual in enumerate(replay_duals(system, trace)):
        if pos == checkpoints.size:
            break
        if k < checkpoints[pos]:
            continue
        x = soft_threshold(dual, lam)
        r = system.rows @ x - system.rhs
        if np.any(r != 0.0):
            gammas[pos] = gamma = gamma_from_residuals(r, beta)
            qs[pos] = contraction_factor(sv.smallest_nonzero, lam, xmin, beta, gamma, system.m).value
        margins[pos] = _margin(float(np.dot(r, r)), x, dual, x_hat, lam, sv.smallest_nonzero, xmin)
        pos += 1
    return TheoryReport(
        sigma_min_tilde=sv.smallest_nonzero,
        sigma_min=sv.smallest,
        sigma_max=sv.largest,
        x_min_abs=xmin,
        checkpoints=checkpoints,
        gamma=gammas,
        q=qs,
        bound_margins=margins,
        a_one_two_norm=one_two_norm(system),
    )
