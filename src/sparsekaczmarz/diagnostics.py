"""Theoretical quantities for checking solver convergence behavior at runtime.

Everything here is pure computation on systems, iterates, and traces: the
smallest nonzero singular value, the residual-concentration ratio gamma (a
value in [1, beta] that modulates the per-step contraction factor), the
contraction factor itself, the error bound relating Bregman distance to the
residual, and the expected-error envelopes for noiseless and noisy data.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import comb, isfinite
from typing import NamedTuple

import numpy as np

from .bregman import DualPair, StepMode, _bregman_gap, _check_lam, _check_step_mode, _check_vectors, soft_threshold
from .errors import (
    AllZeroError,
    DimensionMismatchError,
    InvalidGammaError,
    NonFiniteDataError,
    ZeroMatrixError,
    ZeroResidualError,
    ZeroTruthError,
)
from .linsys import LinearSystem, _real, _real_vector, residual
from .sampling import _check_beta

NONZERO_ENTRY_TOL = 1e-12
SINGULAR_VALUE_CUTOFF = 1e-10


def mse(x, x_hat) -> float:
    """Relative squared error ||x - x_hat||^2 / ||x_hat||^2.

    ``x`` and ``x_hat`` must be real (``TypeError``) vectors of one length
    (:class:`DimensionMismatchError`) with finite entries
    (:class:`NonFiniteDataError` naming the one that is not).
    """
    x = np.asarray(_real(x, "x"), dtype=float)
    x_hat = np.asarray(_real(x_hat, "x_hat"), dtype=float)
    _check_vectors(x, x_hat, "x and x_hat")
    # after the shape check, whose message names both: a NaN entry would make the error NaN
    x, x_hat = _real_vector(x, "x"), _real_vector(x_hat, "x_hat")
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
    """Smallest absolute value among entries larger than 1e-12 in magnitude.

    ``x_hat`` must be a real (``TypeError``), 1-D
    (:class:`DimensionMismatchError`) and finite (:class:`NonFiniteDataError`)
    vector.
    """
    mags = np.abs(_real_vector(x_hat, "x_hat"))
    mags = mags[mags > NONZERO_ENTRY_TOL]
    if mags.size == 0:
        raise AllZeroError("vector has no entry above 1e-12")
    return float(mags.min())


def _max_rank_sums(mags: np.ndarray, beta: int) -> tuple[list[int], int]:
    """The squares of the finite magnitudes ``mags`` as Python ints (exact,
    up to one common power of two), and the sum over all C(m, beta) subsets
    of the square of each subset's maximum.

    Ranked by descending magnitude, ties to the smaller index, the entry at
    rank p is the maximum of exactly C(m-1-p, beta-1) subsets.
    """
    frac, exp = np.frexp(mags)
    mant = (frac * 2.0**53).astype(np.int64).tolist()
    shift = (exp - exp.min()).tolist()
    sq = [(a << s) ** 2 for a, s in zip(mant, shift)]
    order = np.argsort(-mags, kind="stable").tolist()
    m = len(order)
    total, count = 0, 1  # count = C(m-1-p, beta-1), from p = m-beta down to 0
    for p in range(m - beta, -1, -1):
        total += count * sq[order[p]]
        count = count * (m - p) // (m - p - beta + 1)
    return sq, total


def gamma_from_residuals(residuals, beta: int) -> float:
    """Ratio of subset-summed squared 2-norms to squared max-norms of residual subvectors.

    Sums run over all C(m, beta) subsets, exactly and with no enumeration:
    every entry lies in C(m-1, beta-1) subsets, and sorted by magnitude the
    entry at rank p is the subset maximum in C(m-1-p, beta-1) of them. The
    sums are Python integers (squared integer mantissas, so finite input
    never overflows) and the ratio is one correctly rounded division. It is
    exactly 1 for a single nonzero entry and exactly beta for constant
    magnitudes. Raises DimensionMismatchError for input that is not 1-D,
    InvalidBetaError for a beta that is no integer or lies outside [1, m],
    and NonFiniteDataError for a NaN or infinite entry.
    """
    mags = np.abs(np.asarray(residuals, dtype=float))
    if mags.ndim != 1:
        raise DimensionMismatchError(f"residuals must be 1-D, got shape {mags.shape}")
    m = mags.shape[0]
    _check_beta(beta, m)
    if not np.all(np.isfinite(mags)):
        raise NonFiniteDataError("subset sums need finite values")
    sq, total = _max_rank_sums(mags, beta)
    if total == 0:
        raise ZeroResidualError("gamma is undefined at a solution")
    return comb(m - 1, beta - 1) * sum(sq) / total


def _check_nonnegative(value, name: str, *, positive: bool = False) -> None:
    """Refuses a ``value`` that is not finite and nonnegative, or with
    ``positive`` not finite and positive (``ValueError`` naming ``name``);
    NaN fails the comparison."""
    if not (isfinite(value) and (value > 0 if positive else value >= 0)):
        kind = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be finite and {kind}, got {value!r}")


def contraction_factor(
    sigma_min: float,
    lam: float,
    x_min_abs: float,
    beta: int,
    gamma: float,
    m: int,
) -> float:
    """Per-step expected contraction factor q of the Bregman distance.

    For lam > 0: 1 - (beta * sigma_min^2) / (2 * gamma * m) * x_min_abs / (x_min_abs + 2*lam).
    For lam = 0: 1 - beta * sigma_min^2 / (gamma * m); pass the smallest
    (possibly zero) singular value in that case, the smallest nonzero one
    otherwise. q is returned as computed, also where it lies outside (0, 1).
    A negative, infinite or NaN lam or sigma_min, or for lam > 0 an
    x_min_abs that is not finite and positive, raises ``ValueError``. A beta
    that is no integer or lies outside [1, m] raises
    :class:`InvalidBetaError`, before gamma is checked against [1, beta].
    """
    _check_lam(lam)
    _check_nonnegative(sigma_min, "sigma_min")
    if lam > 0:
        _check_nonnegative(x_min_abs, "x_min_abs", positive=True)
    _check_beta(beta, m)
    if not (1.0 - 1e-9 <= gamma <= beta + 1e-9):
        raise InvalidGammaError(f"gamma={gamma} outside [1, beta={beta}]")
    if lam > 0:
        return 1.0 - (beta * sigma_min**2) / (2.0 * gamma * m) * (x_min_abs / (x_min_abs + 2.0 * lam))
    return 1.0 - (beta * sigma_min**2) / (gamma * m)


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
    column rank. A negative, infinite or NaN lam, or a sigma_min that is not
    finite and positive, raises ``ValueError``; an ``x_hat`` that is not a
    real (``TypeError``), finite (:class:`NonFiniteDataError`) vector of
    length n (:class:`DimensionMismatchError`) is refused before any work.
    """
    _check_lam(lam)
    _check_nonnegative(sigma_min, "sigma_min", positive=True)
    x_hat = _real_vector(x_hat, "x_hat", system.n)
    r = residual(system, pair.primal)
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
    delta_inf = 0 this reduces to the noiseless envelope. A negative,
    infinite or NaN lam, delta_inf or a_one_two_norm, a ``q_sequence``
    with a negative entry, or a ``mode`` that is not a :class:`StepMode`,
    raises ``ValueError``, and a ``q_sequence`` or ``x_hat`` that is not a
    real (``TypeError``), 1-D (:class:`DimensionMismatchError`) and finite
    (:class:`NonFiniteDataError`) vector is refused.
    """
    _check_lam(lam)
    _check_step_mode(mode, "mode")
    _check_nonnegative(delta_inf, "delta_inf")
    _check_nonnegative(a_one_two_norm, "a_one_two_norm")
    q = _real_vector(q_sequence, "q_sequence")
    # the square roots of a negative product or sum are NaN
    if (q < 0.0).any():
        raise ValueError(f"q_sequence must be nonnegative, got an entry {float(q.min())!r}")
    x_hat = _real_vector(x_hat, "x_hat")
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
) -> TheoryReport:
    """Evaluate the theory quantities along a finished solver trace.

    The checkpoints are every iteration when m <= 20 and every 100th
    iteration otherwise, from iteration 0; the iterates come from
    :func:`replay_duals`. A negative, infinite or NaN lam raises
    ``ValueError``, also for a trace of no iterations, and an ``x_hat`` that
    is not a real (``TypeError``), finite (:class:`NonFiniteDataError`)
    vector of length n (:class:`DimensionMismatchError`) is refused before
    any work.
    """
    _check_lam(lam)
    x_hat = _real_vector(x_hat, "x_hat", system.n)
    sv = smallest_nonzero_singular_value(system)
    xmin = min_abs_nonzero(x_hat)
    stride = 1 if system.m <= 20 else 100
    checkpoints = np.arange(0, trace.iterations, stride)

    gammas = np.full(checkpoints.shape[0], np.nan)
    qs = np.full(checkpoints.shape[0], np.nan)
    margins = np.full(checkpoints.shape[0], np.nan)
    for pos, dual in enumerate(islice(replay_duals(system, trace), 0, None, stride)):
        x = soft_threshold(dual, lam)
        r = system.rows @ x - system.rhs
        if np.any(r != 0.0):
            gammas[pos] = gamma = gamma_from_residuals(r, beta)
            qs[pos] = contraction_factor(sv.smallest_nonzero, lam, xmin, beta, gamma, system.m)
        margins[pos] = _margin(float(np.dot(r, r)), x, dual, x_hat, lam, sv.smallest_nonzero, xmin)
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
