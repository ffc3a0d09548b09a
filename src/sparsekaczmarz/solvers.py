"""Iteration drivers for the RK, SRK, and SSKM methods.

All three methods share one iteration kernel: a row is selected (by
:func:`pick_index`, or from a window's draw of rows or subsets), and one
Bregman projection (``bregman._step_into``) moves the dual iterate along
that row and soft-thresholds back to the primal, writing the new pair in
place. :func:`run` takes every method through one loop over windows of
iterations, in which the row rule alone decides how the residual records
and the stop test are done, and :func:`step_once` applies its step once.
RK is the lam=0 / uniform-row / inexact special case (a plain orthogonal
projection per step), SRK adds the threshold with uniform rows, and SSKM,
the only method with the greedy rule, drives the same update with greedy
subset sampling. Runs are deterministic given the sampler seed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .bregman import DualPair, StepMode, _step_into, objective_value, project_hyperplane
from .errors import (
    DimensionMismatchError,
    NonFiniteDataError,
    NonFiniteIterateError,
    ZeroTruthError,
)
from .linsys import LinearSystem, _check_row
from .sampling import SamplerConfig, SelectionRule, _draw_subsets, _is_integer, _largest_residual


class Method(enum.Enum):
    RK = "rk"
    SRK = "srk"
    SSKM = "sskm"


class RunStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max-iters"


@dataclass(frozen=True)
class StoppingRule:
    """Stop on residual norm, on relative error to a known truth, or on budget.

    When a ground truth is supplied to :func:`run` and ``mse_target`` is set,
    the relative-error test replaces the residual test, and :func:`run`
    computes residual norms only for its ``residuals`` record. Without that
    test, ``epsilon`` makes every run compute them. :func:`run` steps
    through windows of up to 32 iterations. With greedy rows (SSKM) the test
    runs after every iteration, and the subsets drawn for the rest of the
    window go unused; with uniform rows (RK, SRK) it runs once per window,
    on every iterate of the window, and the run ends at the first iterate
    that met it, as if it had been tested after every iteration.
    """

    epsilon: float | None = None
    max_iters: int = 200_000
    mse_target: float | None = None

    def __post_init__(self):
        if not _is_integer(self.max_iters):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        # NaN fails every comparison, so a NaN tolerance would never stop a run
        for name in ("epsilon", "mse_target"):
            value = getattr(self, name)
            if value is not None and not value >= 0:
                raise ValueError(f"{name} must be nonnegative, got {value!r}")


@dataclass(frozen=True)
class SolverSpec:
    """Method, regularization weight, step mode, sampler, and stopping rule."""

    method: Method
    lam: float
    step_mode: StepMode
    sampler: SamplerConfig
    stop: StoppingRule

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam!r}")
        if self.method is Method.RK and self.lam != 0.0:
            raise ValueError("RK requires lam = 0")
        # run reads only the rule, so a greedy RK or SRK would run SSKM's rows under its label
        if (self.method is Method.SSKM) != (self.sampler.rule is SelectionRule.SKM_GREEDY):
            raise ValueError("SSKM, and only SSKM, takes the greedy subset rule")

    @classmethod
    def rk(cls, seed: int = 0, stop: StoppingRule | None = None) -> "SolverSpec":
        return cls(
            method=Method.RK,
            lam=0.0,
            step_mode=StepMode.INEXACT,
            sampler=SamplerConfig(rule=SelectionRule.UNIFORM_RANDOM, seed=seed),
            stop=stop or StoppingRule(),
        )

    @classmethod
    def srk(
        cls,
        lam: float,
        step_mode: StepMode = StepMode.EXACT,
        seed: int = 0,
        stop: StoppingRule | None = None,
    ) -> "SolverSpec":
        return cls(
            method=Method.SRK,
            lam=lam,
            step_mode=step_mode,
            sampler=SamplerConfig(rule=SelectionRule.UNIFORM_RANDOM, seed=seed),
            stop=stop or StoppingRule(),
        )

    @classmethod
    def sskm(
        cls,
        lam: float,
        beta: int,
        step_mode: StepMode = StepMode.EXACT,
        seed: int = 0,
        stop: StoppingRule | None = None,
    ) -> "SolverSpec":
        return cls(
            method=Method.SSKM,
            lam=lam,
            step_mode=step_mode,
            sampler=SamplerConfig(rule=SelectionRule.SKM_GREEDY, beta=beta, seed=seed),
            stop=stop or StoppingRule(),
        )


@dataclass(eq=False)
class IterationTrace:
    """Per-iteration records of one solver run.

    Record k describes iteration k, which produced the iterate x_{k+1}:
    the chosen row, the step value, the residual norm squared at x_{k+1}
    when :func:`run` was asked for it (``residuals=True``), and, when a
    ground truth was supplied, the relative squared error and the Bregman
    distance to it. A record that was not asked for, or that has no truth,
    is ``None``.
    """

    chosen: np.ndarray
    step: np.ndarray
    residual_norm2: np.ndarray | None
    mse: np.ndarray | None
    bregman_to_truth: np.ndarray | None
    status: RunStatus = RunStatus.MAX_ITERS
    iterations: int = 0

    @property
    def final_mse(self) -> float:
        if self.mse is None or self.iterations == 0:
            return float("nan")
        return float(self.mse[self.iterations - 1])


_FIRST_RECORDS = 1024

# the residual A x - b comes from the columns of A on supp(x) when the dense
# product it replaces has at least this many entries: m*n per column of x,
# one column for a greedy iterate and a window's width for uniform rows. A
# smaller product costs less than the block's bookkeeping; a window pays that
# once for all its columns, so on m=300, n=200 a window of 32 takes the block
# and a single iterate does not
_BLOCK_MIN_ENTRIES = 2**18
# ... and while supp(x) holds at most this share of the columns. Wider
# supports (RK's is full) take the dense product: the block never holds more
# than this share of A, and as gathering one column costs about 1/60 of a
# dense product (m=2000, n=1000), a wide support that changes loses the saving
_BLOCK_MAX_SHARE = 0.25
_FIRST_COLUMNS = 64
_GATHER_ROWS = 512
# uniform row selection, which never reads the residual, draws the rows,
# records the errors and tests the stop of up to this many iterations at
# once; greedy selection draws the subsets of this many iterations at once
_WINDOW = 32
# ... while a window of greedy subsets draws at most this many keys (128 KB).
# Larger draws cost more per row: at m=2000, beta=1000 a row of a 32-row
# window (64k keys) took 37 us against 21 us in an 8-row one
_WINDOW_KEYS = 2**14


class _SupportColumns:
    """The columns of A on supp(x), kept in one Fortran-order m x cap block.

    For a window of uniform iterates (:func:`_flush_window`) supp(x) is the
    union of their supports. ``width`` is the number of columns of x a product
    takes, 1 for a single iterate and the window's size for a window: below
    the size gate, m*n*width < 2**18, no support fits and every product is
    dense. So the rule is fixed once per run.

    ``cols`` lists the held columns in block order and ``held`` marks them.
    An entering column is copied in at the end; a leaving one is overwritten
    by a live one from the end (swap-remove). So the block holds exactly
    supp(x), and cap, which doubles when full, follows the largest support
    seen, not every column ever touched. Each product is computed afresh
    from the block, not updated, so nothing drifts: it differs from the
    dense one only in summation order.
    """

    def __init__(self, rows: np.ndarray, width: int):
        m, n = rows.shape
        self.rows = rows
        self.limit = int(_BLOCK_MAX_SHARE * n) if rows.size * width >= _BLOCK_MIN_ENTRIES else 0
        self.block = np.empty((m, min(_FIRST_COLUMNS, self.limit)), order="F")
        self.cols = np.empty(self.limit, dtype=np.intp)
        self.held = np.zeros(n, dtype=bool)
        self.size = 0

    def product(self, x: np.ndarray) -> np.ndarray:
        """A @ x, for one vector x or for the n x w block of a window of them.

        From the block when the support of x (the union of the columns'
        supports) fits in the share limit, else dense.
        """
        a, xs = (self.block[:, : self.size], x[self.cols[: self.size]]) if self._hold(x) else (self.rows, x)
        return a @ xs if x.ndim == 1 else _window_product(a, xs)

    def _hold(self, x: np.ndarray) -> bool:
        """Makes the block hold supp(x); False, with the block empty, when it does not fit.

        Below the size gate the limit is 0 and nothing is held.
        """
        if not self.limit:
            return False
        # nonzero where a column is in the support: x itself, or a row-wise any
        # of a window, unless its newest iterate alone is too wide (RK's is full)
        if x.ndim == 1:
            marks = x
        elif np.count_nonzero(x[:, -1]) <= self.limit:
            marks = x.any(axis=1)
        else:
            return self._release()
        support = np.flatnonzero(marks)
        if support.size > self.limit:
            return self._release()
        self._remove_zeros(marks)
        self._append(support[~self.held[support]])
        return True

    def _release(self) -> bool:
        """Empties the block and returns False: the support does not fit."""
        self.held[self.cols[: self.size]] = False
        self.size = 0
        return False

    def _remove_zeros(self, marks: np.ndarray) -> None:
        s = self.size
        cols = self.cols[:s]
        live = marks[cols] != 0.0
        kept = int(np.count_nonzero(live))
        if kept == s:
            return
        self.held[cols[~live]] = False
        # the live columns past the kept size fill the holes before it
        holes = np.flatnonzero(~live[:kept])
        movers = kept + np.flatnonzero(live[kept:])
        self.block[:, holes] = self.block[:, movers]
        cols[holes] = cols[movers]
        self.size = kept

    def _append(self, new: np.ndarray) -> None:
        if new.size == 0:
            return
        s, end = self.size, self.size + new.size
        cap = self.block.shape[1]
        if end > cap:
            grown = np.empty((self.block.shape[0], min(max(2 * cap, end), self.limit)), order="F")
            grown[:, :s] = self.block[:, :s]
            self.block = grown
        # gathered in row bands, so each band's transpose into the block stays in cache
        for lo in range(0, self.rows.shape[0], _GATHER_ROWS):
            self.block[lo : lo + _GATHER_ROWS, s:end] = self.rows[lo : lo + _GATHER_ROWS, new]
        self.cols[s:end] = new
        self.held[new] = True
        self.size = end


def _window_product(a: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """a @ xs for the n x w block of a window, formed as (xs^T a^T)^T: on one
    OpenBLAS thread the w x m product runs 1.1 to 1.6 times faster than the
    m x w one (m=2000, w=10..32)."""
    return (xs.T @ a.T).T


def _flush_window(start: int, xs: np.ndarray, duals: np.ndarray, x_norm2: np.ndarray,
                  columns: _SupportColumns | None, rhs: np.ndarray, truth, mse_target: float | None,
                  eps2: float | None, resid_rec: np.ndarray | None, mse_rec: np.ndarray | None,
                  breg_rec: np.ndarray | None):
    """Records a uniform window's iterates and tests the stop on each.

    The w columns of ``xs`` and ``duals`` are the pairs of iterations
    ``start`` .. ``start + w - 1``, and ``x_norm2`` their ||x||^2. Given a
    ground truth, one per-column dot product each gives their relative
    errors and Bregman distances. Given ``columns``, which :func:`run`
    passes only when the residual record or the epsilon stop reads them,
    one product gives their residual norms; without it, under the MSE stop
    or no stop, A is not read at all. The MSE stop, or else the epsilon
    stop, is tested on every iterate. Returns ``(iterations, primal, dual)``
    at the first that meets it, as views of the window's columns, or
    ``None``.
    """
    end = start + xs.shape[1]
    # the errors first, while the window is in cache: the product streams all of A
    if truth is not None:
        x_hat, x_hat_norm2, f_hat = truth
        diff = xs - x_hat[:, None]
        mse = np.vecdot(diff, diff, axis=0) / x_hat_norm2
        mse_rec[start:end] = mse
        breg_rec[start:end] = f_hat - np.vecdot(duals, x_hat[:, None], axis=0) + 0.5 * x_norm2
    if columns is not None:
        r = columns.product(xs)
        r -= rhs[:, None]
        resid = np.einsum("ij,ij->j", r, r)
        if resid_rec is not None:
            resid_rec[start:end] = resid
    if mse_target is not None:
        met = mse <= mse_target
    elif eps2 is not None:
        met = resid <= eps2
    else:
        return None
    hits = np.flatnonzero(met)
    if hits.size == 0:
        return None
    j = int(hits[0])
    return start + j + 1, xs[:, j], duals[:, j]


def _resized(a: np.ndarray | None, size: int) -> np.ndarray | None:
    """A copy of ``a`` cut or extended to ``size`` entries; ``None`` stays ``None``."""
    if a is None:
        return None
    out = np.empty(size, dtype=a.dtype)
    kept = min(size, a.size)
    out[:kept] = a[:kept]
    return out


def init_state(n: int, lam: float) -> DualPair:
    """Zero primal and dual start; the thresholding link holds trivially."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return DualPair.from_dual(np.zeros(n), lam)


def step_once(state: DualPair, system: LinearSystem, i: int, step_mode: StepMode) -> DualPair:
    """One iteration of :func:`run` on row ``i``: a hyperplane projection.

    With lam = 0 in inexact mode this is exactly the classical Kaczmarz
    orthogonal projection onto the selected hyperplane. A row index outside
    [0, m) raises :class:`IndexOutOfRangeError`, as :func:`row_residual` does.
    """
    _check_row(system, i)
    return project_hyperplane(state, system.rows[i], float(system.rhs[i]), step_mode)


def run(
    system: LinearSystem,
    spec: SolverSpec,
    ground_truth=None,
    *,
    residuals: bool = False,
) -> tuple[DualPair, IterationTrace]:
    """Iterate until the stopping rule fires; returns the final pair and trace.

    The system should be consistent (b in the range of A) for the sparse
    methods to converge to a solution; inconsistent right-hand sides (e.g.
    noisy data) are allowed and simply run to the iteration budget. A
    ground truth is checked before the first step: it must have length n
    (:class:`DimensionMismatchError`), finite entries
    (:class:`NonFiniteDataError`) and a nonzero entry
    (:class:`ZeroTruthError`). Raises :class:`NonFiniteIterateError` if an
    iterate stops being finite. The test reads the step t and ||x||^2, the
    dot product the Bregman record reuses; only when ||x||^2 is not finite
    does it look at the entries, so an iterate whose square overflows (numpy
    warns of it) runs on.

    The Bregman distance to the ground truth x_hat is recorded as
    f(x_hat) - <x*, x_hat> + ||x||^2 / 2, two dot products. This equals
    f(x_hat) - f(x) - <x*, x_hat - x> exactly, because x = soft_threshold(x*,
    lam) gives <x*, x> = ||x||^2 + lam ||x||_1.

    Every method runs through one loop over windows of w = min(32,
    ``max_iters``) iterations; the row rule alone decides how a window's
    bookkeeping is done. A window starts with one draw of its rows: one
    ``rng.integers(m, size=w)`` call for uniform rows (RK, SRK), or for
    greedy subsets (SSKM) one ``rng.random((w, m))`` call whose row j's beta
    smallest keys name slot j's subset (fewer slots where that draw would
    exceed 2**14 keys). Either draw is the stream of one :func:`pick_index`
    per iteration, so a solve cut short by ``max_iters`` repeats the full
    solve's rows. Each iteration then picks its row, steps into its slot's
    columns of two n x w Fortran-order buffers, tests finiteness and writes
    its chosen-row and step records.

    Residual norms are computed only where something reads them: the
    ``residual_norm2`` record, which is ``None`` unless ``residuals`` is
    true, and the epsilon stop, which computes them whatever ``residuals``
    says. Greedy rows read the residual to pick, so they have one slot and
    step in place; each iteration records its errors, takes one product for
    the residual that picks the next row and tests the stop. Its norm is
    taken only where it is read, and no product is taken after the last
    iterate (the MSE stop met, or ``max_iters`` spent) unless it is. Uniform
    rows never read the residual, so a window shares that work
    (:func:`_flush_window`) once its last slot has stepped: one per-column
    dot product each for the relative errors and Bregman distances of all
    its iterates, one matrix product for their residuals where they are
    read, and one test of the MSE or epsilon stop. The same function
    runs on the slots before a non-finite iterate, before that raises. When
    an iterate met the stop, the trace ends at the first that did, and that
    iterate is returned; up to 31 iterations past the stop are computed and
    dropped. Every record, the status, the iteration count and the final
    pair are those of a test after every iteration, bit for bit, except
    ``residual_norm2``, which can differ from one product per iterate in its
    rounding, and so the epsilon stop when a residual lies within that
    rounding of epsilon. The records start at 1024 entries and double at a
    window's start when full.

    Either product is taken by :class:`_SupportColumns`: from the columns
    of A on supp(x) alone, at a cost of m*|supp(x)|, when the dense product
    it replaces has at least 2**18 entries, that is m*n for a greedy
    iterate and m*n*w for a window of w uniform iterates (m*n >= 8192 at
    w = 32); densely on smaller products and at iterates whose support
    holds more than a quarter of the columns (RK's, for one).
    """
    n, m = system.n, system.m
    lam, mode = spec.lam, spec.step_mode
    stop = spec.stop
    sampler = spec.sampler
    rng = np.random.default_rng(sampler.seed)

    truth = None
    if ground_truth is not None:
        x_hat = np.asarray(ground_truth, dtype=float)
        if x_hat.shape != (n,):
            raise DimensionMismatchError(f"ground truth has shape {x_hat.shape}, expected ({n},)")
        if not np.isfinite(x_hat).all():
            raise NonFiniteDataError("ground truth has a NaN or infinite entry")
        x_hat_norm2 = float(np.dot(x_hat, x_hat))
        if x_hat_norm2 == 0.0:
            raise ZeroTruthError("ground truth is zero; relative error undefined")
        f_hat = objective_value(x_hat, lam)
        truth = (x_hat, x_hat_norm2, f_hat)
    mse_target = stop.mse_target if truth is not None else None
    eps2 = stop.epsilon**2 if stop.epsilon is not None and mse_target is None else None
    norms = residuals or eps2 is not None

    # records start small and double when full, so their memory follows the work done
    max_iters = stop.max_iters
    cap = min(max_iters, _FIRST_RECORDS)
    chosen_rec = np.empty(cap, dtype=np.int64)
    step_rec = np.empty(cap)
    resid_rec = np.empty(cap) if residuals else None
    mse_rec = np.empty(cap) if truth is not None else None
    breg_rec = np.empty(cap) if truth is not None else None

    rows, rhs = system.rows, system.rhs
    greedy = sampler.rule is SelectionRule.SKM_GREEDY
    w = min(_WINDOW, max_iters)
    if greedy:
        w = min(w, max(1, _WINDOW_KEYS // m))
    # greedy rows have one slot, which every iteration steps in place through
    # one view: numpy checks the overlap of an output with another view of its input
    slots = 1 if greedy else w
    columns = _SupportColumns(rows, slots) if greedy or norms else None
    xs = np.zeros((n, slots), order="F")
    duals = np.zeros((n, slots), order="F")
    x_cols = [xs[:, j] for j in range(slots)] * (w // slots)
    dual_cols = [duals[:, j] for j in range(slots)] * (w // slots)
    x_norm2s = np.empty(slots)
    dual, x = dual_cols[-1], x_cols[-1]  # x_0 = 0
    r = -rhs  # residual at x_0, which the first greedy pick reads

    hit = None  # (iterations, primal, dual) at the first iterate that met the stop
    k = 0
    while hit is None and k < max_iters:
        count = min(w, max_iters - k)
        if k + count > cap:
            cap = min(2 * cap, max_iters)
            chosen_rec, step_rec, resid_rec, mse_rec, breg_rec = (
                _resized(a, cap) for a in (chosen_rec, step_rec, resid_rec, mse_rec, breg_rec)
            )
        if greedy:
            subsets = _draw_subsets(m, sampler.beta, rng, count)
        else:
            picks = rng.integers(m, size=count)
            picks, picked_rhs = picks.tolist(), rhs[picks].tolist()
        failed = None
        for j in range(count):
            if greedy:
                i = _largest_residual(subsets[j], r)
                b = float(rhs[i])
            else:
                i, b = picks[j], picked_rhs[j]
            t = _step_into(dual, x, rows[i], b, lam, mode, dual_cols[j], x_cols[j])
            dual, x = dual_cols[j], x_cols[j]
            x_norm2 = float(np.dot(x, x))
            # an infinite ||x||^2 from finite entries (a square that overflows) is no failure
            if not (math.isfinite(t) and (math.isfinite(x_norm2) or np.isfinite(x).all())):
                failed = "step value" if not math.isfinite(t) else "iterate"
                break
            chosen_rec[k + j] = i
            step_rec[k + j] = t
            if not greedy:
                x_norm2s[j] = x_norm2
                continue
            # greedy rows: records and stopping at x_{k+j+1}, whose residual picks the next row
            met = False
            if truth is not None:
                diff = x - x_hat
                mse_val = float(np.dot(diff, diff)) / x_hat_norm2
                mse_rec[k + j] = mse_val
                breg_rec[k + j] = f_hat - float(np.dot(dual, x_hat)) + 0.5 * x_norm2
                met = mse_target is not None and mse_val <= mse_target
            # past the last iterate no pick reads the residual
            if norms or not (met or k + j + 1 == max_iters):
                r = columns.product(x) - rhs
            if norms:
                resid2 = float(np.dot(r, r))
                if residuals:
                    resid_rec[k + j] = resid2
                met = met or eps2 is not None and resid2 <= eps2
            if met:
                hit = (k + j + 1, x, dual)
                break
        held = j if failed else j + 1
        # a uniform window's records and stop, also on the iterates held before a non-finite one
        if not greedy and held:
            hit = _flush_window(k, xs[:, :held], duals[:, :held], x_norm2s[:held], columns, rhs,
                                truth, mse_target, eps2, resid_rec, mse_rec, breg_rec)
        if failed and hit is None:
            raise NonFiniteIterateError(f"{failed} became non-finite at iteration {k + j}")
        k += count

    status = RunStatus.MAX_ITERS
    if hit is not None:
        k, x, dual = hit
        status = RunStatus.CONVERGED
    trace = IterationTrace(
        chosen=_resized(chosen_rec, k),
        step=_resized(step_rec, k),
        residual_norm2=_resized(resid_rec, k),
        mse=_resized(mse_rec, k),
        bregman_to_truth=_resized(breg_rec, k),
        status=status,
        iterations=k,
    )
    # a copy: the steps wrote into the window's buffers
    return DualPair(primal=x.copy(), dual=dual.copy(), lam=lam), trace
