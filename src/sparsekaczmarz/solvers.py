"""Iteration drivers for the RK, SRK, and SSKM methods.

All three methods share one iteration kernel: a row is selected from a
window's draw of rows or subsets, and one Bregman projection
(``bregman._step_into``) moves the dual iterate along that row and
soft-thresholds back to the primal, writing the new pair in place.
:func:`run` takes a method through one of two loops over windows of
iterations: uniform rows (RK, SRK), which never read the residual, step a
window and then record it and test the stop on all its iterates at once;
greedy rows (SSKM) pick, step, record and test one iteration at a time.
Both write their records into the :class:`IterationTrace` that ``run``
returns. :func:`step_once` takes one step, as
:func:`~sparsekaczmarz.bregman.project_hyperplane`. A :class:`SolverSpec`
names no method: its row rule, lam and step mode place it. RK is the lam=0 /
uniform-row / inexact point (a plain orthogonal projection per step, with
x and x* one vector), SRK adds the threshold with uniform rows, and SSKM,
any spec with the greedy rule, drives the same update with greedy subset
sampling. Greedy steps that leave x where it was, and uniform inexact
steps that leave x = 0, run as one batch per window, with the bits of one
step each. Runs are deterministic given the sampler seed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .bregman import (
    DualPair,
    StepMode,
    _band,
    _check_step_mode,
    _kits,
    _objective,
    _step_into,
    _steps_at_rest,
    _workspace,
    project_hyperplane,
)
from .errors import NonFiniteIterateError, ZeroTruthError
from .linsys import LinearSystem, _check_nonnegative, _check_row, _real_vector
from .sampling import (
    SamplerConfig,
    SelectionRule,
    _check_beta,
    _draw_subsets,
    _is_integer,
    _largest_residual,
    _rank_pick,
)


class RunStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max-iters"


@dataclass(frozen=True)
class StoppingRule:
    """Stop on relative error to a known truth, or on budget.

    :func:`run` stops at the first iterate whose relative squared error to
    its ground truth is at most ``mse_target``, and otherwise after
    ``max_iters`` iterations: a run with no truth, or no target, spends its
    budget. :func:`run` steps through windows of up to 32 iterations. With
    greedy rows (SSKM) the test runs after every iteration, and the subsets
    drawn for the rest of the window go unused; with uniform rows (RK, SRK)
    it runs once per window, on every iterate of the window, and the run
    ends at the first iterate that met it, as if it had been tested after
    every iteration.
    """

    max_iters: int = 200_000
    mse_target: float | None = None

    def __post_init__(self):
        if not _is_integer(self.max_iters):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        # NaN fails every comparison, so a NaN target would never stop a run
        if self.mse_target is not None and not self.mse_target >= 0:
            raise ValueError(f"mse_target must be nonnegative, got {self.mse_target!r}")


@dataclass(frozen=True)
class SolverSpec:
    """Regularization weight, step mode, sampler, and stopping rule of one run.

    Every combination is a solver :func:`run` runs: the greedy rule at any
    lam is SSKM, the uniform rule SRK, and the uniform rule at lam = 0 in
    inexact mode RK. :meth:`rk`, :meth:`srk` and :meth:`sskm` build the
    paper's three methods. ``lam`` must be finite and nonnegative, and
    ``step_mode`` a :class:`StepMode` (``ValueError``); ``sampler`` must be
    a :class:`SamplerConfig` and ``stop`` a :class:`StoppingRule`
    (``TypeError``).
    """

    lam: float
    step_mode: StepMode
    sampler: SamplerConfig
    stop: StoppingRule

    def __post_init__(self):
        _check_nonnegative(self.lam, "lam")
        _check_step_mode(self.step_mode, "step_mode")
        # run reads their fields, and would fail there with a bare AttributeError
        for name, kind in (("sampler", SamplerConfig), ("stop", StoppingRule)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise TypeError(f"{name} must be a {kind.__name__}, got {value!r}")

    @classmethod
    def rk(cls, seed: int = 0, stop: StoppingRule | None = None) -> "SolverSpec":
        return cls.srk(0.0, StepMode.INEXACT, seed, stop)

    @classmethod
    def srk(
        cls,
        lam: float,
        step_mode: StepMode = StepMode.EXACT,
        seed: int = 0,
        stop: StoppingRule | None = None,
    ) -> "SolverSpec":
        return cls(lam, step_mode, SamplerConfig(rule=SelectionRule.UNIFORM_RANDOM, seed=seed), stop or StoppingRule())

    @classmethod
    def sskm(
        cls,
        lam: float,
        beta: int,
        step_mode: StepMode = StepMode.EXACT,
        seed: int = 0,
        stop: StoppingRule | None = None,
    ) -> "SolverSpec":
        sampler = SamplerConfig(rule=SelectionRule.SKM_GREEDY, beta=beta, seed=seed)
        return cls(lam, step_mode, sampler, stop or StoppingRule())


@dataclass(eq=False)
class IterationTrace:
    """Per-iteration records of one solver run.

    Record k describes iteration k, which produced the iterate x_{k+1}:
    the chosen row, the step value, the residual norm squared at x_{k+1}
    when :func:`run` was asked for it (``residuals=True``), and, when a
    ground truth was supplied, the relative squared error and the Bregman
    distance to it. A record that was not asked for, or that has no truth,
    is ``None``. :func:`run` builds the trace before its first step, and
    its loops write the records in place; they start at 1024 entries (or
    ``max_iters``), double up to ``max_iters`` as the run needs them, and
    are cut to the iterations taken before ``run`` sets ``status`` and
    ``iterations``.
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
# a greedy pick with m/2 <= beta < m on at least this many rows scans the
# rows by residual rank (sampling._rank_pick) instead of sorting a subset per
# iteration. In whole SSKM solves at beta = m/2 the scan was 8-9% slower
# inexact at m = 300 and 500, within about 3% either way at 600-800, and
# faster inexact in every pass from m = 1000 on
_RANK_SCAN_MIN_ROWS = 1000


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
                  trace: IterationTrace):
    """Records a uniform window's iterates and tests the MSE stop on each.

    The w columns of ``xs`` and ``duals`` are the pairs of iterations
    ``start`` .. ``start + w - 1``, and ``x_norm2`` their ||x||^2. Given a
    ground truth, one per-column dot product each gives their relative
    errors and Bregman distances. Given ``columns``, which
    :func:`_uniform_loop` passes only when the residual record is on, one
    product gives their residual norms; without it A is not read at all.
    The records go into their entries of ``trace``'s fields. Returns
    ``(iterations, dual)`` at the first iterate that meets the MSE stop, the
    dual a view of its window column, or ``None``.
    """
    end = start + xs.shape[1]
    # the errors first, while the window is in cache: the product streams all of A
    if truth is not None:
        x_hat, x_hat_norm2, f_hat = truth
        diff = xs - x_hat[:, None]
        mse = np.vecdot(diff, diff, axis=0) / x_hat_norm2
        trace.mse[start:end] = mse
        trace.bregman_to_truth[start:end] = f_hat - np.vecdot(duals, x_hat[:, None], axis=0) + 0.5 * x_norm2
    if columns is not None:
        r = columns.product(xs)
        r -= rhs[:, None]
        trace.residual_norm2[start:end] = np.einsum("ij,ij->j", r, r)
    if mse_target is None:
        return None
    hits = np.flatnonzero(mse <= mse_target)
    if hits.size == 0:
        return None
    j = int(hits[0])
    return start + j + 1, duals[:, j]


def _resize(trace: IterationTrace, size: int) -> None:
    """Cuts or extends each record of ``trace`` to ``size`` entries, in a
    copy; a record of that size already, and one not asked for (``None``),
    stay as they are."""
    for name, rec in vars(trace).items():
        if isinstance(rec, np.ndarray) and rec.size != size:
            out = np.empty(size, dtype=rec.dtype)
            out[: rec.size] = rec[:size]
            setattr(trace, name, out)


def _reserve(trace: IterationTrace, end: int, max_iters: int) -> None:
    """Doubles the records of ``trace`` when ``end`` entries pass their end,
    up to ``max_iters``. ``run`` allocates them at 1024 entries, or
    ``max_iters`` where that is fewer, so their memory follows the work
    done."""
    if end > trace.chosen.size:
        _resize(trace, min(2 * trace.chosen.size, max_iters))


def _repeat(trace: IterationTrace, start: int, end: int) -> None:
    """Iterations ``start`` .. ``end - 1`` left x where it was: their residual,
    error and Bregman records repeat those of ``start - 1``."""
    for rec in (trace.residual_norm2, trace.mse, trace.bregman_to_truth):
        if rec is not None:
            rec[start:end] = rec[start - 1]


def _uniform_batch(j: int, drawn: np.ndarray, dual, x, spec: SolverSpec, system: LinearSystem,
                   xs: np.ndarray, duals: np.ndarray, steps: np.ndarray, x_norm2s: np.ndarray) -> int:
    """Slots ``j`` .. of a uniform window whose inexact steps leave x = 0,
    taken at once by ``bregman._steps_at_rest``, which moves their duals into
    their columns of ``duals``; returns how many. Each also fills its step,
    its x column (none where ``xs`` is ``duals``) and its ||x||^2 of 0."""
    chosen = drawn[j:]
    kept, t = _steps_at_rest(dual, x, system.rows[chosen], system.rhs[chosen], spec.lam, duals[:, j : drawn.size])
    if kept:
        end = j + kept
        steps[j:end] = t
        if xs is not duals:
            xs[:, j:end] = x[:, None]
        x_norm2s[j:end] = 0.0
    return kept


def _uniform_loop(system: LinearSystem, spec: SolverSpec, rng, truth, mse_target, trace: IterationTrace):
    """:func:`run` for uniform rows (RK, SRK); returns ``(iterations, x*,
    status, failure)``, the failure ``None`` or what became non-finite.

    A window of w = min(32, ``max_iters``) iterations reserves its records
    in ``trace``, draws its rows with one ``rng.integers(m, size=w)`` call,
    which fills its chosen-row records, and steps them in an inner loop
    through ``bregman._step_into``, slot j into column j of n x w
    Fortran-order buffers. At lam = 0 with w > 1,
    where x = x*, both are one buffer and one list of its columns: the step
    writes t*a and the new dual into the slot's column, and the threshold
    writes nothing. At w = 1 every step is in place, into the dual it reads,
    so x and x* keep a buffer each. Every step thresholds against one band
    and takes t through one workspace, both built once per run
    (``bregman._band``, ``bregman._workspace``). In exact mode a window
    builds the kits of all its drawn rows at once (``bregman._kits`` on
    ``rows[drawn]``), and slot j's step reads kit j. The inner loop ends
    early only at an inexact step that leaves x = 0, after which
    :func:`_uniform_batch` takes the next steps, and at a step whose value
    or iterate is not finite, which ends the window: the slots before it are
    recorded, and unless one of them met the stop the loop returns the
    failure, at the failed iteration, with status ``None``. Uniform rows
    rarely pick a row twice before the pair moves, so steps of zero away
    from x = 0 are taken alone.
    :func:`_flush_window` records a window's iterates and tests the stop.
    """
    rows, rhs, lam, mode = system.rows, system.rhs, spec.lam, spec.step_mode
    inexact, max_iters = mode is StepMode.INEXACT, spec.stop.max_iters
    band, work = _band(lam), _workspace(0 if inexact else system.n)
    w = min(_WINDOW, max_iters)
    columns = _SupportColumns(rows, w) if trace.residual_norm2 is not None else None
    xs = np.zeros((system.n, w), order="F")
    duals = xs if lam == 0.0 and w > 1 else np.zeros_like(xs)
    # the step tests its arrays by identity: one view per column, as numpy
    # would copy a fresh view of a column onto itself
    dual_cols = [duals[:, j] for j in range(w)]
    x_cols = dual_cols if duals is xs else [xs[:, j] for j in range(w)]
    x_norm2s = np.empty(w)
    dual, x = dual_cols[-1], x_cols[-1]  # x_0 = 0
    # still: the last step was an inexact one that left x = 0
    still, k = False, 0
    while k < max_iters:
        count = min(w, max_iters - k)
        _reserve(trace, k + count, max_iters)
        trace.chosen[k : k + count] = drawn = rng.integers(system.m, size=count)
        picks, picked_rhs, steps = drawn.tolist(), rhs[drawn].tolist(), trace.step[k : k + count]
        kits = [None] * count if inexact else _kits(rows[drawn])
        j, failed = 0, None
        while j < count:
            if still:
                if j == 0:
                    # the pair is in the window's last column, which the batch may
                    # overwrite: x* is copied out, and x with it where they share it
                    x, dual = (dual.copy(),) * 2 if x is dual else (x, dual.copy())
                j += _uniform_batch(j, drawn, dual, x, spec, system, xs, duals, steps, x_norm2s)
                if j:
                    # the batch's last slot, or the pair's column as it was
                    dual, x = dual_cols[j - 1], x_cols[j - 1]
                if j == count:
                    break
            for j in range(j, count):
                t = _step_into(dual, x, rows[picks[j]], picked_rhs[j], lam, band, mode, dual_cols[j], x_cols[j],
                               kits[j], work)
                dual, x = dual_cols[j], x_cols[j]
                x_norm2 = float(x.dot(x))
                # an infinite ||x||^2 from finite entries (a square that overflows) is no failure
                if not (math.isfinite(t) and (math.isfinite(x_norm2) or np.isfinite(x).all())):
                    failed = "step value" if not math.isfinite(t) else "iterate"
                    break
                steps[j], x_norm2s[j] = t, x_norm2
                if inexact and x_norm2 == 0.0 and not np.count_nonzero(x):
                    break
            else:
                still, j = False, count
                break
            if failed:
                break
            still, j = True, j + 1
        # the window's records and stop, on the j iterates it holds: all of
        # them, or those before a non-finite one
        hit = j and _flush_window(k, xs[:, :j], duals[:, :j], x_norm2s[:j], columns, rhs, truth, mse_target, trace)
        if hit:
            return *hit, RunStatus.CONVERGED, None
        if failed:
            return k + j, dual, None, failed
        k += count
    return k, dual, RunStatus.MAX_ITERS, None


class _ArgmaxPick:
    """The greedy pick at beta = m, whose subset is all rows: the first argmax
    of r^2, with no keys drawn (the rng feeds nothing else).

    Each pick class draws a window's keys (``draw``), picks slot j's row at
    the residual r (``one``) and, for a batch at a fixed r, the rows of
    slots j to the window's end (``rest``), each bit for bit the pick of
    one ``sample_subset`` call per iteration (the tests' reference stream).
    r^2 is kept while r is the same array.
    """

    def __init__(self, m: int, beta: int, rng):
        self.m, self.beta, self.rng, self.r = m, beta, rng, None

    def draw(self, count: int) -> None:
        self.count = count

    def squares(self, r: np.ndarray) -> np.ndarray:
        if r is not self.r:
            # with the rows a rank pick has found in order of falling r^2
            self.r, self.r2, self.order = r, r * r, []
        return self.r2

    def one(self, j: int, r: np.ndarray) -> int:
        return int(self.squares(r).argmax())

    def rest(self, j: int, r: np.ndarray) -> np.ndarray:
        return np.full(self.count - j, self.squares(r).argmax())


class _RankPick(_ArgmaxPick):
    """The greedy pick at m/2 <= beta < m on at least 1000 rows: scans r^2
    downward for the first row whose key ranks among the beta smallest
    (``sampling._rank_pick``); picks at one r share the rows it finds."""

    def draw(self, count: int) -> None:
        self.keys = self.rng.random((count, self.m))

    def one(self, j: int, r: np.ndarray) -> int:
        return _rank_pick(self.keys[j], self.beta, self.squares(r), r, self.order)

    def rest(self, j: int, r: np.ndarray) -> np.ndarray:
        return np.array([self.one(s, r) for s in range(j, len(self.keys))])


class _SubsetPick(_ArgmaxPick):
    """The greedy pick elsewhere: the member of slot j's sorted subset, the
    beta smallest keys of its row of the window's draw, with the largest r^2."""

    def draw(self, count: int) -> None:
        self.subsets = _draw_subsets(self.m, self.beta, self.rng, count)

    def one(self, j: int, r: np.ndarray) -> int:
        return _largest_residual(self.subsets[j], r)

    def rest(self, j: int, r: np.ndarray) -> np.ndarray:
        subsets = self.subsets[j:]
        return subsets[np.arange(len(subsets)), (r[subsets] ** 2).argmax(axis=1)]


def _greedy_batch(start: int, chosen: np.ndarray, dual, x, x_norm2: float, spec: SolverSpec, system: LinearSystem,
                  truth, trace: IterationTrace, zero_rows: dict) -> int:
    """Greedy iterations ``start`` .. that leave x where it was, along the rows
    ``chosen`` at the fixed residual, taken at once up to the first that
    would move it; returns how many. x and r stay, so the error and residual
    records repeat and no stop is met.

    Inexact steps go through ``bregman._steps_at_rest``, which at x = 0
    moves the duals into the gathered rows; away from x = 0 one dot first
    tests the next step, and the batch keeps nothing unless it is zero. An
    exact step is a search, so an exact batch repeats the steps of zero the
    pair already took, kept in ``zero_rows``, up to the first row it has not
    stepped on. Steps that moved the dual take their Bregman distances with
    one ``np.vecdot``, up to the first that is not finite, and leave the
    last dual in ``dual``.
    """
    if spec.step_mode is StepMode.EXACT:
        t = []
        for row in chosen.tolist():
            if row not in zero_rows:
                break
            t.append(zero_rows[row])
        kept, t = len(t), np.array(t)
    elif x_norm2 != 0.0 and system.rows[chosen[0]].dot(x) - system.rhs[chosen[0]] != 0.0:
        return 0
    else:
        a = system.rows[chosen]
        duals = a.T
        kept, t = _steps_at_rest(dual, x, a, system.rhs[chosen], spec.lam, duals)
    moved = t.any()
    if moved and truth is not None:
        x_hat, _, f_hat = truth
        with np.errstate(all="ignore"):
            breg = f_hat - np.vecdot(duals[:, :kept], x_hat[:, None], axis=0) + 0.5 * x_norm2
        # from the first that is not finite the steps run alone, as they warn
        finite = np.isfinite(breg)
        kept = kept if finite.all() else int(finite.argmin())
    if kept:
        end = start + kept
        trace.chosen[start:end], trace.step[start:end] = chosen[:kept], t[:kept]
        _repeat(trace, start, end)
        if moved:
            if truth is not None:
                trace.bregman_to_truth[start:end] = breg[:kept]
            np.copyto(dual, duals[:, kept - 1])
    return kept


def _greedy_loop(system: LinearSystem, spec: SolverSpec, rng, truth, mse_target, trace: IterationTrace):
    """:func:`run` for greedy rows (SSKM); returns ``(iterations, x*, status,
    failure)`` as :func:`_uniform_loop` does.

    A window reserves its records in ``trace`` and binds the five to
    locals, so that an iteration reads no attribute. It draws the keys of up
    to 32 iterations (fewer where they would exceed 2**14), and each
    iteration picks its row from them at the current residual: by
    :class:`_ArgmaxPick` at beta = m, by
    :class:`_RankPick` at m/2 <= beta < m on at least 1000 rows, and by
    :class:`_SubsetPick` otherwise. It steps x and x* in place, each in its
    own array (the new dual is the one the step reads, so t*a cannot share
    it), in exact mode with the kit of its row alone (``bregman._kits`` on a
    1 x n block), records its errors, takes one product for the residual
    that picks the next row, and tests the MSE stop. A step whose value or
    iterate is not finite returns the failure. A step of exactly zero
    after the first writes nothing: its records repeat and r stays. After
    it, or after an inexact step that leaves x = 0, :func:`_greedy_batch`
    takes the next steps that leave x where it was.
    """
    m, rows, rhs, beta = system.m, system.rows, system.rhs, spec.sampler.beta
    lam, mode, max_iters = spec.lam, spec.step_mode, spec.stop.max_iters
    # before the pick is chosen: the rank scan draws its keys unchecked
    _check_beta(beta, m)
    inexact = mode is StepMode.INEXACT
    band, work = _band(lam), _workspace(0 if inexact else system.n)
    w = min(_WINDOW, max_iters, max(1, _WINDOW_KEYS // m))
    by_rank = 2 * beta >= m and m >= _RANK_SCAN_MIN_ROWS
    pick = (_ArgmaxPick if beta == m else _RankPick if by_rank else _SubsetPick)(m, beta, rng)
    norms = trace.residual_norm2 is not None  # the residual record is on
    columns = _SupportColumns(rows, 1)
    x, dual = np.zeros(system.n), np.zeros(system.n)
    r = r_zero = -rhs  # residual at x_0, which the first pick reads
    x_hat, x_hat_norm2, f_hat = truth or (None, None, None)
    # still: the last step was zero, or an inexact one that left x = 0;
    # zero_rows: the rows whose exact step from the current pair was zero, and that step;
    # and the iterate's ||x||^2, error and residual norm, where they are taken
    still, zero_rows, k = False, {}, 0
    x_norm2 = mse_val = resid2 = 0.0
    while k < max_iters:
        count = min(w, max_iters - k)
        _reserve(trace, k + count, max_iters)
        chosen_rec, step_rec, resid_rec = trace.chosen, trace.step, trace.residual_norm2
        mse_rec, breg_rec = trace.mse, trace.bregman_to_truth
        pick.draw(count)
        j = 0
        while j < count:
            # a batch repeats the last ||x||^2, error and residual norm: where one
            # is not finite, the steps it stands for run alone and warn as they do
            if still and math.isfinite(x_norm2 + mse_val + resid2):
                j += _greedy_batch(k + j, pick.rest(j, r), dual, x, x_norm2, spec, system, truth, trace, zero_rows)
                if j == count:
                    break
            i = pick.one(j, r)
            kit = None if inexact else _kits(rows[i : i + 1])[0]
            t = _step_into(dual, x, rows[i], float(rhs[i]), lam, band, mode, dual, x, kit, work)
            chosen_rec[k + j], step_rec[k + j] = i, t
            if t == 0.0:
                # the pair stays, and an exact batch may repeat this step along
                # row i; the steps of zero before the last move are forgotten
                if not inexact:
                    if not still:
                        zero_rows.clear()
                    zero_rows[i] = t
                still = True
                if k + j:
                    # x_{k+j+1} = x_{k+j} bit for bit, as _step_into wrote nothing:
                    # its records repeat, r stays, and it met no stop
                    _repeat(trace, k + j, k + j + 1)
                    j += 1
                    continue
            else:
                x_norm2 = float(x.dot(x))
                # an infinite ||x||^2 from finite entries (a square that overflows) is no failure
                if not (math.isfinite(t) and (math.isfinite(x_norm2) or np.isfinite(x).all())):
                    return k + j, dual, None, "step value" if not math.isfinite(t) else "iterate"
                # at x = 0 the next inexact steps may leave x there
                still = inexact and x_norm2 == 0.0 and not np.count_nonzero(x)
            # records and stopping at x_{k+j+1}, whose residual picks the next row
            met = False
            if truth is not None:
                diff = x - x_hat
                mse_val = float(diff.dot(diff)) / x_hat_norm2
                mse_rec[k + j] = mse_val
                breg_rec[k + j] = f_hat - float(dual.dot(x_hat)) + 0.5 * x_norm2
                met = mse_target is not None and mse_val <= mse_target
            # past the last iterate no pick reads the residual, and at beta = 1 none
            if norms or beta > 1 and not (met or k + j + 1 == max_iters):
                if x_norm2 == 0.0 and not np.count_nonzero(x):
                    # as a product at x = 0 would, the block lets its columns go
                    r = r_zero
                    columns._release()
                else:
                    r = columns.product(x) - rhs
            if norms:
                resid_rec[k + j] = resid2 = float(r.dot(r))
            if met:
                return k + j + 1, dual, RunStatus.CONVERGED, None
            j += 1
        k += count
    return k, dual, RunStatus.MAX_ITERS, None


def init_state(n: int, lam: float) -> DualPair:
    """Zero dual start, whose primal is zero."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return DualPair(np.zeros(n), lam)


def step_once(state: DualPair, system: LinearSystem, i: int, step_mode: StepMode) -> DualPair:
    """One iteration of :func:`run` on row ``i``: a hyperplane projection.

    With lam = 0 in inexact mode this is exactly the classical Kaczmarz
    orthogonal projection onto the selected hyperplane. A row index that is
    no integer (a bool is none) raises ``TypeError``, and one outside [0, m)
    :class:`IndexOutOfRangeError`.
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

    A run stops at the first iterate whose relative error to
    ``ground_truth`` meets ``spec.stop.mse_target``, or after
    ``max_iters`` iterations; with no truth it spends its budget. The
    system should be consistent (b in the range of A) for the sparse
    methods to converge to a solution; inconsistent right-hand sides (e.g.
    noisy data) are allowed and simply run to the iteration budget. A
    ground truth is checked before the first step: it must be real
    (``TypeError``), have length n (:class:`DimensionMismatchError`), finite entries
    (:class:`NonFiniteDataError`) and a nonzero entry
    (:class:`ZeroTruthError`). Raises :class:`NonFiniteIterateError` if an
    iterate stops being finite: the loops return the failure, and ``run``
    raises it. The test reads the step t and ||x||^2, the dot product the
    Bregman record reuses; only when ||x||^2 is not finite does it look at
    the entries, so an iterate whose square overflows (numpy warns of it)
    runs on.

    The Bregman distance to the ground truth x_hat is recorded as
    f(x_hat) - <x*, x_hat> + ||x||^2 / 2, two dot products. This equals
    f(x_hat) - f(x) - <x*, x_hat - x> exactly, because x = soft_threshold(x*,
    lam) gives <x*, x> = ||x||^2 + lam ||x||_1.

    ``run`` validates, builds the trace, whose records the loops fill in
    place, and at the end cuts the records to the iterations taken,
    sets the trace's status and count, and builds the final pair from one
    copy of the final dual (:class:`DualPair` derives its primal, which
    equals the loop's x bit for bit); the row rule picks one of two loops
    over windows of up to 32 iterations. Each window draws at once what one
    ``rng.integers(m)`` or ``sample_subset`` call per iteration would draw,
    so a solve cut short by ``max_iters`` repeats the full solve's rows.
    Uniform rows (RK, SRK) go through :func:`_uniform_loop`: a window draws
    its rows with one ``rng.integers(m, size=w)`` call, steps them into
    columns of n x w buffers, and then shares their bookkeeping
    (:func:`_flush_window`): one per-column dot product each for the
    relative errors and Bregman distances of all its iterates, one matrix
    product for their residuals where they are read, and one test of the
    MSE stop. The same function runs on the slots before a non-finite
    iterate, before the loop returns the failure. When an iterate met the stop,
    the trace ends at the first that did, and that iterate is returned; up
    to 31 iterations past the stop are computed and dropped. Greedy rows
    (SSKM) go through :func:`_greedy_loop`: a window draws its keys with one
    ``rng.random((w, m))`` call whose row j's beta smallest keys name slot
    j's subset (fewer slots where that draw would exceed 2**14 keys, and no
    draw at beta = m), and each iteration picks the member with the largest
    squared residual, ties to the smallest index, steps in place, records
    its errors, takes one product for the residual that picks the next row
    and tests the stop. Its norm is taken only for the record. The
    product is skipped where nothing reads it or its value is known: after
    the last iterate (the MSE stop met, or ``max_iters`` spent) and at beta
    = 1, whose pick reads no residual, unless the record is on; and at x
    = 0, whose residual is the -b held for x_0. A greedy step of exactly
    zero after the first leaves the pair as it was, bit for bit, so it takes
    no ||x||^2 and no product.

    Residual norms are computed only for the ``residual_norm2`` record,
    which is ``None`` unless ``residuals`` is true; no stop reads them.
    Every record, the status, the iteration count and the final pair are
    those of a test after every iteration, bit for bit, except
    ``residual_norm2`` under uniform rows, which can differ from one product
    per iterate in its rounding.

    Steps that leave x where it was run as one batch per window. At a fixed
    x each step depends on its own row alone, so the rest of the window is
    taken at once up to the first step that would move x, which the loop
    then takes alone. Greedy rows (:func:`_greedy_batch`) batch after a step
    of zero or an inexact one that leaves x = 0: once a solve has converged
    to the last bit they keep re-picking rows whose step is zero. Uniform
    rows (:func:`_uniform_batch`) rarely pick a row twice before the pair
    moves, and batch only after an inexact step that leaves x = 0. Inside a
    batch only the Bregman record can change and no stop can fire. A batch
    starts only where the ||x||^2, error and residual norm it repeats are
    finite, and ends before a step whose values are not, so every failure
    and warning comes from a step taken alone.

    Either product is taken by :class:`_SupportColumns`: from the columns
    of A on supp(x) alone, at a cost of m*|supp(x)|, when the dense product
    it replaces has at least 2**18 entries, that is m*n for a greedy
    iterate and m*n*w for a window of w uniform iterates (m*n >= 8192 at
    w = 32); densely on smaller products and at iterates whose support
    holds more than a quarter of the columns (RK's, for one).
    """
    rng = np.random.default_rng(spec.sampler.seed)

    truth = None
    if ground_truth is not None:
        x_hat = _real_vector(ground_truth, "ground_truth", system.n)
        x_hat_norm2 = float(np.dot(x_hat, x_hat))
        if x_hat_norm2 == 0.0:
            raise ZeroTruthError("ground truth is zero; relative error undefined")
        truth = (x_hat, x_hat_norm2, _objective(x_hat, spec.lam))
    cap = min(spec.stop.max_iters, _FIRST_RECORDS)
    records = [np.empty(cap) if on else None for on in (1, residuals, truth, truth)]
    trace = IterationTrace(np.empty(cap, np.int64), *records)
    loop = _greedy_loop if spec.sampler.rule is SelectionRule.SKM_GREEDY else _uniform_loop
    k, dual, status, failure = loop(system, spec, rng, truth, spec.stop.mse_target if truth else None, trace)
    if failure:
        raise NonFiniteIterateError(f"{failure} became non-finite at iteration {k}")
    _resize(trace, k)
    trace.status, trace.iterations = status, k
    # one copy: under uniform rows the final dual is a column of the window's
    # n x w buffer, which the pair would otherwise keep alive; x is derived
    return DualPair(dual.copy(), spec.lam), trace
