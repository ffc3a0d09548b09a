"""Row selection rules: uniform random and greedy subset sampling.

The greedy rule draws a uniform size-beta subset of the rows by random keys
(Efraimidis and Spirakis, 2006, with equal weights): m uniform keys, of which
the beta smallest name the subset. It acts on the member with the largest
squared residual. A window of iterations draws its keys with one call, which
is the same stream as one draw of m keys per iteration. That pick can be
found three ways, each bit for bit the same: from the sorted subset
(:func:`_largest_residual`, the reference), by residual rank from the keys
(:func:`_rank_pick`, cheaper where most rows are in the subset), and at
beta = m, where the subset is all rows, as the argmax of the squared
residual, with no keys drawn. With unit rows this uniform subset law
coincides with the norm-weighted law that the selection analysis uses.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySubsetError, InvalidBetaError
from .linsys import LinearSystem, _is_integer


def _check_beta(beta, m: int) -> None:
    """Refuses a subset size that is no integer (a bool is none) or lies outside [1, m]."""
    if not _is_integer(beta):
        raise InvalidBetaError(f"beta must be an integer, got {beta!r}")
    if not 1 <= beta <= m:
        raise InvalidBetaError(f"beta={beta} outside [1, m={m}]")


class SelectionRule(enum.Enum):
    UNIFORM_RANDOM = "uniform"
    SKM_GREEDY = "skm-greedy"


@dataclass(frozen=True)
class SamplerConfig:
    """Selection rule, subset size, and RNG seed for one solver run.

    ``rule`` must be a :class:`SelectionRule` (``ValueError``): the solvers
    test it by identity, so a string would run uniform rows. ``beta`` is the
    greedy rule's subset size, the same at every iteration; the uniform rule
    ignores it. It must be an integer, and not a bool
    (:class:`InvalidBetaError`); its range is checked against m where the
    subsets are drawn. ``seed`` must be a nonnegative integer (``ValueError``):
    ``None`` would draw a fresh stream from the OS, so a run could not be
    repeated.
    """

    rule: SelectionRule
    beta: int = 1
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.rule, SelectionRule):
            raise ValueError(f"rule must be a SelectionRule, got {self.rule!r}")
        if not _is_integer(self.beta):
            raise InvalidBetaError(f"beta must be an integer, got {self.beta!r}")
        if not (_is_integer(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")

    def beta_at(self, k: int) -> int:
        """Subset size at iteration ``k``; constant."""
        return int(self.beta)


@dataclass(frozen=True, eq=False)
class Selection:
    """A subset of rows (sorted) and the index chosen within it."""

    subset: np.ndarray
    chosen: int


def _smallest_keys(keys: np.ndarray, beta: int) -> np.ndarray:
    """The sorted subset of each row of ``keys``: the beta rows with the
    smallest keys, exactly beta of them even when keys tie
    (``np.argpartition``, which picks the same members from a row alone as
    from a window of rows)."""
    return np.sort(np.argpartition(keys, beta - 1, axis=-1)[..., :beta], axis=-1)


def _draw_subsets(m: int, beta: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform size-beta subsets of {0..m-1} for ``count`` iterations: one sorted row each.

    The keys are one ``rng.random((count, m))`` call. The draw is
    row-major, so ``count`` rows are the same stream as ``count`` draws of
    one row.
    """
    _check_beta(beta, m)
    return _smallest_keys(rng.random((count, m)), beta)


def _largest_residual(subset: np.ndarray, residuals: np.ndarray) -> int:
    """The member of the sorted ``subset`` with the largest squared residual.

    This is the greedy pick that every other form must equal bit for bit:
    :func:`_rank_pick` from a row of keys, and at beta = m the first argmax
    of the squared residual, which :func:`~sparsekaczmarz.solvers.run`
    takes with no keys drawn.
    """
    # argmax takes the first maximum, so on a sorted subset ties go to the smallest index
    return int(subset[(residuals[subset] ** 2).argmax()])


# the rank pick tests at most this many rows before it takes the subset
_RANK_MISSES = 8


def _rank_pick(keys: np.ndarray, beta: int, r2: np.ndarray, residuals: np.ndarray, order=None) -> int:
    """:func:`_largest_residual` on the subset of one row of ``keys``, found by residual rank.

    The rows are taken in order of falling squared residual ``r2`` (which
    must be ``residuals ** 2``), ties to the smallest index, and the first
    in the subset is the pick. Row i is in the subset when at most beta keys
    are <= its key. A row passed by, with more, is out when at least beta
    keys are < its key; one count at the smallest of their keys tests them
    all. A key tied at the subset's edge, which ``np.argpartition`` places,
    or ``_RANK_MISSES`` rows out, sends the pick to the sorted subset. Each
    row tested costs one pass over the keys, so this is cheaper than the
    subset where most rows are in it: beta >= m/2.

    ``order``, a list, holds the rows found so far in that order, by earlier
    picks at the same ``r2``: a pick takes its rows from it, and appends to
    it each row it finds with one argmax of ``r2`` past them. Without it
    every row is found afresh. ``r2`` is masked in place while a row is
    found and restored before the pick returns.
    """
    order = [] if order is None else order
    i, low = None, math.inf  # low: the smallest key passed by
    # past m rows argmax would return one passed by
    for p in range(min(_RANK_MISSES, keys.size)):
        if p == len(order):
            order.append(_next_by_rank(r2, order) if p else int(r2.argmax()))
        row = order[p]
        key = keys[row]
        if np.count_nonzero(keys <= key) <= beta:
            i = row
            break
        low = min(low, key)
    if i is not None and p and np.count_nonzero(keys < low) < beta:
        i = None
    return _largest_residual(_smallest_keys(keys, beta), residuals) if i is None else i


def _next_by_rank(r2: np.ndarray, found: list) -> int:
    """The row with the largest ``r2`` outside ``found``, ties to the smallest index."""
    saved = [r2[row] for row in found]
    # below every square, NaN included, so argmax passes the rows by
    for row in found:
        r2[row] = -1.0
    next_row = int(r2.argmax())
    for row, value in zip(found, saved):
        r2[row] = value
    return next_row


def sample_subset(m: int, beta: int, rng: np.random.Generator, _buffer=None) -> np.ndarray:
    """Uniform size-beta subset of {0..m-1} without replacement, sorted.

    Draws ``rng.random(m)`` and takes the beta smallest keys: one row of
    the window :func:`~sparsekaczmarz.solvers.run` draws, so a loop of calls
    yields the subsets of ``run``. The ``_buffer`` argument is accepted and
    ignored, so callers that still pass one keep working; it is neither read
    nor modified.
    """
    return _draw_subsets(m, beta, rng, 1)[0]


def select_motzkin(subset, residuals) -> Selection:
    """Index of the largest squared residual within ``subset``.

    Ties break to the smallest index: the subset is sorted, then picked
    from by :func:`_largest_residual`, as in :func:`pick_index`.
    """
    subset = np.asarray(subset)
    if subset.size == 0:
        raise EmptySubsetError("cannot select from an empty subset")
    subset = np.sort(subset)
    return Selection(subset=subset, chosen=_largest_residual(subset, np.asarray(residuals, dtype=float)))


def pick_index(config: SamplerConfig, system: LinearSystem, rng: np.random.Generator, residuals) -> int:
    """Row chosen by one :func:`sample_subset` or ``rng.integers(m)`` call.

    ``residuals`` is the residual vector A x - b at the current iterate x;
    only the greedy rule reads it, and picks the subset's member with the
    largest squared residual, ties to the smallest index.
    :func:`~sparsekaczmarz.solvers.run` draws a window of rows at a time,
    with ``rng.integers(m, size=w)`` or ``rng.random((w, m))``: the same
    stream.
    """
    m = system.m
    if config.rule is SelectionRule.UNIFORM_RANDOM:
        # unit rows make squared-norm weighting uniform
        return int(rng.integers(m))
    return _largest_residual(sample_subset(m, config.beta, rng), residuals)

