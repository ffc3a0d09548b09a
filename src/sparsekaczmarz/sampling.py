"""Row selection rules: cyclic, uniform random, and greedy subset sampling.

The greedy rule draws a uniform size-beta subset of the rows, with one
C-level numpy draw, and acts on the member with the largest squared residual.
With unit rows this uniform subset law coincides with the norm-weighted law
that the selection analysis uses, so no subset enumeration is needed inside
the solver; the enumerated law is exposed separately as a diagnostic.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import (
    EmptySubsetError,
    InvalidBetaError,
    TooManySubsetsError,
)
from .linsys import LinearSystem

MAX_ENUMERATED_SUBSETS = 100_000


class SelectionRule(enum.Enum):
    CYCLIC = "cyclic"
    UNIFORM_RANDOM = "uniform"
    SKM_GREEDY = "skm-greedy"


@dataclass(frozen=True)
class SamplerConfig:
    """Selection rule, subset size, and RNG seed for one solver run.

    ``beta`` is the greedy rule's subset size, the same at every iteration;
    the other rules ignore it.
    """

    rule: SelectionRule
    beta: int = 1
    seed: int = 0

    def beta_at(self, k: int) -> int:
        """Subset size at iteration ``k``; constant."""
        return int(self.beta)


@dataclass(frozen=True, eq=False)
class Selection:
    """A subset of rows (sorted) and the index chosen within it."""

    subset: np.ndarray
    chosen: int


def sample_subset(m: int, beta: int, rng: np.random.Generator, _buffer=None) -> np.ndarray:
    """Uniform size-beta subset of {0..m-1} without replacement, sorted.

    One ``rng.choice(m, beta, replace=False, shuffle=False)`` call: O(beta),
    unless m > 10000 and beta > m/50, where numpy shuffles arange(m). The
    ``_buffer`` argument is accepted and ignored, so callers that still pass
    one keep working; it is neither read nor modified.
    """
    if beta < 1 or beta > m:
        raise InvalidBetaError(f"beta={beta} outside [1, m={m}]")
    return np.sort(rng.choice(m, beta, replace=False, shuffle=False))


def select_motzkin(subset, residuals) -> Selection:
    """Index of the largest squared residual within ``subset``.

    Ties break to the smallest index (subset is sorted before the argmax).
    """
    subset = np.asarray(subset)
    if subset.size == 0:
        raise EmptySubsetError("cannot select from an empty subset")
    subset = np.sort(subset)
    residuals = np.asarray(residuals, dtype=float)
    vals = residuals[subset] ** 2
    return Selection(subset=subset, chosen=int(subset[int(np.argmax(vals))]))


def pick_index(
    config: SamplerConfig,
    k: int,
    system: LinearSystem,
    x,
    rng: np.random.Generator,
    residuals=None,
) -> int:
    """Row chosen at iteration ``k``: one :func:`sample_subset` or ``rng.integers(m)`` call.

    ``residuals`` may pass the full residual vector at ``x`` when the caller
    already has it; otherwise only the sampled rows are evaluated.
    """
    m = system.m
    if config.rule is SelectionRule.CYCLIC:
        return k % m
    if config.rule is SelectionRule.UNIFORM_RANDOM:
        # unit rows make squared-norm weighting uniform
        return int(rng.integers(m))
    subset = sample_subset(m, config.beta_at(k), rng)
    if residuals is None:
        sub_res = system.rows[subset] @ np.asarray(x, dtype=float) - system.rhs[subset]
    else:
        sub_res = residuals[subset]
    # the subset is sorted and argmax takes the first maximum: ties go to the smallest index
    return int(subset[(sub_res**2).argmax()])


def next_index(config: SamplerConfig, k: int, system: LinearSystem, x, rng, residuals=None) -> Selection:
    """:func:`pick_index` as a :class:`Selection`, whose ``subset`` is the chosen row alone."""
    i = pick_index(config, k, system, x, rng, residuals)
    return Selection(subset=np.array([i]), chosen=i)


def theoretical_subset_probability(system: LinearSystem, x, beta: int, tau) -> float:
    """Probability the norm-weighted subset law assigns to the subset ``tau``.

    Each subset is weighted by the squared original norm of the row the
    greedy rule would pick from it (evaluated on the raw, pre-normalization
    data via the stored row scales). With unit row scales this is constant,
    1 / C(m, beta), for every subset. Exhaustive enumeration; diagnostic use
    only.
    """
    m = system.m
    if beta < 1 or beta > m:
        raise InvalidBetaError(f"beta={beta} outside [1, m={m}]")
    total = comb(m, beta)
    if total > MAX_ENUMERATED_SUBSETS:
        raise TooManySubsetsError(f"C({m},{beta})={total} exceeds {MAX_ENUMERATED_SUBSETS}")
    tau = np.sort(np.asarray(tau))
    if tau.shape != (beta,):
        raise InvalidBetaError(f"tau must contain beta={beta} indices, got {tau.shape}")

    # residuals and row norms of the raw system
    raw_res = (system.rows @ np.asarray(x, dtype=float) - system.rhs) * system.row_scales
    sq = raw_res**2
    scales2 = system.row_scales**2

    denom = 0.0
    weight_tau = None
    for subset in itertools.combinations(range(m), beta):
        idx = np.fromiter(subset, dtype=int, count=beta)
        t_pick = idx[int(np.argmax(sq[idx]))]
        w = scales2[t_pick]
        denom += w
        if weight_tau is None and np.array_equal(idx, tau):
            weight_tau = w
    if weight_tau is None:
        raise InvalidBetaError("tau contains out-of-range or duplicate indices")
    return float(weight_tau / denom)
