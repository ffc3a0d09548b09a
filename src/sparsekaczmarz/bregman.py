"""Sparsity-inducing objective, its conjugate, and Bregman hyperplane projections.

The working objective is f(x) = lam*||x||_1 + 0.5*||x||_2^2, which is
1-strongly convex. Its conjugate is smooth with gradient equal to the soft
thresholding map, so a Bregman projection onto a hyperplane reduces to a
one-dimensional step in the dual variable. Both the cheap step (the row
residual) and the exact minimizing step are provided; the exact step is
computed by breakpoint enumeration because the dual derivative is piecewise
linear in the step size.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError

# strong-convexity constant of lam*||.||_1 + 0.5*||.||_2^2; not a tunable
ALPHA = 1.0


class StepMode(enum.Enum):
    INEXACT = "inexact"
    EXACT = "exact"


def soft_threshold(v, lam: float) -> np.ndarray:
    """Componentwise shrink toward zero: sign(v) * max(|v| - lam, 0)."""
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)


def objective_value(x, lam: float) -> float:
    """lam*||x||_1 + 0.5*||x||_2^2."""
    x = np.asarray(x, dtype=float)
    return float(lam * np.abs(x).sum() + 0.5 * np.dot(x, x))


def conjugate_value(xstar, lam: float) -> float:
    """Fenchel conjugate of the objective, evaluated at xstar.

    Equals 0.5*||soft_threshold(xstar, lam)||_2^2; the closed form is
    validated against a numerical sup oracle in the test suite.
    """
    s = soft_threshold(xstar, lam)
    return float(0.5 * np.dot(s, s))


@dataclass(frozen=True, eq=False)
class DualPair:
    """Primal iterate x and dual iterate x* linked by x = soft_threshold(x*, lam).

    The link is the admissibility condition x* in the subdifferential of the
    objective at x; it is enforced at construction. Use :meth:`from_dual` to
    build a pair from a dual vector.
    """

    primal: np.ndarray
    dual: np.ndarray
    lam: float

    def __post_init__(self):
        primal = np.asarray(self.primal, dtype=float)
        dual = np.asarray(self.dual, dtype=float)
        if primal.shape != dual.shape or primal.ndim != 1:
            raise ValueError(f"primal/dual must be equal-length vectors, got {primal.shape}/{dual.shape}")
        if self.lam < 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        if not np.array_equal(primal, soft_threshold(dual, self.lam)):
            raise ValueError("primal must equal soft_threshold(dual, lam) exactly")
        primal.setflags(write=False)
        dual.setflags(write=False)
        object.__setattr__(self, "primal", primal)
        object.__setattr__(self, "dual", dual)

    @classmethod
    def from_dual(cls, dual, lam: float) -> "DualPair":
        dual = np.asarray(dual, dtype=float)
        return cls(primal=soft_threshold(dual, lam), dual=dual, lam=lam)

    @property
    def n(self) -> int:
        return self.primal.shape[0]


def bregman_distance(pair: DualPair, y, lam: float | None = None) -> float:
    """f(y) - f(x) - <x*, y - x> for x = pair.primal, x* = pair.dual.

    Nonnegative, and zero iff pair.primal equals y (up to floating rounding
    when the two are extremely close).
    """
    if lam is None:
        lam = pair.lam
    y = np.asarray(y, dtype=float)
    return float(
        objective_value(y, lam)
        - objective_value(pair.primal, lam)
        - np.dot(pair.dual, y - pair.primal)
    )


def inexact_step(x, a_i, b_i: float) -> float:
    """Row residual <a_i, x> - b_i; the cheap step size for a unit row."""
    return float(np.dot(a_i, x) - b_i)


def _dual_slope_root_candidates(dual: np.ndarray, a: np.ndarray, lam: float) -> np.ndarray:
    """Sorted t values where a component of dual - t*a crosses the threshold band."""
    nz = a != 0.0
    d, an = dual[nz], a[nz]
    bp = np.concatenate(((d - lam) / an, (d + lam) / an))
    bp = bp[np.isfinite(bp)]
    return np.unique(bp)


def _step_derivative(t, dual, a, b_i, lam):
    """d/dt [f*(dual - t a) + t b_i] = b_i - <a, soft_threshold(dual - t a, lam)>.

    Nondecreasing and piecewise linear in t; its root is the exact step.
    Accepts scalar or 1-D array t.
    """
    t = np.asarray(t, dtype=float)
    shifted = dual[None, :] - t.reshape(-1, 1) * a[None, :]
    vals = b_i - soft_threshold(shifted, lam) @ a
    return vals if t.ndim else float(vals[0])


def _root_on_grid(ts: np.ndarray, gs: np.ndarray, slope_outside: float) -> float:
    """Root of a nondecreasing piecewise-linear function sampled at its kinks.

    ``slope_outside`` is the (positive) slope on the two unbounded rays. On a
    flat zero segment the midpoint is returned.
    """
    if gs[0] > 0.0:
        return float(ts[0] - gs[0] / slope_outside)
    if gs[-1] < 0.0:
        return float(ts[-1] - gs[-1] / slope_outside)
    neg = np.flatnonzero(gs < 0.0)
    pos = np.flatnonzero(gs > 0.0)
    if neg.size == 0 and pos.size == 0:
        return float(0.5 * (ts[0] + ts[-1]))
    if neg.size == 0:
        return float(0.5 * (ts[0] + ts[pos[0] - 1]))
    if pos.size == 0:
        return float(0.5 * (ts[neg[-1] + 1] + ts[-1]))
    i, j = int(neg[-1]), int(pos[0])
    if j > i + 1:
        # g is exactly zero on [ts[i+1], ts[j-1]]
        return float(0.5 * (ts[i + 1] + ts[j - 1]))
    slope = (gs[j] - gs[i]) / (ts[j] - ts[i])
    return float(ts[i] - gs[i] / slope)


def exact_step(dual, a_i, b_i: float, lam: float) -> float:
    """Minimizer of t -> f*(dual - t*a_i) + t*b_i.

    The derivative is a nondecreasing piecewise-linear function of t whose
    kinks are the up-to-2n points where a component of dual - t*a_i hits the
    threshold band. The root always exists for a_i != 0 and is found by
    bracketing around the row residual, then exact interpolation on the
    bracketed segment. If the derivative vanishes on a whole segment, the
    segment midpoint is returned.
    """
    dual = np.asarray(dual, dtype=float)
    a = np.asarray(a_i, dtype=float)
    norm2 = float(np.dot(a, a))
    if norm2 == 0.0:
        raise NumericalFailureError("exact_step requires a nonzero row")
    bp = _dual_slope_root_candidates(dual, a, lam)
    if bp.size == 0:
        raise NumericalFailureError("no breakpoints found; row is numerically zero")

    # cheap bracket around the inexact step before touching all breakpoints
    center = inexact_step(soft_threshold(dual, lam), a, b_i)
    width = 1.0 + abs(center)
    lo, hi = center - width, center + width
    g_lo = _step_derivative(lo, dual, a, b_i, lam)
    g_hi = _step_derivative(hi, dual, a, b_i, lam)
    for _ in range(80):
        if g_lo < 0.0 < g_hi:
            break
        width *= 2.0
        if g_lo >= 0.0:
            lo = center - width
            g_lo = _step_derivative(lo, dual, a, b_i, lam)
        if g_hi <= 0.0:
            hi = center + width
            g_hi = _step_derivative(hi, dual, a, b_i, lam)
    if not g_lo < 0.0 < g_hi:
        # an endpoint landed exactly on a root or plateau; fall back to the
        # full breakpoint scan, which also resolves flat zero segments
        ts = bp
        gs = _step_derivative(ts, dual, a, b_i, lam)
        return _root_on_grid(ts, gs, norm2)

    inside = bp[(bp > lo) & (bp < hi)]
    ts = np.concatenate(([lo], inside, [hi]))
    gs = np.concatenate(([g_lo], _step_derivative(inside, dual, a, b_i, lam), [g_hi]))
    # between consecutive kinks (and on the bracket ends, which lie strictly
    # inside a linear piece) the derivative is linear, so this is exact
    return _root_on_grid(ts, gs, norm2)


def bregman_step(dual, primal, a, b: float, lam: float, mode: StepMode):
    """One iteration of every method: dual step along the row ``a``, then threshold.

    ``primal`` must equal soft_threshold(dual, lam). Returns ``(t, new_dual,
    new_primal)`` with t from :func:`inexact_step` or :func:`exact_step` per
    ``mode``, new_dual = dual - t*a and new_primal its soft threshold. No
    checks: callers validate the row and the step value.
    """
    if mode is StepMode.INEXACT:
        t = inexact_step(primal, a, b)
    else:
        t = exact_step(dual, a, b, lam)
    new_dual = dual - t * a
    return t, new_dual, soft_threshold(new_dual, lam)


def project_hyperplane(pair: DualPair, a_i, b_i: float, mode: StepMode) -> DualPair:
    """Bregman projection of the pair onto the hyperplane <a_i, x> = b_i.

    The dual moves by -t*a_i with t chosen per ``mode``; the primal is the
    soft threshold of the new dual (:func:`bregman_step`). In exact mode the
    new primal satisfies the hyperplane; in both modes the Bregman distance
    to any point of the hyperplane decreases by at least half the squared
    row residual.
    """
    a = np.asarray(a_i, dtype=float)
    norm = float(np.linalg.norm(a))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"project_hyperplane expects a unit row, got norm {norm!r}")
    _, dual, primal = bregman_step(pair.dual, pair.primal, a, b_i, pair.lam, mode)
    return DualPair(primal=primal, dual=dual, lam=pair.lam)
