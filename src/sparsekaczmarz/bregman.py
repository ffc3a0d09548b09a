"""Sparsity-inducing objective, its conjugate, and Bregman hyperplane projections.

The working objective is f(x) = lam*||x||_1 + 0.5*||x||_2^2, which is
1-strongly convex. Its conjugate is smooth with gradient equal to the soft
thresholding map, so a Bregman projection onto a hyperplane reduces to a
one-dimensional step in the dual variable. Both the cheap step (the row
residual) and the exact minimizing step are provided. The dual derivative is
nondecreasing and piecewise linear in the step size, so the exact step is its
root, found by bisection over the sorted breakpoints inside a bracket with
the derivative evaluated directly at O(log n) of them, then interpolated on
the linear piece that holds it: the search of l1-ball projection (Duchi et
al. 2008) applied to the Bregman projection of Lorenz et al. (2014).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError

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


def _breakpoints(dual: np.ndarray, a: np.ndarray, lam: float) -> np.ndarray:
    """Unsorted t values where a component of dual - t*a crosses the threshold band."""
    nz = a != 0.0
    d, an = dual[nz], a[nz]
    bp = np.concatenate(((d - lam) / an, (d + lam) / an))
    return bp[np.isfinite(bp)]


def _root_by_bisection(g, ts, lo: int, hi: int, g_lo: float, g_hi: float, slope_outside: float) -> float:
    """Root of a nondecreasing piecewise-linear ``g`` whose kinks are the sorted ``ts``.

    Requires g_lo < 0 < g_hi at grid indices ``lo`` < ``hi``; index -1 and
    ``ts.size`` stand for the rays beyond the grid, of slope
    ``slope_outside``. Bisection on the grid finds the adjacent kinks around
    the sign change, evaluating ``g`` at O(log |ts|) of them, and the root is
    interpolated from the two exact end values. If g is exactly zero on
    [ts[p], ts[q]], the midpoint is returned; a lone zero kink is returned as is.
    """
    while hi - lo > 1:
        mid = (lo + hi) // 2
        g_mid = g(ts[mid])
        if g_mid < 0.0:
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid
    if g_hi > 0.0:
        if lo < 0:
            return float(ts[0] - g_hi / slope_outside)
        if hi == ts.size:
            return float(ts[-1] - g_lo / slope_outside)
        slope = (g_hi - g_lo) / (ts[hi] - ts[lo])
        return float(ts[lo] - g_lo / slope)
    # g is zero at ts[hi], its first zero kink; bisect again for the last one
    first_zero, lo, hi = hi, hi, ts.size
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if g(ts[mid]) > 0.0:
            hi = mid
        else:
            lo = mid
    return float(0.5 * (ts[first_zero] + ts[lo]))


def exact_step(dual, a_i, b_i: float, lam: float) -> float:
    """Minimizer of t -> f*(dual - t*a_i) + t*b_i.

    The derivative g(t) = b_i - <a_i, soft_threshold(dual - t*a_i, lam)> is a
    nondecreasing piecewise-linear function of t whose kinks are the up-to-2n
    points where a component of dual - t*a_i hits the threshold band. The
    root always exists for a_i != 0. It is bracketed around the row
    residual; only the kinks inside the bracket are sorted, and bisection
    over them, with g evaluated directly at each probe, finds the linear
    piece that holds the root, which is then interpolated exactly. If the
    derivative vanishes on a whole segment, the segment midpoint is returned.
    """
    dual = np.asarray(dual, dtype=float)
    a = np.asarray(a_i, dtype=float)
    norm2 = float(np.dot(a, a))
    if norm2 == 0.0:
        raise NumericalFailureError("exact_step requires a nonzero row")
    bp = _breakpoints(dual, a, lam)
    if bp.size == 0:
        raise NumericalFailureError("no breakpoints found; row is numerically zero")

    def g(t):
        v = dual - t * a
        # v minus its clip to the band is soft_threshold(v, lam)
        return b_i - float(np.dot(v - np.minimum(np.maximum(v, -lam), lam), a))

    # cheap bracket around the inexact step before touching the breakpoints
    center = inexact_step(soft_threshold(dual, lam), a, b_i)
    width = 1.0 + abs(center)
    lo, hi = center - width, center + width
    g_lo, g_hi = g(lo), g(hi)
    for _ in range(80):
        if g_lo < 0.0 < g_hi:
            break
        width *= 2.0
        if g_lo >= 0.0:
            lo = center - width
            g_lo = g(lo)
        if g_hi <= 0.0:
            hi = center + width
            g_hi = g(hi)
    if not g_lo < 0.0 < g_hi:
        # 80 doublings did not close the bracket (kinks far out, from tiny
        # row entries): search all breakpoints, with the rays beyond them
        ts = np.sort(bp)
        return _root_by_bisection(g, ts, -1, ts.size, -np.inf, np.inf, norm2)
    # the bracket ends lie strictly inside linear pieces, so interpolating
    # between them and the kinks they enclose is exact
    ts = np.concatenate(([lo], np.sort(bp[(bp > lo) & (bp < hi)]), [hi]))
    return _root_by_bisection(g, ts, 0, ts.size - 1, g_lo, g_hi, norm2)


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
