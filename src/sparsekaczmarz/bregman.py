"""Sparsity-inducing objective, its conjugate, and Bregman hyperplane projections.

The working objective is f(x) = lam*||x||_1 + 0.5*||x||_2^2, which is
1-strongly convex. Its conjugate is smooth with gradient equal to the soft
thresholding map, so a Bregman projection onto a hyperplane reduces to a
one-dimensional step in the dual variable. Both the cheap step (the row
residual) and the exact minimizing step are provided. The soft threshold is
taken as v minus its clip to [-lam, lam], three array passes.

The dual derivative is nondecreasing and piecewise linear in the step size,
so the exact step, the Bregman projection of Lorenz et al. (2014), is its
root. It is found by an active-set Newton iteration from the cheap step: on
the linear piece that holds the current point the root is one division
away, and it is accepted once the piece is unchanged. On a flat piece,
where every entry lies in its band, the root has a closed form from the
kinks on its side, sorted once: the threshold search of l1-ball projection
(Duchi et al. 2008). When Newton fails to settle, the root is found by
bisection over all the sorted breakpoints with the derivative evaluated
directly at O(log n) of them, then interpolated on the linear piece that
holds it, or on a ray beyond the outermost one. One step kernel,
``_step_into``, takes the step and thresholds into arrays it is given; every
method's iteration and :func:`project_hyperplane` go through it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteDataError, NumericalFailureError

class StepMode(enum.Enum):
    INEXACT = "inexact"
    EXACT = "exact"


def soft_threshold(v, lam: float) -> np.ndarray:
    """Componentwise shrink toward zero: sign(v) * max(|v| - lam, 0).

    Computed as v minus its clip to [-lam, lam], in three array passes. The
    two forms are equal under ``==``, NaN entries included; only the sign of
    a zero may differ.
    """
    v = np.asarray(v, dtype=float)
    return v - np.minimum(np.maximum(v, -lam), lam)


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
    objective at x; it is enforced at construction, after ``lam`` is checked to
    be finite and nonnegative (``ValueError``). Use :meth:`from_dual` to
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
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam!r}")
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


def bregman_distance(pair: DualPair, y) -> float:
    """f(y) - f(x) - <x*, y - x> for x = pair.primal, x* = pair.dual.

    Nonnegative, and zero iff pair.primal equals y (up to floating rounding
    when the two are extremely close).
    """
    return _bregman_gap(pair.primal, pair.dual, np.asarray(y, dtype=float), pair.lam)


def _bregman_gap(x, dual, y, lam: float) -> float:
    """:func:`bregman_distance` from the arrays of a pair, with no validation of the link."""
    return float(objective_value(y, lam) - objective_value(x, lam) - np.dot(dual, y - x))


def inexact_step(x, a_i, b_i: float) -> float:
    """Row residual <a_i, x> - b_i; the cheap step size for a unit row."""
    return float(np.dot(a_i, x) - b_i)


# Newton steps tried before the bisection takes over
_NEWTON_STEPS = 8
# a Newton root where every term a_j * s_j of g lies within this share of the
# scale of the step's arithmetic may sit at the end of a plateau where g is
# zero up to rounding
_KINK_ROUNDING = 2.0**-30


def exact_step(dual, a_i, b_i: float, lam: float) -> float:
    """Minimizer of t -> f*(dual - t*a_i) + t*b_i.

    The derivative g(t) = b_i - <a_i, soft_threshold(dual - t*a_i, lam)> is a
    nondecreasing piecewise-linear function of t whose kinks are the up-to-2n
    points where a component of dual - t*a_i hits the threshold band; its
    slope on a piece is the sum of a_j^2 over the entries above the band.
    The root always exists for a_i != 0.

    Newton steps start at the row residual (the inexact step). Each one
    jumps to the root of the current piece's line, and the jump is accepted
    when the sign pattern of the thresholded dual is the same there, so that
    both points lie on one piece and the jump is its exact root; one more
    step on that piece removes the rounding of the jump. On a flat piece,
    where g equals b (every entry with a_j != 0 in its band, as at x* = 0),
    the root is taken in closed form (:func:`_flat_piece_root`); with b zero
    it is the midpoint of that piece. Newton hands off to a bisection over
    all the sorted kinks when the pattern still changes after
    ``_NEWTON_STEPS`` steps, when the closed form is not finite, or when
    every term of g at the root lies within rounding of zero (so b_i is zero
    up to rounding): the root may then end a piece where g is zero, and the
    midpoint of that plateau is the answer. The bisection evaluates g
    directly at O(log n) kinks and interpolates the root on its piece, or
    returns the midpoint of a segment where g vanishes.

    A NaN or infinite entry of the dual, the row or b_i raises
    :class:`NonFiniteDataError` before any step.
    """
    dual = np.asarray(dual, dtype=float)
    a = np.asarray(a_i, dtype=float)
    if not (np.isfinite(dual).all() and np.isfinite(a).all() and np.isfinite(b_i)):
        raise NonFiniteDataError(f"exact_step needs a finite dual, row and rhs, got rhs {b_i!r}")
    return _exact_step(dual, soft_threshold(dual, lam), a, b_i, lam)


def _exact_step(dual: np.ndarray, primal: np.ndarray, a: np.ndarray, b: float, lam: float) -> float:
    """:func:`exact_step`, given ``primal`` = soft_threshold(dual, lam)."""
    norm2 = float(np.dot(a, a))
    if norm2 == 0.0:
        raise NumericalFailureError("exact_step requires a nonzero row")
    t = _newton_root(dual, a, b, lam, inexact_step(primal, a, b), norm2)
    return _bisection_root(dual, a, b, lam, norm2) if t is None else t


def _newton_root(dual, a, b: float, lam: float, t: float, norm2: float) -> float | None:
    """Root of g by active-set Newton from ``t``, or ``None`` to hand off.

    The pattern of a piece is counted as c = sum_j sign(a_j) sign(s_j) with
    s = soft_threshold(dual - t*a, lam): each entry's sign moves one way as t
    grows, so c falls at every kink and two points share a piece iff they
    share c. The sums are of integers, so exact. A flat piece, where g
    equals b, ends the walk with its closed-form root (:func:`_flat_piece_root`).
    """
    sign_a = np.sign(a)
    a2 = a * a

    def piece(t):
        s = soft_threshold(dual - t * a, lam)
        z = np.sign(s)
        return s, z, float(np.dot(z, sign_a))

    s, z, c = piece(t)
    g = b - float(np.dot(s, a))
    slope = float(np.dot(z * z, a2))
    for _ in range(_NEWTON_STEPS):
        if slope == 0.0:
            t = _flat_piece_root(dual, a, lam, b)
            return t if math.isfinite(t) else None
        t_new = t - g / slope
        s, z, c_new = piece(t_new)
        g_new = b - float(np.dot(s, a))
        if c_new == c:
            if _ends_at_kinks(a, s, b - g_new, lam, max(abs(t), abs(t_new)), norm2):
                return None
            # a correction on the same piece removes the rounding of a long jump
            return t_new - g_new / slope
        t, c, g = t_new, c_new, g_new
        slope = float(np.dot(z * z, a2))
    return None


def _flat_piece_root(dual, a, lam: float, b: float) -> float:
    """Root of g from its flat piece, where g equals b.

    On the flat piece every entry with a_j != 0 lies in its band, t in
    [(dual_j - lam)/a_j, (dual_j + lam)/a_j] (ends swapped for a_j < 0). With
    b = 0, g is zero on exactly that piece, and its midpoint is the root.
    Otherwise the root lies left (b > 0) or right (b < 0), and each entry
    leaves its band once on that side, at the end k_j of its band there. For
    b > 0, g(t) = b - sum_j a_j^2 (k_j - t)_+ is then the least of the lines
    b - K_r + A_r t, where A_r and K_r sum a_j^2 and a_j^2 k_j over the first
    r entries to leave; each line with A_r > 0 lies on or above g, so the
    root is the largest of their roots (K_r - b)/A_r. For b < 0 the mirror
    image holds, and the root is the smallest.
    """
    nz = a != 0.0
    an, d = a[nz], dual[nz]
    lo, hi = (d - lam) / an, (d + lam) / an
    left, right = np.minimum(lo, hi), np.maximum(lo, hi)
    if b == 0.0:
        return float(0.5 * (left.max() + right.min()))
    ends = left if b > 0.0 else right
    # the order in which the entries leave: largest left end or smallest right end first
    order = np.argsort(-ends if b > 0.0 else ends)
    an2 = an[order] ** 2
    weight = np.cumsum(an2)
    # A_r = 0 where every square so far underflows; the sums never fall, so
    # the lines with A_r > 0 are a suffix
    first = np.count_nonzero(weight == 0.0)
    roots = (np.cumsum(an2 * ends[order])[first:] - b) / weight[first:]
    return float(roots.max() if b > 0.0 else roots.min())


def _ends_at_kinks(a, s, total: float, lam: float, reach: float, norm2: float) -> bool:
    """Every term a_j * s_j of g, which sum to ``total``, lies within rounding of zero.

    Then every entry above the band may be about to leave it, and a plateau
    where g equals b may start; with b zero up to rounding the root may be
    anywhere on it. An entry near its kink has |dual_j| <= |t a_j| + lam, so
    the rounding of its s_j is bounded without reading ``dual``; ``reach``
    is the largest |t| of the Newton step.
    """
    root = math.sqrt(norm2)
    bound = _KINK_ROUNDING * (2.0 * reach * root + lam) * root
    # terms that small sum to at most a.size * bound
    if abs(total) > a.size * bound:
        return False
    return float(np.abs(s * a).max()) <= bound


def _bisection_root(dual, a, b: float, lam: float, norm2: float) -> float:
    """Root of g by bisection over all its sorted kinks, with the rays of
    slope ``norm2`` beyond the outermost ones (:func:`_root_by_bisection`)."""
    nz = a != 0.0
    d, an = dual[nz], a[nz]
    bp = np.concatenate(((d - lam) / an, (d + lam) / an))
    bp = bp[np.isfinite(bp)]
    if bp.size == 0:
        raise NumericalFailureError("no breakpoints found; row is numerically zero")

    def g(t):
        return b - float(np.dot(soft_threshold(dual - t * a, lam), a))

    return _root_by_bisection(g, np.sort(bp), norm2)


def _root_by_bisection(g, ts, slope_outside: float) -> float:
    """Root of a nondecreasing piecewise-linear ``g`` whose kinks are the sorted ``ts``.

    g is linear of slope ``slope_outside`` on the rays beyond the kinks, so
    it is negative far left and positive far right: index -1 and ``ts.size``
    stand for those rays. Bisection on the kinks finds the adjacent pair
    around the sign change, evaluating ``g`` at O(log |ts|) of them, and the
    root is interpolated from the two exact end values, or along a ray from
    the outermost kink. If g is exactly zero on [ts[p], ts[q]], the midpoint
    is returned; a lone zero kink is returned as is.
    """
    lo, hi, g_lo, g_hi = -1, ts.size, -np.inf, np.inf
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


def _step_into(dual, primal, a, b: float, lam: float, mode: StepMode, new_dual, new_primal) -> float:
    """One iteration of every method: the dual steps along the row ``a``, then
    is thresholded. Writes the new pair into the given arrays and returns t.

    ``primal`` must equal soft_threshold(dual, lam); the exact step starts
    from it rather than thresholding ``dual`` again, and so takes the same
    value as :func:`exact_step`. t comes from :func:`inexact_step` or
    :func:`exact_step` per ``mode``, ``new_dual`` = dual - t*a and
    ``new_primal`` its soft threshold. ``new_dual`` may be ``dual`` and
    ``new_primal`` may be ``primal``: both are read only to find t. No
    checks: callers validate the row and the step value.
    """
    t = inexact_step(primal, a, b) if mode is StepMode.INEXACT else _exact_step(dual, primal, a, b, lam)
    np.subtract(dual, t * a, out=new_dual)
    # soft_threshold's three passes
    np.maximum(new_dual, -lam, out=new_primal)
    np.minimum(new_primal, lam, out=new_primal)
    np.subtract(new_dual, new_primal, out=new_primal)
    return t


def project_hyperplane(pair: DualPair, a_i, b_i: float, mode: StepMode) -> DualPair:
    """Bregman projection of the pair onto the hyperplane <a_i, x> = b_i.

    The dual moves by -t*a_i with t chosen per ``mode``; the primal is the
    soft threshold of the new dual (:func:`_step_into`, into two fresh
    arrays). In exact mode the new primal satisfies the hyperplane; in both
    modes the Bregman distance to any point of the hyperplane decreases by
    at least half the squared row residual. A NaN or infinite entry of the
    row or b_i raises :class:`NonFiniteDataError` before any step.
    """
    a = np.asarray(a_i, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b_i)):
        raise NonFiniteDataError(f"project_hyperplane needs a finite row and rhs, got rhs {b_i!r}")
    norm = float(np.linalg.norm(a))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"project_hyperplane expects a unit row, got norm {norm!r}")
    dual, primal = np.empty_like(pair.dual), np.empty_like(pair.primal)
    _step_into(pair.dual, pair.primal, a, b_i, pair.lam, mode, dual, primal)
    return DualPair(primal=primal, dual=dual, lam=pair.lam)
