"""Sparsity-inducing objective and Bregman hyperplane projections.

The working objective is f(x) = lam*||x||_1 + 0.5*||x||_2^2, which is
1-strongly convex. Its conjugate is smooth with gradient equal to the soft
thresholding map, so a Bregman projection onto a hyperplane reduces to a
one-dimensional step in the dual variable. Both the cheap step (the row
residual) and the exact minimizing step are provided. The soft threshold is
taken as v minus its clip to [-lam, lam], one call of the clip ufunc and one
subtraction into a given array (``_threshold_into``), against a band of two
0-d arrays that a run builds once (``_band``); at lam = 0, where it is the
identity, it is one copy, or none when the given array is v itself. Every
threshold in the module goes through it.

The dual derivative is nondecreasing and piecewise linear in the step size,
so the exact step, the Bregman projection of Lorenz et al. (2014), is its
root. It is found by an active-set Newton iteration from t = 0, where the
current primal gives the piece and the derivative with no evaluation: on
the linear piece that holds the current point the root is one division
away, and it is accepted once the piece is unchanged. On a flat piece,
where every entry lies in its band, the root has a closed form from the
kinks on its side, sorted once: the threshold search of l1-ball projection
(Duchi et al. 2008). When Newton fails to settle, the root is found by
bisection over all the sorted breakpoints with the derivative evaluated
directly at O(log n) of them, then interpolated on the linear piece that
holds it, or on a ray beyond the outermost one. Newton reads the row's
kit, its squared norm, squares and signs (``_kits``, built once per window
of uniform rows or per greedy pick), and evaluates g into a workspace that
a run allocates once (``_workspace``), which also carries t into every
``np.multiply`` as a 0-d array. No buffer lives at module level, so runs in
two threads share none. One step kernel, ``_step_into``, takes the step and
thresholds into arrays it is given, with no array allocated beyond the
exact step's closed form and bisection; every method's iteration goes
through it. :func:`project_hyperplane` takes t from the same kernels (the
row residual, or ``_exact_step`` with the row's kit and a workspace) and
builds its new pair from dual - t*a, which thresholds the new dual once,
where the pair derives its primal. A step of exactly zero, where
g(0) == 0, takes no evaluation of g, and in place no write.
``_steps_at_rest`` takes a run of inexact steps that leave the primal
where it is all at once, with the bits of one ``_step_into`` each: ``run``
takes it at primal = 0 for every method, and elsewhere for greedy rows
alone. The public functions refuse complex input (``TypeError``),
mismatched shapes (:class:`DimensionMismatchError`) and NaN or infinite
entries (:class:`NonFiniteDataError`): a row, its rhs and the vector it
steps through one check (``_row``), every other argument through the
checks of :mod:`~sparsekaczmarz.linsys`. The private kernels check
nothing. A :class:`DualPair` is built from its dual alone, and derives its
primal with the same kernel.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
# the clip ufunc, which np.clip calls after its Python-level argument
# handling: one pass with the bits of np.minimum(np.maximum(v, lo), hi)
from numpy._core.umath import clip as _clip

from .errors import NonFiniteDataError, NumericalFailureError
from .linsys import _check_nonnegative, _check_vectors, _real, _real_vector

class StepMode(enum.Enum):
    INEXACT = "inexact"
    EXACT = "exact"


def _check_step_mode(mode, name: str) -> None:
    """Refuses a ``mode`` that is not a :class:`StepMode` (``ValueError``
    naming ``name``): the steps test it by identity, so a string would take
    one mode or the other."""
    if not isinstance(mode, StepMode):
        raise ValueError(f"{name} must be a StepMode, got {mode!r}")


def soft_threshold(v, lam: float) -> np.ndarray:
    """Componentwise shrink toward zero: sign(v) * max(|v| - lam, 0).

    Computed as v minus its clip to [-lam, lam], or at lam = 0 as a copy of
    v. The two forms are equal under ``==``, NaN entries included; only the
    sign of a zero may differ. A ``lam`` that is negative, infinite or NaN
    raises ``ValueError``, and a complex ``v`` ``TypeError``.
    """
    _check_nonnegative(lam, "lam")
    v = np.asarray(_real(v, "v"), dtype=float)
    out = _threshold_into(v, _band(lam), np.empty_like(v))
    return out if out.ndim else out[()]


def _band(lam: float) -> tuple[np.ndarray, np.ndarray] | None:
    """The band [-lam, lam] of :func:`_threshold_into`, built once per run:
    two read-only 0-d arrays, which a ufunc takes with no conversion of a
    Python float, or ``None`` at lam = 0. ``lam`` is not checked."""
    if lam == 0.0:
        return None
    lo, hi = np.array(-lam, dtype=float), np.array(lam, dtype=float)
    lo.setflags(write=False)
    hi.setflags(write=False)
    return lo, hi


def _threshold_into(v: np.ndarray, band, out: np.ndarray) -> np.ndarray:
    """:func:`soft_threshold` of ``v`` written into ``out``, which is returned.

    ``band`` is :func:`_band`'s. At lam = 0 (``None``) the threshold is the
    identity: ``out`` takes one copy of ``v``, which may differ from v minus
    its clip in the sign of a zero alone, and ``out`` that is ``v`` itself
    takes no write. Otherwise one call of the clip ufunc writes the clip of
    ``v`` to the band into ``out``, bit for bit np.maximum and then
    np.minimum, and one subtraction takes it from ``v``: ``out`` must not
    share memory with ``v``, which the subtraction reads.
    """
    if band is None:
        if out is not v:
            np.copyto(out, v)
        return out
    _clip(v, band[0], band[1], out=out)
    return np.subtract(v, out, out=out)


def objective_value(x, lam: float) -> float:
    """lam*||x||_1 + 0.5*||x||_2^2.

    A ``lam`` that is negative, infinite or NaN raises ``ValueError``, and an
    ``x`` that is complex ``TypeError``, not 1-D
    :class:`DimensionMismatchError` and not finite :class:`NonFiniteDataError`.
    """
    _check_nonnegative(lam, "lam")
    return _objective(_real_vector(x, "x"), lam)


def _objective(x: np.ndarray, lam: float) -> float:
    """:func:`objective_value` of a float array ``x``, with no checks."""
    return float(lam * np.abs(x).sum() + 0.5 * np.dot(x, x))


@dataclass(frozen=True, eq=False)
class DualPair:
    """Dual iterate x* and its primal x = soft_threshold(x*, lam), built from the dual alone.

    The link is the admissibility condition x* in the subdifferential of the
    objective at x, so the primal is derived, not given: a read-only array
    that the package's one threshold kernel writes at construction, after
    the dual is checked to be a real (``TypeError``), 1-D
    (:class:`DimensionMismatchError`) and finite
    (:class:`NonFiniteDataError`) vector and ``lam`` finite and nonnegative
    (``ValueError``). The dual is kept read-only, without a copy where it is
    a float array already.
    """

    dual: np.ndarray
    lam: float
    primal: np.ndarray = field(init=False)

    def __post_init__(self):
        dual = _real_vector(self.dual, "dual")
        _check_nonnegative(self.lam, "lam")
        primal = _threshold_into(dual, _band(self.lam), np.empty_like(dual))
        dual.setflags(write=False)
        primal.setflags(write=False)
        object.__setattr__(self, "dual", dual)
        object.__setattr__(self, "primal", primal)


def bregman_distance(pair: DualPair, y) -> float:
    """f(y) - f(x) - <x*, y - x> for x = pair.primal, x* = pair.dual.

    Nonnegative, and zero iff pair.primal equals y (up to floating rounding
    when the two are extremely close). A ``y`` whose shape is not the pair's
    raises :class:`DimensionMismatchError`, a complex one ``TypeError``, and
    one with a NaN or infinite entry :class:`NonFiniteDataError`.
    """
    y = np.asarray(_real(y, "y"), dtype=float)
    _check_vectors(y, pair.primal, "y and the pair")
    # after the shape check, whose message names both
    return _bregman_gap(pair.primal, pair.dual, _real_vector(y, "y"), pair.lam)


def _row(a_i, b_i, v: np.ndarray, names: str) -> np.ndarray:
    """The row ``a_i`` of a public step as a float vector, refused unless
    ``a_i`` and ``b_i`` are real (``TypeError``), the row and the float
    vector ``v`` are vectors of one length (:class:`DimensionMismatchError`
    naming them, ``names``), and the row, ``v`` and ``b_i`` are finite
    (:class:`NonFiniteDataError`), in that order."""
    a = np.asarray(_real(a_i, "a_i"), dtype=float)
    _real(b_i, "b_i")
    _check_vectors(a, v, names)
    if not (np.isfinite(a).all() and np.isfinite(v).all() and np.isfinite(b_i)):
        raise NonFiniteDataError(f"{names} must be finite vectors and b_i a finite number, got b_i {b_i!r}")
    return a


def _bregman_gap(x, dual, y, lam: float) -> float:
    """:func:`bregman_distance` from the arrays of a pair, with no validation of the link."""
    return float(_objective(y, lam) - _objective(x, lam) - np.dot(dual, y - x))


def inexact_step(x, a_i, b_i: float) -> float:
    """Row residual <a_i, x> - b_i; the cheap step size for a unit row.

    A row that is not a vector of the length of ``x`` raises
    :class:`DimensionMismatchError`, complex input ``TypeError``, and a NaN
    or infinite entry of ``x``, the row or b_i :class:`NonFiniteDataError`.
    """
    x = np.asarray(_real(x, "x"), dtype=float)
    a = _row(a_i, b_i, x, "a_i and x")
    return float(np.dot(a, x) - b_i)


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

    Newton starts at t = 0, where the thresholded dual is the current
    primal, so the first piece and g(0) need no evaluation. Each step
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

    A dual that is not 1-D, or a row of another shape, raises
    :class:`DimensionMismatchError`, complex input ``TypeError``, a NaN or
    infinite entry of the dual, the row or b_i :class:`NonFiniteDataError`,
    and a ``lam`` that is negative, infinite or NaN ``ValueError`` (from
    :func:`soft_threshold`), before any step.
    """
    dual = np.asarray(_real(dual, "dual"), dtype=float)
    a = _row(a_i, b_i, dual, "a_i and dual")
    primal = soft_threshold(dual, lam)
    return _exact_step(dual, primal, a, b_i, lam, _band(lam), _kits(a[None])[0], _workspace(a.size))


def _kits(rows: np.ndarray) -> list:
    """The kit of each row a of the 2-D block ``rows``, which the exact step
    reads rather than derives: (||a||^2, a*a, sign(a)), one tuple per row.
    The squared norms come from one ``np.vecdot``, with ``ndarray.dot``'s
    bits. A uniform window builds the kits of its rows at once, a greedy
    pick the kit of its row."""
    return list(zip(np.vecdot(rows, rows).tolist(), rows * rows, np.sign(rows)))


def _workspace(n: int) -> tuple:
    """The scratch of one run's steps over n entries: Newton's three
    evaluation rows (shifted, s, z) and the 0-d array that carries t into
    ``np.multiply``, which takes it with no conversion of a Python float.
    Each run allocates its own, so two runs in two threads share none; an
    inexact run, whose steps read the 0-d array alone, takes n = 0."""
    return np.empty(n), np.empty(n), np.empty(n), np.empty(())


def _exact_step(dual: np.ndarray, primal: np.ndarray, a: np.ndarray, b: float, lam: float, band, kit,
                work) -> float:
    """:func:`exact_step`, given ``primal`` = soft_threshold(dual, lam), the
    band of ``lam``, the row's kit and a workspace."""
    norm2 = kit[0]
    if norm2 == 0.0:
        raise NumericalFailureError("exact_step requires a nonzero row")
    t = _newton_root(dual, primal, a, b, lam, band, kit, work)
    return _bisection_root(dual, a, b, lam, band, norm2, work) if t is None else t


def _newton_root(dual, primal, a, b: float, lam: float, band, kit, work) -> float | None:
    """Root of g by active-set Newton from t = 0, or ``None`` to hand off.

    At t = 0 the thresholded dual is ``primal``, so the first piece and
    g(0) = b - <a, primal> come without an evaluation of g; on a flat piece
    there, as at x* = 0, no evaluation is taken at all. The squared norm,
    squares and signs of ``a`` come from its ``kit`` (:func:`_kits`), and
    each evaluation writes dual - t*a, its threshold s against ``band`` and
    the sign of s into the rows of the workspace ``work``
    (:func:`_workspace`), with t in its 0-d array: no evaluation allocates,
    and nothing is derived from the row. The pattern of a piece is counted
    as c = sum_j sign(a_j) sign(s_j): each entry's sign moves one way as t
    grows, so c falls at every kink and two points share a piece iff they
    share c. The sums are of integers, so exact. A flat piece, where g
    equals b, ends the walk with its closed-form root (:func:`_flat_piece_root`).
    At a point where g is exactly 0 on a sloped piece, that point is the
    root, and it is returned with no further evaluation (or ``None`` when
    :func:`_ends_at_kinks` holds there): the evaluation at t - g/slope = t
    would only give the same s and g back. So at g(0) == 0, a step of
    exactly zero, no evaluation is taken, and the pattern is not computed.
    """
    norm2, a2, sign_a = kit
    shifted, s, z, step = work
    g = b - float(primal.dot(a))
    np.sign(primal, out=z)
    # at g(0) == 0 the walk ends before it compares a piece's pattern
    c = float(z.dot(sign_a)) if g != 0.0 else None
    t, s_t = 0.0, primal  # s_t = soft_threshold(dual - t*a, lam)
    for _ in range(_NEWTON_STEPS):
        # between evaluations ``shifted`` is free to hold z*z
        slope = float(np.multiply(z, z, out=shifted).dot(a2))
        if slope == 0.0:
            t = _flat_piece_root(dual, a, lam, b)
            return t if math.isfinite(t) else None
        if g == 0.0:
            # t is the root: an evaluation at t - g/slope = t would give back s_t and g
            return None if _ends_at_kinks(a, s_t, b, lam, abs(t), norm2) else t
        t_new = t - g / slope
        step[()] = t_new
        np.multiply(a, step, out=shifted)
        np.subtract(dual, shifted, out=shifted)
        _threshold_into(shifted, band, s)
        np.sign(s, out=z)
        c_new = float(z.dot(sign_a))
        g_new = b - float(s.dot(a))
        if c_new == c:
            if _ends_at_kinks(a, s, b - g_new, lam, max(abs(t), abs(t_new)), norm2):
                return None
            # a correction on the same piece removes the rounding of a long jump
            return t_new - g_new / slope
        t, c, g, s_t = t_new, c_new, g_new, s
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


def _bisection_root(dual, a, b: float, lam: float, band, norm2: float, work) -> float:
    """Root of g by bisection over all its sorted kinks, with the rays of
    slope ``norm2`` beyond the outermost ones (:func:`_root_by_bisection`).
    g is evaluated into the rows of the workspace ``work``, as Newton's
    evaluations are."""
    nz = a != 0.0
    d, an = dual[nz], a[nz]
    bp = np.concatenate(((d - lam) / an, (d + lam) / an))
    bp = bp[np.isfinite(bp)]
    if bp.size == 0:
        raise NumericalFailureError("no breakpoints found; row is numerically zero")
    shifted, s, _, step = work

    def g(t):
        step[()] = t
        np.subtract(dual, np.multiply(a, step, out=shifted), out=shifted)
        return b - float(_threshold_into(shifted, band, s).dot(a))

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


def _step_into(dual, primal, a, b: float, lam: float, band, mode: StepMode, new_dual, new_primal, kit,
               work) -> float:
    """One iteration of every method: the dual steps along the row ``a``, then
    is thresholded. Writes the new pair into the given arrays and returns t.

    ``primal`` must equal soft_threshold(dual, lam); the exact step starts
    from it rather than thresholding ``dual`` again, and so takes the same
    value as :func:`exact_step`. t is the row residual <a, primal> - b of
    :func:`inexact_step` or the root of :func:`exact_step` per ``mode``,
    ``new_dual`` = dual - t*a and ``new_primal`` its soft threshold against
    ``band``, the run's :func:`_band` of ``lam``. The exact step reads the
    row's ``kit`` (:func:`_kits`; the inexact one takes ``None``), and both
    take the run's workspace ``work`` (:func:`_workspace`), whose 0-d array
    carries t into ``np.multiply``. ``new_dual`` may be ``dual`` and
    ``new_primal`` may be ``primal``: both are read only to find t, and
    ``new_primal`` holds t*a until the threshold overwrites it, so the step
    allocates no array beyond the exact step's closed form and bisection.
    At lam = 0, where x = x*, ``new_primal`` may also be ``new_dual`` when
    that is not ``dual``: t*a and then the new dual go into it, and the
    threshold writes nothing. A step of t == 0.0 in place writes nothing:
    no dual entry is -0.0 (the duals start at +0.0, and x - y is -0.0 only
    for x = -0.0), so dual - 0*a is ``dual`` and its threshold ``primal``,
    bit for bit. Fresh output arrays are always written. No checks: callers
    validate the row and the step value.
    """
    if mode is StepMode.INEXACT:
        t = float(a.dot(primal) - b)
    else:
        t = _exact_step(dual, primal, a, b, lam, band, kit, work)
    if t == 0.0 and new_dual is dual and new_primal is primal:
        return t
    step = work[3]
    step[()] = t
    np.subtract(dual, np.multiply(a, step, out=new_primal), out=new_dual)
    _threshold_into(new_dual, band, new_primal)
    return t


def _steps_at_rest(dual, primal, a, b, lam: float, duals) -> tuple[int, np.ndarray]:
    """Inexact steps of a run of slots, taken at once while they leave ``primal`` where it is.

    Slot s steps along row s of ``a``, with right-hand side ``b[s]``, from
    the pair slot s - 1 left (from ``dual``, ``primal`` for slot 0), as
    :func:`_step_into` would in inexact mode. While the primal stays put,
    every slot's step t_s = <a_s, primal> - b_s depends on its own row
    alone, and one ``np.vecdot`` takes them all, with ``ndarray.dot``'s
    bits. Two kinds of step leave the primal: a step of zero, which leaves
    the pair, and at primal = 0 a step whose dual stays in the band [-lam,
    lam]. At primal = 0 the duals move by one subtraction per slot, into
    column s of the n x s array ``duals`` (which may be ``a.T``), and the
    band is tested on all of them at once; elsewhere nothing is written.
    Uniform rows (RK, SRK) call it at primal = 0 alone, since they rarely
    pick a row twice before the pair moves; greedy rows (SSKM) also after a
    step of zero, as a converged solve keeps re-picking such rows.

    Returns ``(kept, t)``: the number of leading slots that leave the
    primal, and their step values; at primal = 0 column s of ``duals`` then
    holds slot s's dual, bit for bit. The next slot, if any, is one whose
    step moves the primal or is not finite: the caller steps it alone, and
    so overflow and invalid values are not reported here. ``a`` is
    overwritten, and ``dual`` is read before column 0 is written.
    """
    with np.errstate(all="ignore"):
        t = np.vecdot(a, primal) - b
        if np.count_nonzero(primal):
            still = t == 0.0
        else:
            np.multiply(a, t[:, None], out=a)
            for s in range(t.size):
                dual = np.subtract(dual, a[s], out=duals[:, s])
            # a threshold is zero exactly where every entry lies in [-lam, lam]
            still = (duals.max(axis=0) <= lam) & (duals.min(axis=0) >= -lam)
    kept = int(still.argmin()) if not still.all() else still.size
    return kept, t[:kept]


def project_hyperplane(pair: DualPair, a_i, b_i: float, mode: StepMode) -> DualPair:
    """Bregman projection of the pair onto the hyperplane <a_i, x> = b_i.

    The dual moves by -t*a_i, with t the row residual or the exact step's
    root per ``mode``, from the kernels :func:`_step_into` calls, and the
    new pair is built from it: its primal, the soft threshold of the new
    dual, is the one threshold of the call, bit for bit the step's. In
    exact mode the new primal satisfies the hyperplane; in both modes the
    Bregman distance to any point of the hyperplane decreases by at least
    half the squared row residual. A row
    that is not a vector of the pair's length raises
    :class:`DimensionMismatchError`, a complex row or b_i ``TypeError``, a
    NaN or infinite entry of the row or b_i :class:`NonFiniteDataError`, and
    a ``mode`` that is not a :class:`StepMode` ``ValueError``, before any
    step. An exact step takes the row's kit and a workspace of its own.
    """
    _check_step_mode(mode, "mode")
    a = _row(a_i, b_i, pair.dual, "a_i and the pair")
    norm = float(np.linalg.norm(a))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"project_hyperplane expects a unit row, got norm {norm!r}")
    lam = pair.lam
    if mode is StepMode.INEXACT:
        t = float(a.dot(pair.primal) - b_i)
    else:
        t = _exact_step(pair.dual, pair.primal, a, b_i, lam, _band(lam), _kits(a[None])[0], _workspace(a.size))
    return DualPair(pair.dual - t * a, lam)
