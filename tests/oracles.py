"""Independent reference implementations used to check the library.

Every oracle here deliberately takes a different computational route than
the code under test: brute-force loops, grid searches, bisection,
order-statistics identities, and exact rational arithmetic. Two are
reference forms instead, which the library itself no longer holds:
:func:`pick_index`, the one-row stream that ``run``'s window draws must
equal, and :func:`conjugate_value`, the conjugate's closed form that
:func:`conjugate_sup_oracle` checks.
"""

import itertools
from fractions import Fraction
from math import comb

import numpy as np

from sparsekaczmarz import SelectionRule, objective_value, sample_subset, soft_threshold
from sparsekaczmarz.sampling import _largest_residual


def naive_residual(rows, rhs, x):
    """Triple-loop residual, no vectorization."""
    m = len(rows)
    n = len(x)
    out = np.zeros(m)
    for i in range(m):
        acc = 0.0
        for j in range(n):
            acc += rows[i][j] * x[j]
        out[i] = acc - rhs[i]
    return out


def golden_section_max(fun, lo, hi, iters=90):
    """Maximize a unimodal 1-D function on [lo, hi]."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fun(d)
    mid = 0.5 * (a + b)
    return mid, fun(mid)


def conjugate_value(xstar, lam):
    """Fenchel conjugate of the objective at xstar, in closed form:
    0.5*||soft_threshold(xstar, lam)||_2^2, which :func:`conjugate_sup_oracle`
    checks."""
    s = soft_threshold(xstar, lam)
    return float(0.5 * np.dot(s, s))


def pick_index(config, system, rng, residuals):
    """Row chosen by one :func:`sample_subset` or ``rng.integers(m)`` call.

    ``residuals`` is the residual vector A x - b at the current iterate x;
    only the greedy rule reads it, and picks the subset's member with the
    largest squared residual, ties to the smallest index. ``run`` draws a
    window of rows at a time, with ``rng.integers(m, size=w)`` or
    ``rng.random((w, m))``: the same stream.
    """
    m = system.m
    if config.rule is SelectionRule.UNIFORM_RANDOM:
        # unit rows make squared-norm weighting uniform
        return int(rng.integers(m))
    return _largest_residual(sample_subset(m, config.beta, rng), residuals)


def conjugate_sup_oracle(xstar, lam, grid_points=2001):
    """sup_z <xstar, z> - lam*||z||_1 - 0.5*||z||_2^2 by per-coordinate search.

    The objective separates across coordinates, so each 1-D term is
    maximized independently with a coarse grid followed by golden-section
    refinement around the best grid point.
    """
    xstar = np.asarray(xstar, dtype=float)
    total = 0.0
    for v in xstar:
        span = abs(v) + lam + 2.0
        grid = np.linspace(-span, span, grid_points)
        vals = v * grid - lam * np.abs(grid) - 0.5 * grid**2
        best = int(np.argmax(vals))
        lo = grid[max(best - 1, 0)]
        hi = grid[min(best + 1, grid_points - 1)]
        _, fmax = golden_section_max(lambda z: v * z - lam * abs(z) - 0.5 * z * z, lo, hi)
        total += max(fmax, vals[best])
    return total


def bisection_exact_step(dual, a, b_i, lam, tol=1e-13, max_iter=200):
    """Root of t -> b_i - <a, soft_threshold(dual - t*a, lam)> by bisection."""
    dual = np.asarray(dual, dtype=float)
    a = np.asarray(a, dtype=float)

    def gp(t):
        return b_i - float(np.dot(a, soft_threshold(dual - t * a, lam)))

    lo, hi = -1.0, 1.0
    for _ in range(200):
        if gp(lo) <= 0.0:
            break
        lo *= 2.0
    for _ in range(200):
        if gp(hi) >= 0.0:
            break
        hi *= 2.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol * (1.0 + abs(mid)):
            break
        if gp(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bregman_distance_alt(pair, y):
    """Algebraically rearranged Bregman distance for an admissible pair.

    Uses <x*, x> = lam*||x||_1 + ||x||_2^2, which holds whenever
    x = soft_threshold(x*, lam).
    """
    y = np.asarray(y, dtype=float)
    x = pair.primal
    lam = pair.lam
    return (
        objective_value(y, lam)
        + 0.5 * float(np.dot(x, x))
        - float(np.dot(pair.dual, y))
    )


def gamma_order_statistics(residuals, beta):
    """Exact gamma via subset-counting identities instead of enumeration.

    Every index lies in C(m-1, beta-1) subsets, so the 2-norm sum is that
    multiple of ||r||^2. For the max-norm sum, sort the squared residuals in
    decreasing order; the j-th value (1-based) is the subset max for exactly
    C(m-j, beta-1) subsets.
    """
    sq = np.asarray(residuals, dtype=float) ** 2
    m = sq.shape[0]
    num = comb(m - 1, beta - 1) * float(sq.sum())
    order = np.sort(sq)[::-1]
    den = 0.0
    for j in range(1, m - beta + 2):
        den += comb(m - j, beta - 1) * order[j - 1]
    return num / den


def gamma_bruteforce(residuals, beta):
    """Literal enumeration of all subsets with Python loops."""
    sq = [float(v) ** 2 for v in residuals]
    m = len(sq)
    num = 0.0
    den = 0.0
    for subset in itertools.combinations(range(m), beta):
        vals = [sq[i] for i in subset]
        num += sum(vals)
        den += max(vals)
    return num / den


def max_rank_weights(m, beta):
    """P(subset max lies at sorted position j) for uniform size-beta subsets, in floats."""
    w = np.zeros(m)
    w[0] = beta / m
    for j in range(1, m - beta + 1):
        w[j] = w[j - 1] * (m - j - beta + 1) / (m - j)
    return w


def gamma_sorted(r, beta, weights):
    """Vectorized gamma from the max-position probabilities of :func:`max_rank_weights`.

    Float arithmetic throughout: one sort and one dot product. On standard
    normal residuals up to m=2000 it agreed with the exact value to 2e-15
    relative.
    """
    sq = np.sort(r**2)[::-1]
    num = (beta / r.shape[0]) * float(sq.sum())
    return num / float(weights @ sq)


def singular_values_via_gram(a):
    """Singular values from the eigenvalues of A^T A (independent of SVD)."""
    a = np.asarray(a, dtype=float)
    gram = a.T @ a
    eigs = np.linalg.eigvalsh(gram)
    return np.sqrt(np.clip(eigs, 0.0, None))[::-1]


def orthogonal_projection(x, a, b_i):
    """Euclidean projection of x onto the hyperplane <a, y> = b_i."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    return x - (float(np.dot(a, x)) - b_i) / float(np.dot(a, a)) * a


def _step_derivative(t, dual, a, b_i, lam):
    """b_i - <a, soft_threshold(dual - t a, lam)> at scalar or 1-D array t, as one matrix."""
    t = np.asarray(t, dtype=float)
    shifted = dual[None, :] - t.reshape(-1, 1) * a[None, :]
    vals = b_i - soft_threshold(shifted, lam) @ a
    return vals if t.ndim else float(vals[0])


def _root_on_grid(ts, gs, slope_outside):
    """Root of a nondecreasing piecewise-linear function sampled at its kinks.

    ``slope_outside`` is the (positive) slope on the two unbounded rays.
    Returns the root and a point inside the piece whose line gave it, or
    ``None`` in its place when the root is the midpoint of a flat zero
    segment.
    """
    if gs[0] > 0.0:
        return float(ts[0] - gs[0] / slope_outside), ts[0] - abs(ts[0]) - 1.0
    if gs[-1] < 0.0:
        return float(ts[-1] - gs[-1] / slope_outside), ts[-1] + abs(ts[-1]) + 1.0
    neg = np.flatnonzero(gs < 0.0)
    pos = np.flatnonzero(gs > 0.0)
    if neg.size == 0 and pos.size == 0:
        return float(0.5 * (ts[0] + ts[-1])), None
    if neg.size == 0:
        return float(0.5 * (ts[0] + ts[pos[0] - 1])), None
    if pos.size == 0:
        return float(0.5 * (ts[neg[-1] + 1] + ts[-1])), None
    i, j = int(neg[-1]), int(pos[0])
    if j > i + 1:
        # g is exactly zero on [ts[i+1], ts[j-1]]
        return float(0.5 * (ts[i + 1] + ts[j - 1])), None
    slope = (gs[j] - gs[i]) / (ts[j] - ts[i])
    return float(ts[i] - gs[i] / slope), 0.5 * (ts[i] + ts[j])


def _finish_on_piece(t, inside, dual, a, b_i, lam):
    """One step from ``t`` on the line of the piece that holds ``inside``,
    whose slope sums a_j^2 over the entries above the band there.

    Interpolating from grid points far from the root leaves a rounding of
    about eps times their size, which swamps a root near 0; the step leaves
    only the rounding of g at ``t``, as the exact step's last step does.
    """
    if inside is None:
        return t
    above = np.abs(dual - inside * a) > lam
    slope = float(np.dot(a[above], a[above]))
    return t - _step_derivative(t, dual, a, b_i, lam) / slope if slope > 0.0 else t


def breakpoint_scan_exact_step(dual, a, b_i, lam):
    """Exact step by evaluating the derivative at every bracketed breakpoint.

    The library's earlier implementation, kept as a floating-point reference
    for its exact step: the bracket around the row residual that the
    bisection fallback also uses, then the derivative at every deduplicated
    breakpoint inside it, as one matrix product, and :func:`_root_on_grid` on
    the result, finished with one step on the root's piece
    (:func:`_finish_on_piece`). Its derivative values are rounded too, so it
    is itself checked against :func:`rational_step_roots`.
    """
    dual = np.asarray(dual, dtype=float)
    a = np.asarray(a, dtype=float)
    norm2 = float(np.dot(a, a))
    nz = a != 0.0
    bp = np.concatenate(((dual[nz] - lam) / a[nz], (dual[nz] + lam) / a[nz]))
    bp = np.unique(bp[np.isfinite(bp)])

    center = float(np.dot(a, soft_threshold(dual, lam)) - b_i)
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
    if g_lo < 0.0 < g_hi:
        inside = bp[(bp > lo) & (bp < hi)]
        ts = np.concatenate(([lo], inside, [hi]))
        gs = np.concatenate(([g_lo], _step_derivative(inside, dual, a, b_i, lam), [g_hi]))
    else:
        ts, gs = bp, _step_derivative(bp, dual, a, b_i, lam)
    return _finish_on_piece(*_root_on_grid(ts, gs, norm2), dual, a, b_i, lam)


def _rational_derivative(t, dual, a, b_i, lam):
    """b_i - <a, soft_threshold(dual - t a, lam)> in exact rational arithmetic."""
    g = b_i
    for d, aj in zip(dual, a):
        v = d - t * aj
        if v > lam:
            g -= aj * (v - lam)
        elif v < -lam:
            g -= aj * (v + lam)
    return g


def rational_step_roots(dual, a, b_i, lam):
    """The exact step's roots, with no rounding: the interval ``(lo, hi)`` of
    :class:`fractions.Fraction` ends where the derivative is zero.

    The floats given are read as the rationals they are; ``b_i`` may also be
    a :class:`fractions.Fraction`. The derivative is nondecreasing and linear
    between its kinks (dual_j -+ lam) / a_j, with slope ||a||^2 on the two
    rays, so two binary searches over the sorted kinks find the piece that
    holds the root and the root is solved on it; then lo == hi. On a flat
    zero segment the ends are kinks, and any point of it minimizes the line
    search: :func:`exact_step` returns its midpoint, but a kink that its
    floating-point derivative misses by one rounding moves that midpoint.
    ``a`` must have a nonzero entry.
    """
    dual = [Fraction(float(v)) for v in dual]
    a = [Fraction(float(v)) for v in a]
    b_i, lam = Fraction(b_i), Fraction(float(lam))
    kinks = sorted({(d + side * lam) / aj for d, aj in zip(dual, a) if aj for side in (-1, 1)})

    def g(t):
        return _rational_derivative(t, dual, a, b_i, lam)

    def first(pred):
        lo, hi = 0, len(kinks)
        while lo < hi:
            mid = (lo + hi) // 2
            if pred(g(kinks[mid])):
                hi = mid
            else:
                lo = mid + 1
        return lo

    # g < 0 at kinks[:i], g == 0 at kinks[i:j], g > 0 at kinks[j:]
    i = first(lambda v: v >= 0)
    j = first(lambda v: v > 0)
    norm2 = sum(aj * aj for aj in a)
    if i == len(kinks):
        t = kinks[-1] - g(kinks[-1]) / norm2
    elif j == 0:
        t = kinks[0] - g(kinks[0]) / norm2
    elif i < j:
        return kinks[i], kinks[j - 1]
    else:
        lo, hi = kinks[i - 1], kinks[i]
        g_lo, g_hi = g(lo), g(hi)
        t = lo - g_lo * (hi - lo) / (g_hi - g_lo)
    return t, t


def derivative_rounding_bound(dual, a, lam, t) -> float:
    """A bound on the rounding of b_i - <a, soft_threshold(dual - t a, lam)> in floats.

    eps (n sum_j |a_j s_j| + 2 sum_j |a_j| (|dual_j| + |t a_j|)), for s the
    thresholded shift: the dot product <a, s> rounds by up to n eps sum_j
    |a_j s_j|, and forming dual_j - t a_j rounds by up to 2 eps (|dual_j| +
    |t a_j|), which also covers an entry that rounding moves across a kink.
    """
    dual = np.asarray(dual, dtype=float)
    a = np.asarray(a, dtype=float)
    s = soft_threshold(dual - t * a, lam)
    shift = np.abs(dual) + abs(t) * np.abs(a)
    return float(np.finfo(float).eps * np.dot(np.abs(a), a.size * np.abs(s) + 2 * shift))
