import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sparsekaczmarz import (
    DualPair,
    StepMode,
    bregman_distance,
    conjugate_value,
    exact_step,
    inexact_step,
    objective_value,
    project_hyperplane,
    soft_threshold,
)
from sparsekaczmarz import bregman
from sparsekaczmarz.errors import NonFiniteDataError, NumericalFailureError

from oracles import (
    bisection_exact_step,
    breakpoint_scan_exact_step,
    bregman_distance_alt,
    conjugate_sup_oracle,
    derivative_rounding_bound,
    orthogonal_projection,
    rational_step_roots,
)


def random_unit_row(rng, n):
    a = rng.standard_normal(n)
    return a / np.linalg.norm(a)


# ---------------------------------------------------------------- threshold


def test_soft_threshold_basic():
    out = soft_threshold([2.5, -0.3, 1.0], 1.0)
    assert np.array_equal(out, [1.5, 0.0, 0.0])


def test_soft_threshold_identity_at_lam_zero():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(50)
    assert np.array_equal(soft_threshold(v, 0.0), v)


def test_soft_threshold_boundary():
    assert np.array_equal(soft_threshold([-3.0, 3.0], 3.0), [0.0, 0.0])


def test_soft_threshold_sparsity_pattern():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(100)
    out = soft_threshold(v, 0.7)
    assert np.all(np.abs(v[out != 0.0]) > 0.7)


def test_soft_threshold_is_1_lipschitz():
    rng = np.random.default_rng(2)
    for _ in range(200):
        u = rng.standard_normal(8) * rng.uniform(0.1, 5.0)
        v = rng.standard_normal(8) * rng.uniform(0.1, 5.0)
        lam = rng.uniform(0.0, 3.0)
        lhs = np.linalg.norm(soft_threshold(u, lam) - soft_threshold(v, lam))
        assert lhs <= np.linalg.norm(u - v) + 1e-12


_VECTORS = hnp.arrays(np.float64, st.integers(1, 30), elements=st.floats(-1e6, 1e6))
_LAMS = st.one_of(st.just(0.0), st.floats(0.0, 1e3))


@settings(max_examples=300, deadline=None)
@given(v=_VECTORS, lam=_LAMS)
def test_soft_threshold_shrinks_magnitude_and_keeps_sign(v, lam):
    out = soft_threshold(v, lam)
    assert np.array_equal(np.abs(out), np.maximum(np.abs(v) - lam, 0.0))
    # the sign is kept, or the entry is zero
    assert np.all((np.sign(out) == np.sign(v)) | (out == 0.0))
    # odd
    assert np.array_equal(soft_threshold(-v, lam), -out)
    if lam == 0.0:
        assert np.array_equal(out, v)


@settings(max_examples=300, deadline=None)
@given(uv=hnp.arrays(np.float64, st.tuples(st.just(2), st.integers(1, 30)), elements=st.floats(-1e6, 1e6)), lam=_LAMS)
def test_soft_threshold_is_1_lipschitz_entrywise(uv, lam):
    u, v = uv
    gap = np.abs(soft_threshold(u, lam) - soft_threshold(v, lam))
    # up to the rounding of the three subtractions involved
    slack = 4 * np.finfo(float).eps * (np.abs(u) + np.abs(v) + lam)
    assert np.all(gap <= np.abs(u - v) + slack)


_EDGE_VECTORS = hnp.arrays(
    np.float64,
    st.integers(1, 30),
    elements=st.one_of(st.floats(allow_nan=False), st.sampled_from([np.inf, -np.inf, np.nan, 0.0, -0.0])),
)


@settings(max_examples=300, deadline=None)
@given(v=_EDGE_VECTORS, lam=st.sampled_from([0.0, 0.05, 1.0, 3.0]))
def test_soft_threshold_clip_form_equals_sign_form(v, lam):
    # v minus its clip to [-lam, lam] against sign(v) * max(|v| - lam, 0), for
    # finite values, +-inf and NaN; equal under ==, so only a zero's sign may differ
    out = soft_threshold(v, lam)
    ref = np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)
    assert np.array_equal(np.isnan(out), np.isnan(ref))
    keep = ~np.isnan(ref)
    assert np.all(out[keep] == ref[keep])


# ---------------------------------------------------------------- objective


def test_objective_zero():
    assert objective_value(np.zeros(4), 3.0) == 0.0


def test_objective_value():
    assert objective_value([1.0, -2.0], 1.0) == pytest.approx(5.5, abs=1e-15)


def test_objective_lam_zero_is_half_sq_norm():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(10)
    assert objective_value(x, 0.0) == pytest.approx(0.5 * np.dot(x, x), rel=1e-15)


# ---------------------------------------------------------------- conjugate


def test_conjugate_at_zero():
    assert conjugate_value(np.zeros(3), 1.5) == 0.0


def test_conjugate_lam_zero_self_conjugate():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(6)
    assert conjugate_value(x, 0.0) == pytest.approx(0.5 * np.dot(x, x), rel=1e-15)


def test_conjugate_scalar_example():
    # sup_z 3z - |z| - z^2/2 attained at z = 2, value 2
    assert conjugate_value([3.0], 1.0) == pytest.approx(2.0, abs=1e-12)
    assert conjugate_sup_oracle([3.0], 1.0) == pytest.approx(2.0, abs=1e-8)


def test_conjugate_matches_sup_oracle():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        xstar = rng.standard_normal(n) * rng.uniform(0.2, 4.0)
        lam = rng.choice([0.0, 0.3, 1.0, 2.5])
        assert conjugate_value(xstar, lam) == pytest.approx(
            conjugate_sup_oracle(xstar, lam), abs=1e-8
        )


# ---------------------------------------------------------------- dual pair


def test_dual_pair_enforces_link():
    with pytest.raises(ValueError):
        DualPair(primal=np.array([2.0]), dual=np.array([2.0]), lam=1.0)


@pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0])
def test_dual_pair_refuses_a_lam_that_is_not_finite_and_nonnegative(lam):
    # NaN had failed as a broken link, and inf was taken with an all-zero primal
    with pytest.raises(ValueError, match="lam must be finite and nonnegative"):
        DualPair(primal=np.zeros(2), dual=np.array([1.0, -2.0]), lam=lam)
    with pytest.raises(ValueError, match="lam must be finite and nonnegative"):
        DualPair.from_dual(np.array([1.0, -2.0]), lam)


def test_dual_pair_from_dual():
    pair = DualPair.from_dual(np.array([2.0, -0.5]), 1.0)
    assert np.array_equal(pair.primal, [1.0, 0.0])


# ------------------------------------------------------------- distance


def test_bregman_distance_zero_at_self():
    pair = DualPair.from_dual(np.array([2.0, -3.0]), 1.0)
    assert bregman_distance(pair, pair.primal) == 0.0


def test_bregman_distance_euclidean_special_case():
    pair = DualPair.from_dual(np.array([1.0, 0.0]), 0.0)
    assert bregman_distance(pair, np.array([0.0, 1.0])) == pytest.approx(1.0, abs=1e-15)


def test_bregman_distance_worked_example():
    pair = DualPair.from_dual(np.array([2.0, 0.0]), 1.0)
    assert bregman_distance(pair, np.array([0.0, 3.0])) == pytest.approx(8.0, abs=1e-14)


def test_bregman_distance_matches_alt_formula():
    rng = np.random.default_rng(6)
    for _ in range(100):
        lam = rng.choice([0.0, 0.5, 1.0, 4.0])
        pair = DualPair.from_dual(rng.standard_normal(7) * 3.0, lam)
        y = rng.standard_normal(7) * 2.0
        assert bregman_distance(pair, y) == pytest.approx(
            bregman_distance_alt(pair, y), rel=1e-12, abs=1e-12
        )


def test_strong_convexity_sandwich():
    rng = np.random.default_rng(7)
    for _ in range(200):
        lam = rng.choice([0.0, 0.5, 2.0])
        px = DualPair.from_dual(rng.standard_normal(6) * 3.0, lam)
        py = DualPair.from_dual(rng.standard_normal(6) * 3.0, lam)
        d = bregman_distance(px, py.primal)
        gap = np.linalg.norm(px.primal - py.primal)
        lower = 0.5 * gap**2
        upper = np.linalg.norm(px.dual - py.dual) * gap
        assert lower <= d + 1e-10
        assert d <= upper + 1e-10


# ---------------------------------------------------------------- steps


def test_inexact_step_values():
    assert inexact_step([3.0, 4.0], [1.0, 0.0], 1.0) == 2.0
    assert inexact_step([0.5, 0.5], [0.6, 0.8], 0.7) == pytest.approx(0.0, abs=1e-15)
    assert inexact_step([1.0, 1.0], [0.6, 0.8], 0.0) == pytest.approx(1.4, abs=1e-15)


def test_exact_step_scalar_example():
    assert exact_step(np.array([0.0]), np.array([1.0]), 0.5, 1.0) == pytest.approx(
        -1.5, abs=1e-12
    )


def test_exact_step_zero_when_already_feasible():
    rng = np.random.default_rng(8)
    dual = rng.standard_normal(5)
    lam = 0.8
    a = random_unit_row(rng, 5)
    b = float(np.dot(a, soft_threshold(dual, lam)))
    assert exact_step(dual, a, b, lam) == pytest.approx(0.0, abs=1e-12)


def test_exact_step_equals_inexact_at_lam_zero():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(1, 10))
        dual = rng.standard_normal(n) * 2.0
        a = random_unit_row(rng, n)
        b = float(rng.standard_normal())
        t_exact = exact_step(dual, a, b, 0.0)
        t_inexact = inexact_step(dual, a, b)
        assert t_exact == pytest.approx(t_inexact, abs=1e-12)


def test_exact_step_matches_bisection_oracle():
    rng = np.random.default_rng(10)
    for _ in range(300):
        n = int(rng.integers(1, 21))
        dual = rng.standard_normal(n) * rng.uniform(0.3, 4.0)
        a = random_unit_row(rng, n)
        b = float(rng.standard_normal())
        lam = float(rng.choice([0.0, 0.1, 1.0, 5.0]))
        t = exact_step(dual, a, b, lam)
        t_ref = bisection_exact_step(dual, a, b, lam)
        assert t == pytest.approx(t_ref, abs=1e-8)
        # the root is a stationary point of the dual line search
        deriv = b - float(np.dot(a, soft_threshold(dual - t * a, lam)))
        assert abs(deriv) <= 1e-12 * (1.0 + abs(b))


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.01, 20.0),
    lam=st.sampled_from([0.0, 0.05, 0.5, 1.0, 3.0]),
    zeros=st.floats(0.0, 0.6),
    b=st.floats(-5.0, 5.0),
    db=st.floats(1e-6, 3.0),
)
# roots near 0, where a fixed absolute floor of 1e-15 lay below the rounding of g
@example(n=27, seed=1131293769, scale=18.32511842971436, lam=0.0, zeros=0.02836239653240653, b=1.2553091101963867, db=1.0)
@example(n=12, seed=600953618, scale=17.77929442671998, lam=0.05, zeros=0.08425741189716593, b=-3.4587588200112176, db=1.0)
@example(n=28, seed=3592085030, scale=16.748468278918484, lam=1.0, zeros=0.43464058094913927, b=-4.265215601987561, db=1.0)
def test_exact_step_bisection_matches_breakpoint_scan(n, seed, scale, lam, zeros, b, db):
    rng = np.random.default_rng(seed)
    dual = rng.standard_normal(n) * scale
    a = rng.standard_normal(n)
    a[1:][rng.random(n - 1) < zeros] = 0.0  # zero entries have no kinks; a[0] stays nonzero
    a /= np.linalg.norm(a)
    # both steps round g, so each is held to the exact roots of g shifted by
    # at most that rounding either way, to within 1e-12 relative
    for step in (exact_step, breakpoint_scan_exact_step):
        t = step(dual, a, b, lam)
        delta = Fraction(derivative_rounding_bound(dual, a, lam, t))
        lo, _ = rational_step_roots(dual, a, b + delta, lam)
        _, hi = rational_step_roots(dual, a, b - delta, lam)
        err = float(max(lo - Fraction(t), Fraction(t) - hi, 0))
        assert err <= 1e-12 * abs(t), step.__name__
    t = exact_step(dual, a, b, lam)
    deriv = b - float(np.dot(a, soft_threshold(dual - t * a, lam)))
    assert abs(deriv) <= 1e-12 * (1.0 + abs(b) + abs(t))
    # the derivative falls as b rises, so the root moves down: t is nonincreasing in b
    assert exact_step(dual, a, b + db, lam) <= t + 1e-12 * (1.0 + abs(t))


def test_exact_step_flat_zero_segment_returns_its_midpoint():
    # g(t) = -soft_threshold(0.5 - t, 1) is zero on [-0.5, 1.5]
    for step in (exact_step, breakpoint_scan_exact_step):
        assert step(np.array([0.5]), np.array([1.0]), 0.0, 1.0) == 0.5


def test_exact_step_zero_at_a_kink_returns_the_kink():
    # g(t) = 3 - <a, soft_threshold(dual - t a, 1)> has slope 1 left of t = 1,
    # slope 2 right of it, and is exactly 0 at that kink
    dual, a = np.array([0.0, 5.0]), np.array([1.0, 1.0])
    for step in (exact_step, breakpoint_scan_exact_step):
        assert step(dual, a, 3.0, 1.0) == 1.0


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_exact_step_root_beyond_the_bracket_is_found_on_a_ray(side):
    # the root, +-1.5e30, lies far past the one pair of kinks, +-1e30; the
    # search over all kinks extrapolates along the ray beyond the outermost one
    dual, a = np.array([0.0]), np.array([1e-30])
    for step in (exact_step, breakpoint_scan_exact_step):
        assert step(dual, a, -side * 0.5e-30, 1.0) == pytest.approx(side * 1.5e30, rel=1e-15)


def test_exact_step_newton_reaching_a_plateau_end_returns_the_plateau_midpoint():
    # g(t) = -<a, soft_threshold(dual - t a, 1)>. From the row residual t = 0.78
    # only entry 0 lies above the band, and Newton's jump lands on
    # t = (2.3 - 1) / 0.6 = 13/6, where entry 0 enters the band. Entry 1 stays in
    # it up to t = 1.75 / 0.8 = 35/16, so g is zero on [13/6, 35/16], whose
    # midpoint the oracle returns; the root of the jump's piece is its left end
    dual, a = np.array([2.3, 0.75]), np.array([0.6, 0.8])
    assert inexact_step(soft_threshold(dual, 1.0), a, 0.0) == pytest.approx(0.78, abs=1e-15)
    t = exact_step(dual, a, 0.0, 1.0)
    assert t == breakpoint_scan_exact_step(dual, a, 0.0, 1.0)
    assert t == pytest.approx(0.5 * (13 / 6 + 35 / 16), rel=1e-15)


def test_exact_step_after_a_long_newton_jump_is_accurate():
    # at the row residual (about -21.2) entry 0 lies in the band and a_1 = 0, so
    # the slope is a_2^2 = 2.6e-8, and the first jump goes out to about -2.3e7.
    # The jump back lands on the root's piece with a rounding error of about
    # 2.3e7 * eps, which one more step on that piece removes
    dual = np.array([-21.6, -5.2, 18.8])
    a = np.array([1.0, 0.0, 1.6e-4])
    a /= np.linalg.norm(a)
    t = exact_step(dual, a, 0.6, 1.0)
    t_ref = breakpoint_scan_exact_step(dual, a, 0.6, 1.0)
    assert t == pytest.approx(-23.2, abs=0.01)
    assert abs(t - t_ref) <= 1e-12 * abs(t_ref)


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_exact_step_first_step_from_zero_takes_no_bisection(monkeypatch, sign):
    # at x* = 0 with |b a_j| <= lam for every j, the row residual -b puts every
    # entry in its band: Newton starts on the flat piece where g = b, jumps to
    # the kink that ends it toward the root (left for b > 0, right for b < 0)
    # and steps on from there, with no bisection
    calls = []
    bisection = bregman._bisection_root
    monkeypatch.setattr(bregman, "_bisection_root", lambda *args: calls.append(args) or bisection(*args))
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 300))
        a = random_unit_row(rng, n)
        lam = float(rng.choice([0.1, 1.0, 3.0]))
        b = sign * lam / np.abs(a).max() * rng.uniform(0.05, 1.0)
        assert np.all(np.abs(b * a) <= lam)
        dual = np.zeros(n)
        t = exact_step(dual, a, b, lam)
        t_ref = breakpoint_scan_exact_step(dual, a, b, lam)
        assert abs(t - t_ref) <= 1e-12 * abs(t_ref)
        assert np.sign(t) == -sign
    assert calls == []


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_exact_step_from_a_flat_piece_takes_no_evaluation_past_the_row_residual(monkeypatch, sign):
    # dual = 0, a = (0.8, 0.6), lam = 1, b = 0.1: at the row residual t = -0.1
    # both entries lie in their bands, so g = b > 0 and the root lies left. The
    # flat piece ends at t = -1 / 0.8 = -1.25, where entry 0 leaves its band
    # upward; beyond it g = 0.1 - 0.8 (-0.8 t - 1), with root -1.40625, where
    # entry 1 is still in its band. The closed form of the flat piece gives that
    # root with no evaluation of g: the threshold of the dual and the one at the
    # row residual are the only two. b = -0.1 mirrors it to the right
    dual, a, b = np.zeros(2), np.array([0.8, 0.6]), sign * 0.1
    calls = []
    threshold = bregman.soft_threshold
    monkeypatch.setattr(bregman, "soft_threshold", lambda v, lam: calls.append(lam) or threshold(v, lam))
    t = exact_step(dual, a, b, 1.0)
    assert len(calls) == 2
    assert t == pytest.approx(-sign * 1.40625, rel=1e-15)
    assert t == pytest.approx(breakpoint_scan_exact_step(dual, a, b, 1.0), rel=1e-15)


@pytest.mark.parametrize("kind", ["dense", "sparse"])
@pytest.mark.parametrize("sign", [-1.0, 0.0, 1.0])
def test_exact_step_on_a_flat_piece_takes_its_closed_form(monkeypatch, kind, sign):
    # the row residual lies on the flat piece: every entry with a_j != 0 has
    # |dual_j| <= lam / 2 and |b a_j| <= lam / 2, so it stays in its band.
    # Entries with a_j = 0 carry any dual. Half the duals are zero (x* = 0)
    def no_bisection(*args):
        raise AssertionError("a step from a flat piece took the bisection")

    monkeypatch.setattr(bregman, "_bisection_root", no_bisection)
    rng = np.random.default_rng(16)
    for trial in range(200):
        n = int(rng.integers(1, 40)) if kind == "dense" else int(rng.integers(10, 80))
        a = random_unit_row(rng, n)
        if kind == "sparse":
            a[rng.permutation(n)[int(rng.integers(1, 4)) :]] = 0.0
            a /= np.linalg.norm(a)
        lam = float(rng.choice([0.05, 1.0, 3.0]))
        nz = a != 0.0
        dual = np.where(nz, rng.uniform(-0.5, 0.5, n) * lam, rng.standard_normal(n) * 10.0)
        if trial % 2:
            dual[nz] = 0.0
        b = sign * 0.5 * lam / np.abs(a).max() * rng.uniform(0.05, 1.0)
        t0 = inexact_step(soft_threshold(dual, lam), a, b)
        assert np.all(soft_threshold(dual - t0 * a, lam)[nz] == 0.0)
        t = exact_step(dual, a, b, lam)
        t_ref = breakpoint_scan_exact_step(dual, a, b, lam)
        if b != 0.0:
            assert abs(t - t_ref) <= 1e-12 * abs(t_ref)
            continue
        # g is zero on exactly the flat piece, and the step is its midpoint.
        # The oracle may round to any point of it, so their primals are compared
        lo, hi = (dual[nz] - lam) / a[nz], (dual[nz] + lam) / a[nz]
        assert t == 0.5 * (np.minimum(lo, hi).max() + np.maximum(lo, hi).min())
        primal = soft_threshold(dual - t * a, lam)
        assert float(np.dot(a, primal)) == 0.0
        assert np.array_equal(primal, soft_threshold(dual - t_ref * a, lam))


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_exact_step_on_a_flat_piece_skips_a_square_that_underflows(sign):
    # (1e-170)^2 underflows to 0, so the first entry to leave its band adds no
    # line: the root is the next entry's, found with no division by zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = exact_step([sign, 0.0], [1e-170, 1.0], sign * 0.5, 1.0)
    assert t == -sign * 1.5


def test_exact_step_bisection_alone_matches_the_breakpoint_scan(monkeypatch):
    # with no Newton step every call takes the bisection that Newton hands off
    # to, one search over all sorted kinks; the oracle brackets the root first.
    # Beside dense rows it gets what Matrix Market rows off the truth's support
    # hand it: sparse rows, most a_j = 0, and b = 0 at dual = 0, where g is zero
    # on the flat piece around 0
    monkeypatch.setattr(bregman, "_NEWTON_STEPS", 0)
    rng = np.random.default_rng(15)
    for kind in ("dense", "sparse", "zero"):
        for _ in range(300):
            n = int(rng.integers(1, 30)) if kind == "dense" else int(rng.integers(10, 80))
            dual = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
            a = random_unit_row(rng, n)
            b = float(rng.choice([0.0, rng.standard_normal()]))
            lam = float(rng.choice([0.0, 0.05, 1.0, 3.0]))
            if kind == "sparse":
                a[rng.permutation(n)[int(rng.integers(1, 4)) :]] = 0.0
                a /= np.linalg.norm(a)
            elif kind == "zero":
                dual[:], b = 0.0, 0.0
            t_ref = breakpoint_scan_exact_step(dual, a, b, lam)
            assert abs(exact_step(dual, a, b, lam) - t_ref) <= 1e-12 * abs(t_ref) + 1e-15, kind


def test_exact_step_rejects_zero_row():
    with pytest.raises(NumericalFailureError):
        exact_step(np.array([1.0, 2.0]), np.array([0.0, 0.0]), 1.0, 1.0)


# (step, the argument made non-finite): exact_step checks its dual, row and
# rhs; project_hyperplane, whose pair was checked when built, its row and rhs
NON_FINITE_CASES = [("exact_step", where) for where in ("dual", "row", "rhs")] + [
    (mode, where) for mode in ("inexact", "exact") for where in ("row", "rhs")
]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("step, where", NON_FINITE_CASES)
def test_public_steps_refuse_non_finite_input(step, where, bad):
    dual, a, b = np.zeros(3), np.array([0.6, 0.8, 0.0]), 1.0
    if where == "dual":
        dual[1] = bad
    elif where == "row":
        a[2] = bad
    else:
        b = bad
    with pytest.raises(NonFiniteDataError):
        if step == "exact_step":
            exact_step(dual, a, b, 1.0)
        else:
            project_hyperplane(DualPair.from_dual(dual, 1.0), a, b, StepMode(step))


# ------------------------------------------------------------- projection


def test_project_hyperplane_lam_zero_is_orthogonal_projection():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        pair = DualPair.from_dual(rng.standard_normal(n), 0.0)
        a = random_unit_row(rng, n)
        b = float(rng.standard_normal())
        moved = project_hyperplane(pair, a, b, StepMode.INEXACT)
        expected = orthogonal_projection(pair.primal, a, b)
        assert np.max(np.abs(moved.primal - expected)) < 1e-12


def test_project_hyperplane_noop_when_on_hyperplane():
    rng = np.random.default_rng(12)
    pair = DualPair.from_dual(rng.standard_normal(6) * 2.0, 1.0)
    a = random_unit_row(rng, 6)
    b = float(np.dot(a, pair.primal))
    moved = project_hyperplane(pair, a, b, StepMode.EXACT)
    assert np.max(np.abs(moved.dual - pair.dual)) < 1e-12


def test_project_hyperplane_exact_feasibility_and_decrease():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(2, 10))
        lam = 1.0
        pair = DualPair.from_dual(rng.standard_normal(n) * 3.0, lam)
        a = random_unit_row(rng, n)
        # pick a feasible point first so the hyperplane is guaranteed nonempty
        y = rng.standard_normal(n)
        b = float(np.dot(a, y))
        moved = project_hyperplane(pair, a, b, StepMode.EXACT)
        assert abs(np.dot(a, moved.primal) - b) <= 1e-10
        drop = 0.5 * inexact_step(pair.primal, a, b) ** 2
        assert bregman_distance(moved, y) <= bregman_distance(pair, y) - drop + 1e-10


def test_project_hyperplane_inexact_decrease():
    rng = np.random.default_rng(14)
    for _ in range(100):
        n = int(rng.integers(2, 10))
        lam = float(rng.choice([0.0, 0.5, 1.0]))
        pair = DualPair.from_dual(rng.standard_normal(n) * 3.0, lam)
        a = random_unit_row(rng, n)
        y = rng.standard_normal(n)
        b = float(np.dot(a, y))
        moved = project_hyperplane(pair, a, b, StepMode.INEXACT)
        drop = 0.5 * inexact_step(pair.primal, a, b) ** 2
        assert bregman_distance(moved, y) <= bregman_distance(pair, y) - drop + 1e-10


def test_project_hyperplane_rejects_non_unit_row():
    pair = DualPair.from_dual(np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        project_hyperplane(pair, np.array([3.0, 4.0]), 1.0, StepMode.INEXACT)
