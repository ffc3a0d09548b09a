import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sparsekaczmarz import (
    DualPair,
    RunStatus,
    SolverSpec,
    StepMode,
    StoppingRule,
    bregman_distance,
    conjugate_value,
    exact_step,
    inexact_step,
    mse,
    objective_value,
    project_hyperplane,
    run,
    soft_threshold,
)
from sparsekaczmarz import bregman, harness
from sparsekaczmarz.errors import DimensionMismatchError, NonFiniteDataError, NumericalFailureError

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


def count_thresholds(monkeypatch):
    """A list that grows by one at every threshold the bregman module takes:
    each goes through its one kernel, ``_threshold_into``."""
    calls = []
    threshold = bregman._threshold_into
    monkeypatch.setattr(bregman, "_threshold_into", lambda v, band, out: calls.append(band) or threshold(v, band, out))
    return calls


def step_into(dual, primal, a, b, lam, mode, new_dual, new_primal):
    """``bregman._step_into`` with the band, kit and workspace that a run hands it."""
    kit = bregman._kits(a[None])[0] if mode is StepMode.EXACT else None
    return bregman._step_into(dual, primal, a, b, lam, bregman._band(lam), mode, new_dual, new_primal, kit,
                              bregman._workspace(a.size))


def exact_from(dual, primal, a, b, lam):
    """``bregman._exact_step`` from the pair, with the row's kit and a fresh workspace."""
    return bregman._exact_step(dual, primal, a, b, lam, bregman._band(lam), bregman._kits(a[None])[0],
                               bregman._workspace(a.size))


def newton_root(dual, primal, a, b, lam):
    """``bregman._newton_root`` from the pair, with the row's kit and a fresh workspace."""
    return bregman._newton_root(dual, primal, a, b, lam, bregman._band(lam), bregman._kits(a[None])[0],
                                bregman._workspace(a.size))


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


_SUBNORMAL = 2.2250738585072014e-308 / 3


@settings(max_examples=300, deadline=None)
@given(v=_EDGE_VECTORS, lam=st.sampled_from([5e-324, 0.05, 1.0, 1e300]))
def test_threshold_by_clip_equals_max_then_min_bit_for_bit(v, lam):
    # one call of the clip ufunc against the band's two 0-d arrays, then one
    # subtraction, gives the bits of v - min(max(v, -lam), lam): on the band's
    # ends and just inside them, on subnormals, zeros of both signs, +-inf
    # and NaN, from the smallest band to one near the float range
    edges = [lam, -lam, np.nextafter(lam, 0.0), np.nextafter(-lam, 0.0), _SUBNORMAL, -_SUBNORMAL, 5e-324, -5e-324]
    v = np.concatenate((v, edges, [0.0, -0.0, np.inf, -np.inf, np.nan]))
    band = bregman._band(lam)
    out = bregman._threshold_into(v, band, np.full_like(v, 7.0))
    ref = v - np.minimum(np.maximum(v, -lam), lam)
    assert np.array_equal(out.view(np.int64), ref.view(np.int64))
    assert np.array_equal(soft_threshold(v, lam).view(np.int64), ref.view(np.int64))


def test_band_is_two_read_only_0d_arrays_or_none_at_lam_zero():
    assert bregman._band(0.0) is None and bregman._band(-0.0) is None
    lo, hi = bregman._band(0.25)
    assert lo.shape == hi.shape == () and lo.dtype == hi.dtype == np.float64
    assert float(lo) == -0.25 and float(hi) == 0.25
    assert not lo.flags.writeable and not hi.flags.writeable


@pytest.mark.parametrize("lam", [-1.0, -1e-300, np.nan, np.inf])
def test_soft_threshold_refuses_a_lam_that_is_not_finite_and_nonnegative(lam):
    # a negative lam grew the entries ([1, -2] at -1 gave [2, -1]) and a NaN
    # one gave NaN; exact_step thresholds the dual through soft_threshold
    with pytest.raises(ValueError, match="lam must be finite and nonnegative"):
        soft_threshold([1.0, -2.0], lam)
    with pytest.raises(ValueError, match="lam must be finite and nonnegative"):
        exact_step(np.array([1.0, -2.0]), np.array([0.6, 0.8]), 1.0, lam)
    # objective_value(ones(3), -1) gave -1.5, and a NaN lam NaN
    with pytest.raises(ValueError, match="lam must be finite and nonnegative"):
        objective_value(np.ones(3), lam)


def test_threshold_at_lam_zero_is_one_copy(monkeypatch):
    # at lam = 0 the threshold is the identity: the kernel copies v and takes
    # no clip, and the copy equals v, and the clipped form, under ==
    v = np.array([1.5, -2.25, 0.0, -0.0, np.inf, -np.inf, 5e-324, -1e308])
    clipped = np.subtract(v, np.minimum(np.maximum(v, -0.0), 0.0))
    calls = []
    for module, name in ((np, "maximum"), (np, "minimum"), (bregman, "_clip")):
        monkeypatch.setattr(module, name, lambda *args, name=name, **kwargs: calls.append(name))
    out = bregman._threshold_into(v, bregman._band(0.0), np.empty_like(v))
    public = soft_threshold(v, 0.0)
    monkeypatch.undo()
    assert calls == []
    assert np.all(out == v) and np.all(public == v) and np.all(out == clipped)
    assert np.array_equal(out.view(np.int64), v.view(np.int64))


def test_threshold_at_lam_zero_into_v_itself_writes_nothing():
    # at lam = 0 a uniform window's x and x* are one column, which the
    # threshold of the step returns as it is: a read-only v would refuse a write
    v = np.array([1.5, -2.25, 0.0, 5e-324, -1e308])
    before = v.copy()
    v.setflags(write=False)
    assert bregman._threshold_into(v, bregman._band(0.0), v) is v
    assert np.array_equal(v.view(np.int64), before.view(np.int64))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize("mode", list(StepMode))
def test_step_into_in_place_matches_fresh_arrays(mode, lam):
    # greedy rows step in place, new_dual being dual and new_primal primal,
    # while new_primal holds t*a until the threshold: t and the new pair are
    # those of a step into fresh arrays, bit for bit
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(1, 60))
        dual = rng.standard_normal(n) * rng.uniform(0.1, 3.0)
        primal = soft_threshold(dual, lam)
        a = random_unit_row(rng, n)
        b = float(rng.standard_normal())
        new_dual, new_primal = np.empty(n), np.empty(n)
        t = step_into(dual, primal, a, b, lam, mode, new_dual, new_primal)
        assert np.array_equal(_bits(new_dual), _bits(dual - t * a))
        assert np.array_equal(_bits(new_primal), _bits(soft_threshold(new_dual, lam)))
        assert step_into(dual, primal, a, b, lam, mode, dual, primal) == t
        assert np.array_equal(_bits(dual), _bits(new_dual))
        assert np.array_equal(_bits(primal), _bits(new_primal))


@pytest.mark.parametrize("mode", list(StepMode))
def test_step_into_at_lam_zero_into_one_array_matches_fresh_arrays(mode):
    # at lam = 0, where x = x*, a uniform window steps into one column for
    # both: t*a goes into it, then the new dual, and the threshold writes
    # nothing. t and the pair are those of a step into two fresh arrays,
    # bit for bit, steps of zero included
    rng = np.random.default_rng(29)
    for case in range(100):
        n = int(rng.integers(1, 60))
        dual = rng.standard_normal(n) * rng.uniform(0.1, 3.0) + 0.0
        a = random_unit_row(rng, n)
        b = float(a.dot(dual)) if case % 10 == 0 else float(rng.standard_normal())
        new_dual, new_primal, one = np.empty(n), np.empty(n), np.empty(n)
        t = step_into(dual, dual, a, b, 0.0, mode, new_dual, new_primal)
        assert step_into(dual, dual, a, b, 0.0, mode, one, one) == t
        assert np.array_equal(_bits(one), _bits(new_dual))
        assert np.array_equal(_bits(one), _bits(new_primal))
        if case % 10 == 0 and mode is StepMode.INEXACT:
            assert t == 0.0


@pytest.mark.parametrize("shape", [(300, 200), (2000, 1000)], ids=["ref", "large"])
def test_kits_of_a_block_equal_each_rows_own_setup(shape):
    # the shapes of the benchmark's two pools: a window's kits, a greedy
    # pick's 1 x n block and the one-shot API's a[None] hold the bits the
    # step derived from its own row, a*a, sign(a) and a.dot(a)
    m, n = shape
    system, _, _ = harness.gaussian_instance(m, n, 5, np.random.default_rng(7))
    rows = system.rows
    drawn = np.random.default_rng(3).integers(m, size=32)
    blocks = [(rows[lo : lo + 32], range(lo, min(lo + 32, m))) for lo in range(0, m, 32)]
    blocks += [(rows[drawn], drawn), (rows[5:6], [5]), (rows[m - 1][None], [m - 1])]
    for block, picked in blocks:
        kits = bregman._kits(block)
        assert len(kits) == len(picked)
        for i, (norm2, a2, sign_a) in zip(picked, kits):
            a = rows[i]
            assert type(norm2) is float and _bits(norm2) == _bits(a.dot(a)), i
            assert np.array_equal(_bits(a2), _bits(a * a)), i
            assert np.array_equal(_bits(sign_a), _bits(np.sign(a))), i


def _exact_walk(lam, rows, b, work):
    """Exact steps along ``rows`` from x* = 0, in place, through the
    workspace ``work``: yields each step's t and the bits of its pair."""
    band, n = bregman._band(lam), rows.shape[1]
    dual, primal = np.zeros(n), np.zeros(n)
    for a, b_s, kit in zip(rows, b.tolist(), bregman._kits(rows)):
        t = bregman._step_into(dual, primal, a, b_s, lam, band, StepMode.EXACT, dual, primal, kit, work)
        yield t, dual.tobytes(), primal.tobytes()


def test_exact_steps_of_two_workspaces_interleaved_equal_each_walk_alone():
    # each run owns its workspace: two walks whose steps alternate give the
    # bits each gives alone, so no step reads what the other walk's step left
    rng = np.random.default_rng(43)
    walks = []
    for lam in (0.5, 1.0):
        x_hat = np.zeros(40)
        x_hat[rng.permutation(40)[:4]] = rng.standard_normal(4)
        rows = np.array([random_unit_row(rng, 40) for _ in range(60)])
        walks.append((lam, rows, rows @ x_hat))
    alone = [list(_exact_walk(*walk, bregman._workspace(40))) for walk in walks]
    together = zip(*(_exact_walk(*walk, bregman._workspace(40)) for walk in walks))
    assert [list(steps) for steps in zip(*together)] == alone
    assert any(t != 0.0 for t, _, _ in alone[0]) and any(t != 0.0 for t, _, _ in alone[1])


def _zero_step_rows(rng, lam):
    """(dual, primal, a, b) with g(0) = b - <a, primal> == 0.0 exactly: a
    step of zero in both modes. Every dual entry lies at least 0.3 from its
    kinks, so the piece at t = 0 has a slope and no term of g is near 0."""
    n = int(rng.integers(2, 60))
    above = rng.random(n) < 0.5
    above[0] = True
    outside = np.sign(rng.standard_normal(n)) * (lam + rng.uniform(0.3, 3.0, n))
    # + 0.0 turns -0.0 to 0.0: no dual of a run has a -0.0 entry
    dual = np.where(above, outside, rng.uniform(-1.0, 1.0, n) * max(lam - 0.3, 0.0)) + 0.0
    primal = soft_threshold(dual, lam)
    a = random_unit_row(rng, n)
    return dual, primal, a, float(a.dot(primal))


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_newton_root_returns_zero_at_a_zero_of_g_with_no_evaluation(monkeypatch, lam):
    # at g(0) == 0 on a sloped piece, with no term of g near 0, t = 0 is the
    # root, and the evaluation at 0 - g/slope = 0 would give g(0) back
    rng = np.random.default_rng(29)
    calls = count_thresholds(monkeypatch)
    for _ in range(100):
        dual, primal, a, b = _zero_step_rows(rng, lam)
        assert b - float(primal.dot(a)) == 0.0
        norm2 = float(a.dot(a))
        assert not bregman._ends_at_kinks(a, primal, b, lam, 0.0, norm2)
        calls.clear()
        t = newton_root(dual, primal, a, b, lam)
        assert _bits(t) == _bits(0.0)
        assert exact_from(dual, primal, a, b, lam) == 0.0
        assert calls == []


def test_exact_step_at_a_zero_of_g_within_rounding_of_its_kinks_takes_the_bisection(monkeypatch):
    # entry 0 lies 2**-40 above its band, so its term of g, like entry 1's
    # zero one, is within rounding of zero: g(0) == 0, but a plateau where g
    # is zero up to rounding may start there, and the bisection over all the
    # kinks takes the step. g(t) = 0.36 t up to the kink at 2**-40 / 0.6 and
    # b beyond it, so the root is 0
    dual, a = np.array([1.0 + 2.0**-40, 0.5]), np.array([0.6, 0.8])
    primal = soft_threshold(dual, 1.0)
    b = float(primal.dot(a))
    assert b - float(primal.dot(a)) == 0.0 and b > 0.0
    assert bregman._ends_at_kinks(a, primal, b, 1.0, 0.0, 1.0)
    assert newton_root(dual, primal, a, b, 1.0) is None
    calls = []
    bisection = bregman._bisection_root
    monkeypatch.setattr(bregman, "_bisection_root", lambda *args: calls.append(args) or bisection(*args))
    t = exact_step(dual, a, b, 1.0)
    assert len(calls) == 1
    assert t == breakpoint_scan_exact_step(dual, a, b, 1.0)
    assert abs(t) <= 2.0**-60


@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize("mode", list(StepMode))
def test_step_into_at_a_step_of_zero_writes_in_place_nothing(mode, lam):
    # greedy rows step in place: at t == 0.0 the pair stays as it is, bit for
    # bit, so nothing is written, which read-only arrays prove. Fresh arrays
    # take a copy of the pair
    rng = np.random.default_rng(31)
    for _ in range(50):
        dual, primal, a, b = _zero_step_rows(rng, lam)
        dual.setflags(write=False)
        primal.setflags(write=False)
        assert step_into(dual, primal, a, b, lam, mode, dual, primal) == 0.0
        new_dual, new_primal = np.full(dual.size, np.nan), np.full(dual.size, np.nan)
        assert step_into(dual, primal, a, b, lam, mode, new_dual, new_primal) == 0.0
        assert np.array_equal(_bits(new_dual), _bits(dual))
        assert np.array_equal(_bits(new_primal), _bits(primal))


def _steps_one_at_a_time(dual, primal, a, b, lam):
    """Each row's inexact step from the pair the one before it left, into fresh arrays."""
    steps = []
    for a_s, b_s in zip(a, b):
        new_dual, new_primal = np.empty_like(dual), np.empty_like(primal)
        t = step_into(dual, primal, a_s, float(b_s), lam, StepMode.INEXACT, new_dual, new_primal)
        steps.append((t, new_dual, new_primal))
        dual, primal = new_dual, new_primal
    return steps


@pytest.mark.parametrize("lam", [0.0, 0.5, 3.0])
def test_steps_at_rest_equal_single_steps_up_to_the_first_that_moves_x(lam):
    # from x = 0, with the dual in the band, steps whose duals stay in it and
    # then one that leaves it; from x != 0, steps of zero and then one that is
    # not: the batch keeps the leading steps that leave x, with the steps and
    # duals of one _step_into each, bit for bit
    rng = np.random.default_rng(37)
    for case in range(200):
        n, s = int(rng.integers(1, 40)), int(rng.integers(1, 12))
        a = np.array([random_unit_row(rng, n) for _ in range(s)])
        if case % 2:
            # + 0.0: no dual of a run has a -0.0 entry
            dual = rng.uniform(-0.5, 0.5, n) * lam + 0.0
            b = rng.standard_normal(s) * rng.choice([0.0, 0.1, 1.0])
        else:
            dual, primal, _, _ = _zero_step_rows(rng, lam)
            n = dual.size
            a = np.array([random_unit_row(rng, n) for _ in range(s)])
            b = np.vecdot(a, soft_threshold(dual, lam))
            b[int(rng.integers(0, s + 1)):] += rng.choice([1e-9, 1.0])
        primal = soft_threshold(dual, lam)
        steps = _steps_one_at_a_time(dual, primal, a, b, lam)
        leaves = [np.array_equal(_bits(new_primal), _bits(primal)) for _, _, new_primal in steps]
        expected = leaves.index(False) if False in leaves else s
        # the duals go into columns of their own, or into the rows of a
        rows = a.copy()
        duals = np.full((n, s), np.nan, order="F") if case % 4 < 2 else rows.T
        kept, t = bregman._steps_at_rest(dual, primal, rows, b, lam, duals)
        assert kept == expected, case
        assert np.array_equal(_bits(t), _bits([t_s for t_s, _, _ in steps[:kept]])), case
        if primal.any():
            # steps of zero leave the pair: nothing is written
            assert case % 4 >= 2 or np.isnan(duals).all()
        else:
            # x = 0 stays, and each column holds its slot's dual
            for q in range(kept):
                assert not steps[q][2].any()
                assert np.array_equal(_bits(duals[:, q]), _bits(steps[q][1])), case


@pytest.mark.parametrize("n", [1, 2, 7, 16, 33, 200, 1000, 1001, 4000])
def test_vecdot_gives_the_bits_of_ndarray_dot(n):
    # a batch takes its steps, and a greedy one its Bregman records, with
    # np.vecdot where single steps call ndarray.dot; so do a uniform window's
    # records. Both call the same BLAS dot only if the bits agree: on rows
    # gathered from anywhere in a C-order matrix against a column of an
    # F-order buffer, and on F-order columns against a vector
    rng = np.random.default_rng(n)
    m, w = 40, 9
    rows = rng.standard_normal((m, n)) * np.exp(rng.uniform(-20.0, 20.0, (m, 1)))
    buffer = np.asfortranarray(rng.standard_normal((n, w)) * rng.choice([1e-8, 1.0, 1e8], (n, w)))
    x = buffer[:, w // 2]
    chosen = rng.integers(m, size=2 * w)
    gathered = rows[chosen]
    for q, i in enumerate(chosen):
        assert _bits(np.vecdot(gathered, x)[q]) == _bits(rows[i].dot(x))
        assert _bits(np.vecdot(x, gathered)[q]) == _bits(x.dot(rows[i]))
        assert _bits(np.vecdot(gathered, gathered)[q]) == _bits(rows[i].dot(rows[i]))
    y = rows[0]
    columns = np.vecdot(buffer, y[:, None], axis=0)
    for q in range(w):
        assert _bits(columns[q]) == _bits(buffer[:, q].dot(y))


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


@pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0])
def test_dual_pair_refuses_a_lam_that_is_not_finite_and_nonnegative(lam):
    # inf would threshold every entry to zero
    with pytest.raises(ValueError, match="lam must be finite and nonnegative"):
        DualPair(np.array([1.0, -2.0]), lam)


def test_dual_pair_derives_its_primal():
    pair = DualPair(np.array([2.0, -0.5]), 1.0)
    assert np.array_equal(pair.primal, [1.0, 0.0])


def _edge_duals(lam):
    """Signed zeros, subnormals, +-lam and the floats just inside the band."""
    tiny = np.nextafter(0.0, 1.0)
    edges = [0.0, -0.0, tiny, -tiny, 2.0**-1030, -(2.0**-1030), lam, -lam,
             np.nextafter(lam, 0.0), np.nextafter(-lam, 0.0), 1.0, -3.5]
    return np.array(edges)


@pytest.mark.parametrize("lam", [0.0, 5e-324, 0.5, 1e300])
def test_dual_pair_primal_is_the_threshold_of_its_dual_bit_for_bit(lam):
    dual = _edge_duals(lam)
    pair = DualPair(dual, lam)
    assert np.array_equal(pair.primal.view(np.int64), soft_threshold(dual, lam).view(np.int64))
    assert np.array_equal(pair.dual.view(np.int64), dual.view(np.int64))
    assert not pair.primal.flags.writeable and not pair.dual.flags.writeable
    assert not np.shares_memory(pair.primal, pair.dual)


def test_dual_pair_takes_no_primal():
    with pytest.raises(TypeError):
        DualPair(primal=np.zeros(2), dual=np.zeros(2), lam=1.0)


# ------------------------------------------------------------- distance


def test_bregman_distance_zero_at_self():
    pair = DualPair(np.array([2.0, -3.0]), 1.0)
    assert bregman_distance(pair, pair.primal) == 0.0


def test_bregman_distance_euclidean_special_case():
    pair = DualPair(np.array([1.0, 0.0]), 0.0)
    assert bregman_distance(pair, np.array([0.0, 1.0])) == pytest.approx(1.0, abs=1e-15)


def test_bregman_distance_worked_example():
    pair = DualPair(np.array([2.0, 0.0]), 1.0)
    assert bregman_distance(pair, np.array([0.0, 3.0])) == pytest.approx(8.0, abs=1e-14)


def test_bregman_distance_matches_alt_formula():
    rng = np.random.default_rng(6)
    for _ in range(100):
        lam = rng.choice([0.0, 0.5, 1.0, 4.0])
        pair = DualPair(rng.standard_normal(7) * 3.0, lam)
        y = rng.standard_normal(7) * 2.0
        assert bregman_distance(pair, y) == pytest.approx(
            bregman_distance_alt(pair, y), rel=1e-12, abs=1e-12
        )


def test_strong_convexity_sandwich():
    rng = np.random.default_rng(7)
    for _ in range(200):
        lam = rng.choice([0.0, 0.5, 2.0])
        px = DualPair(rng.standard_normal(6) * 3.0, lam)
        py = DualPair(rng.standard_normal(6) * 3.0, lam)
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
# roots within 1e-8 of 0 at lam = 0 and a small dual: the oracle's root,
# interpolated from grid points near -1 or 1, missed the bound until it
# finished with one step on its piece
@example(n=1, seed=2381054197, scale=0.01211842473414649, lam=0.0, zeros=0.37989596762193467, b=0.013778919369069997, db=1.0)
@example(n=2, seed=1844534456, scale=0.02370407179799685, lam=0.0, zeros=0.09380798994215182, b=0.01262952947275134, db=1.0)
@example(n=7, seed=129479656, scale=0.02656578231906765, lam=0.0, zeros=0.39624836954878573, b=0.0356150208647715, db=1.0)
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
    # g(t) = -<a, soft_threshold(dual - t a, 1)>. At t = 0 only entry 0 lies
    # above the band, g(0) = -0.78 (minus the row residual) and the slope is
    # 0.36, so Newton's jump lands on t = 0.78 / 0.36 = (2.3 - 1) / 0.6 = 13/6,
    # where entry 0 enters the band. Entry 1 stays in
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
def test_exact_step_from_a_flat_piece_takes_no_evaluation_of_g(monkeypatch, sign):
    # dual = 0, a = (0.8, 0.6), lam = 1, b = 0.1: at t = 0 both entries lie in
    # their bands, so g = b > 0 and the root lies left. The flat piece ends at
    # t = -1 / 0.8 = -1.25, where entry 0 leaves its band upward; beyond it
    # g = 0.1 - 0.8 (-0.8 t - 1), with root -1.40625, where entry 1 is still in
    # its band. Newton reads the flat piece off the primal and takes its closed
    # form with no evaluation of g: the threshold of the dual, which
    # exact_step takes to form the primal, is the only one. b = -0.1 mirrors
    # it to the right
    dual, a, b = np.zeros(2), np.array([0.8, 0.6]), sign * 0.1
    calls = count_thresholds(monkeypatch)
    t = exact_step(dual, a, b, 1.0)
    assert len(calls) == 1
    assert t == pytest.approx(-sign * 1.40625, rel=1e-15)
    assert t == pytest.approx(breakpoint_scan_exact_step(dual, a, b, 1.0), rel=1e-15)


def test_exact_step_with_its_root_on_the_primals_piece_takes_one_evaluation(monkeypatch):
    # every dual entry lies at least 0.3 from its kinks at +-lam, and the root
    # t_root is at most 0.25 from 0 along a unit row, so dual - t a keeps the
    # primal's pattern up to it: b = g's zero there. Newton's first jump from
    # t = 0 lands on the root's piece, one evaluation of g confirms the piece,
    # and the correction on it takes none
    rng = np.random.default_rng(19)
    calls = count_thresholds(monkeypatch)
    for _ in range(200):
        n = int(rng.integers(1, 200))
        lam = float(rng.choice([0.5, 1.0, 3.0]))
        above = rng.random(n) < 0.5
        above[0] = True  # one entry above the band, so the piece has a slope
        outside = np.sign(rng.standard_normal(n)) * (lam + rng.uniform(0.3, 3.0, n))
        dual = np.where(above, outside, rng.uniform(-1.0, 1.0, n) * (lam - 0.3))
        a = random_unit_row(rng, n)
        t_root = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.25)
        b = float(np.dot(a, soft_threshold(dual - t_root * a, lam)))
        primal = soft_threshold(dual, lam)
        calls.clear()
        t = exact_from(dual, primal, a, b, lam)
        assert len(calls) == 1
        t_ref = breakpoint_scan_exact_step(dual, a, b, lam)
        assert abs(t - t_ref) <= 1e-12 * abs(t_ref)


def test_exact_step_takes_few_evaluations_per_step_on_the_reference_instance(monkeypatch):
    # SRK-exact to MSE 1e-6 on instance 0 of the reference protocol (300 x 200,
    # k = 5, lam = 1), at the seeds the benchmark's ref workload derives for
    # seeds 1-3. Its steps average 1.8 evaluations of g; a Newton that
    # started at the row residual and evaluated g there took 2.8
    system, x_hat, _ = harness.gaussian_instance(300, 200, 5, harness.child_rng(0, 300, 5, 0, 0))
    thresholds = count_thresholds(monkeypatch)
    steps = []
    exact = bregman._exact_step
    monkeypatch.setattr(bregman, "_exact_step", lambda *args: steps.append(1) or exact(*args))
    for seed in (1, 2, 3):
        stop = StoppingRule(max_iters=200_000, mse_target=1e-6)
        spec = SolverSpec.srk(lam=1.0, step_mode=StepMode.EXACT, seed=harness.child_seed(seed, 300, 5, 0, 2, 1, 1), stop=stop)
        _, trace = run(system, spec, ground_truth=x_hat)
        assert trace.status is RunStatus.CONVERGED
    # besides its evaluations of g, each step thresholds its new dual once
    evaluations = len(thresholds) - len(steps)
    assert evaluations / len(steps) <= 2.5


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
            project_hyperplane(DualPair(dual, 1.0), a, b, StepMode(step))


@pytest.mark.parametrize(
    "call, names",
    [
        # a row too short or too long for the pair, and one that is a column
        (lambda pair: project_hyperplane(pair, np.array([0.6, 0.8]), 1.0, StepMode.EXACT), "a_i and the pair"),
        (lambda pair: project_hyperplane(pair, np.array([0.6, 0.8, 0.0, 0.0]), 1.0, StepMode.INEXACT), "a_i and the pair"),
        (lambda pair: project_hyperplane(pair, np.array([[0.6], [0.8], [0.0]]), 1.0, StepMode.EXACT), "a_i and the pair"),
        (lambda pair: exact_step(pair.dual, np.array([0.6, 0.8]), 1.0, 1.0), "a_i and dual"),
        (lambda pair: exact_step(pair.dual[:, None], np.array([[0.6], [0.8], [0.0]]), 1.0, 1.0), "a_i and dual"),
        (lambda pair: bregman_distance(pair, np.ones(2)), "y and the pair"),
        (lambda pair: bregman_distance(pair, np.ones((3, 1))), "y and the pair"),
        # numpy said "shapes (2,) and (3,) not aligned"
        (lambda pair: inexact_step(pair.primal, np.array([0.6, 0.8]), 1.0), "a_i and x"),
        (lambda pair: inexact_step(pair.primal[:, None], np.array([[0.6], [0.8], [0.0]]), 1.0), "a_i and x"),
        # numpy raised its broadcast ValueError, and a bare TypeError for a 2-D x
        (lambda pair: mse(pair.primal, np.ones(2)), "x and x_hat"),
        (lambda pair: mse(np.ones((2, 2)), np.ones(2)), "x and x_hat"),
        (lambda pair: mse(np.ones((2, 2)), np.ones((2, 2))), "x and x_hat"),
    ],
)
def test_one_step_api_refuses_mismatched_shapes(call, names):
    # numpy would fail inside the step with a message that names no argument
    pair = DualPair(np.array([1.5, -0.5, 0.0]), 1.0)
    with pytest.raises(DimensionMismatchError, match=f"^{names} must be vectors of one length"):
        call(pair)


_COMPLEX_CALLS = {
    "soft_threshold": lambda z: soft_threshold([1 + 1j, 0.5], 1.0),
    "exact_step": lambda z: exact_step(z, [1.0, 0.0], 1.0, 1.0),
    "exact_step b_i": lambda z: exact_step([0.5, 0.0], [1.0, 0.0], 1 + 1j, 1.0),
    "inexact_step": lambda z: inexact_step([0.5, 0.0], z, 1.0),
    "project_hyperplane": lambda z: project_hyperplane(DualPair([0.5, 0.0], 1.0), z, 1.0, StepMode.EXACT),
    "project_hyperplane b_i": lambda z: project_hyperplane(
        DualPair([0.5, 0.0], 1.0), [1.0, 0.0], 1 + 1j, StepMode.INEXACT
    ),
    "DualPair": lambda z: DualPair(z, 1.0),
    "bregman_distance": lambda z: bregman_distance(DualPair([0.5, 0.0], 1.0), z),
    "objective_value": lambda z: objective_value(z, 1.0),
    "mse": lambda z: mse(z, [1.0, 0.0]),
    "mse x_hat": lambda z: mse([1.0, 0.0], z),
}


@pytest.mark.parametrize("name", list(_COMPLEX_CALLS))
def test_one_shot_api_refuses_complex_input(name):
    # a cast to float kept the real part alone, after a ComplexWarning:
    # exact_step([1+1j, 0], [1, 0], 1, 1) returned -1.0 and
    # soft_threshold([1+1j], 1) gave [0.]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError, match="must be real, got complex"):
            _COMPLEX_CALLS[name](np.array([1 + 1j, 0.0]))


def test_step_once_refuses_a_pair_of_another_length():
    from sparsekaczmarz import gaussian_instance, init_state, step_once

    system, _, _ = gaussian_instance(12, 8, 2, np.random.default_rng(0))
    with pytest.raises(DimensionMismatchError, match="a_i and the pair"):
        step_once(init_state(5, 0.5), system, 0, StepMode.EXACT)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dual_pair_refuses_a_non_finite_dual(bad):
    # an infinite entry thresholds to itself, and a NaN one to NaN: neither makes a pair
    dual = np.array([1.5, bad, 0.0])
    with pytest.raises(NonFiniteDataError, match="dual"):
        DualPair(dual, 1.0)


@pytest.mark.parametrize("dual", [np.float64(1.5), np.ones((2, 3))], ids=["scalar", "2-D"])
def test_dual_pair_refuses_a_dual_that_is_no_vector(dual):
    with pytest.raises(DimensionMismatchError, match="dual has shape"):
        DualPair(dual, 1.0)


# ------------------------------------------------------------- projection


def test_project_hyperplane_lam_zero_is_orthogonal_projection():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        pair = DualPair(rng.standard_normal(n), 0.0)
        a = random_unit_row(rng, n)
        b = float(rng.standard_normal())
        moved = project_hyperplane(pair, a, b, StepMode.INEXACT)
        expected = orthogonal_projection(pair.primal, a, b)
        assert np.max(np.abs(moved.primal - expected)) < 1e-12


def test_project_hyperplane_noop_when_on_hyperplane():
    rng = np.random.default_rng(12)
    pair = DualPair(rng.standard_normal(6) * 2.0, 1.0)
    a = random_unit_row(rng, 6)
    b = float(np.dot(a, pair.primal))
    moved = project_hyperplane(pair, a, b, StepMode.EXACT)
    assert np.max(np.abs(moved.dual - pair.dual)) < 1e-12


def test_project_hyperplane_exact_feasibility_and_decrease():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(2, 10))
        lam = 1.0
        pair = DualPair(rng.standard_normal(n) * 3.0, lam)
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
        pair = DualPair(rng.standard_normal(n) * 3.0, lam)
        a = random_unit_row(rng, n)
        y = rng.standard_normal(n)
        b = float(np.dot(a, y))
        moved = project_hyperplane(pair, a, b, StepMode.INEXACT)
        drop = 0.5 * inexact_step(pair.primal, a, b) ** 2
        assert bregman_distance(moved, y) <= bregman_distance(pair, y) - drop + 1e-10


def test_project_hyperplane_rejects_non_unit_row():
    pair = DualPair(np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        project_hyperplane(pair, np.array([3.0, 4.0]), 1.0, StepMode.INEXACT)
