import dataclasses
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from sparsekaczmarz import (
    DualPair,
    LinearSystem,
    RunStatus,
    SamplerConfig,
    SelectionRule,
    SolverSpec,
    StepMode,
    StoppingRule,
    bregman_distance,
    child_rng,
    exact_step,
    gaussian_instance,
    init_state,
    inexact_step,
    noisy_envelope,
    normalize_rows,
    objective_value,
    project_hyperplane,
    replay_duals,
    residual,
    run,
    soft_threshold,
    step_once,
)
from sparsekaczmarz import bregman, solvers
from sparsekaczmarz.errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidBetaError,
    NonFiniteDataError,
    NonFiniteIterateError,
    ZeroTruthError,
)
from sparsekaczmarz.sampling import _rank_pick

from oracles import orthogonal_projection, pick_index


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def small_instance(seed=0, m=20, n=10, k=3):
    rng = np.random.default_rng(seed)
    return gaussian_instance(m, n, k, rng)


def test_init_state_zero():
    state = init_state(3, 1.0)
    assert np.array_equal(state.primal, np.zeros(3))
    assert np.array_equal(state.dual, np.zeros(3))
    assert np.array_equal(state.primal, soft_threshold(state.dual, 1.0))


def test_init_state_rejects_bad_n():
    with pytest.raises(ValueError):
        init_state(0, 1.0)


@pytest.mark.parametrize("lam", [np.nan, np.inf])
def test_init_state_refuses_a_lam_that_is_not_finite(lam):
    with pytest.raises(ValueError, match="lam must be finite"):
        init_state(3, lam)


def test_step_once_is_kaczmarz_projection_at_lam_zero():
    system = normalize_rows([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0])
    state = DualPair(np.array([3.0, 4.0]), 0.0)
    moved = step_once(state, system, 0, StepMode.INEXACT)
    assert np.array_equal(moved.primal, [1.0, 4.0])
    expected = orthogonal_projection(state.primal, system.rows[0], system.rhs[0])
    assert np.max(np.abs(moved.primal - expected)) < 1e-15


@pytest.mark.parametrize("i", [-1, 2])
def test_step_once_refuses_a_row_outside_the_system(i):
    # -1 would step on the last row and m would raise numpy's own IndexError
    system = normalize_rows([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0])
    state = DualPair(np.array([3.0, 4.0]), 0.0)
    with pytest.raises(IndexOutOfRangeError, match=rf"row index {i} outside \[0, 2\)"):
        step_once(state, system, i, StepMode.INEXACT)


@pytest.mark.parametrize("i", [1.5, np.float64(1.0), True, False, "0"])
def test_step_once_refuses_a_row_index_that_is_no_integer(i):
    # a float would raise numpy's bare IndexError, and a bool read a (1, n)
    # boolean slice of the rows
    system = normalize_rows([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0])
    state = DualPair(np.array([3.0, 4.0]), 0.0)
    with pytest.raises(TypeError, match=re.escape(f"row index must be an integer, got {i!r}")):
        step_once(state, system, i, StepMode.INEXACT)
    # numpy integers are indices
    for index in (np.int64(0), np.int32(0), np.intp(0)):
        moved = step_once(state, system, index, StepMode.INEXACT)
        assert np.array_equal(moved.primal, [1.0, 4.0])


def test_step_once_noop_on_satisfied_row():
    rng = np.random.default_rng(1)
    system, x_hat, _ = small_instance(seed=1)
    state = DualPair(x_hat + 1.0 * np.sign(x_hat), 1.0)
    # build a state already on row 0's hyperplane
    state = DualPair(np.zeros(system.n), 1.0)
    b0 = float(system.rhs[0])
    # move once onto the hyperplane, then a second exact step must not move
    on_plane = step_once(state, system, 0, StepMode.EXACT)
    again = step_once(on_plane, system, 0, StepMode.EXACT)
    assert np.max(np.abs(again.dual - on_plane.dual)) < 1e-12
    assert abs(np.dot(system.rows[0], on_plane.primal) - b0) < 1e-10


def test_step_once_bregman_decrease_with_lam():
    system, x_hat, _ = small_instance(seed=2)
    rng = np.random.default_rng(3)
    state = DualPair(rng.standard_normal(system.n), 1.0)
    for mode in (StepMode.EXACT, StepMode.INEXACT):
        r = residual(system, state.primal)
        i = int(np.argmax(r**2))
        moved = step_once(state, system, i, mode)
        drop = 0.5 * r[i] ** 2
        assert (
            bregman_distance(moved, x_hat)
            <= bregman_distance(state, x_hat) - drop + 1e-10
        )


def test_run_identity_system_converges_in_one_pass():
    # every row of the full subset ties until it is projected on, and ties go to
    # the smallest index: the rows are taken in order, each once, and the
    # last lands on the truth exactly
    n = 6
    system = normalize_rows(np.eye(n), np.ones(n))
    spec = SolverSpec.sskm(0.0, n, StepMode.INEXACT, stop=StoppingRule(max_iters=100, mse_target=0.0))
    pair, trace = run(system, spec, ground_truth=np.ones(n))
    assert trace.status is RunStatus.CONVERGED
    assert trace.iterations == n
    assert trace.chosen.tolist() == list(range(n))
    assert np.max(np.abs(pair.primal - 1.0)) < 1e-12


def test_run_deterministic_given_seed():
    system, x_hat, _ = small_instance(seed=4)
    spec = SolverSpec.sskm(1.0, 10, seed=11, stop=StoppingRule(max_iters=300, mse_target=1e-10))
    pair_a, trace_a = run(system, spec, ground_truth=x_hat, residuals=True)
    pair_b, trace_b = run(system, spec, ground_truth=x_hat, residuals=True)
    assert np.array_equal(pair_a.primal, pair_b.primal)
    assert np.array_equal(trace_a.step, trace_b.step)
    assert np.array_equal(trace_a.chosen, trace_b.chosen)
    assert np.array_equal(trace_a.residual_norm2, trace_b.residual_norm2)


def test_run_matches_composed_single_steps():
    """``run`` equals init_state -> pick_index (full residual) -> step_once, for every variant."""
    system, x_hat, _ = small_instance(seed=5)
    stop = StoppingRule(max_iters=40)
    specs = {
        "rk": SolverSpec.rk(seed=3, stop=stop),
        "skm": SolverSpec.sskm(0.0, 8, StepMode.INEXACT, seed=3, stop=stop),
        "srk-inexact": SolverSpec.srk(1.0, step_mode=StepMode.INEXACT, seed=3, stop=stop),
        "srk-exact": SolverSpec.srk(1.0, step_mode=StepMode.EXACT, seed=3, stop=stop),
        "sskm-inexact": SolverSpec.sskm(1.0, 8, step_mode=StepMode.INEXACT, seed=3, stop=stop),
        "sskm-exact": SolverSpec.sskm(1.0, 8, step_mode=StepMode.EXACT, seed=3, stop=stop),
    }
    for name, spec in specs.items():
        pair, trace = run(system, spec, ground_truth=x_hat, residuals=True)
        rng = np.random.default_rng(spec.sampler.seed)
        state = init_state(system.n, spec.lam)
        for k in range(trace.iterations):
            r = residual(system, state.primal)
            i = pick_index(spec.sampler, system, rng, r)
            assert i == trace.chosen[k], (name, k)
            new_state = step_once(state, system, i, spec.step_mode)
            # the recorded step value reproduces this step's dual bit for bit
            stepped = state.dual - trace.step[k] * system.rows[i]
            assert np.array_equal(stepped, new_state.dual), (name, k)
            state = new_state
            # greedy rows read one dense product per iterate below the size gate,
            # bit for bit; uniform rows record a window's product, up to rounding
            r = residual(system, state.primal)
            expected = float(np.dot(r, r))
            if spec.sampler.rule is SelectionRule.SKM_GREEDY:
                assert trace.residual_norm2[k] == expected, (name, k)
            else:
                assert trace.residual_norm2[k] == pytest.approx(expected, rel=1e-12), (name, k)
        assert np.array_equal(state.primal, pair.primal), name
        assert np.array_equal(state.dual, pair.dual), name


def _skip_cases():
    """Greedy runs whose iterations skip work: (name, system, truth, specs)."""
    stop = StoppingRule(max_iters=200)
    system, x_hat, _ = small_instance(seed=5)
    yield "beta-1", system, x_hat, [SolverSpec.sskm(1.0, 1, mode, seed=3, stop=stop) for mode in StepMode]
    # x stays 0 for the first 21 iterations, while the dual lies in the band
    yield "zero-iterate", system, x_hat, [SolverSpec.sskm(10.0, 8, StepMode.INEXACT, seed=3, stop=stop)]
    # a consistent 4 x 6 system, which SSKM at lam = 0.1 solves to the last bit
    # and then steps by exactly zero: first at iteration 125-453 of 2000
    for seed in range(3):
        system, x_hat, _ = gaussian_instance(4, 6, 2, np.random.default_rng(seed))
        stop = StoppingRule(max_iters=2000)
        yield f"zero-steps-{seed}", system, x_hat, [SolverSpec.sskm(0.1, 2, mode, seed=seed, stop=stop) for mode in StepMode]


def _check_against_single_steps(name, system, x_hat, spec, residuals):
    """Runs ``spec`` and checks it against init_state -> pick_index (full
    residual) -> step_once, record for record and bit for bit, and its stop
    against a test after every iteration. A uniform window takes one residual
    product for its iterates, which may round otherwise than one per
    iterate. Returns the run's steps of exactly zero and its zero iterates."""
    x_hat_norm2, zero_steps, zero_iterates = float(np.dot(x_hat, x_hat)), 0, 0
    pair, trace = run(system, spec, ground_truth=x_hat, residuals=residuals)
    stop, greedy = spec.stop, spec.sampler.rule is SelectionRule.SKM_GREEDY
    if trace.status is RunStatus.MAX_ITERS:
        assert trace.iterations == stop.max_iters, name
    assert (trace.residual_norm2 is not None) == residuals
    f_hat = objective_value(x_hat, spec.lam)
    rng = np.random.default_rng(spec.sampler.seed)
    state = init_state(system.n, spec.lam)
    for k in range(trace.iterations):
        i = pick_index(spec.sampler, system, rng, residual(system, state.primal))
        assert i == trace.chosen[k], (name, k)
        a, b = system.rows[i], float(system.rhs[i])
        if spec.step_mode is StepMode.EXACT:
            t = exact_step(state.dual, a, b, spec.lam)
        else:
            t = inexact_step(state.primal, a, b)
        assert _bits(t) == _bits(trace.step[k]), (name, k)
        state = step_once(state, system, i, spec.step_mode)
        x, dual = state.primal, state.dual
        zero_steps += t == 0.0
        zero_iterates += not x.any()
        diff = x - x_hat
        mse = float(np.dot(diff, diff)) / x_hat_norm2
        assert trace.mse[k] == mse, (name, k)
        breg = f_hat - float(np.dot(dual, x_hat)) + 0.5 * float(np.dot(x, x))
        assert trace.bregman_to_truth[k] == breg, (name, k)
        r = residual(system, x)
        resid = float(np.dot(r, r))
        if residuals:
            assert trace.residual_norm2[k] == (resid if greedy else pytest.approx(resid, rel=1e-12)), (name, k)
        met = stop.mse_target is not None and mse <= stop.mse_target
        # only the last iterate of a converged run meets the stop
        assert met == (trace.status is RunStatus.CONVERGED and k + 1 == trace.iterations), (name, k)
    assert np.array_equal(_bits(state.primal), _bits(pair.primal)), name
    assert np.array_equal(_bits(state.dual), _bits(pair.dual)), name
    return zero_steps, zero_iterates


@pytest.mark.parametrize("residuals", [False, True])
def test_run_skipping_greedy_work_matches_composed_single_steps(residuals):
    """A greedy ``run`` that skips steps of zero, the product at x = 0 and the
    product at beta = 1 equals init_state -> pick_index (full residual) ->
    step_once, record for record, with the residual record and without it."""
    for name, system, x_hat, specs in _skip_cases():
        zero_steps, zero_iterates = 0, 0
        for spec in specs:
            steps, iterates = _check_against_single_steps(name, system, x_hat, spec, residuals)
            zero_steps += steps
            zero_iterates += iterates
        # each case reaches the work it skips
        if name.startswith("zero-steps"):
            assert zero_steps > 0, name
        if name == "zero-iterate":
            assert 0 < zero_iterates < spec.stop.max_iters


def _spy_single_steps(monkeypatch):
    """Lists the steps run takes one at a time, through ``_step_into``."""
    steps = []
    step = solvers._step_into

    def spy(*args):
        steps.append(args[2])
        return step(*args)

    monkeypatch.setattr(solvers, "_step_into", spy)
    return steps


def _batched(spec, trace, single_steps):
    """The iterations a run took in batches: those it computed, less its
    single steps. A uniform window is computed to its end, past a stop."""
    computed = trace.iterations
    if spec.sampler.rule is SelectionRule.UNIFORM_RANDOM:
        computed = min(-(-computed // solvers._WINDOW) * solvers._WINDOW, spec.stop.max_iters)
    return computed - len(single_steps)


def _zero_phase_specs(m, stop):
    """x stays 0 for the first 87 iterations of SRK at lam = 10, and for 69
    (beta = 8) and 43 (beta = m, whose pick is an argmax) of SSKM at lam = 30,
    on small_instance(seed=5): past a window of 32, into the middle of one."""
    return [
        SolverSpec.srk(10.0, StepMode.INEXACT, seed=3, stop=stop),
        SolverSpec.sskm(30.0, 8, StepMode.INEXACT, seed=3, stop=stop),
        SolverSpec.sskm(30.0, m, StepMode.INEXACT, seed=3, stop=stop),
    ]


def _batch_cases():
    """Runs whose steps leave x where it was, which run takes in batches:
    (name, system, truth, specs)."""
    system, x_hat, _ = small_instance(seed=5)
    yield "zero-phase", system, x_hat, _zero_phase_specs(system.m, StoppingRule(max_iters=200))
    # a budget that ends while x is still 0, inside a batch
    yield "zero-phase-budget", system, x_hat, _zero_phase_specs(system.m, StoppingRule(max_iters=40))
    # stops met soon after x leaves 0, inside a window
    specs = []
    for spec in _zero_phase_specs(system.m, StoppingRule(max_iters=200)):
        _, probe = run(system, spec, ground_truth=x_hat)
        moved = int(np.flatnonzero(probe.mse != 1.0)[0])
        j = _first_new_low(probe.mse, moved, solvers._WINDOW)
        specs.append(dataclasses.replace(spec, stop=StoppingRule(max_iters=200, mse_target=float(probe.mse[j]))))
    yield "zero-phase-mse-stop", system, x_hat, specs
    # consistent 4 x 6 systems, which every method solves to the last bit:
    # then runs of steps of zero, which SSKM batches and RK and SRK take
    # alone. Between them come steps that move the dual by less than x's
    # rounding, which are taken alone
    for seed in range(3):
        system, x_hat, _ = gaussian_instance(4, 6, 2, np.random.default_rng(seed))
        stop = StoppingRule(max_iters=2000)
        specs = [SolverSpec.rk(seed=seed, stop=stop)]
        for mode in StepMode:
            specs += [SolverSpec.srk(0.1, mode, seed=seed, stop=stop), SolverSpec.sskm(0.1, 2, mode, seed=seed, stop=stop)]
        yield f"zero-steps-{seed}", system, x_hat, specs


@pytest.mark.parametrize("residuals", [False, True])
def test_run_batches_match_composed_single_steps(monkeypatch, residuals):
    """Steps that leave x where it was, which run takes as one batch per
    window, equal init_state -> pick_index (full residual) -> step_once,
    record for record, and meet the stop where a test after every iteration
    does: across windows, to a budget or a stop, uniform and greedy."""
    for name, system, x_hat, specs in _batch_cases():
        for spec in specs:
            zero_steps, _ = _check_against_single_steps(name, system, x_hat, spec, residuals)
            single_steps = _spy_single_steps(monkeypatch)
            _, trace = run(system, spec, ground_truth=x_hat, residuals=residuals)
            monkeypatch.undo()
            batched = _batched(spec, trace, single_steps)
            if name.startswith("zero-steps") and spec.sampler.rule is SelectionRule.UNIFORM_RANDOM:
                # uniform rows take steps of zero away from x = 0 alone
                assert batched == 0, name
            else:
                assert batched > 0, name
            # x = 0 gives a relative error of exactly 1
            phase = int(np.argmax(trace.mse != 1.0)) if (trace.mse != 1.0).any() else trace.iterations
            if name == "zero-phase":
                # the phase outlasts a window and ends inside one; all of it
                # after the first step is batched
                assert phase > solvers._WINDOW and phase % solvers._WINDOW, name
                assert batched >= phase - 1, name
            elif name == "zero-phase-budget":
                assert phase == trace.iterations == spec.stop.max_iters, name
            elif name.startswith("zero-steps"):
                assert zero_steps > 0, name


def test_uniform_runs_batch_only_at_x_zero(monkeypatch):
    """RK and SRK batch only inexact steps that leave x = 0: every
    ``_steps_at_rest`` call of a uniform run sees an all-zero primal, and an
    exact one makes none, on the zero-steps systems and in the x = 0 phase
    cases."""
    zero_primals = []
    at_rest = solvers._steps_at_rest

    def spy(dual, primal, *args):
        zero_primals.append(not np.count_nonzero(primal))
        return at_rest(dual, primal, *args)

    monkeypatch.setattr(solvers, "_steps_at_rest", spy)
    for name, system, x_hat, specs in _batch_cases():
        for spec in specs:
            if spec.sampler.rule is not SelectionRule.UNIFORM_RANDOM:
                continue
            zero_primals.clear()
            run(system, spec, ground_truth=x_hat)
            assert all(zero_primals), (name, spec)
            if spec.step_mode is StepMode.EXACT:
                assert not zero_primals, (name, spec)
            elif name.startswith("zero-phase"):
                assert zero_primals, (name, spec)
    # SRK-exact where SRK-inexact stays at x = 0, and RK on a system whose
    # steps leave x = 0 through the first window
    system, x_hat, _ = small_instance(seed=5)
    rest, rest_hat, rest_seed = _at_rest_through_the_first_window()
    stop = StoppingRule(max_iters=100)
    for case, truth, spec in ((system, x_hat, SolverSpec.srk(10.0, StepMode.EXACT, seed=3, stop=stop)),
                              (rest, rest_hat, SolverSpec.rk(seed=rest_seed, stop=stop))):
        zero_primals.clear()
        run(case, spec, ground_truth=truth)
        assert all(zero_primals), spec
        assert bool(zero_primals) == (spec.step_mode is StepMode.INEXACT), spec


def _at_rest_through_the_first_window():
    """A 40 x 10 system, its truth and an RK/SRK seed whose first 32 rows drawn
    have b_i = 0 and whose 33rd does not. From x = 0 every step of the first
    window is zero, so the second window starts with a batch in slot 0, from
    the pair copied out of the last column, and at once takes slot 0 alone."""
    system, x_hat, _ = gaussian_instance(40, 10, 3, np.random.default_rng(0))
    for seed in range(100):
        _, probe = run(system, SolverSpec.rk(seed=seed, stop=StoppingRule(max_iters=33)))
        first = probe.chosen[:32]
        if probe.chosen[32] not in first:
            break
    rhs = system.rhs.copy()
    rhs[first] = 0.0
    assert rhs[probe.chosen[32]] != 0.0
    return system.with_rhs(rhs), x_hat, seed


@pytest.mark.parametrize("residuals", [False, True])
@pytest.mark.parametrize("max_iters", [1, 2, 31, 32, 33, 65])
def test_run_at_lam_zero_in_one_buffer_matches_composed_single_steps(max_iters, residuals):
    """At lam = 0 a uniform window keeps x and x* in one buffer (and at
    max_iters = 1 in two): RK and SRK-exact equal init_state -> pick_index
    (full residual) -> step_once, record for record, at budgets that end
    inside, at and past a window, on a system that stays at x = 0 through
    the first window and on one that does not."""
    rest, rest_hat, rest_seed = _at_rest_through_the_first_window()
    system, x_hat, _ = small_instance(seed=5)
    stop = StoppingRule(max_iters=max_iters)
    for name, case, truth, seed in (("moving", system, x_hat, 3), ("at-rest", rest, rest_hat, rest_seed)):
        for spec in (SolverSpec.rk(seed=seed, stop=stop), SolverSpec.srk(0.0, StepMode.EXACT, seed=seed, stop=stop)):
            _, zero_iterates = _check_against_single_steps(name, case, truth, spec, residuals)
            if name == "at-rest":
                assert zero_iterates == min(max_iters, 32), (spec, max_iters)


@pytest.mark.parametrize("residuals", [False, True])
@pytest.mark.parametrize("max_iters", [1, 2, 31, 32, 33, 65])
@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_run_srk_exact_with_a_windows_kits_matches_composed_single_steps(lam, max_iters, residuals):
    """SRK-exact builds the kits of a window's rows at once and steps through
    one workspace per run: it equals init_state -> pick_index (full residual)
    -> step_once, whose exact step builds its own, record for record, at
    budgets that end inside, at and past a window, on a small system and on
    the reference shape."""
    ref, ref_hat, _ = gaussian_instance(300, 200, 5, np.random.default_rng(2))
    stop = StoppingRule(max_iters=max_iters)
    for name, (system, x_hat) in {"small": small_instance(seed=5)[:2], "ref": (ref, ref_hat)}.items():
        spec = SolverSpec.srk(lam, StepMode.EXACT, seed=3, stop=stop)
        _check_against_single_steps(name, system, x_hat, spec, residuals)


def test_no_module_level_array_can_be_written():
    # LinearSystem promises safe concurrent readers: each run allocates its own
    # band, kits and workspace, so no scratch buffer lives at module level
    for module in (bregman, solvers):
        for name, value in vars(module).items():
            for item in value if isinstance(value, (tuple, list)) else (value,):
                assert not (isinstance(item, np.ndarray) and item.flags.writeable), (module.__name__, name)


def test_exact_runs_in_threads_equal_each_run_alone():
    # four exact runs on one system step at once in four threads, more than
    # the cores of a small host, switching every microsecond: each owns its
    # band, kits and workspace, so each gives the bits it gives alone
    system, x_hat, _ = gaussian_instance(60, 40, 4, np.random.default_rng(11))
    stop = StoppingRule(max_iters=2000)
    specs = [
        SolverSpec.srk(0.5, StepMode.EXACT, seed=1, stop=stop),
        SolverSpec.sskm(1.0, 30, StepMode.EXACT, seed=2, stop=stop),
        SolverSpec.srk(0.0, StepMode.EXACT, seed=3, stop=stop),
        SolverSpec.sskm(0.1, 60, StepMode.EXACT, seed=4, stop=stop),
    ]
    alone = [run(system, spec, ground_truth=x_hat) for spec in specs]
    together = [None] * len(specs)

    def solve(q):
        together[q] = run(system, specs[q], ground_truth=x_hat)

    threads = [threading.Thread(target=solve, args=(q,)) for q in range(len(specs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for (pair, trace), (pair_t, trace_t) in zip(alone, together):
        assert np.array_equal(trace.chosen, trace_t.chosen)
        assert np.array_equal(_bits(trace.step), _bits(trace_t.step))
        assert np.array_equal(_bits(trace.mse), _bits(trace_t.mse))
        assert np.array_equal(_bits(pair.dual), _bits(pair_t.dual))


def test_run_shares_one_buffer_only_for_uniform_windows_at_lam_zero(monkeypatch):
    # x = x* at lam = 0, so a uniform window of w > 1 slots steps each into
    # one column for both. A window of one slot steps in place, as every
    # greedy step does, into the dual it reads; above lam = 0 x and x* differ
    system, x_hat, _ = small_instance(seed=5)
    kinds = []
    step = solvers._step_into

    def spy(dual, primal, a, b, lam, band, mode, new_dual, new_primal, kit, work):
        kinds.append(new_dual is new_primal)
        return step(dual, primal, a, b, lam, band, mode, new_dual, new_primal, kit, work)

    monkeypatch.setattr(solvers, "_step_into", spy)
    stop = StoppingRule(max_iters=100)
    cases = [(SolverSpec.rk(seed=3, stop=stop), True), (SolverSpec.srk(0.0, StepMode.EXACT, seed=3, stop=stop), True)]
    cases += [(SolverSpec.rk(seed=3, stop=StoppingRule(max_iters=1)), False)]
    for mode in StepMode:
        cases += [(SolverSpec.srk(0.5, mode, seed=3, stop=stop), False)]
        cases += [(SolverSpec.sskm(lam, 8, mode, seed=3, stop=stop), False) for lam in (0.0, 0.5)]
    for spec, shared in cases:
        kinds.clear()
        run(system, spec, ground_truth=x_hat)
        assert kinds and all(kind is shared for kind in kinds), spec


def test_run_calls_the_step_kernel_once_per_step_that_moves_x(monkeypatch):
    # SRK-inexact at lam = 10 stays at x = 0 for its first 87 iterations: after
    # the first, they are one batch per window, with no _step_into each
    system, x_hat, _ = small_instance(seed=5)
    single_steps = _spy_single_steps(monkeypatch)
    spec = SolverSpec.srk(10.0, StepMode.INEXACT, seed=3, stop=StoppingRule(max_iters=200))
    _, trace = run(system, spec, ground_truth=x_hat)
    phase = int(np.argmax(trace.mse != 1.0))
    assert trace.iterations == 200 and phase == 87
    assert len(single_steps) <= trace.iterations - (phase - 1)


@pytest.mark.parametrize("residuals", [False, True])
def test_run_batch_whose_duals_overflow_fails_as_single_steps_do(monkeypatch, residuals):
    # one row, twice: from x = 0 the dual grows by 5e307 a step and stays in
    # the band [-lam, lam] for three steps, so the batch after the first takes
    # two and overflows on the third; the slots past it hold infinities and
    # NaNs. SSKM's residual norm at x = 0 overflows, and a batch would repeat
    # it: with the record its steps run alone, as each warns
    system = LinearSystem(rows=np.array([[1.0], [1.0]]), rhs=np.array([5e307, 5e307]), row_scales=np.ones(2))
    lam, stop = 1.6e308, StoppingRule(max_iters=100)

    def outcome(spec):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NonFiniteIterateError) as failure:
                run(system, spec, ground_truth=np.ones(1), residuals=residuals)
        return str(failure.value), [(w.category, str(w.message)) for w in caught]

    for spec in (SolverSpec.srk(lam, StepMode.INEXACT, seed=0, stop=stop),
                 SolverSpec.sskm(lam, 2, StepMode.INEXACT, seed=0, stop=stop)):
        single_steps = _spy_single_steps(monkeypatch)
        batched = outcome(spec)
        greedy = spec.sampler.rule is SelectionRule.SKM_GREEDY
        # the batch after the first step takes two, or none
        assert len(single_steps) == (4 if greedy and residuals else 2)
        monkeypatch.undo()
        # every slot alone, as before batches
        monkeypatch.setattr(solvers, "_steps_at_rest", lambda dual, x, a, b, lam, duals: (0, b[:0]))
        assert batched == outcome(spec)
        monkeypatch.undo()
        assert batched[0] == "iterate became non-finite at iteration 3"
        assert batched[1], "the step that overflows warns"


@pytest.mark.parametrize("residuals", [False, True])
@pytest.mark.parametrize("mode", list(StepMode))
@pytest.mark.parametrize("half", [True, False], ids=["beta-m/2", "beta-m"])
def test_run_picking_by_residual_rank_matches_composed_single_steps(monkeypatch, half, mode, residuals):
    """With the row gate at 1, beta = m/2 picks by residual rank on small
    systems, and beta = m by a plain argmax: either equals init_state ->
    pick_index (full residual) -> step_once, record for record."""
    monkeypatch.setattr(solvers, "_RANK_SCAN_MIN_ROWS", 1)
    scans = []

    def spy(keys, beta, r2, residuals, order):
        # a batch at a fixed x picks ahead, so a row of keys may be scanned twice
        scans[-1].add(keys.tobytes())
        return _rank_pick(keys, beta, r2, residuals, order)

    monkeypatch.setattr(solvers, "_rank_pick", spy)
    systems = [("20x10", *small_instance(seed=5)[:2], 1.0, 200)]
    # 4 x 6 systems that SSKM at lam = 0.1 solves to the last bit, then steps by zero
    systems += [(f"4x6-{seed}", *gaussian_instance(4, 6, 2, np.random.default_rng(seed))[:2], 0.1, 600)
                for seed in range(3)]
    for name, system, x_hat, lam, budget in systems:
        beta = system.m // 2 if half else system.m
        spec = SolverSpec.sskm(lam, beta, mode, seed=3, stop=StoppingRule(max_iters=budget))
        scans.append(set())
        _check_against_single_steps(name, system, x_hat, spec, residuals)
        # every iteration's pick at m/2 scans its own keys, and none at beta = m
        assert len(scans[-1]) == (budget if half else 0), name


class _NoDraws:
    """A generator stand-in that has no draw to give."""


def test_run_at_beta_m_draws_no_keys(monkeypatch):
    # every subset is all rows, so the pick is an argmax of r^2 and the rng,
    # which feeds nothing but the subsets, is never read
    system, x_hat, _ = small_instance(seed=5)
    specs = [SolverSpec.sskm(1.0, system.m, mode, seed=3, stop=StoppingRule(max_iters=100)) for mode in StepMode]
    expected = [run(system, spec, ground_truth=x_hat) for spec in specs]
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _NoDraws())
    for spec, (pair, trace) in zip(specs, expected):
        got_pair, got = run(system, spec, ground_truth=x_hat)
        assert np.array_equal(got.chosen, trace.chosen) and np.array_equal(_bits(got.step), _bits(trace.step))
        assert np.array_equal(_bits(got_pair.dual), _bits(pair.dual))
    # one row fewer, and the subsets are drawn
    with pytest.raises(AttributeError, match="random"):
        run(system, SolverSpec.sskm(1.0, system.m - 1, seed=3, stop=StoppingRule(max_iters=100)))


def test_run_rk_is_orthogonal_projection_sequence():
    system, x_hat, _ = small_instance(seed=6, m=15, n=8, k=8)
    spec = SolverSpec.rk(seed=9, stop=StoppingRule(max_iters=25))
    pair, trace = run(system, spec)
    x = np.zeros(system.n)
    for k in range(trace.iterations):
        i = int(trace.chosen[k])
        x = orthogonal_projection(x, system.rows[i], float(system.rhs[i]))
    assert np.max(np.abs(x - pair.primal)) < 1e-12


def test_run_trace_shape_and_monotone_k():
    system, x_hat, _ = small_instance(seed=7)
    spec = SolverSpec.srk(1.0, seed=2, stop=StoppingRule(max_iters=50))
    _, trace = run(system, spec, ground_truth=x_hat, residuals=True)
    assert trace.iterations == 50
    for arr in (trace.chosen, trace.step, trace.residual_norm2, trace.mse, trace.bregman_to_truth):
        assert arr.shape == (50,)
    assert np.all(np.isfinite(trace.mse))


def test_run_bregman_monotone_toward_truth():
    system, x_hat, _ = small_instance(seed=10, m=30, n=20, k=4)
    for mode in (StepMode.EXACT, StepMode.INEXACT):
        spec = SolverSpec.sskm(1.0, 15, step_mode=mode, seed=6, stop=StoppingRule(max_iters=200))
        _, trace = run(system, spec, ground_truth=x_hat)
        d = trace.bregman_to_truth
        assert np.all(np.diff(d) <= 1e-10)


def test_run_exact_mode_satisfies_selected_hyperplanes():
    system, x_hat, _ = small_instance(seed=12, m=25, n=15, k=3)
    spec = SolverSpec.sskm(1.0, 12, step_mode=StepMode.EXACT, seed=8, stop=StoppingRule(max_iters=120))
    _, trace = run(system, spec, ground_truth=x_hat)
    dual = np.zeros(system.n)
    for k in range(trace.iterations):
        i = int(trace.chosen[k])
        dual -= trace.step[k] * system.rows[i]
        x = soft_threshold(dual, 1.0)
        assert abs(np.dot(system.rows[i], x) - system.rhs[i]) <= 1e-10


def test_constructors_are_specs_built_field_by_field():
    stop = StoppingRule(max_iters=50)
    uniform = SamplerConfig(rule=SelectionRule.UNIFORM_RANDOM, seed=4)
    greedy = SamplerConfig(rule=SelectionRule.SKM_GREEDY, beta=6, seed=4)
    assert [f.name for f in dataclasses.fields(SolverSpec)] == ["lam", "step_mode", "sampler", "stop"]
    assert SolverSpec.rk(seed=4, stop=stop) == SolverSpec(0.0, StepMode.INEXACT, uniform, stop)
    for mode in StepMode:
        assert SolverSpec.srk(1.0, mode, seed=4, stop=stop) == SolverSpec(1.0, mode, uniform, stop)
        assert SolverSpec.sskm(0.5, 6, mode, seed=4, stop=stop) == SolverSpec(0.5, mode, greedy, stop)


@pytest.mark.parametrize(
    "lam, mode, sampler, named",
    [
        # once refused as RK with lam > 0: SRK
        (1.0, StepMode.INEXACT, SamplerConfig(SelectionRule.UNIFORM_RANDOM, seed=2),
         lambda **kw: SolverSpec.srk(1.0, StepMode.INEXACT, **kw)),
        # once refused as SSKM with uniform rows: SRK
        (1.0, StepMode.EXACT, SamplerConfig(SelectionRule.UNIFORM_RANDOM, seed=2),
         lambda **kw: SolverSpec.srk(1.0, StepMode.EXACT, **kw)),
        # once refused as a greedy RK or SRK: SSKM
        (0.0, StepMode.INEXACT, SamplerConfig(SelectionRule.SKM_GREEDY, beta=10, seed=2),
         lambda **kw: SolverSpec.sskm(0.0, 10, StepMode.INEXACT, **kw)),
        (1.0, StepMode.INEXACT, SamplerConfig(SelectionRule.SKM_GREEDY, beta=10, seed=2),
         lambda **kw: SolverSpec.sskm(1.0, 10, StepMode.INEXACT, **kw)),
    ],
    ids=["srk-inexact", "srk-exact", "sskm-lam0", "sskm-inexact"],
)
def test_any_rule_lam_and_mode_runs_as_the_method_they_place(lam, mode, sampler, named):
    # the rule, lam and step mode alone place a spec among the methods
    system, x_hat, _ = small_instance(seed=5)
    stop = StoppingRule(max_iters=60)
    spec = SolverSpec(lam, mode, sampler, stop)
    assert spec == named(seed=2, stop=stop)
    pair, trace = run(system, spec, ground_truth=x_hat)
    assert trace.iterations == 60 and np.isfinite(trace.mse).all() and np.isfinite(pair.dual).all()


@pytest.mark.parametrize("field, value", [("sampler", "uniform"), ("sampler", None), ("stop", 100), ("stop", None)])
def test_solver_spec_refuses_a_sampler_or_stop_of_the_wrong_type(field, value):
    # run reads their fields, where either would fail with a bare AttributeError
    fields = {"lam": 1.0, "step_mode": StepMode.EXACT,
              "sampler": SamplerConfig(rule=SelectionRule.UNIFORM_RANDOM), "stop": StoppingRule()}
    fields[field] = value
    with pytest.raises(TypeError, match=rf"^{field} must be a "):
        SolverSpec(**fields)


@pytest.mark.parametrize("bad", ["exact", "inexact", None])
@pytest.mark.parametrize("entry", ["SolverSpec", "project_hyperplane", "step_once", "noisy_envelope"])
def test_a_step_mode_that_is_no_step_mode_is_refused(entry, bad):
    # the steps test the mode by identity, so a string would take one mode or the other
    system, _, _ = small_instance(seed=1)
    state = init_state(system.n, 1.0)
    name = "step_mode" if entry == "SolverSpec" else "mode"
    with pytest.raises(ValueError, match=rf"^{name} must be a StepMode"):
        if entry == "SolverSpec":
            SolverSpec(1.0, bad, SamplerConfig(rule=SelectionRule.UNIFORM_RANDOM), StoppingRule())
        elif entry == "project_hyperplane":
            project_hyperplane(state, system.rows[0], float(system.rhs[0]), bad)
        elif entry == "step_once":
            step_once(state, system, 0, bad)
        else:
            noisy_envelope([0.5, 0.5], 1.0, np.ones(3), 0.1, 1.0, bad)


def test_run_record_memory_follows_iterations_not_budget():
    # the reference instance converges in a few dozen SSKM-exact iterations; a
    # 10**7 budget preallocated as five records would need about 380 MB
    system, x_hat, _ = gaussian_instance(300, 200, 5, child_rng(42, 0, 0))
    stop = StoppingRule(max_iters=10**7, mse_target=1e-6)
    spec = SolverSpec.sskm(1.0, 150, StepMode.EXACT, seed=1, stop=stop)
    tracemalloc.start()
    try:
        _, trace = run(system, spec, ground_truth=x_hat, residuals=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.status is RunStatus.CONVERGED and trace.iterations < 1000
    assert peak < 4 * 2**20
    for arr in (trace.chosen, trace.step, trace.residual_norm2, trace.mse, trace.bregman_to_truth):
        assert arr.shape == (trace.iterations,)


def test_run_hands_full_records_to_the_trace_without_a_copy():
    # a budget-bound solve ends with its records exactly max_iters long: the
    # trace takes them as they are, so the peak is the last doubling (the
    # half-size records beside the full ones, 1.5 times the records) and not
    # the records beside a copy of them (twice the records)
    system, x_hat, _ = small_instance(seed=5, m=20, n=12, k=2)
    max_iters = 2**13
    spec = SolverSpec.rk(seed=3, stop=StoppingRule(max_iters=max_iters, mse_target=None))
    tracemalloc.start()
    try:
        _, trace = run(system, spec, ground_truth=x_hat, residuals=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.status is RunStatus.MAX_ITERS and trace.iterations == max_iters
    records = (trace.chosen, trace.step, trace.residual_norm2, trace.mse, trace.bregman_to_truth)
    assert all(arr.shape == (max_iters,) for arr in records)
    assert peak < 1.75 * sum(arr.nbytes for arr in records)


def test_run_records_grow_past_the_first_chunk():
    # 3000 iterations cross two doublings of the records; the trace must equal
    # the single steps it records. RK's residuals come from one product per
    # window of iterates, so they equal one product per iterate up to rounding.
    # SSKM-inexact at lam = 0 takes the same plain projections, and its records
    # grow at the start of a window of greedy iterations
    system, x_hat, _ = small_instance(seed=8, m=30, n=20, k=3)
    stop = StoppingRule(max_iters=3000)
    for spec in (SolverSpec.rk(seed=4, stop=stop), SolverSpec.sskm(0.0, 10, StepMode.INEXACT, seed=4, stop=stop)):
        pair, trace = run(system, spec, ground_truth=x_hat, residuals=True)
        assert trace.iterations == 3000
        x = np.zeros(system.n)
        for k in range(trace.iterations):
            i = int(trace.chosen[k])
            x = x - trace.step[k] * system.rows[i]
            r = residual(system, x)
            assert trace.residual_norm2[k] == pytest.approx(float(np.dot(r, r)), rel=1e-12), k
        assert np.array_equal(x, pair.primal)
        assert trace.mse[-1] == trace.final_mse


def test_run_raises_on_non_finite_iterate():
    # two copies of one row with rhs +-1e308: the projections alternate and
    # overflow to inf within a few iterations
    system = LinearSystem(rows=np.array([[1.0], [1.0]]), rhs=np.array([1e308, -1e308]), row_scales=np.ones(2))
    spec = SolverSpec.rk(seed=0, stop=StoppingRule(max_iters=100))
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(NonFiniteIterateError, match="iteration 3"):
            run(system, spec)


def test_run_finite_iterate_whose_square_overflows_does_not_raise():
    # x = 1e200 is finite, but ||x||^2 overflows to inf (numpy warns of it): the
    # finiteness test must look at the entries before calling the iterate non-finite
    system = LinearSystem(rows=np.array([[1.0]]), rhs=np.array([1e200]), row_scales=np.ones(1))
    for spec in (
        SolverSpec.rk(seed=0, stop=StoppingRule(max_iters=3)),
        SolverSpec.srk(1.0, step_mode=StepMode.INEXACT, seed=0, stop=StoppingRule(max_iters=3)),
        SolverSpec.srk(1.0, step_mode=StepMode.EXACT, seed=0, stop=StoppingRule(max_iters=3)),
    ):
        with pytest.warns(RuntimeWarning, match="overflow"):
            pair, trace = run(system, spec)
        assert trace.iterations == 3
        assert np.isfinite(pair.primal).all() and pair.primal[0] > 1e199


_BREGMAN_VARIANTS = [
    ("rk", 0.0, StepMode.INEXACT),
    ("srk", 1.0, StepMode.INEXACT),
    ("srk", 1.0, StepMode.EXACT),
    ("sskm", 1.0, StepMode.INEXACT),
    ("sskm", 1.0, StepMode.EXACT),
]


@pytest.mark.parametrize("shape", [(40, 30), (600, 500)])
@pytest.mark.parametrize("method,lam,mode", _BREGMAN_VARIANTS)
def test_run_bregman_record_equals_the_distance_of_the_replayed_pair(shape, method, lam, mode):
    # run records f(x_hat) - <x*, x_hat> + ||x||^2 / 2, which equals the Bregman
    # distance of the pair (x, x*) because x = soft_threshold(x*, lam); 600 x 500
    # lies above the size gate
    m, n = shape
    system, x_hat, _ = gaussian_instance(m, n, 5, child_rng(9, m, n, 0))
    assert (system.rows.size >= solvers._BLOCK_MIN_ENTRIES) == (m == 600)
    stop = StoppingRule(max_iters=60)
    if method == "rk":
        spec = SolverSpec.rk(seed=2, stop=stop)
    elif method == "srk":
        spec = SolverSpec.srk(lam, step_mode=mode, seed=2, stop=stop)
    else:
        spec = SolverSpec.sskm(lam, m // 2, step_mode=mode, seed=2, stop=stop)
    pair, trace = run(system, spec, ground_truth=x_hat)
    tol = 1e-12 * (1.0 + objective_value(x_hat, lam))
    duals = list(replay_duals(system, trace))[1:] + [pair.dual]
    assert len(duals) == trace.iterations == 60
    for k, dual in enumerate(duals):
        expected = bregman_distance(DualPair(dual, lam), x_hat)
        assert abs(trace.bregman_to_truth[k] - expected) <= tol, k


@pytest.mark.parametrize("max_iters", [1, 31, 33, 200])
@pytest.mark.parametrize(
    "method,lam,mode",
    _BREGMAN_VARIANTS + [("srk", 0.0, StepMode.EXACT), ("sskm", 0.0, StepMode.INEXACT), ("sskm", 0.0, StepMode.EXACT)],
)
def test_run_returns_the_threshold_of_its_final_dual_bit_for_bit(method, lam, mode, max_iters):
    # the pair derives its primal from the dual run returns, with
    # soft_threshold's kernel, signs of zero included. On the reference
    # instance, windows end inside (31, 33) and at the MSE stop
    system, x_hat, _ = gaussian_instance(300, 200, 5, child_rng(42, 0, 0))
    stop = StoppingRule(max_iters=max_iters, mse_target=1e-6)
    if method == "rk":
        spec = SolverSpec.rk(seed=1, stop=stop)
    elif method == "srk":
        spec = SolverSpec.srk(lam, step_mode=mode, seed=1, stop=stop)
    else:
        spec = SolverSpec.sskm(lam, 150, step_mode=mode, seed=1, stop=stop)
    pair, _ = run(system, spec, ground_truth=x_hat)
    assert np.array_equal(_bits(pair.primal), _bits(soft_threshold(pair.dual, lam)))
    assert not pair.primal.flags.writeable and not pair.dual.flags.writeable
    # the pair holds its own n entries, not a column of the loop's window buffer
    assert pair.dual.flags.owndata and pair.primal.flags.owndata


def _iterates(system, trace, lam):
    """x_{k+1} for every record k, rebuilt from the trace's rows and steps."""
    for k, dual in enumerate(replay_duals(system, trace)):
        yield soft_threshold(dual - trace.step[k] * system.rows[trace.chosen[k]], lam)


@pytest.mark.parametrize(
    "method,shape",
    [pytest.param("sskm", (600, 500), id="sskm"), pytest.param("rk", (600, 500), id="rk"),
     pytest.param("rk", (300, 200), id="rk-ref-shape")],
)
def test_run_residual_from_support_columns_equals_dense(monkeypatch, method, shape):
    # 600 x 500 is above the size gate. SSKM-exact's support grows and shrinks,
    # so columns enter and leave the block, one product per iteration; RK's
    # support is full, so its products, one per window of iterates, take the
    # dense fallback. On the 300 x 200 reference shape a window's product is
    # above the gate too, and RK's full support takes the dense fallback there
    m, n = shape
    system, x_hat, _ = gaussian_instance(m, n, 10, child_rng(5, m, n, 0))
    assert (system.rows.size >= solvers._BLOCK_MIN_ENTRIES) == (m == 600)
    block_sizes = []
    product = solvers._SupportColumns.product

    def spy(self, x):
        out = product(self, x)
        block_sizes.append(self.size)
        return out

    monkeypatch.setattr(solvers._SupportColumns, "product", spy)
    stop = StoppingRule(max_iters=60)
    if method == "sskm":
        lam, spec = 1.0, SolverSpec.sskm(1.0, 300, StepMode.EXACT, seed=3, stop=stop)
    else:
        lam, spec = 0.0, SolverSpec.rk(seed=3, stop=stop)
    _, trace = run(system, spec, ground_truth=x_hat, residuals=True)
    supports = []
    for k, x in enumerate(_iterates(system, trace, lam)):
        r = system.rows @ x - system.rhs
        assert trace.residual_norm2[k] == pytest.approx(float(np.dot(r, r)), rel=1e-12), k
        supports.append(np.count_nonzero(x))
    if method == "sskm":
        assert len(block_sizes) == trace.iterations
        assert block_sizes == supports
        steps = np.diff(supports)
        assert steps.max() > 0 and steps.min() < 0
    else:
        assert len(block_sizes) == -(-trace.iterations // solvers._WINDOW)
        assert set(supports) == {system.n} and set(block_sizes) == {0}


def test_support_columns_product_through_dense_and_back():
    # supports that grow, shrink, jump past the share limit (dense product)
    # and come back under it, where the block is rebuilt from the columns
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((600, 500))
    cols = solvers._SupportColumns(rows, 1)
    for size in (0, 3, 40, 90, 20, 130, 400, 500, 60, 0, 200, 125, 7):
        x = np.zeros(500)
        x[rng.choice(500, size, replace=False)] = rng.standard_normal(size)
        out = cols.product(x)
        assert np.allclose(out, rows @ x, rtol=0.0, atol=1e-12), size
        assert cols.size == (size if size <= cols.limit else 0)


def test_support_columns_below_the_size_gate_take_the_dense_product():
    # the gate counts the entries of the dense product the block replaces:
    # on 300 x 200 a width of 1 lies below it, so no support is held and
    # every product, of one iterate or of two, is the dense one bit for bit;
    # a window of 32 lies above it and holds its support
    rng = np.random.default_rng(13)
    rows = rng.standard_normal((300, 200))
    assert rows.size < solvers._BLOCK_MIN_ENTRIES <= 32 * rows.size
    cols = solvers._SupportColumns(rows, 1)
    for size in (0, 3, 40, 200):
        x = np.zeros(200)
        x[rng.choice(200, size, replace=False)] = rng.standard_normal(size)
        assert np.array_equal(cols.product(x), rows @ x), size
        xs = np.asfortranarray(np.stack([x, 2.0 * x], axis=1))
        assert np.array_equal(cols.product(xs), solvers._window_product(rows, xs)), size
        assert cols.size == 0
    window = solvers._SupportColumns(rows, 32)
    # supports that grow within 12 columns, as a sparse iterate's do
    pool = rng.choice(200, 12, replace=False)
    xs = np.zeros((200, 32), order="F")
    for j in range(32):
        size = 1 + j * 12 // 32
        xs[pool[:size], j] = rng.standard_normal(size)
    union = np.count_nonzero(xs.any(axis=1))
    assert 0 < union <= window.limit
    assert np.allclose(window.product(xs), rows @ xs, rtol=0.0, atol=1e-12)
    assert window.size == union


def test_run_support_block_memory_follows_support_not_n():
    m, n = 600, 4000
    system, x_hat, _ = gaussian_instance(m, n, 10, child_rng(3, m, n, 0))
    spec = SolverSpec.sskm(1.0, 300, StepMode.EXACT, seed=2, stop=StoppingRule(max_iters=40))
    tracemalloc.start()
    try:
        _, trace = run(system, spec, ground_truth=x_hat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    largest = max(np.count_nonzero(x) for x in _iterates(system, trace, 1.0))
    assert 0 < largest < 0.05 * n
    # the block's capacity stays under twice the largest support (or the first
    # 64 columns), and while it grows the old and new blocks coexist; the rest
    # is a few dozen vectors of length m or n
    block = 8 * m * 3 * max(solvers._FIRST_COLUMNS, largest)
    vectors = 32 * 8 * (m + n)
    assert peak < block + vectors < 0.2 * system.rows.nbytes


def test_support_columns_product_of_a_window():
    # a window's block of iterates takes the block of their joint support, or
    # the dense product when that union passes the share limit
    rng = np.random.default_rng(12)
    rows = rng.standard_normal((600, 500))
    cols = solvers._SupportColumns(rows, 1)
    for sizes in ((0, 0), (5, 30), (40, 0, 60), (100, 100), (3,)):
        xs = np.zeros((500, len(sizes)), order="F")
        for j, size in enumerate(sizes):
            xs[rng.choice(500, size, replace=False), j] = rng.standard_normal(size)
        union = np.count_nonzero(xs.any(axis=1))
        out = cols.product(xs)
        assert out.shape == (600, len(sizes))
        assert np.allclose(out, rows @ xs, rtol=0.0, atol=1e-12), sizes
        assert cols.size == (union if union <= cols.limit else 0), sizes


# (variant, lam): a window's product of 32 iterates lies above the size gate
# on both shapes, the 600 x 500 instance and the 300 x 200 reference shape.
# RK's full supports take the dense product, and so, over these 200
# iterations, do SRK-inexact's at lam = 0.05 (past the first window on
# 600 x 500) and SRK-exact's at lam = 1 on 300 x 200: their supports pass the
# share limit, a quarter of the columns. SRK-exact's windows at lam = 4 on
# both shapes, and at lam = 1 on 600 x 500, come from the support block
_WINDOWED = [("rk", 0.0), ("srk-inexact", 0.05), ("srk-exact", 1.0), ("srk-exact", 4.0)]


def _windowed_spec(variant, lam, stop):
    if variant == "rk":
        return SolverSpec.rk(seed=3, stop=stop)
    mode = StepMode(variant.split("-")[1])
    return SolverSpec.srk(lam, step_mode=mode, seed=3, stop=stop)


def _first_new_low(values, after, window, slot=None):
    """The first index past ``after`` whose value is clearly below every earlier one
    and which sits in slot ``slot`` of its window or, with ``slot`` None, does
    not end a window: a stop at it fires inside a window."""
    for j in range(after, values.size):
        at = (j + 1) % window != 0 if slot is None else j % window == slot
        if values[j] < values[:j].min() * (1 - 1e-6) and at:
            return j
    raise AssertionError("no new low")


@pytest.mark.parametrize(
    "case",
    ["budget-20", "budget-75", "budget-no-truth", "mse-stop", "mse-stop-first-iterate", "mse-stop-first-slot",
     "mse-stop-last-slot", "mse-stop-last-window"],
)
@pytest.mark.parametrize("variant,lam", _WINDOWED)
@pytest.mark.parametrize("shape", [(600, 500), (300, 200)])
def test_run_window_matches_one_product_per_iterate(monkeypatch, shape, variant, lam, case):
    # the reference solve takes a window of one: on 600 x 500 its products
    # still come from the support block, but on 300 x 200 a single iterate's
    # product lies below the size gate, so there the windows' products, from
    # the block where the supports fit (see _WINDOWED), are compared against
    # dense per-iterate products
    m, n = shape
    system, x_hat, _ = gaussian_instance(m, n, 10, child_rng(5, m, n, 0))
    window = solvers._WINDOW
    assert (system.rows.size >= solvers._BLOCK_MIN_ENTRIES) == (m == 600) and window > 1
    truth = None if case.endswith("no-truth") else x_hat

    def solve(stop, size):
        monkeypatch.setattr(solvers, "_WINDOW", size)
        return run(system, _windowed_spec(variant, lam, stop), ground_truth=truth, residuals=True)

    if case.startswith("budget"):
        # a budget below the window, one that is not a multiple of it, and
        # windows flushed with residuals and no truth
        size = case.split("-")[1]
        stop = StoppingRule(max_iters=int(size) if size.isdigit() else 200)
    else:
        _, probe = solve(StoppingRule(max_iters=200), 1)
        # the stop on the first iterate, on a window's first or last slot, or inside it
        slot = {"first-slot": 0, "last-slot": window - 1}.get(case.split("-stop-")[-1])
        j = 0 if case.endswith("first-iterate") else _first_new_low(probe.mse, 40, window, slot)
        budget = 200
        if case.endswith("last-window"):
            # the budget ends the window that holds the stop early
            budget = j + 5
            assert budget % window and j // window == (budget - 1) // window
        stop = StoppingRule(max_iters=budget, mse_target=float(probe.mse[j]))
    pair, trace = solve(stop, window)
    ref_pair, ref = solve(stop, 1)

    if case.startswith("budget"):
        assert ref.status is RunStatus.MAX_ITERS and ref.iterations == stop.max_iters
    else:
        assert ref.status is RunStatus.CONVERGED and ref.iterations == j + 1
    for name in ("chosen", "step", "mse", "bregman_to_truth"):
        if truth is None and name in ("mse", "bregman_to_truth"):
            assert getattr(trace, name) is None and getattr(ref, name) is None
        else:
            assert np.array_equal(getattr(trace, name), getattr(ref, name)), name
    assert (trace.status, trace.iterations) == (ref.status, ref.iterations)
    assert np.array_equal(pair.primal, ref_pair.primal)
    assert np.array_equal(pair.dual, ref_pair.dual)
    assert pair.lam == ref_pair.lam
    assert trace.residual_norm2.shape == ref.residual_norm2.shape
    assert trace.residual_norm2 == pytest.approx(ref.residual_norm2, rel=1e-12)


def test_run_srk_windows_hold_the_support_block_on_the_reference_shape(monkeypatch):
    # the 300 x 200 reference shape holds fewer than 2**18 entries, but a
    # window's product of 32 iterates more: SRK's windows take the support
    # block, while RK's full supports are rejected on each window's newest
    # iterate and never gather a column
    system, x_hat, _ = gaussian_instance(300, 200, 5, child_rng(42, 0, 0))
    assert system.rows.size < solvers._BLOCK_MIN_ENTRIES <= system.rows.size * solvers._WINDOW
    product, append = solvers._SupportColumns.product, solvers._SupportColumns._append
    calls = []

    def spy_product(self, x):
        out = product(self, x)
        calls.append(("product", x.shape[1], self.limit, self.size))
        return out

    def spy_append(self, new):
        calls.append(("append", new.size))
        return append(self, new)

    monkeypatch.setattr(solvers._SupportColumns, "product", spy_product)
    monkeypatch.setattr(solvers._SupportColumns, "_append", spy_append)
    stop = StoppingRule(max_iters=200)
    for spec in (SolverSpec.srk(1.0, step_mode=StepMode.INEXACT, seed=1, stop=stop), SolverSpec.rk(seed=1, stop=stop)):
        calls.clear()
        run(system, spec, ground_truth=x_hat, residuals=True)
        flushes = [c for c in calls if c[0] == "product"]
        assert [c[1] for c in flushes] == [solvers._WINDOW] * (200 // solvers._WINDOW) + [200 % solvers._WINDOW]
        assert {c[2] for c in flushes} == {system.n // 4}
        sizes = [c[3] for c in flushes]
        if spec.lam > 0.0:
            assert max(sizes) > 0 and any(c[0] == "append" for c in calls)
        else:
            assert set(sizes) == {0} and all(c[0] == "product" for c in calls)


def _spy_residual_products(monkeypatch):
    """Counts the support blocks run builds and the residual products it takes."""
    calls = {"block": 0, "product": 0, "window_product": 0}

    def counted(name, f):
        def spy(*args):
            calls[name] += 1
            return f(*args)
        return spy

    columns = solvers._SupportColumns
    monkeypatch.setattr(columns, "__init__", counted("block", columns.__init__))
    monkeypatch.setattr(columns, "product", counted("product", columns.product))
    monkeypatch.setattr(solvers, "_window_product", counted("window_product", solvers._window_product))
    return calls


@pytest.mark.parametrize("case", ["mse-stop", "budget", "no-truth"])
@pytest.mark.parametrize("variant", ["rk", "srk-inexact", "srk-exact", "sskm-inexact", "sskm-exact"])
@pytest.mark.parametrize("shape", [(600, 500), (300, 200)])
def test_run_takes_residual_products_only_where_they_are_read(monkeypatch, shape, variant, case):
    # 600 x 500 lies above the size gate of the support block for a single
    # iterate, 300 x 200 only for a window. Without the residual record,
    # uniform rows under the MSE stop or a bare budget, with or without a
    # truth, read no residual at all, and greedy rows take the product that
    # picks the next row but none after the last iterate. A greedy product is taken only at an iterate whose
    # primal is nonzero (the residual at x = 0 is -b) and moved (a step of
    # zero after the first leaves it). The record aside, the run is the one
    # with the record, bit for bit
    m, n = shape
    system, x_hat, _ = gaussian_instance(m, n, 10, child_rng(5, m, n, 0))
    assert (system.rows.size >= solvers._BLOCK_MIN_ENTRIES) == (m == 600)
    method, _, mode = variant.partition("-")

    def spec(stop):
        if method == "rk":
            return SolverSpec.rk(seed=3, stop=stop)
        if method == "srk":
            return SolverSpec.srk(1.0, step_mode=StepMode(mode), seed=3, stop=stop)
        return SolverSpec.sskm(1.0, m // 2, step_mode=StepMode(mode), seed=3, stop=stop)

    # an MSE stop that the 200-iteration budget ends, or no truth to stop on
    stop = StoppingRule(max_iters=200, mse_target=0.0)
    truth = None if case == "no-truth" else x_hat
    if case == "mse-stop":
        # a stop met inside the 200-iteration budget, and inside a window of 32
        _, probe = run(system, spec(stop), ground_truth=x_hat, residuals=True)
        stop = StoppingRule(max_iters=200, mse_target=float(probe.mse[60]))
    calls = _spy_residual_products(monkeypatch)
    counts = {}
    runs = {}
    for residuals in (True, False):
        for name in calls:
            calls[name] = 0
        runs[residuals] = run(system, spec(stop), ground_truth=truth, residuals=residuals)
        counts[residuals] = dict(calls)
    (pair_on, on), (pair_off, off) = runs[True], runs[False]

    iterations = on.iterations
    assert on.status is (RunStatus.CONVERGED if case == "mse-stop" else RunStatus.MAX_ITERS)
    assert on.residual_norm2.shape == (iterations,) and off.residual_norm2 is None
    assert (on.mse is None) == (off.mse is None) == (truth is None)
    for name in ("chosen", "step", "mse", "bregman_to_truth"):
        assert np.array_equal(getattr(off, name), getattr(on, name)), name
    assert (off.status, off.iterations) == (on.status, iterations)
    assert np.array_equal(pair_off.primal, pair_on.primal)
    assert np.array_equal(pair_off.dual, pair_on.dual)

    if method == "sskm":
        # (moved, nonzero) of each iterate, rebuilt from the trace
        lam = spec(stop).lam
        iterates = [(k == 0 or on.step[k] != 0.0, bool(x.any())) for k, x in enumerate(_iterates(system, on, lam))]
        taken = iterates.count((True, True))
        assert counts[True] == {"block": 1, "product": taken, "window_product": 0}
        if iterates[-1] == (True, True):
            taken -= 1
        assert counts[False] == {"block": 1, "product": taken, "window_product": 0}
    else:
        windows = -(-iterations // solvers._WINDOW)
        assert counts[True] == {"block": 1, "product": windows, "window_product": windows}
        assert counts[False] == {"block": 0, "product": 0, "window_product": 0}


def _overflowing_system():
    # two copies of one row with rhs +-1e308: the projections alternate and
    # overflow to inf within a few iterations
    return LinearSystem(rows=np.array([[1.0], [1.0]]), rhs=np.array([1e308, -1e308]), row_scales=np.ones(2))


def _overflow_specs(stop):
    """RK, and SSKM with beta = 2, whose greedy pick takes the overflowing row
    at its second iteration; both exit through run's one loop."""
    return SolverSpec.rk(seed=0, stop=stop), SolverSpec.sskm(0.0, 2, StepMode.INEXACT, seed=0, stop=stop)


@pytest.mark.parametrize("window", [32, 1])
def test_run_window_raises_at_the_same_non_finite_iteration(monkeypatch, window):
    monkeypatch.setattr(solvers, "_WINDOW", window)
    rk, sskm = _overflow_specs(StoppingRule(max_iters=100))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteIterateError, match="iteration 3"):
            run(_overflowing_system(), rk)
        with pytest.raises(NonFiniteIterateError, match="step value became non-finite at iteration 1"):
            run(_overflowing_system(), sskm)


@pytest.mark.parametrize("window", [32, 1])
def test_run_window_mse_stop_before_a_non_finite_iterate_does_not_raise(monkeypatch, window):
    # every relative error meets an infinite MSE target, so the run stops after
    # its first iterate; with a window of 32 the stop is tested only when
    # iteration 3 overflows, and the held iterate that met it is returned
    monkeypatch.setattr(solvers, "_WINDOW", window)
    system = _overflowing_system()
    for spec in _overflow_specs(StoppingRule(max_iters=100, mse_target=np.inf)):
        with np.errstate(over="ignore", invalid="ignore"):
            pair, trace = run(system, spec, ground_truth=np.ones(1))
        assert trace.status is RunStatus.CONVERGED and trace.iterations == 1
        assert trace.mse.shape == trace.bregman_to_truth.shape == (1,)
        i = int(trace.chosen[0])
        assert np.array_equal(pair.primal, system.rhs[i : i + 1])


def test_run_window_memory_follows_iterations_not_budget():
    # RK above the size gate, to the same MSE stop under two budgets: the
    # window buffers are sized by the window, the records by the work done
    m, n = 600, 500
    system, x_hat, _ = gaussian_instance(m, n, 10, child_rng(5, m, n, 0))
    peaks = []
    for max_iters in (10**3, 10**7):
        spec = SolverSpec.rk(seed=3, stop=StoppingRule(max_iters=max_iters, mse_target=0.5))
        tracemalloc.start()
        try:
            _, trace = run(system, spec, ground_truth=x_hat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.status is RunStatus.CONVERGED and 100 < trace.iterations < 1000
        peaks.append(peak)
    # iterates and duals n x w, products and residuals w x m, five 1024-entry
    # records, and a few dozen vectors of length m or n
    bound = 8 * solvers._WINDOW * (2 * n + 3 * m) + 5 * 8 * 1024 + 32 * 8 * (m + n)
    assert peaks[1] <= peaks[0] + 4096
    assert max(peaks) < bound


@pytest.mark.parametrize("mode", [StepMode.INEXACT, StepMode.EXACT])
def test_run_sskm_windows_are_the_pick_index_stream(mode):
    # run draws the subsets of 32 iterations with one rng.random((32, m))
    # call; pick_index draws one rng.random(m) a step: one stream, over
    # several full windows and a partial one
    system, x_hat, _ = small_instance(seed=6, m=40, n=20, k=3)
    spec = SolverSpec.sskm(1.0, 13, step_mode=mode, seed=21, stop=StoppingRule(max_iters=100))
    pair, trace = run(system, spec, ground_truth=x_hat)
    assert trace.iterations == 100
    rng = np.random.default_rng(spec.sampler.seed)
    state = init_state(system.n, spec.lam)
    for k in range(trace.iterations):
        i = pick_index(spec.sampler, system, rng, residual(system, state.primal))
        assert i == trace.chosen[k], k
        state = step_once(state, system, i, mode)
    assert np.array_equal(state.primal, pair.primal)
    assert np.array_equal(state.dual, pair.dual)


@pytest.mark.parametrize("budget", [1, 25, 33, 65])
def test_run_sskm_budget_repeats_the_full_solve_rows(budget):
    # a shorter budget draws shorter windows, which must not change the stream
    system, x_hat, _ = small_instance(seed=7, m=30, n=20, k=3)
    full_spec = SolverSpec.sskm(1.0, 15, StepMode.INEXACT, seed=5, stop=StoppingRule(max_iters=100))
    _, full = run(system, full_spec, ground_truth=x_hat, residuals=True)
    spec = SolverSpec.sskm(1.0, 15, StepMode.INEXACT, seed=5, stop=StoppingRule(max_iters=budget))
    _, short = run(system, spec, ground_truth=x_hat, residuals=True)
    assert short.iterations == budget
    for name in ("chosen", "step", "residual_norm2", "mse", "bregman_to_truth"):
        assert np.array_equal(getattr(short, name), getattr(full, name)[:budget]), name


def test_run_sskm_window_size_leaves_the_stream_alone(monkeypatch):
    # on systems with many rows a window draws fewer subsets, by the same stream
    system, x_hat, _ = small_instance(seed=8, m=50, n=20, k=3)
    spec = SolverSpec.sskm(1.0, 20, StepMode.EXACT, seed=2, stop=StoppingRule(max_iters=70))
    _, ref = run(system, spec, ground_truth=x_hat)
    monkeypatch.setattr(solvers, "_WINDOW_KEYS", 3 * system.m)
    _, small = run(system, spec, ground_truth=x_hat)
    assert np.array_equal(small.chosen, ref.chosen)
    assert np.array_equal(small.step, ref.step)


def test_run_greedy_records_grow_inside_a_window(monkeypatch):
    # with windows of 3 greedy iterations the window at 1023 straddles the
    # first 1024 records, which must grow at its start
    system, x_hat, _ = small_instance(seed=8, m=30, n=20, k=3)
    spec = SolverSpec.sskm(1.0, 10, StepMode.INEXACT, seed=4, stop=StoppingRule(max_iters=1100))
    _, ref = run(system, spec, ground_truth=x_hat, residuals=True)
    monkeypatch.setattr(solvers, "_WINDOW_KEYS", 3 * system.m)
    _, trace = run(system, spec, ground_truth=x_hat, residuals=True)
    assert trace.iterations == ref.iterations == 1100
    for name in ("chosen", "step", "residual_norm2", "mse", "bregman_to_truth"):
        assert np.array_equal(getattr(trace, name), getattr(ref, name)), name


@pytest.mark.parametrize("gate", [solvers._RANK_SCAN_MIN_ROWS, 1], ids=["subsets", "rank-scan"])
@pytest.mark.parametrize("beta", [0, 21, True, 2.5])
def test_run_sskm_rejects_beta_outside_one_to_m(monkeypatch, beta, gate):
    # with the row gate at 1, beta = 21 > m would take the rank scan, which draws keys unchecked
    monkeypatch.setattr(solvers, "_RANK_SCAN_MIN_ROWS", gate)
    system, _, _ = small_instance(seed=9, m=20)

    def no_step(*args):
        raise AssertionError("stepped before the beta check")

    monkeypatch.setattr(solvers, "_step_into", no_step)
    with pytest.raises(InvalidBetaError):
        run(system, SolverSpec.sskm(1.0, beta, seed=1, stop=StoppingRule(max_iters=50)))


@pytest.mark.parametrize(
    "truth,error",
    [pytest.param(np.ones(19), DimensionMismatchError, id="short"),
     pytest.param(np.ones((20, 1)), DimensionMismatchError, id="column"),
     pytest.param(np.r_[np.ones(19), np.nan], NonFiniteDataError, id="nan"),
     pytest.param(np.r_[np.ones(19), -np.inf], NonFiniteDataError, id="inf"),
     pytest.param(np.zeros(20), ZeroTruthError, id="zero"),
     # a cast to float kept the real part, and the MSE was recorded against it
     pytest.param(np.r_[1 + 1j, np.ones(19)], TypeError, id="complex")],
)
@pytest.mark.parametrize("method", ["rk", "sskm"])
def test_run_checks_the_ground_truth_before_the_first_step(monkeypatch, method, truth, error):
    system, _, _ = small_instance(seed=9, m=30, n=20)

    def no_step(*args):
        raise AssertionError("stepped before the ground-truth check")

    monkeypatch.setattr(solvers, "_step_into", no_step)
    stop = StoppingRule(max_iters=50, mse_target=1e-6)
    spec = SolverSpec.rk(seed=1, stop=stop) if method == "rk" else SolverSpec.sskm(1.0, 10, seed=1, stop=stop)
    with pytest.raises(error, match="ground.truth"):
        run(system, spec, ground_truth=truth)


@pytest.mark.parametrize(
    "kwargs,field",
    [({"mse_target": float("nan")}, "mse_target"),
     ({"mse_target": -1e-6}, "mse_target"),
     ({"max_iters": 2.5}, "max_iters"),
     ({"max_iters": 100.0}, "max_iters"),
     ({"max_iters": True}, "max_iters"),
     ({"max_iters": np.bool_(True)}, "max_iters"),
     ({"max_iters": 0}, "max_iters")],
)
def test_stopping_rule_refuses_bad_values(kwargs, field):
    with pytest.raises(ValueError, match=field):
        StoppingRule(**kwargs)


def test_stopping_rule_accepts_numpy_integers_and_infinite_tolerances():
    stop = StoppingRule(max_iters=np.int64(7), mse_target=np.inf)
    system, x_hat, _ = small_instance(seed=3)
    _, trace = run(system, SolverSpec.srk(1.0, seed=1, stop=stop), ground_truth=x_hat)
    assert trace.status is RunStatus.CONVERGED and trace.iterations == 1


def test_every_run_stops_on_its_truth_or_its_budget():
    # no stop reads the residual: a run with no truth spends its budget
    with pytest.raises(TypeError, match="epsilon"):
        StoppingRule(epsilon=1e-3)
    system, _, _ = small_instance(seed=3)
    stop = StoppingRule(max_iters=45, mse_target=np.inf)
    for spec in (SolverSpec.srk(1.0, seed=1, stop=stop), SolverSpec.sskm(1.0, 10, seed=1, stop=stop)):
        _, trace = run(system, spec, residuals=True)
        assert trace.status is RunStatus.MAX_ITERS and trace.iterations == 45
        assert trace.mse is None and trace.residual_norm2.shape == (45,)


@pytest.mark.parametrize(
    "make,error,field",
    [(lambda: SolverSpec.srk(float("nan")), ValueError, "lam"),
     (lambda: SolverSpec.srk(float("inf")), ValueError, "lam"),
     (lambda: SolverSpec.sskm(-np.inf, 5), ValueError, "lam"),
     (lambda: SolverSpec.sskm(1.0, 2.5), InvalidBetaError, "beta"),
     (lambda: SolverSpec.sskm(1.0, 5.0), InvalidBetaError, "beta"),
     (lambda: SolverSpec.sskm(1.0, True), InvalidBetaError, "beta")],
)
def test_solver_spec_refuses_bad_values(make, error, field):
    with pytest.raises(error, match=field):
        make()


def test_solver_spec_accepts_a_numpy_integer_beta():
    system, x_hat, _ = small_instance(seed=3)
    spec = SolverSpec.sskm(1.0, np.int64(10), seed=1, stop=StoppingRule(max_iters=40))
    _, trace = run(system, spec, ground_truth=x_hat)
    _, ref = run(system, SolverSpec.sskm(1.0, 10, seed=1, stop=StoppingRule(max_iters=40)), ground_truth=x_hat)
    assert np.array_equal(trace.chosen, ref.chosen)
