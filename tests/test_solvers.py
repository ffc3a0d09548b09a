import tracemalloc

import numpy as np
import pytest

from sparsekaczmarz import (
    DualPair,
    LinearSystem,
    Method,
    RunStatus,
    SamplerConfig,
    SelectionRule,
    SolverSpec,
    StepMode,
    StoppingRule,
    bregman_distance,
    child_rng,
    gaussian_instance,
    init_state,
    inexact_step,
    normalize_rows,
    objective_value,
    replay_duals,
    residual,
    run,
    soft_threshold,
    step_once,
)
from sparsekaczmarz import solvers
from sparsekaczmarz.errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidBetaError,
    NonFiniteDataError,
    NonFiniteIterateError,
    ZeroTruthError,
)
from sparsekaczmarz.sampling import pick_index

from oracles import orthogonal_projection


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
    state = DualPair.from_dual(np.array([3.0, 4.0]), 0.0)
    moved = step_once(state, system, 0, StepMode.INEXACT)
    assert np.array_equal(moved.primal, [1.0, 4.0])
    expected = orthogonal_projection(state.primal, system.rows[0], system.rhs[0])
    assert np.max(np.abs(moved.primal - expected)) < 1e-15


@pytest.mark.parametrize("i", [-1, 2])
def test_step_once_refuses_a_row_outside_the_system(i):
    # -1 would step on the last row and m would raise numpy's own IndexError
    system = normalize_rows([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0])
    state = DualPair.from_dual(np.array([3.0, 4.0]), 0.0)
    with pytest.raises(IndexOutOfRangeError, match=rf"row index {i} outside \[0, 2\)"):
        step_once(state, system, i, StepMode.INEXACT)


def test_step_once_noop_on_satisfied_row():
    rng = np.random.default_rng(1)
    system, x_hat, _ = small_instance(seed=1)
    state = DualPair.from_dual(x_hat + 1.0 * np.sign(x_hat), 1.0)
    # build a state already on row 0's hyperplane
    state = DualPair.from_dual(np.zeros(system.n), 1.0)
    b0 = float(system.rhs[0])
    # move once onto the hyperplane, then a second exact step must not move
    on_plane = step_once(state, system, 0, StepMode.EXACT)
    again = step_once(on_plane, system, 0, StepMode.EXACT)
    assert np.max(np.abs(again.dual - on_plane.dual)) < 1e-12
    assert abs(np.dot(system.rows[0], on_plane.primal) - b0) < 1e-10


def test_step_once_bregman_decrease_with_lam():
    system, x_hat, _ = small_instance(seed=2)
    rng = np.random.default_rng(3)
    state = DualPair.from_dual(rng.standard_normal(system.n), 1.0)
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
    # the smallest index: the rows are taken in order, each once
    n = 6
    system = normalize_rows(np.eye(n), np.ones(n))
    spec = SolverSpec.sskm(0.0, n, StepMode.INEXACT, stop=StoppingRule(epsilon=1e-12, max_iters=100))
    pair, trace = run(system, spec)
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
            if spec.method is Method.SSKM:
                assert trace.residual_norm2[k] == expected, (name, k)
            else:
                assert trace.residual_norm2[k] == pytest.approx(expected, rel=1e-12), (name, k)
        assert np.array_equal(state.primal, pair.primal), name
        assert np.array_equal(state.dual, pair.dual), name


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


def test_run_mse_target_takes_precedence_over_epsilon():
    system, x_hat, _ = small_instance(seed=8)
    # epsilon so loose it would stop immediately; mse target must rule instead
    spec = SolverSpec.sskm(
        1.0,
        10,
        seed=4,
        stop=StoppingRule(epsilon=1e6, max_iters=5000, mse_target=1e-8),
    )
    _, trace = run(system, spec, ground_truth=x_hat)
    assert trace.status is RunStatus.CONVERGED
    assert trace.final_mse <= 1e-8
    assert trace.iterations > 1


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


def test_spec_invariants():
    with pytest.raises(ValueError):
        SolverSpec(
            method=Method.RK,
            lam=1.0,
            step_mode=StepMode.INEXACT,
            sampler=SamplerConfig(rule=SelectionRule.UNIFORM_RANDOM),
            stop=StoppingRule(),
        )
    with pytest.raises(ValueError):
        SolverSpec(
            method=Method.SSKM,
            lam=1.0,
            step_mode=StepMode.EXACT,
            sampler=SamplerConfig(rule=SelectionRule.UNIFORM_RANDOM),
            stop=StoppingRule(),
        )
    # run reads only the rule, so a greedy RK or SRK would run SSKM's rows under its label
    for method, lam in ((Method.RK, 0.0), (Method.SRK, 1.0)):
        with pytest.raises(ValueError, match="greedy"):
            SolverSpec(
                method=method,
                lam=lam,
                step_mode=StepMode.INEXACT,
                sampler=SamplerConfig(rule=SelectionRule.SKM_GREEDY, beta=10),
                stop=StoppingRule(),
            )


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
        expected = bregman_distance(DualPair.from_dual(dual, lam), x_hat)
        assert abs(trace.bregman_to_truth[k] - expected) <= tol, k


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
    ["budget-20", "budget-75", "mse-stop", "mse-stop-first-slot", "mse-stop-last-slot",
     "epsilon-stop", "epsilon-stop-last-window", "epsilon-stop-no-truth"],
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
        # a budget below the window, and one that is not a multiple of it
        stop = StoppingRule(max_iters=int(case.split("-")[1]))
    else:
        _, probe = solve(StoppingRule(max_iters=200), 1)
        # the stop on a window's first or last slot, or inside it
        slot = {"first-slot": 0, "last-slot": window - 1}.get(case.split("-stop-")[-1])
        if case.startswith("mse-stop"):
            j = _first_new_low(probe.mse, 40, window, slot)
            stop = StoppingRule(max_iters=200, mse_target=float(probe.mse[j]))
        else:
            j = _first_new_low(probe.residual_norm2, 40, window)
            budget = 200
            if case.endswith("last-window"):
                # the budget ends the window that holds the stop early
                budget = j + 5
                assert budget % window and j // window == (budget - 1) // window
            stop = StoppingRule(max_iters=budget, epsilon=float(np.sqrt(probe.residual_norm2[j] * (1 + 1e-9))))
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
        if spec.method is Method.SRK:
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


@pytest.mark.parametrize("case", ["mse-stop", "budget", "epsilon-stop", "epsilon-budget"])
@pytest.mark.parametrize("variant", ["rk", "srk-inexact", "srk-exact", "sskm-inexact", "sskm-exact"])
@pytest.mark.parametrize("shape", [(600, 500), (300, 200)])
def test_run_takes_residual_products_only_where_they_are_read(monkeypatch, shape, variant, case):
    # 600 x 500 lies above the size gate of the support block for a single
    # iterate, 300 x 200 only for a window. Without the residual record,
    # uniform rows under the MSE stop or a bare budget read no residual at all,
    # and greedy rows take the product that picks the next row but none after
    # the last iterate; the epsilon stop takes every product it tests. The
    # record aside, the run is the one with the record, bit for bit
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

    # an MSE stop, or an epsilon stop, that the 200-iteration budget ends
    stop = StoppingRule(max_iters=200, mse_target=0.0)
    if case == "epsilon-budget":
        stop = StoppingRule(max_iters=200, epsilon=0.0)
    elif case != "budget":
        # a stop met inside the 200-iteration budget, and inside a window of 32
        _, probe = run(system, spec(stop), ground_truth=x_hat, residuals=True)
        if case == "mse-stop":
            stop = StoppingRule(max_iters=200, mse_target=float(probe.mse[60]))
        else:
            stop = StoppingRule(max_iters=200, epsilon=float(np.sqrt(probe.residual_norm2[60] * (1 + 1e-9))))
    calls = _spy_residual_products(monkeypatch)
    counts = {}
    runs = {}
    for residuals in (True, False):
        for name in calls:
            calls[name] = 0
        runs[residuals] = run(system, spec(stop), ground_truth=x_hat, residuals=residuals)
        counts[residuals] = dict(calls)
    (pair_on, on), (pair_off, off) = runs[True], runs[False]

    iterations = on.iterations
    assert on.status is (RunStatus.MAX_ITERS if case.endswith("budget") else RunStatus.CONVERGED)
    assert on.residual_norm2.shape == (iterations,) and off.residual_norm2 is None
    for name in ("chosen", "step", "mse", "bregman_to_truth"):
        assert np.array_equal(getattr(off, name), getattr(on, name)), name
    assert (off.status, off.iterations) == (on.status, iterations)
    assert np.array_equal(pair_off.primal, pair_on.primal)
    assert np.array_equal(pair_off.dual, pair_on.dual)

    if method == "sskm":
        assert counts[True] == {"block": 1, "product": iterations, "window_product": 0}
        taken = iterations if case.startswith("epsilon") else iterations - 1
        assert counts[False] == {"block": 1, "product": taken, "window_product": 0}
    else:
        windows = -(-iterations // solvers._WINDOW)
        assert counts[True] == {"block": 1, "product": windows, "window_product": windows}
        if case.startswith("epsilon"):
            assert counts[False] == counts[True]
        else:
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
def test_run_window_stop_before_a_non_finite_iterate_does_not_raise(monkeypatch, window):
    # every residual meets an infinite epsilon, so the run stops after its first
    # iterate, whether or not iterates 2 and 3 were held in a window when
    # iteration 3 overflowed
    monkeypatch.setattr(solvers, "_WINDOW", window)
    system = _overflowing_system()
    for spec in _overflow_specs(StoppingRule(max_iters=100, epsilon=np.inf)):
        with np.errstate(over="ignore", invalid="ignore"):
            pair, trace = run(system, spec)
        assert trace.status is RunStatus.CONVERGED and trace.iterations == 1
        i = int(trace.chosen[0])
        assert np.array_equal(pair.primal, system.rhs[i : i + 1])


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


@pytest.mark.parametrize("beta", [0, 21, True, 2.5])
def test_run_sskm_rejects_beta_outside_one_to_m(monkeypatch, beta):
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
     pytest.param(np.zeros(20), ZeroTruthError, id="zero")],
)
@pytest.mark.parametrize("method", ["rk", "sskm"])
def test_run_checks_the_ground_truth_before_the_first_step(monkeypatch, method, truth, error):
    system, _, _ = small_instance(seed=9, m=30, n=20)

    def no_step(*args):
        raise AssertionError("stepped before the ground-truth check")

    monkeypatch.setattr(solvers, "_step_into", no_step)
    stop = StoppingRule(max_iters=50, mse_target=1e-6)
    spec = SolverSpec.rk(seed=1, stop=stop) if method == "rk" else SolverSpec.sskm(1.0, 10, seed=1, stop=stop)
    with pytest.raises(error):
        run(system, spec, ground_truth=truth)


@pytest.mark.parametrize(
    "kwargs,field",
    [({"epsilon": float("nan")}, "epsilon"),
     ({"epsilon": -1e-3}, "epsilon"),
     ({"mse_target": float("nan")}, "mse_target"),
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
    stop = StoppingRule(epsilon=np.inf, max_iters=np.int64(7), mse_target=np.inf)
    system, x_hat, _ = small_instance(seed=3)
    _, trace = run(system, SolverSpec.srk(1.0, seed=1, stop=stop), ground_truth=x_hat)
    assert trace.status is RunStatus.CONVERGED and trace.iterations == 1


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
