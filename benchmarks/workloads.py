"""The two workloads of the sparsekaczmarz benchmark.

Every workload is a closed loop with one client in one process: the next
operation starts when the previous one has returned. A workload first runs a
verification pass, untimed: every solve once in full, as a user runs it. The
pass gives the iteration counts, the solve records that the traced replay and
the theory reports use, and the reference that every timed solve is checked
against. The timed loop then runs its operations in order, and again
from the start, until the measuring time is up and every operation has run at
least twice; a repeated operation repeats exactly the same work. Every
operation's output is checked, and an operation that raises counts as failed
without stopping the loop.

Inputs. The workload seed drives every solver's sampling stream, through
``child_seed(seed, m, k, i, 2, method, mode)`` as ``compare_methods`` derives
it for trial ``i``. The instances come from the reference protocol at master
seed 0
(``child_rng(0, m, k, i, 0)``), the same on every run: iteration counts to
1e-6 are heavy-tailed across random instances (an instance with a tiny
nonzero truth entry can need 20 times the median count), and with the
instances fixed they move only with the sampling stream, which is what a
change to the solvers moves.

Timing. On a shared 2-core virtual machine the speed of one process was seen
to change by up to 1.5 times for whole 30-second runs, with what else the
host runs; within a slow stretch, the full speed still comes back for tens of
milliseconds at a time. So a timed solve is short: each variant's solves are
timed on their first ``prefix[variant]`` iterations (the same ``run`` call
with ``max_iters`` set to the prefix, which must repeat the full solve's
chosen rows and step values bit for bit), a few milliseconds each on that
machine. Every call is timed on every repetition, and every figure is built
from each call's fastest repetition, as ``timeit`` reports. Iteration counts
come from the verification pass, as geometric means over its solves.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import sparsekaczmarz as sk
from sparsekaczmarz import harness

clock = time.perf_counter

VARIANTS = ("rk", "srk-inexact", "srk-exact", "sskm-inexact", "sskm-exact")
# (method id, step-mode id) as the harness numbers them in child_seed
_VARIANT_IDS = {
    "rk": (0, 0),
    "srk-inexact": (1, 0),
    "srk-exact": (1, 1),
    "sskm-inexact": (2, 0),
    "sskm-exact": (2, 1),
}
INSTANCE_SEED = 0
MSE_TARGET = 1e-6
# slack for theory checks, the tolerance acceptance criterion 6 uses
THEORY_TOL = 1e-9
# set-up is short next to the loop, so it is repeated and its median reported
SETUP_REPEATS = 7
# every timed operation runs at least this many times
MIN_REPS = 2

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    **{f"{v}.us_per_iter": "us" for v in VARIANTS},
    **{f"{v}.iters": "count" for v in VARIANTS},
}


@dataclass(frozen=True)
class SolveSizes:
    """One paired-instance workload: instance shape, solver knobs, pool sizes.

    ``pool`` instances are solved by every sparse variant. RK, which needs
    about 40 times more iterations than SSKM-inexact on the reference
    instance, solves ``rk_pool`` of them, spread evenly over the pool.
    ``converge`` says whether every solve must reach the MSE target within
    ``max_iters``, or whether ``max_iters`` is a fixed budget every solve runs
    to. The timed loop runs each solve's first ``prefix[variant]`` iterations
    (the whole solve when it is shorter). The verification pass also builds
    the theory report of the SSKM-exact solve of the first ``report_pool``
    instances.
    """

    m: int
    n: int
    k: int
    lam: float
    beta: int
    pool: int
    rk_pool: int
    max_iters: int
    prefix: dict
    converge: bool = True
    report_pool: int = 0


SIZES = {
    "ref": SolveSizes(
        m=300, n=200, k=5, lam=1.0, beta=150, pool=12, rk_pool=4, max_iters=200_000,
        prefix={"rk": 200, "srk-inexact": 200, "srk-exact": 50, "sskm-inexact": 50, "sskm-exact": 25},
        report_pool=2,
    ),
    "large": SolveSizes(
        m=2000, n=1000, k=20, lam=1.0, beta=1000, pool=6, rk_pool=6, max_iters=20,
        prefix={"rk": 10, "srk-inexact": 10, "srk-exact": 6, "sskm-inexact": 5, "sskm-exact": 3},
        converge=False,
    ),
}

# tiny sizes for the benchmark's own self-test
SMOKE_SIZES = {
    "ref": SolveSizes(
        m=30, n=20, k=2, lam=1.0, beta=15, pool=2, rk_pool=1, max_iters=200_000,
        prefix={"rk": 40, "srk-inexact": 40, "srk-exact": 10, "sskm-inexact": 10, "sskm-exact": 1000},
        report_pool=1,
    ),
    "large": SolveSizes(
        m=40, n=20, k=3, lam=1.0, beta=20, pool=2, rk_pool=2, max_iters=30,
        prefix={v: 30 for v in VARIANTS}, converge=False,
    ),
}


def variant_spec(variant: str, lam: float, beta: int, seed: int, stop) -> sk.SolverSpec:
    if variant == "rk":
        return sk.SolverSpec.rk(seed=seed, stop=stop)
    method, mode = variant.split("-")
    step = sk.StepMode(mode)
    if method == "srk":
        return sk.SolverSpec.srk(lam=lam, step_mode=step, seed=seed, stop=stop)
    return sk.SolverSpec.sskm(lam=lam, beta=beta, step_mode=step, seed=seed, stop=stop)


def variant_of(spec: sk.SolverSpec) -> str:
    if spec.method is sk.Method.RK:
        return "rk"
    return f"{spec.method.value}-{spec.step_mode.value}"


@dataclass(eq=False)
class Record:
    """What the benchmark keeps of one verification solve: enough to replay
    it, to check a timed repetition against it and to build a theory report
    on it (``iterations``, ``chosen`` and ``step`` are the attributes
    ``build_theory_report`` reads from a trace)."""

    variant: str
    instance: int
    system: sk.LinearSystem
    x_hat: np.ndarray
    spec: sk.SolverSpec
    iterations: int
    status: str
    chosen: np.ndarray
    step: np.ndarray
    wall: float

    @classmethod
    def of(cls, variant, instance, system, x_hat, spec, trace, wall) -> "Record":
        # copies, so the max_iters-long record arrays of run() are freed
        return cls(
            variant=variant,
            instance=instance,
            system=system,
            x_hat=x_hat,
            spec=spec,
            iterations=trace.iterations,
            status=trace.status.value,
            chosen=trace.chosen.copy(),
            step=trace.step.copy(),
            wall=wall,
        )

    def repeats(self, trace) -> bool:
        """A timed solve chose the same rows and steps as this one, bit for bit."""
        n = trace.iterations
        return (
            n <= self.iterations
            and np.array_equal(trace.chosen, self.chosen[:n])
            and np.array_equal(trace.step, self.step[:n])
        )

    def counts(self) -> dict:
        return {
            "instance": self.instance, "m": self.system.m, "k": int(np.count_nonzero(self.x_hat)),
            "variant": self.variant, "seed": self.spec.sampler.seed,
            "iters": self.iterations, "status": self.status,
        }


class Tally:
    """Operations attempted and failed, and the fastest time of each timed solve.

    ``solves`` maps each timed solve to its fastest ``run`` call and
    ``solve_iters`` to its variant and iteration count. ``iters`` holds the
    verification pass's iteration counts.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.solves = {}
        self.solve_iters = {}
        self.iters = defaultdict(list)
        self.run_iters = 0  # iterations run by the user-sized solves
        self.run_budget = 0  # max_iters those solves preallocated

    def attempt(self, op, *args) -> None:
        self.attempted += 1
        try:
            ok = op(*args)
        except Exception:  # a failed operation is counted, the loop goes on
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            self.failed += 1

    def add_solve(self, key, variant: str, seconds: float, iterations: int) -> None:
        self.solves[key] = min(seconds, self.solves.get(key, math.inf))
        self.solve_iters[key] = (variant, iterations)

    def add_verified(self, variant: str, iterations: int, max_iters: int) -> None:
        self.iters[variant].append(iterations)
        self.run_iters += iterations
        self.run_budget += max_iters

    @property
    def wall_s(self) -> float:
        """One pass of the timed loop, each solve at its fastest."""
        return sum(self.solves.values())

    def us_per_iter(self, variant: str) -> float:
        keys = [key for key, (v, _) in self.solve_iters.items() if v == variant]
        iterations = sum(self.solve_iters[key][1] for key in keys)
        return sum(self.solves[key] for key in keys) / iterations * 1e6 if iterations else 0.0

    def mean_iters(self, variant: str) -> float:
        its = self.iters[variant]
        return float(np.exp(np.mean(np.log(its)))) if its else 0.0

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0


def closed_loop(ops, seconds: float, tally: Tally) -> None:
    """Run ``ops`` in order, cycling, until ``seconds`` have elapsed and every
    op has run at least MIN_REPS times."""
    start = clock()
    done = 0
    while done < MIN_REPS * len(ops) or clock() - start < seconds:
        tally.attempt(ops[done % len(ops)])
        done += 1


@contextmanager
def patched(module, name: str, replacement):
    """Temporarily replace ``module.name``; callers inside the package that
    look the name up at call time see the replacement."""
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield original
    finally:
        setattr(module, name, original)


def check_mse(trace, pair, x_hat, sizes: SolveSizes) -> bool:
    """Independent MSE recomputation against the trace and the stopping rule."""
    err = sk.mse(pair.primal, x_hat)
    if not math.isclose(err, trace.final_mse, rel_tol=1e-12):
        return False
    if trace.status is sk.RunStatus.CONVERGED:
        return err <= MSE_TARGET
    # a budget-bound solve must have run its whole budget
    return not sizes.converge and trace.iterations == sizes.max_iters


def check_report(report, beta: int) -> bool:
    """gamma in [1, beta], every finite q in (0, 1), every bound margin >= 0."""
    if report.checkpoints.size == 0:
        return False
    g = report.gamma[np.isfinite(report.gamma)]
    q = report.q[np.isfinite(report.q)]
    margins = report.bound_margins
    return bool(
        np.all((g >= 1.0 - THEORY_TOL) & (g <= beta + THEORY_TOL))
        and np.all((q > 0.0) & (q < 1.0))
        and np.all(np.isfinite(margins))
        and np.all(margins >= -THEORY_TOL)
    )


def warm_up(out_dir: str) -> None:
    """First calls of every code path, so one-time costs land in set-up."""
    system, x_hat, _ = harness.gaussian_instance(12, 8, 2, harness.child_rng(INSTANCE_SEED, 0))
    stop = sk.StoppingRule(max_iters=200, mse_target=MSE_TARGET)
    for variant in VARIANTS:
        _, trace = sk.run(system, variant_spec(variant, 1.0, 6, 0, stop), ground_truth=x_hat)
    sk.build_theory_report(system, x_hat, trace, 1.0, 6)
    config = sk.ExperimentConfig(
        m=12, n=8, k=2, methods=("rk", "srk", "sskm"), trials=1, max_iters=20,
        m_grid=(12,), k_grid=(2,), noise_level=0.05, out_dir=os.path.join(out_dir, "warm"),
    )
    sk.compare_methods(config)


def repeated_setup(workload) -> float:
    """Warm up and build ``workload.instances`` SETUP_REPEATS times; returns
    the median time. The first repetition pays the first-call costs."""
    times = []
    for _ in range(SETUP_REPEATS):
        workload.instances = None  # free the previous inputs before building them again
        t0 = clock()
        warm_up(workload.out_dir)
        workload.instances = workload.build_instances()
        times.append(clock() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# ref, large: paired solves
# ---------------------------------------------------------------------------


class SolveWorkload:
    """Every variant solves each pooled instance; the timed loop repeats the
    first ``prefix[variant]`` iterations of each solve. On ``ref`` the
    verification pass also builds the theory reports of the first
    ``report_pool`` instances' SSKM-exact solves, untimed: a report takes
    0.1 s or more (a Monte Carlo gamma), too long to find the full speed of
    a slow host, so its time is measured by the traced run only."""

    def __init__(self, seed: int, sizes: SolveSizes, out_dir: str):
        self.seed = seed
        self.sizes = sizes
        self.out_dir = out_dir
        self.tally = Tally()
        self.records = {}  # (instance, variant) -> verification solve, in solving order
        self.setup_s = 0.0

    def build_instances(self) -> list:
        s = self.sizes
        return [
            harness.gaussian_instance(s.m, s.n, s.k, harness.child_rng(INSTANCE_SEED, s.m, s.k, i, 0))[:2]
            for i in range(s.pool)
        ]

    def jobs(self) -> list:
        """(instance, variant) pairs in solving order."""
        s = self.sizes
        stride = s.pool // s.rk_pool
        return [
            (i, v) for i in range(s.pool) for v in VARIANTS
            if v != "rk" or (i % stride == 0 and i // stride < s.rk_pool)
        ]

    def spec(self, instance: int, variant: str, max_iters: int) -> sk.SolverSpec:
        s = self.sizes
        stop = sk.StoppingRule(max_iters=max_iters, mse_target=MSE_TARGET)
        seed = sk.child_seed(self.seed, s.m, s.k, instance, 2, *_VARIANT_IDS[variant])
        return variant_spec(variant, s.lam, s.beta, seed, stop)

    def setup(self) -> None:
        self.setup_s = repeated_setup(self)

    def verify(self, instance: int, variant: str) -> bool:
        """Solve in full, as a user does; record the solve."""
        system, x_hat = self.instances[instance]
        spec = self.spec(instance, variant, self.sizes.max_iters)
        t0 = clock()
        pair, trace = sk.run(system, spec, ground_truth=x_hat)
        wall = clock() - t0
        self.tally.add_verified(variant, trace.iterations, spec.stop.max_iters)
        self.records[(instance, variant)] = Record.of(variant, instance, system, x_hat, spec, trace, wall)
        return check_mse(trace, pair, x_hat, self.sizes)

    def timed_solve(self, record: Record, spec: sk.SolverSpec) -> bool:
        """Repeat a verified solve, or its prefix, and check it repeated."""
        system, x_hat = record.system, record.x_hat
        t0 = clock()
        pair, trace = sk.run(system, spec, ground_truth=x_hat)
        wall = clock() - t0
        self.tally.add_solve((record.instance, record.variant), record.variant, wall, trace.iterations)
        if spec is record.spec:
            return record.repeats(trace) and trace.iterations == record.iterations and check_mse(
                trace, pair, x_hat, self.sizes
            )
        return record.repeats(trace) and trace.iterations == spec.stop.max_iters

    def report(self, record: Record) -> bool:
        s = self.sizes
        return check_report(sk.build_theory_report(record.system, record.x_hat, record, s.lam, s.beta), s.beta)

    def reported(self) -> list:
        """The solves whose theory reports the verification pass builds."""
        return [
            r for r in self.records.values()
            if r.variant == "sskm-exact" and r.instance < self.sizes.report_pool
        ]

    def timed_ops(self) -> list:
        ops = []
        for record in self.records.values():
            prefix = self.sizes.prefix[record.variant]
            if record.iterations > prefix:
                spec = self.spec(record.instance, record.variant, prefix)
            else:
                spec = record.spec
            ops.append(lambda record=record, spec=spec: self.timed_solve(record, spec))
        return ops

    def measure(self, seconds: float) -> None:
        for job in self.jobs():
            self.tally.attempt(self.verify, *job)
        for record in self.reported():
            self.tally.attempt(self.report, record)
        closed_loop(self.timed_ops(), seconds, self.tally)

    def solve_counts(self) -> list:
        return [r.counts() for r in self.records.values()]

    def theory_probe(self) -> Record:
        """The solve a diagnostics probe report is built on."""
        return next(r for r in self.records.values() if r.variant == "sskm-exact")

    def harness_probe_config(self, out_dir: str) -> sk.ExperimentConfig:
        s = self.sizes
        return sk.ExperimentConfig(
            m=s.m, n=s.n, k=s.k, lam=s.lam, beta=s.beta, step_mode="exact", methods=("sskm",),
            trials=1, master_seed=self.seed, max_iters=s.max_iters,
            m_grid=(s.m,), k_grid=(s.k,), out_dir=out_dir,
        )


WORKLOADS = {
    "ref": SolveWorkload,
    "large": SolveWorkload,
}


def make(name: str, seed: int, out_dir: str, smoke: bool = False):
    sizes = (SMOKE_SIZES if smoke else SIZES)[name]
    return WORKLOADS[name](seed, sizes, out_dir)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload) -> dict:
    """The end-to-end metrics of a measured workload, name -> value."""
    tally = workload.tally
    values = {
        "setup_s": workload.setup_s,
        "wall_s": tally.wall_s,
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": tally.ok_frac,
    }
    for v in VARIANTS:
        values[f"{v}.us_per_iter"] = tally.us_per_iter(v)
        values[f"{v}.iters"] = tally.mean_iters(v)
    return values
