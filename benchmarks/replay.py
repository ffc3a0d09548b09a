"""Traced replay: per-layer costs of a measured workload.

A traced run first measures the workload exactly as an untraced run does.
It then replays its verification solves through the package's public layer
functions (``sample_subset`` + ``select_motzkin`` or ``rng.integers``, then
``exact_step`` / ``inexact_step``, ``soft_threshold`` and ``residual``), timing
each call, and checks that the replay reproduces the chosen rows and step
values of ``run`` bit for bit. Diagnostics and harness calls are timed by
spans around the package functions they call: the theory reports of the
verification pass (or one probe report, where it builds none) and one probe
``compare_methods`` call on the workload's own instance size, so that every
layer metric is measured on every workload.
"""

from __future__ import annotations

import os
from collections import defaultdict
from contextlib import ExitStack

import numpy as np

import sparsekaczmarz as sk
from sparsekaczmarz import diagnostics, harness

from workloads import check_report, clock, patched

LAYER_UNITS = {
    "sampling.sample_subset.us": "us",
    "sampling.select_motzkin.us": "us",
    "sampling.sample_subset.draws": "count",
    "sampling.uniform.us": "us",
    "bregman.exact_step.us": "us",
    "bregman.inexact_step.us": "us",
    "bregman.soft_threshold.us": "us",
    "linsys.residual.us": "us",
    "linsys.residual.bytes": "B",
    "linsys.residual.gbps": "GB/s",
    "linsys.normalize_rows.ms": "ms",
    "harness.gaussian_instance.ms": "ms",
    "solvers.run.self_us": "us",
    "solvers.records.used_frac": "ratio",
    "diagnostics.gamma_from_residuals.ms": "ms",
    "diagnostics.build_theory_report.s": "s",
    "diagnostics.checkpoints": "count",
    "diagnostics.smallest_nonzero_singular_value.ms": "ms",
    "harness.compare_methods.s": "s",
    "harness.write_csv.ms": "ms",
    "harness.csv_bytes": "B",
    "bench.replay.match_frac": "ratio",
    "bench.replay.solves": "count",
    "bench.replay.overhead_us": "us",
}


class Spans:
    """Total seconds and call count per span name, plus plain counters."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)

    def add(self, name: str, seconds: float) -> None:
        self.seconds[name] += seconds
        self.calls[name] += 1

    def mean(self, name: str, scale: float) -> float:
        return self.seconds[name] / self.calls[name] * scale if self.calls[name] else 0.0

    def wrap(self, fn, name: str):
        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name, clock() - t0)

        return timed

    def around(self, stack: ExitStack, module, name: str, span: str) -> None:
        stack.enter_context(patched(module, name, self.wrap(getattr(module, name), span)))


def spans_on_package(spans: Spans) -> ExitStack:
    """Spans around the package functions the diagnostics and harness layers call."""
    stack = ExitStack()
    spans.around(stack, diagnostics, "gamma_from_residuals", "diagnostics.gamma_from_residuals")
    spans.around(stack, diagnostics, "smallest_nonzero_singular_value", "diagnostics.smallest_nonzero_singular_value")
    spans.around(stack, harness, "gaussian_instance", "harness.gaussian_instance")
    spans.around(stack, harness, "normalize_rows", "linsys.normalize_rows")
    spans.around(stack, harness, "write_csv", "harness.write_csv")
    return stack


def replay(record, spans: Spans) -> bool:
    """Re-run one solve through the public layer functions, timing each call.

    Returns True when every chosen row and step value equals the recorded one
    bit for bit. Runs exactly the recorded number of iterations.
    """
    system, spec = record.system, record.spec
    m, n = system.shape
    lam = spec.lam
    rows, rhs = system.rows, system.rhs
    rng = np.random.default_rng(spec.sampler.seed)
    greedy = spec.sampler.rule is sk.SelectionRule.SKM_GREEDY
    exact = spec.step_mode is sk.StepMode.EXACT
    buffer = np.arange(m) if greedy else None
    dual = np.zeros(n)
    x = np.zeros(n)
    r = -rhs.copy()  # residual at x_0 = 0, as run() starts
    seconds = spans.seconds
    same = True
    for k in range(record.iterations):
        if greedy:
            beta = spec.sampler.beta_at(k)
            t0 = clock()
            subset = sk.sample_subset(m, beta, rng, _buffer=buffer)
            t1 = clock()
            i = sk.select_motzkin(subset, r).chosen
            t2 = clock()
            seconds["sampling.sample_subset"] += t1 - t0
            seconds["sampling.select_motzkin"] += t2 - t1
            spans.counts["sampling.sample_subset.draws"] += beta
        else:
            t0 = clock()
            i = int(rng.integers(m))
            seconds["sampling.uniform"] += clock() - t0
        a = rows[i]
        b = float(rhs[i])
        t0 = clock()
        t = sk.exact_step(dual, a, b, lam) if exact else sk.inexact_step(x, a, b)
        t1 = clock()
        dual = dual - t * a
        t2 = clock()
        x = sk.soft_threshold(dual, lam)
        t3 = clock()
        r = sk.residual(system, x)
        t4 = clock()
        seconds["bregman.exact_step" if exact else "bregman.inexact_step"] += t1 - t0
        seconds["bregman.soft_threshold"] += t3 - t2
        seconds["linsys.residual"] += t4 - t3
        same = same and i == record.chosen[k] and t == record.step[k]
    it = record.iterations
    for name in ("bregman.soft_threshold", "linsys.residual",
                 "bregman.exact_step" if exact else "bregman.inexact_step",
                 *(("sampling.sample_subset", "sampling.select_motzkin") if greedy else ("sampling.uniform",))):
        spans.calls[name] += it
    spans.counts["linsys.residual.bytes"] += 8.0 * m * n * it
    return same


def replay_solves(records, spans: Spans, budget: float) -> None:
    """Replay recorded solves in order until ``budget`` seconds are spent."""
    start = clock()
    for record in records:
        if clock() - start >= budget:
            break
        layer_before = sum(spans.seconds[name] for name in _SOLVER_LAYERS)
        t0 = clock()
        same = replay(record, spans)
        traced = clock() - t0
        layers = sum(spans.seconds[name] for name in _SOLVER_LAYERS) - layer_before
        spans.counts["bench.replay.solves"] += 1
        spans.counts["bench.replay.matched"] += same
        spans.counts["run.iterations"] += record.iterations
        spans.counts["run.wall"] += record.wall
        spans.counts["run.layers"] += layers
        spans.counts["replay.wall"] += traced


_SOLVER_LAYERS = (
    "sampling.sample_subset",
    "sampling.select_motzkin",
    "sampling.uniform",
    "bregman.exact_step",
    "bregman.inexact_step",
    "bregman.soft_threshold",
    "linsys.residual",
)


def timed_report(spans: Spans, system, x_hat, trace, lam: float, beta: int) -> bool:
    t0 = clock()
    report = sk.build_theory_report(system, x_hat, trace, lam, beta)
    spans.add("diagnostics.build_theory_report", clock() - t0)
    spans.counts["diagnostics.checkpoints"] += report.checkpoints.size
    return check_report(report, beta)


def timed_compare(spans: Spans, config) -> bool:
    t0 = clock()
    out = sk.compare_methods(config)
    spans.add("harness.compare_methods", clock() - t0)
    spans.counts["harness.csv_bytes"] += sum(os.path.getsize(p) for p in out["paths"].values())
    return bool(out["bregman_monotone"])


def traced_phase(workload, seconds: float) -> Spans:
    """Per-layer costs of a workload whose untraced loop has already run."""
    spans = Spans()
    tally = workload.tally
    records = list(workload.records.values())
    with spans_on_package(spans):
        config = workload.harness_probe_config(os.path.join(workload.out_dir, "probe"))
        tally.attempt(lambda: timed_compare(spans, config))
        replay_solves(records, spans, seconds)
        # the reports of the verification pass, or one probe report
        reported = workload.reported() or [workload.theory_probe()]
        lam, beta = workload.sizes.lam, workload.sizes.beta
        start = clock()
        for record in reported:
            if clock() - start >= seconds:
                break
            tally.attempt(lambda: timed_report(spans, record.system, record.x_hat, record, lam, beta))
        # instance generation as the workload's set-up does it
        workload.build_instances()
    return spans


def per_layer(workload, spans: Spans) -> dict:
    """The per-layer metrics, name -> value."""
    c = spans.counts
    it = c["run.iterations"]
    res_s = spans.seconds["linsys.residual"]
    res_calls = spans.calls["linsys.residual"]
    tally = workload.tally
    used = tally.run_iters / tally.run_budget if tally.run_budget else 0.0
    us = 1e6
    return {
        "sampling.sample_subset.us": spans.mean("sampling.sample_subset", us),
        "sampling.select_motzkin.us": spans.mean("sampling.select_motzkin", us),
        "sampling.sample_subset.draws": c["sampling.sample_subset.draws"],
        "sampling.uniform.us": spans.mean("sampling.uniform", us),
        "bregman.exact_step.us": spans.mean("bregman.exact_step", us),
        "bregman.inexact_step.us": spans.mean("bregman.inexact_step", us),
        "bregman.soft_threshold.us": spans.mean("bregman.soft_threshold", us),
        "linsys.residual.us": spans.mean("linsys.residual", us),
        "linsys.residual.bytes": c["linsys.residual.bytes"] / res_calls if res_calls else 0.0,
        "linsys.residual.gbps": c["linsys.residual.bytes"] / res_s / 1e9 if res_s else 0.0,
        "linsys.normalize_rows.ms": spans.mean("linsys.normalize_rows", 1e3),
        "harness.gaussian_instance.ms": spans.mean("harness.gaussian_instance", 1e3),
        "solvers.run.self_us": (c["run.wall"] - c["run.layers"]) / it * us if it else 0.0,
        "solvers.records.used_frac": used,
        "diagnostics.gamma_from_residuals.ms": spans.mean("diagnostics.gamma_from_residuals", 1e3),
        "diagnostics.build_theory_report.s": spans.mean("diagnostics.build_theory_report", 1.0),
        "diagnostics.checkpoints": (
            c["diagnostics.checkpoints"] / spans.calls["diagnostics.build_theory_report"]
            if spans.calls["diagnostics.build_theory_report"] else 0.0
        ),
        "diagnostics.smallest_nonzero_singular_value.ms": spans.mean(
            "diagnostics.smallest_nonzero_singular_value", 1e3
        ),
        "harness.compare_methods.s": spans.mean("harness.compare_methods", 1.0),
        "harness.write_csv.ms": spans.mean("harness.write_csv", 1e3),
        "harness.csv_bytes": (
            c["harness.csv_bytes"] / spans.calls["harness.compare_methods"]
            if spans.calls["harness.compare_methods"] else 0.0
        ),
        "bench.replay.match_frac": c["bench.replay.matched"] / c["bench.replay.solves"] if c["bench.replay.solves"] else 0.0,
        "bench.replay.solves": c["bench.replay.solves"],
        "bench.replay.overhead_us": (c["replay.wall"] - c["run.wall"]) / it * us if it else 0.0,
    }
