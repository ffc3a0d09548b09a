"""Prints sha256 digests of a fixed set of solves and CSV bodies.

Run it in two checkouts and compare the output; it imports the package from
the ``src`` beside it, and runs BLAS on one thread unless
``OPENBLAS_NUM_THREADS`` says otherwise::

    python tests/digest.py > digest.txt

Identical lines mean bit identity. One line per solve hashes every record
(chosen row, step, residual norm, relative error, Bregman distance), the
status, the iteration count and the final pair (primal and dual bytes):

- instance 0 of the benchmark's ``ref`` (300 x 200, k = 5, to MSE 1e-6)
  and ``large`` (2000 x 1000, k = 20, 20 iterations) shapes, at lam = 1
  and beta = m/2, in all five variants, with ``residuals`` on and off;
- the same solves cut to ``max_iters`` 1, 31 and 33;
- budget-bound SRK and SSKM (beta = m/2) in both modes on 140 x 200,
  k = 5, at lam = 0.01: 200000 iterations each, which never meet the MSE
  target.

One line gives the exception type and message of an overflowing RK run.
One line per CSV hashes the body that the console commands ``solve``,
``sweep-lambda``, ``sweep-beta`` and ``compare --noise 0.05`` write for a
12 x 8 config. pytest does not collect this file.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import sparsekaczmarz as sk  # noqa: E402
from sparsekaczmarz import cli  # noqa: E402

VARIANTS = ("rk", "srk-inexact", "srk-exact", "sskm-inexact", "sskm-exact")
CLI_CONFIG = {"m": 12, "n": 8, "k": 2, "trials": 2, "max_iters": 200, "m_grid": [12], "k_grid": [2]}
CLI_COMMANDS = ("solve", "sweep-lambda", "sweep-beta", "compare --noise 0.05")


def spec_of(variant: str, lam: float, beta: int, stop: sk.StoppingRule) -> sk.SolverSpec:
    if variant == "rk":
        return sk.SolverSpec.rk(seed=1, stop=stop)
    method, mode = variant.split("-")
    if method == "srk":
        return sk.SolverSpec.srk(lam, sk.StepMode(mode), seed=1, stop=stop)
    return sk.SolverSpec.sskm(lam, beta, sk.StepMode(mode), seed=1, stop=stop)


def solve_digest(system, x_hat, spec, residuals: bool) -> str:
    pair, trace = sk.run(system, spec, x_hat, residuals=residuals)
    h = hashlib.sha256()
    for rec in (trace.chosen, trace.step, trace.residual_norm2, trace.mse, trace.bregman_to_truth):
        h.update(b"None" if rec is None else rec.tobytes())
    h.update(f"{trace.status.value} {trace.iterations}".encode())
    h.update(pair.primal.tobytes())
    h.update(pair.dual.tobytes())
    return h.hexdigest()


def solves():
    """(label, digest) of every solve of the set."""
    shapes = {"ref": (300, 200, 5, 200_000), "large": (2000, 1000, 20, 20)}
    for shape, (m, n, k, max_iters) in shapes.items():
        system, x_hat, _ = sk.gaussian_instance(m, n, k, sk.child_rng(0, m, k, 0, 0))
        for budget in (max_iters, 1, 31, 33):
            stop = sk.StoppingRule(max_iters=budget, mse_target=1e-6)
            for variant in VARIANTS:
                for residuals in (False, True):
                    spec = spec_of(variant, 1.0, m // 2, stop)
                    yield f"{shape} {variant} max_iters={budget} residuals={residuals}", solve_digest(
                        system, x_hat, spec, residuals)
    m, n, k = 140, 200, 5
    system, x_hat, _ = sk.gaussian_instance(m, n, k, sk.child_rng(0, m, k, 0, 0))
    stop = sk.StoppingRule(max_iters=200_000, mse_target=1e-6)
    for variant in VARIANTS[1:]:
        yield f"budget {m}x{n} {variant}", solve_digest(system, x_hat, spec_of(variant, 0.01, m // 2, stop), False)


def overflow() -> str:
    system = sk.LinearSystem(rows=np.array([[1.0], [1.0]]), rhs=np.array([1e308, -1e308]), row_scales=np.ones(2))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            sk.run(system, sk.SolverSpec.rk(seed=0, stop=sk.StoppingRule(max_iters=100)))
    except (ValueError, RuntimeError) as exc:  # the type and message are the digest
        return f"{type(exc).__name__}: {exc}"
    return "no exception"


def csv_bodies():
    """(label, digest) of every CSV the console commands write for the 12 x 8 config."""
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w") as fh:
            json.dump(CLI_CONFIG, fh)
        for command in CLI_COMMANDS:
            out = os.path.join(tmp, command.split()[0])
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*command.split(), "--config", config, "--out", out])
            yield f"cli {command} exit", str(code)
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as fh:
                    yield f"cli {command} {name}", hashlib.sha256(fh.read()).hexdigest()


def main() -> None:
    for label, digest in solves():
        print(f"{digest}  {label}", flush=True)
    print(f"overflow  {overflow()}")
    for label, digest in csv_bodies():
        print(f"{digest}  {label}", flush=True)


if __name__ == "__main__":
    main()
