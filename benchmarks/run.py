"""Benchmark of the sparsekaczmarz package.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload ref --seed 1 --seconds 30 --trace 0

Workloads are ``ref`` and ``large`` (see
``BENCHMARK.json`` and ``benchmarks/README.md``). With ``--trace 0`` the run
prints the end-to-end metrics; with ``--trace 1`` it measures the same loop,
then replays it with per-layer timing and prints the per-layer metrics. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
provenance and the per-solve iteration counts. The package is imported from
the checkout's ``src`` directory; without it the run exits with an error and
prints no result.
"""

from __future__ import annotations

import os

# one BLAS thread: set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")


def bootstrap():
    """Import the package from this checkout's source tree, and nothing else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sparsekaczmarz", "__init__.py")):
        raise SystemExit(f"benchmark: package source not found at {os.path.join(src, 'sparsekaczmarz')}")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import sparsekaczmarz

    if os.path.dirname(os.path.dirname(os.path.abspath(sparsekaczmarz.__file__))) != src:
        raise SystemExit(f"benchmark: sparsekaczmarz was imported from {sparsekaczmarz.__file__}, not {src}")
    return sparsekaczmarz


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def measure(name: str, seed: int, seconds: float, trace: bool, out_dir: str, smoke: bool = False):
    """Set up, measure and check one workload; returns (result, details)."""
    import replay
    import workloads

    workload = workloads.make(name, seed, out_dir, smoke=smoke)
    workload.setup()
    workload.measure(seconds)
    if trace:
        spans = replay.traced_phase(workload, seconds)
        values, units = replay.per_layer(workload, spans), replay.LAYER_UNITS
    else:
        values, units = workloads.end_to_end(workload), workloads.E2E_UNITS
    tally = workload.tally
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": float(values[key]), "unit": units[key]} for key in units},
    }
    return result, {"solves": workload.solve_counts()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ref", "large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    shutil.rmtree(OUT_DIR, ignore_errors=True)
    try:
        result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)
    details["provenance"] = provenance(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details, separators=(",", ":")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
