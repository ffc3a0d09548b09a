"""Benchmarking the solvers on a matrix loaded from a Matrix Market file.

Writes a small sparse test matrix to disk in the exchange format, reads it
back, and reports per-method iteration counts the same way the `real` CLI
subcommand does: density, condition number, and mean iterations to reach the
error target (with '--' for methods that never get there).

Any coordinate/array real file works the same way, e.g. matrices from the
SuiteSparse collection:

    python -m sparsekaczmarz real --config my.json path/to/matrix.mtx
"""

import os
import tempfile

import numpy as np

import sparsekaczmarz as sk

# a banded 80x60 matrix at ~5% density
rng = np.random.default_rng(21)
a = np.zeros((80, 60))
for i in range(80):
    for j in range(60):
        if abs(i - j) <= 1 and rng.random() < 0.9:
            a[i, j] = rng.standard_normal()

# the matrix file and the report live in a directory that is removed on exit
with tempfile.TemporaryDirectory(prefix="skz-demo-") as tmp:
    path = os.path.join(tmp, "banded.mtx")
    sk.write_matrix_market(path, a, comment="banded demo matrix")

    loaded = sk.read_matrix_market(path)
    assert np.array_equal(loaded, a)
    sv = sk.smallest_nonzero_singular_value(loaded)
    print(f"matrix: {loaded.shape[0]}x{loaded.shape[1]}")
    print(f"density: {sk.density(loaded):.2%}")
    print(f"cond: {sv.cond:.1f}  (sigma_min~ {sv.smallest_nonzero:.3f})\n")

    config = sk.ExperimentConfig(
        m=80, n=60, k=10, lam=1.0, beta="m/2",
        methods=("rk", "srk", "sskm"), step_mode="exact",
        trials=10, master_seed=5, mse_target=1e-6, max_iters=100_000,
        out_dir=tmp,
    )
    report = sk.real_matrix_bench([path], config)

    print(f"{'stat':28s} value")
    for _, _, _, stat, value in report["rows"]:
        if stat.startswith(("mean_iters", "converged")):
            val = f"{value:.1f}" if isinstance(value, float) else str(value)
            print(f"{stat:28s} {val}")
    print(f"\nfull report: {report['path']}")
