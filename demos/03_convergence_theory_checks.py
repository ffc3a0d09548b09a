"""Watching the convergence theory hold along a single greedy run.

Three quantities are tracked per iteration on a small instance:

  gamma  - how concentrated the residual is (1 = one dominant row, beta =
           perfectly flat); it modulates the contraction factor,
  q      - the predicted per-step contraction of the Bregman distance in
           expectation,
  margin - slack in the bound tying the Bregman distance to the residual.

The realized distance ratio fluctuates below or around q on average, and the
error-bound margin stays nonnegative up to rounding.
"""

import numpy as np

import sparsekaczmarz as sk

m, n, k, lam, beta = 12, 8, 2, 1.0, 6

system, x_hat, _ = sk.gaussian_instance(m, n, k, sk.child_rng(3, 0))
sv = sk.smallest_nonzero_singular_value(system)
xmin = sk.min_abs_nonzero(x_hat)
print(f"instance {m}x{n}, sigma_min~ = {sv.smallest_nonzero:.4f}, |x|_min = {xmin:.4f}\n")

rng = np.random.default_rng(11)
pair = sk.init_state(n, lam)
d_cur = sk.bregman_distance(pair, x_hat)

print(f"{'iter':>4s} {'gamma':>7s} {'q':>8s} {'D ratio':>9s} {'bound margin':>13s}")
for j in range(25):
    r = sk.residual(system, pair.primal)
    gamma = sk.gamma_from_residuals(r, beta)       # exact over all C(12,6) subsets
    q = sk.contraction_factor(sv.smallest_nonzero, lam, xmin, beta, gamma, m)
    subset = sk.sample_subset(m, beta, rng)
    chosen = int(subset[int(np.argmax(r[subset] ** 2))])
    pair = sk.step_once(pair, system, chosen, sk.StepMode.EXACT)
    d_next = sk.bregman_distance(pair, x_hat)
    margin = sk.error_bound_margin(pair, system, x_hat, lam, sv.smallest_nonzero)
    print(f"{j:4d} {gamma:7.3f} {q:8.5f} {d_next / d_cur:9.5f} {margin:13.4e}")
    d_cur = d_next

print("\nratio <= q does not hold pathwise (q bounds the expectation), but the")
print("average realized ratio sits well below q, and the margin is nonnegative")
print("up to rounding. Once the run has converged (about iteration 20) the")
print("Bregman distance is at rounding level, so the signs of the D ratio and")
print("of the margin are rounding noise. gamma stays inside [1, beta] =", f"[1, {beta}].")

# the same quantities can be pulled from a finished run in one call
spec = sk.SolverSpec.sskm(lam, beta, sk.StepMode.EXACT, seed=11,
                          stop=sk.StoppingRule(max_iters=25))
_, trace = sk.run(system, spec, ground_truth=x_hat)
report = sk.build_theory_report(system, x_hat, trace, lam=lam, beta=beta)
print(f"\naggregate report: gamma in [{np.nanmin(report.gamma):.2f}, "
      f"{np.nanmax(report.gamma):.2f}], min bound margin "
      f"{np.nanmin(report.bound_margins):.2e}")
