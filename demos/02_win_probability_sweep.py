"""Win-probability surface over the initial gap, and a threshold scan.

Sweeps a small grid of gaps at fixed (n, p), printing Wilson intervals per
cell, then bisects for the smallest gap that certifiably wins 90% of the
time and compares the bracket with the two-branch gap threshold.
"""

from majlab import (ExperimentConfig, ThresholdParams, UpdateRule,
                    delta_threshold, run_sweep, threshold_scan)

n, p = 400, 0.1

cfg = ExperimentConfig(
    n_values=(n,), p_values=(p,),
    delta_values=(0.0, 1.0, 2.0, 4.0, 8.0, 16.0),
    trials=400, master_seed=1, workers=2)
print(f"win-probability sweep at n={n}, p={p} (400 trials per cell)")
for cell in run_sweep(cfg).cells:
    print(f"  gap {cell.delta:5.1f}: win1 {cell.p_hat:.3f} "
          f"[{cell.wilson_lo:.3f}, {cell.wilson_hi:.3f}]  "
          f"cycles={cell.cycles} cap_hits={cell.cap_hits}")

scan = threshold_scan(n, p, UpdateRule.STANDARD, trials=400,
                      target_prob=0.9, master_seed=2, workers=2)
print(f"\nsmallest certified-90% gap bracket: "
      f"[{scan.delta_lo}, {scan.delta_hi}]")

th = delta_threshold(n, p, ThresholdParams(a=1.0, b=1.0))
print(f"two-branch threshold at A=B=1: {th.value:.2f} "
      f"(dominant branch: {th.dominant})")
print("the constants A, B are free parameters; A=B=1 is only a reference point")
