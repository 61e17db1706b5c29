"""End-to-end optimization on a reduced simply supported beam, writing the
full artifact set (density image, VTK field, convergence log, checkpoint)."""

import numpy as np

import topofield as tf
from topofield.amfilter import apply_filter_exact, overhang_violations

case = tf.preset(
    "simply_supported",
    nelx=30,
    nely=10,
    iterations=200,
    fourier_m=32,
    hidden_widths=(48, 48),
    load_scale=0.3,
    filter_on=True,
    stress_on=True,
    seed=0,
)
print(f"case: {case.name}, {case.nelx}x{case.nely}, filter={case.filter_on}, "
      f"stress={case.stress_on}, sigma_allow={case.sigma_allow}")

summary = tf.run_case(case, "demo_out")
for key in ("final_compliance", "final_volfrac", "final_sigma_pn", "best_iteration",
            "best_feasible", "wall_time_seconds"):
    print(f"  {key}: {summary[key]}")
print("artifacts in", summary["out_dir"])

# density.csv holds nely rows of nelx values, top layer first
printed = np.flipud(np.loadtxt(f"{summary['out_dir']}/density.csv", delimiter=",", ndmin=2))
binary = (printed > 0.5).astype(float)
violations = overhang_violations(binary)
solid = int(binary.sum())
print(f"\nprintability of the thresholded design: {violations} violating elements "
      f"of {solid} solid ({100 * violations / max(solid, 1):.2f}%)")

chars = " .:-=+*#%@"
print("\nprinted density (top layer first):")
for row in np.flipud(printed):
    print("  " + "".join(chars[min(9, int(v * 9.999))] for v in row))
