#!/usr/bin/env python3
"""States on the whole line: truncate to unit cubes, budget the tail.

A grid scheme for R^d tiles a finite list of translated unit cubes.  The
study grows a centered box of cubes until it captures the requested
probability mass, and holds that box (``tail.cubes``, a lazy ``CubeBox``);
what's left over bounds the truncation error of every reported
probability.
"""

from spatialzeno import GridScheme, make_state, rd_study

g = make_state("gaussian", mu=0.0, sigma=1.0)
scheme = GridScheme("uniform", d=1)

for target in (1 - 1e-4, 1 - 1e-6, 1 - 1e-8):
    rec, tail = rd_study(g, g, scheme, [4, 8, 16, 32, 64, 128, 256],
                         mass_target=target)
    lo = min(c[0] for c in tail.cubes)
    hi = max(c[0] for c in tail.cubes) + 1
    print(f"mass target {target}: cubes span [{lo:+.0f}, {hi:+.0f}), "
          f"captured {tail.captured_mass:.10f}, tail bound {tail.tail_bound:.2e}")

print("\nStudy at the tightest target:")
print(f"{'n':>5} {'P(Y=1)':>12} {'n * P':>10} {'error bound':>12}")
for row in rec.rows:
    print(f"{row.n:>5} {row.p_y1:>12.6e} {row.n * row.p_y1:>10.6f} "
          f"{row.error_bound:>12.3e}")
print(f"\nfitted rate {rec.fitted_rate:.4f}; n * P settles at "
      "1/(2 sqrt(pi)) = 0.282095, the squared L2 norm of the normal density")
