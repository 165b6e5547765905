#!/usr/bin/env python3
"""Grid schemes: even subdivisions, jittered partitions, and R^d cubes.

Every grid level at resolution n has rectangular bins whose edges lie in
[1/(C n), 1/n].  Jittered schemes randomise the breakpoints inside that
corridor; R^d schemes tile a finite list of translated unit cubes.
"""

import numpy as np

from spatialzeno import (
    GridScheme,
    jittered_grid,
    locate_bin,
    rd_grid,
    uniform_grid,
    validate_grid,
)

print("Uniform grid, n=4, d=1:")
g = uniform_grid(4)
for j in range(g.num_bins):
    e = g.bin(j).edges[0]
    print(f"  bin {j}: [{e.lo:.4f}, {e.hi:.4f})")

print("\nJittered grid, n=4, C=2, seed=7 (edge lengths in [1/8, 1/4]):")
j4 = jittered_grid(4, 1, C=2.0, seed=7)
print("  lengths:", np.round(j4.axis_lengths(0), 4))
print("  validation:", validate_grid(j4).checks)

print("\nSame parameters reproduce the same grid:",
      np.array_equal(j4.breakpoints[0], jittered_grid(4, 1, C=2.0, seed=7).breakpoints[0]))

print("\nHalf-open convention: 0.5 belongs to the bin on its right.")
print("  locate(uniform n=2, x=0.5) ->", locate_bin(uniform_grid(2), 0.5))

print("\nTwo translated unit cubes on the line, n=2 inside each:")
scheme = GridScheme("rd_translated_cubes", d=1, cubes=((-1.0,), (0.0,)))
level = rd_grid(scheme, 2, scheme.cubes)
for j in range(level.num_bins):
    e = level.bin(j).edges[0]
    print(f"  bin {j}: [{e.lo:+.2f}, {e.hi:+.2f})")
print("  index ranges of the product parts (adjacent cubes form one part):",
      level.index_ranges)
