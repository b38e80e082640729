"""Geometric tridiagonal perturbations of the identity.

Tracks the corner determinants of the symbol with superdiagonal q**j,
verifies the three-term minor recursion, shows the uniform floor
1 - q**2 / (1 - q**2), and checks the entry-wise bound on powers of the
off-diagonal part.
"""

import numpy as np

from gausscomp import (
    BlockPartition,
    PerturbedIdentity,
    det_sequence,
    power_entry_bound,
)

for q in (0.3, 0.5, 0.7):
    b = PerturbedIdentity.geometric(q)
    dets = det_sequence(b.symbol, BlockPartition.unit(32), 32)
    floor = b.det_floor
    print(f"q={q}: det_32={dets[-1]:.9f}, floor={floor:.9f}, "
          f"min={dets.min():.9f}")
    # the determinants decrease monotonically but never cross the floor
    assert np.all(np.diff(dets) <= 1e-15) and dets.min() > floor

print("\nentry bound on powers of the off-diagonal part (q = 0.5):")
b = PerturbedIdentity.geometric(0.5)
for k in (1, 2, 3, 4):
    ok, worst = power_entry_bound(b, k, 12)
    print(f"  k={k}: worst ratio to the bound {worst:.6f} "
          f"({'holds' if ok else 'violated'})")
