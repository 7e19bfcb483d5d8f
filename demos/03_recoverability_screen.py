"""Which stored-energy densities come from a radial bond profile?

A density is recoverable exactly when its value at A equals the sphere mean
of its values on the scaled identities |Az| I. Affine functions of |A|^2
pass; |A|^4 misses by a computable margin; Mooney-Rivlin densities miss
badly; the incompressible variant fails with an infinite right-hand side.
"""

import numpy as np

from peribond import (
    ScalarProfile,
    build_sphere_rule,
    extract_candidate,
    make_incompressible_mr,
    make_mooney_rivlin,
    roundtrip_check,
)
from peribond.potentials import affine_frobenius_squared, frobenius_power

rule = build_sphere_rule(32)

zoo = [
    affine_frobenius_squared(1.0, 2.0),
    frobenius_power(4.0),
    make_mooney_rivlin(1.0, 1.0, ScalarProfile.well()),
    make_incompressible_mr(1.0, 1.0),
]

for density in zoo:
    report = roundtrip_check(density, rule)
    print(f"{density.kind:28s} verdict: {report.verdict:20s} "
          f"max finite residual: {report.max_abs_residual:.3e}")

# the candidate radial profile is forced: it is the density on t*I over sigma
density = affine_frobenius_squared(1.0, 2.0)
candidate = extract_candidate(density, 3)
print("\nextracted bond profile for 1 + 2|A|^2 at t = 0, 1, 2:",
      [candidate(t) for t in (0.0, 1.0, 2.0)])

# the one-sided infinity that sinks the incompressible variant
inc = make_incompressible_mr(1.0, 1.0)
a = np.diag([2.0, 0.5, 1.0])
print("\nincompressible density at diag(2, 1/2, 1):", inc(a))
print("residual (value minus sphere mean):",
      roundtrip_check(inc, rule, [a]).rows[0].residual)
