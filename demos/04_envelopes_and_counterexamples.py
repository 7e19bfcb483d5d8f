"""Envelope fixed points and the counterexample machinery.

Strictly polyconvex densities are their own relaxation, so the lattice
rank-one sweep must leave them untouched; a double well shows the sweep
actually does something when convexity fails. The Jensen margins and the
large-stretch scan are the quantitative versions of the arguments that rule
out whole families of densities.
"""

import numpy as np

from peribond import (
    MatrixLattice,
    ScalarProfile,
    build_sphere_rule,
    jensen_counterexample_suite,
    make_mooney_rivlin,
    mooney_rivlin_inequality_check,
    rank_one_convexify,
)
from peribond.potentials import custom_energy

# 1D double well: the envelope flattens the barrier between the wells
lattice_1d = MatrixLattice(dim=1, bound=2.0, step=0.05)
double_well = custom_energy(lambda m: (m[..., 0, 0] ** 2 - 1.0) ** 2, "double-well")
env = rank_one_convexify(double_well, lattice_1d, tol=1e-9, max_sweeps=60)
coords = lattice_1d.coordinates
mid = np.abs(coords) < 1e-12
print("double well at 0 before/after:", env.initial[mid][0], "->", env.values[mid][0])

# Mooney-Rivlin on the diagonal sublattice: nothing moves
mr = make_mooney_rivlin(1.0, 1.0, ScalarProfile.well())
lattice_3d = MatrixLattice(dim=3, bound=3.0, step=0.1, mode="diagonal")
env_mr = rank_one_convexify(mr, lattice_3d, tol=1e-6, max_sweeps=40)
print("Mooney-Rivlin envelope change on the interior:",
      env_mr.max_change_on_interior(), f"({env_mr.sweeps} sweep(s))")
print("note:", env_mr.note)

# Jensen margins: convex profiles of |A|^2 overshoot the identity
rule = build_sphere_rule(32)
suite = jensen_counterexample_suite(rule)
for row in suite.rows:
    diag = tuple(float(x) for x in np.diag(row.matrix))
    print(f"jensen {row.case:9s} {row.profile:5s} at diag{diag}: "
          f"margin {row.margin:+.4f} ({row.expected})")

# the stretch family that defeats every Mooney-Rivlin density
scan = mooney_rivlin_inequality_check(1.0, ScalarProfile.power(0.0, 0.0))
print(f"\ncof-term inequality fails at stretch lambda = {scan.lambda_star} "
      f"(lhs {scan.lhs_at_failure:.3f} < rhs {scan.rhs_at_failure:.3f}, c = {scan.c_value:.5f})")
scan0 = mooney_rivlin_inequality_check(0.0, ScalarProfile.well())
print(f"growth branch (beta = 0) fails at lambda = {scan0.lambda_star}")
