"""From a bond potential to its local zero-horizon energy density.

The quadratic bond with the n/sigma prefactor is the canonical example: its
small-scale limit has homogeneity degree 0 and its sphere integral is
exactly the squared Frobenius norm of the deformation gradient. The demo
walks each stage and finishes with the symmetry check that any isotropic,
frame-indifferent bond must pass (and an anisotropic control must fail).
"""

import numpy as np

from peribond import (
    PairwisePotential,
    build_sphere_rule,
    compute_blowup,
    estimate_beta,
    local_density,
    make_power_bond,
    verify_limit_invariances,
)

sigma = 4 * np.pi
w = make_power_bond(3 / sigma, 2, 2, dim=3)
print("declared homogeneity degree:", w.beta)
print("estimated from log-log slopes:", estimate_beta(w))

limit = compute_blowup(w)
print("extrapolation residual at the reference pair:",
      limit.diagnostics["extrapolation_residual"])

rule = build_sphere_rule(32)
rng = np.random.default_rng(0)
print("\n local density vs |A|^2 on random gradients:")
for _ in range(4):
    a = rng.standard_normal((3, 3))
    wbar = local_density(limit, a, rule)
    print(f"   density = {wbar:12.6f}   |A|^2 = {np.sum(a * a):12.6f}")

a = np.diag([1.0, 2.0, 3.0])
check = verify_limit_invariances(limit, a, trials=30, rule=rule)
print("\nrotation invariance of the density:",
      "pass" if check.passed else "FAIL",
      f"(max deviation {check.max_abs_deviation:.2e}, tol {check.tolerance:.2e})")

# a control that depends on the direction of the reference offset must fail
aniso = PairwisePotential(
    "custom", {}, lambda x, y: x[..., 0] ** 2 * np.sum(y * y, axis=-1), beta=4.0
)
control = verify_limit_invariances(compute_blowup(aniso), a, 30, rule)
print("anisotropic control:", "pass" if control.passed else "fails, as it should",
      f"(max deviation {control.max_abs_deviation:.3f})")
