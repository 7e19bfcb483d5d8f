"""Quadrature rules on the circle and the sphere.

Every integral in the toolkit runs through these rules, so this demo checks
the properties everything else leans on: weights sum to the surface
measure, low moments are exact, and refining the rule changes smooth
integrals by nothing that matters.
"""

import numpy as np

from peribond import build_circle_rule, build_sphere_rule

circle = build_circle_rule(64)
sphere = build_sphere_rule(32)

print("rule sizes: circle", len(circle), "nodes, sphere", len(sphere), "nodes")
for rule, name in ((circle, "S^1"), (sphere, "S^2")):
    err = abs(np.sum(rule.weights) - rule.measure)
    print(f"{name}: weight sum vs surface measure, error {err:.2e}")

# second moments: mean z_j z_k = delta_jk / n
for rule, name in ((circle, "S^1"), (sphere, "S^2")):
    n, z = rule.dim, rule.nodes
    moments = np.array(
        [
            [rule.integrate(z[:, j] * z[:, k]) / rule.measure for k in range(n)]
            for j in range(n)
        ]
    )
    print(f"{name}: worst second-moment error {np.max(np.abs(moments - np.eye(n) / n)):.2e}")

# quartic moments against closed forms
print("circle mean cos^4:", circle.integrate(circle.nodes[:, 0] ** 4) / circle.measure, "(exact 3/8)")
print("sphere mean z3^4 :", sphere.integrate(sphere.nodes[:, 2] ** 4) / sphere.measure, "(exact 1/5)")

# refinement: a smooth non-polynomial integrand converges fast
for order in (8, 16, 32):
    rule = build_sphere_rule(order)
    mean = rule.integrate(np.exp(rule.nodes @ np.array([0.3, 0.5, 0.2]))) / rule.measure
    print(f"order {order:2d}: mean exp =", mean)
