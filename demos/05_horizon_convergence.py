"""Finite-horizon energies converging to the local limit.

For an affine deformation the scaled double integral equals the local
energy up to a boundary layer of width delta, so the gap shrinks linearly
as the horizon goes to zero. The grid is rebuilt at a fixed number of cells
per horizon, keeping the discretization error far below the gap it
measures.
"""

import numpy as np

from peribond import DeformationField, convergence_study, make_power_bond

w = make_power_bond(2 / (2 * np.pi), 2, 2, dim=2)
gradient = np.diag([1.0, 2.0])
field = DeformationField.affine(gradient)

# the full study: gaps halve with the horizon
study = convergence_study(w, 0.0, field, (1.0, 1.0), [0.2, 0.1, 0.05, 0.025])
print("  delta     I_delta     I_local        gap    running slope")
for d, e, ref, gap, slope in study.rows:
    print(f"  {d:5.3f}  {e:10.6f}  {ref:10.6f}  {gap:9.6f}  {slope:9.4f}")
print("fitted slope:", study.fitted_slope)
