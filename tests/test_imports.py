"""SciPy stays out of start-up: only the full-lattice random-dyad pass and
sampled deformation fields import it, at call time."""

import json
import subprocess
import sys

PROBE = """
import json, sys
import numpy as np
import peribond, peribond.cli
from peribond import DeformationField, BoxDomain, MatrixLattice, nonlocal_energy
from peribond import frobenius_squared, make_power_bond, rank_one_convexify

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = {"import": scipy_modules()}
rank_one_convexify(frobenius_squared(), MatrixLattice(3, 1.0, 0.5, "diagonal"))
seen["diagonal convexify"] = scipy_modules()
w = make_power_bond(2.0 / (2.0 * np.pi), 2.0, 2.0, dim=2)
nonlocal_energy(w, 0.0, 0.1, DeformationField.affine(np.diag([1.0, 2.0])),
                BoxDomain((1.0, 1.0), (30, 30)))
seen["affine energy"] = scipy_modules()
print(json.dumps(seen))
"""


def test_no_scipy_at_startup():
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen == {"import": [], "diagonal convexify": [], "affine energy": []}
