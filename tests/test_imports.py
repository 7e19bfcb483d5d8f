"""peribond runs on numpy alone: no module under src/ imports SciPy, and no
path loads it, the full-lattice random-dyad pass and sampled fields included."""

import ast
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

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
rank_one_convexify(frobenius_squared(), MatrixLattice(2, 1.0, 0.5, "full"), directions=2)
seen["full convexify"] = scipy_modules()
w = make_power_bond(2.0 / (2.0 * np.pi), 2.0, 2.0, dim=2)
dom = BoxDomain((1.0, 1.0), (30, 30))
nonlocal_energy(w, 0.0, 0.1, DeformationField.affine(np.diag([1.0, 2.0])), dom)
seen["affine energy"] = scipy_modules()
nonlocal_energy(w, 0.0, 0.1, DeformationField.sampled(dom.centers() ** 2, dom), dom)
seen["sampled energy"] = scipy_modules()
print(json.dumps(seen))
"""


def test_src_never_imports_scipy():
    files = sorted(SRC.rglob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), (path, node.lineno)


def test_no_scipy_at_startup():
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen == {
        "import": [], "diagonal convexify": [], "full convexify": [],
        "affine energy": [], "sampled energy": [],
    }
