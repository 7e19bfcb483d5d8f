"""peribond runs on numpy alone: no module under src/ imports SciPy, and no
path loads it, the full-lattice random-dyad pass and sampled fields included.
numpy.random loads only where a task draws."""

import ast
import functools
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

seen, drew = {}, {}

def after(step):
    seen[step] = scipy_modules()
    drew[step] = "numpy.random" in sys.modules

after("import")
rank_one_convexify(frobenius_squared(), MatrixLattice(3, 1.0, 0.5, "diagonal"))
after("diagonal convexify")
w = make_power_bond(2.0 / (2.0 * np.pi), 2.0, 2.0, dim=2)
dom = BoxDomain((1.0, 1.0), (30, 30))
nonlocal_energy(w, 0.0, 0.1, DeformationField.affine(np.diag([1.0, 2.0])), dom)
after("affine energy")
nonlocal_energy(w, 0.0, 0.1, DeformationField.sampled(dom.centers() ** 2, dom), dom)
after("sampled energy")
rank_one_convexify(frobenius_squared(), MatrixLattice(2, 1.0, 0.5, "full"), directions=2)
after("full convexify")
print(json.dumps([seen, drew]))
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


@functools.cache
def run_probe():
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_no_scipy_at_startup():
    seen, _ = run_probe()
    assert seen == {
        "import": [], "diagonal convexify": [], "full convexify": [],
        "affine energy": [], "sampled energy": [],
    }


def test_numpy_random_loads_only_where_a_task_draws():
    _, drew = run_probe()
    assert drew == {
        "import": False, "diagonal convexify": False, "affine energy": False,
        "sampled energy": False, "full convexify": True,
    }
