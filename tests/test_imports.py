"""peribond runs on numpy alone: no module under src/ imports SciPy, and no
path loads it, the full-lattice random-dyad pass and non-affine fields included.
Every seeded draw comes from Python's random module, so numpy.random never
loads either: no module under src/ names it, and no entry point that draws
imports it."""

import ast
import functools
import json
import subprocess
import sys
from pathlib import Path

from peribond.cli import TASKS
from conftest import child_env

SRC = Path(__file__).resolve().parent.parent / "src"

NUMPY_RANDOM = {("numpy", "random"), ("np", "random")}

PROBE = """
import json, os, sys, tempfile
import numpy as np
import peribond, peribond.cli
from peribond import DeformationField, BoxDomain, MatrixLattice, nonlocal_energy
from peribond import frobenius_squared, make_power_bond, rank_one_convexify
from peribond.pipeline import compute_blowup, estimate_beta, verify_limit_invariances
from peribond.quadrature import build_rule
from peribond.recoverability import default_test_matrices

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
nonlocal_energy(w, 0.0, 0.1, DeformationField.analytic(lambda p: p ** 2), dom)
after("analytic energy")
rank_one_convexify(frobenius_squared(), MatrixLattice(2, 1.0, 0.5, "full"), directions=2)
after("full convexify")
estimate_beta(w)
after("estimate_beta")
verify_limit_invariances(compute_blowup(w), np.eye(2), trials=2, rule=build_rule(2, 8))
after("verify_limit_invariances")
default_test_matrices(3)
after("default_test_matrices")
SMALL = {  # every task, on the smallest config that still draws where the task draws
    "convexify": {"lattice": {"mode": "full", "dim": 2, "bound": 1.0, "step": 0.5,
                              "directions": 2}},
    "converge": {"converge": {"deltas": [0.2, 0.1]}},
}
with tempfile.TemporaryDirectory() as tmp:
    for task in peribond.cli.TASKS:
        config = os.path.join(tmp, task + ".json")
        with open(config, "w") as fh:
            json.dump({"run": {"task": task}, **SMALL.get(task, {})}, fh)
        assert peribond.cli.main(["--config", config, "--out", os.path.join(tmp, task)]) in (0, 2)
        after("cli " + task)
print(json.dumps([seen, drew]))
"""


def test_src_never_imports_scipy():
    # nor numpy.random, by import or as an attribute of np / numpy
    files = sorted(SRC.rglob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                if names[0] == "numpy":
                    names = [f"numpy.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and node.attr == "random":
                # np.random / numpy.random as an attribute of the numpy module
                value = node.value
                names = [f"{value.id}.random"] if isinstance(value, ast.Name) else []
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), (path, node.lineno)
            assert not any(tuple(n.split(".")[:2]) in NUMPY_RANDOM for n in names), (
                path, node.lineno)


@functools.cache
def run_probe():
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_no_scipy_at_startup():
    seen, drew = run_probe()
    assert seen == dict.fromkeys(drew, [])  # every step of the probe


def test_numpy_random_never_loads():
    _, drew = run_probe()
    assert drew == dict.fromkeys([
        "import", "diagonal convexify", "affine energy", "analytic energy", "full convexify",
        "estimate_beta", "verify_limit_invariances", "default_test_matrices",
        *(f"cli {task}" for task in TASKS),
    ], False)
