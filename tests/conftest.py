"""One hypothesis profile for the whole suite: reproducible examples, no
example database, no per-example deadline (numerical examples vary in cost);
the ``rotations`` strategy of the frame-indifference properties; and
``child_env``, the environment of every interpreter a test spawns."""

import math
import os
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st

from peribond.linalg import rotation_from_angle, rotation_from_quaternion

settings.register_profile("peribond", derandomize=True, database=None, deadline=None)
settings.load_profile("peribond")

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env() -> dict:
    """This process's environment with src/ first on PYTHONPATH, so a spawned
    interpreter imports the package under test from a plain checkout; the
    pytest ``pythonpath`` setting reaches this process only."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def rotations(dim):
    """Rotations of R^dim: ``rotation_from_angle`` of an angle for dim 2,
    ``rotation_from_quaternion`` of a quaternion of norm at least 0.1 for dim 3."""
    if dim == 2:
        return st.floats(0.0, 2.0 * math.pi).map(rotation_from_angle)
    quaternions = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)
    return quaternions.filter(lambda q: math.hypot(*q) >= 0.1).map(rotation_from_quaternion)
