"""Library entry points refuse out-of-range arguments with a ValueError that
names the argument, instead of running on and returning a vacuous result."""

import math

import pytest

from peribond.convexify import MatrixLattice, rank_one_convexify, strict_polyconvexity_probe
from peribond.horizon import BoxDomain, DeformationField, nonlocal_energy, study_grids
from peribond.potentials import ScalarProfile, frobenius_squared, make_power_bond
from peribond.quadrature import build_rule
from peribond.recoverability import mooney_rivlin_inequality_check

BOND = make_power_bond(1.0 / math.pi, 2.0, 2.0, dim=2)  # declares degree 0
FIELD = DeformationField.affine([[1.0, 0.0], [0.0, 2.0]])
DOM = BoxDomain((1.0, 1.0), (40, 40))
LATTICE = MatrixLattice(dim=1, bound=1.0, step=0.5)


def energy(beta=0.0, delta=0.1, outer_margin=0.0):
    return nonlocal_energy(BOND, beta, delta, FIELD, DOM, outer_margin=outer_margin)


def convexify(**kwargs):
    return rank_one_convexify(frobenius_squared(), LATTICE, **kwargs)


def scan(beta):
    return mooney_rivlin_inequality_check(beta, ScalarProfile.power(0.0, 0.0), [1.0, 2.0])


@pytest.mark.parametrize("call, named", [
    (lambda: energy(beta=math.nan), "beta = nan"),
    (lambda: energy(beta=math.inf), "beta = inf"),
    (lambda: energy(delta=math.nan), "delta = nan"),
    (lambda: energy(delta=-0.1), "delta = -0.1"),
    (lambda: energy(outer_margin=math.nan), "outer_margin = nan"),
    (lambda: energy(outer_margin=-0.1), "outer_margin = -0.1"),
    (lambda: study_grids((1.0, math.inf), [0.2, 0.1], 8), r"sides = \(1.0, inf\)"),
    (lambda: study_grids((1.0, math.nan), [0.2, 0.1], 8), r"sides = \(1.0, nan\)"),
    (lambda: study_grids((1.0, 1.0), [0.8, 0.4], 8), "delta = 0.8"),
    (lambda: convexify(tol=-1.0), "tol = -1.0"),
    (lambda: convexify(tol=math.nan), "tol = nan"),
    (lambda: convexify(max_sweeps=0), "max_sweeps = 0"),
    (lambda: strict_polyconvexity_probe(frobenius_squared(), trials=0, seed=0), "trials = 0"),
    (lambda: build_rule(3, 2.5), "order = 2.5"),
    (lambda: build_rule(2, 2.5), "order = 2.5"),
    (lambda: scan(-1.0), "beta = -1.0"),
    (lambda: scan(math.nan), "beta = nan"),
    (lambda: scan(math.inf), "beta = inf"),
], ids=["energy-beta-nan", "energy-beta-inf", "energy-delta-nan", "energy-delta-negative",
        "energy-margin-nan", "energy-margin-negative", "grids-side-inf", "grids-side-nan",
        "grids-horizon-past-half-box", "convexify-tol-negative",
        "convexify-tol-nan", "convexify-no-sweeps", "probe-no-trials", "sphere-order-fraction",
        "circle-order-fraction", "scan-beta-negative", "scan-beta-nan", "scan-beta-inf"])
def test_library_refuses_and_names_the_argument(call, named):
    with pytest.raises(ValueError, match=named):
        call()
