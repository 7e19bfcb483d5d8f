"""Library entry points refuse out-of-range arguments with a ValueError that
names the argument, instead of running on and returning a vacuous result,
and refuse a model that is NaN at a single evaluation."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peribond.convexify import (
    MatrixLattice,
    rank_one_convexify,
    strict_polyconvexity_probe,
)
from peribond.horizon import BoxDomain, DeformationField, nonlocal_energy, study_grids
from peribond.linalg import random_rotation
from peribond.pipeline import BlowupError, compute_blowup, estimate_beta, verify_limit_invariances
from peribond.potentials import ScalarProfile, custom_energy, frobenius_squared, make_power_bond
from peribond.quadrature import build_rule
from peribond.recoverability import (
    default_test_matrices,
    mooney_rivlin_inequality_check,
    roundtrip_check,
)

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
    (lambda: nonlocal_energy(make_power_bond(1.0, 2.0, 4.0, dim=2), -2.0, 0.1, FIELD, DOM),
     "beta = -2.0, dim = 2"),
    (lambda: nonlocal_energy(make_power_bond(1.0, 2.0, 5.0, dim=2), -3.0, 0.1, FIELD, DOM),
     "beta = -3.0, dim = 2"),
    (lambda: make_power_bond(-1, 2.0, 2.0), "c = -1"),
    (lambda: make_power_bond(math.nan, 2.0, 2.0), "c = nan"),
    (lambda: default_test_matrices(3, seed=-1), "seed = -1"),
    (lambda: random_rotation(3, seed=True), "seed = True"),
    (lambda: estimate_beta(BOND, seed=1.5), "seed = 1.5"),
    # refused although no dyad is drawn
    (lambda: convexify(directions=0, seed=-2), "seed = -2"),
    (lambda: compute_blowup(BOND, beta=1.0), "conflicts with the declared degree"),
    (lambda: energy(beta=0.5), "conflicts with the declared degree"),
], ids=["energy-beta-nan", "energy-beta-inf", "energy-delta-nan", "energy-delta-negative",
        "energy-margin-nan", "energy-margin-negative", "grids-side-inf", "grids-side-nan",
        "grids-horizon-past-half-box", "convexify-tol-negative",
        "convexify-tol-nan", "convexify-no-sweeps", "probe-no-trials", "sphere-order-fraction",
        "circle-order-fraction", "scan-beta-negative", "scan-beta-nan", "scan-beta-inf",
        "energy-degree-minus-dim", "energy-degree-below-minus-dim", "bond-c-negative",
        "bond-c-nan", "matrices-seed-negative", "rotation-seed-bool", "beta-seed-fraction",
        "convexify-seed-negative", "blowup-degree-conflict", "energy-degree-conflict"])
def test_library_refuses_and_names_the_argument(call, named):
    with pytest.raises(ValueError, match=named):
        call()


def test_a_degree_within_1e_9_of_the_declared_one_passes():
    assert compute_blowup(BOND, beta=5e-10).beta_hat == 5e-10
    assert energy(beta=-5e-10) == pytest.approx(energy(beta=0.0), rel=1e-8)


class NaNAt:
    """An evaluator whose ``call``-th call (counting from 0; -1 for none)
    returns NaN at flat index ``index`` (mod its size) of its output. It
    counts every call, so a run with ``call = -1`` counts the evaluations."""

    def __init__(self, fn, call=-1, index=0):
        self.fn, self.call, self.index, self.calls = fn, call, index, 0

    def __call__(self, *args):
        out = np.array(self.fn(*args), dtype=float)
        if self.calls == self.call:
            out.flat[self.index % out.size] = np.nan
        self.calls += 1
        return out


FROB2 = frobenius_squared().fn
A3 = np.diag([2.0, 0.5, 1.0])
BOND3 = make_power_bond(1.0, 2.0, 2.0, dim=3)
SMALL_DOM = BoxDomain((1.0, 1.0), (12, 12))


def _bond_energy(evaluator):
    bond = dataclasses.replace(BOND, fn=evaluator)
    return nonlocal_energy(bond, 0.0, 0.25, FIELD, SMALL_DOM, rule=build_rule(2, 8))


def _invariances(evaluator):  # the limit is built here, so its own samples count too
    limit = compute_blowup(dataclasses.replace(BOND3, fn=evaluator))
    return verify_limit_invariances(limit, A3, 2, 0, build_rule(3, 4))


def _scan(beta):
    def run(evaluator):
        g = ScalarProfile("well", {}, evaluator)
        return mooney_rivlin_inequality_check(beta, g, [1.0, 2.0, 4.0])
    return run


# entry point -> (run it with this evaluator in its model, the error it raises,
# the evaluator the model is built from)
VERDICT_ENTRY_POINTS = {
    "roundtrip_check": (
        lambda f: roundtrip_check(custom_energy(f, dim=3), build_rule(3, 4),
                                  default_test_matrices(3, randoms=2)),
        ValueError, FROB2),
    "verify_limit_invariances": (_invariances, BlowupError, BOND3.fn),
    "rank_one_convexify": (
        lambda f: rank_one_convexify(custom_energy(f), MatrixLattice(2, 1.0, 0.5, "full")),
        ValueError, FROB2),
    "strict_polyconvexity_probe": (
        lambda f: strict_polyconvexity_probe(custom_energy(f), trials=5, seed=0),
        ValueError, FROB2),
    "mooney_rivlin_inequality_check-cof-term": (_scan(1.0), ValueError, ScalarProfile.well().fn),
    "mooney_rivlin_inequality_check-growth": (_scan(0.0), ValueError, ScalarProfile.well().fn),
    "nonlocal_energy": (_bond_energy, ValueError, BOND.fn),
}


@functools.cache
def evaluations(name):
    run, _, fn = VERDICT_ENTRY_POINTS[name]
    counter = NaNAt(fn)
    run(counter)  # a clean run returns its result
    return counter.calls


@pytest.mark.parametrize("name", list(VERDICT_ENTRY_POINTS))
@settings(max_examples=25)
@given(data=st.data())
def test_nan_at_one_evaluation_never_yields_a_result(name, data):
    run, error, fn = VERDICT_ENTRY_POINTS[name]
    call = data.draw(st.integers(0, evaluations(name) - 1), label="call")
    index = data.draw(st.integers(0, 10**6), label="index")
    with pytest.raises(error):
        run(NaNAt(fn, call, index))
