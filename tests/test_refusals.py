"""Library entry points refuse out-of-range arguments with a ValueError that
names the argument, instead of running on and returning a vacuous result,
refuse a degree that conflicts with the bond's on every public route,
refuse a recoverability battery that no row decides, and refuse a model
that is NaN at a single evaluation."""

import dataclasses
import functools
import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import peribond
from peribond.convexify import MatrixLattice, rank_one_convexify
from peribond.horizon import (
    BoxDomain,
    DeformationField,
    convergence_study,
    nonlocal_energy,
    study_grids,
)
from peribond.pipeline import BlowupError, compute_blowup, verify_limit_invariances
from peribond.potentials import (
    PairwisePotential,
    ScalarProfile,
    custom_energy,
    frobenius_squared,
    make_mooney_rivlin,
    make_power_bond,
    make_profile_energy,
)
from peribond.quadrature import build_circle_rule, build_rule, build_sphere_rule
from peribond.recoverability import (
    IndeterminateResidualError,
    default_test_matrices,
    mooney_rivlin_inequality_check,
    roundtrip_check,
)

BOND = make_power_bond(1.0 / math.pi, 2.0, 2.0, dim=2)  # declares degree 0
UNDECLARED = PairwisePotential.from_radial_profile(lambda r, s: s * s / (r * r), ref_dim=2, def_dim=2)
FIELD = DeformationField.affine([[1.0, 0.0], [0.0, 2.0]])
DOM = BoxDomain((1.0, 1.0), (40, 40))
LATTICE = MatrixLattice(dim=1, bound=1.0, step=0.5)


def energy(beta=0.0, delta=0.1):
    return nonlocal_energy(BOND, beta, delta, FIELD, DOM)


def study(beta):
    return convergence_study(BOND, beta, FIELD, (1.0, 1.0), [0.2, 0.1], 8)


def invariances(trials):
    return verify_limit_invariances(compute_blowup(BOND), np.eye(2), trials, build_rule(2, 8))


def convexify(**kwargs):
    return rank_one_convexify(frobenius_squared(), LATTICE, **kwargs)


def scan(beta):
    return mooney_rivlin_inequality_check(beta, ScalarProfile.power(0.0, 0.0))


@pytest.mark.parametrize("call, named", [
    (lambda: energy(beta=math.nan), "beta = nan"),
    (lambda: energy(beta=math.inf), "beta = inf"),
    (lambda: energy(beta=None), "beta = None, dim = 2"),
    (lambda: energy(delta=math.nan), "delta = nan"),
    (lambda: energy(delta=-0.1), "delta = -0.1"),
    (lambda: study_grids((1.0, math.inf), [0.2, 0.1], 8), r"sides = \(1.0, inf\)"),
    (lambda: study_grids((1.0, math.nan), [0.2, 0.1], 8), r"sides = \(1.0, nan\)"),
    (lambda: study_grids((1.0, 1.0), [0.8, 0.4], 8), "delta = 0.8"),
    (lambda: study_grids((1.0, 1.0), [0.2, 0.1, 0.2], 8), r"deltas = \[0.2, 0.1, 0.2\]"),
    (lambda: convexify(tol=-1.0), "tol = -1.0"),
    (lambda: convexify(tol=math.nan), "tol = nan"),
    (lambda: convexify(max_sweeps=0), "max_sweeps = 0"),
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
    # refused although no dyad is drawn
    (lambda: convexify(directions=0, seed=-2), "seed = -2"),
    (lambda: compute_blowup(BOND, beta=1.0), "conflicts with the declared degree"),
    (lambda: energy(beta=0.5), "conflicts with the declared degree"),
    # with no row every density would be consistent
    (lambda: roundtrip_check(make_mooney_rivlin(1.0, 1.0, ScalarProfile.well()),
                             build_rule(3, 8), []), "test_set"),
    # the degree is checked before the blow-up, which would raise BlowupError
    (lambda: study(math.nan), "beta = nan"),
    (lambda: study(None), "beta = None, dim = 2"),
    # a bool or a fraction is no count: True would run once, 2.5 fail in range
    (lambda: invariances(True), "trials = True"),
    (lambda: invariances(2.5), "trials = 2.5"),
    (lambda: default_test_matrices(2, randoms=True), "randoms = True"),
    (lambda: default_test_matrices(2, randoms=1.5), "randoms = 1.5"),
    (lambda: convexify(max_sweeps=True), "max_sweeps = True"),
    (lambda: convexify(max_sweeps=2.5), "max_sweeps = 2.5"),
    (lambda: build_sphere_rule(3.0), "order = 3.0"),
    (lambda: build_circle_rule(6.5), "points = 6.5"),
    # refused before the blow-up, which would raise BlowupError or take False as 0
    (lambda: compute_blowup(BOND, beta=math.nan), "beta = nan"),
    (lambda: compute_blowup(UNDECLARED, beta=math.inf), "beta = inf"),
    (lambda: compute_blowup(UNDECLARED, beta=False), "beta = False"),
    # no degree is estimated unseen
    (lambda: compute_blowup(UNDECLARED), "beta = None: .*'custom-radial'.*estimate_beta"),
    # a bool is no real number: each of these would run as if 1.0 were passed
    (lambda: make_power_bond(True, 2.0, 2.0, dim=2), "c = True"),
    (lambda: roundtrip_check(frobenius_squared(), build_rule(3, 4), rel_tol=True),
     "rel_tol = True"),
    (lambda: MatrixLattice(dim=2, bound=True, step=0.5), "bound = True"),
    (lambda: convexify(tol=True), "tol = True"),
    (lambda: BoxDomain((True, 1.0), (8, 8)), r"sides = \(True, 1.0\)"),
    (lambda: energy(delta=True), "delta = True"),
    (lambda: scan(True), "beta = True"),
    (lambda: study_grids((True, 1.0), [0.2, 0.1], 8), r"sides = \(True, 1.0\)"),
    (lambda: study_grids((3.0, 3.0), [True, 0.5], 8), r"deltas = \[True, 0.5\]"),
], ids=["energy-beta-nan", "energy-beta-inf", "energy-beta-none", "energy-delta-nan",
        "energy-delta-negative", "grids-side-inf", "grids-side-nan",
        "grids-horizon-past-half-box", "grids-horizon-repeated", "convexify-tol-negative",
        "convexify-tol-nan", "convexify-no-sweeps", "sphere-order-fraction",
        "circle-order-fraction", "scan-beta-negative", "scan-beta-nan", "scan-beta-inf",
        "energy-degree-minus-dim", "energy-degree-below-minus-dim", "bond-c-negative",
        "bond-c-nan", "convexify-seed-negative", "blowup-degree-conflict",
        "energy-degree-conflict", "roundtrip-empty-battery", "study-beta-nan", "study-beta-none",
        "invariances-trials-bool", "invariances-trials-fraction", "battery-randoms-bool",
        "battery-randoms-fraction", "convexify-sweeps-bool", "convexify-sweeps-fraction",
        "sphere-rule-float-order", "circle-rule-fraction", "blowup-beta-nan", "undeclared-beta-inf",
        "undeclared-beta-bool", "blowup-degree-unknown", "bond-c-bool", "roundtrip-tol-bool",
        "lattice-bound-bool", "convexify-tol-bool", "box-side-bool", "energy-delta-bool",
        "scan-beta-bool", "grids-side-bool", "grids-horizon-bool"])
def test_library_refuses_and_names_the_argument(call, named):
    with pytest.raises(ValueError, match=named):
        call()


# every public function taking a bond w and a degree beta -> a minimal call
DEGREE_ROUTES = {
    "compute_blowup": lambda beta: compute_blowup(BOND, beta),
    "nonlocal_energy": energy,
    "convergence_study": study,
}


def test_no_public_route_skips_the_degree_contract():
    # a route that takes beta unchecked returns a wrong value silently: at
    # -2.5 the declared degree-0 bond's scaled limit is about 4e-25
    routes = {name for name in peribond.__all__
              if inspect.isfunction(getattr(peribond, name))
              and {"w", "beta"} <= inspect.signature(getattr(peribond, name)).parameters.keys()}
    assert routes == DEGREE_ROUTES.keys()
    for call in DEGREE_ROUTES.values():
        for beta in (1.0, -2.5):
            with pytest.raises(ValueError, match="degree"):
                call(beta)


@pytest.mark.parametrize("invariant, dim", [("frobenius", 2), ("frobenius", 3), ("cof", 3)])
def test_roundtrip_refuses_a_battery_no_row_decides(invariant, dim):
    # g = indicator: W(A) and the mean of W(|Az| I) are +inf on all 27 rows,
    # which like an empty battery would read a vacuous 'consistent'. Yet the
    # density is not recoverable: W(A) = 0 at A = diag(1, 0, ...) for |A|^2
    # and at diag(1, 1, 0) for |cof A|, where W(|Az| I) is +inf for almost
    # every z
    density = make_profile_energy(invariant, ScalarProfile.indicator())
    with pytest.raises(IndeterminateResidualError,
                       match=f"'profile-{invariant}' .* all 27 test matrices"):
        roundtrip_check(density, build_rule(dim, 32))


def test_a_degree_within_1e_9_of_the_declared_one_passes():
    assert compute_blowup(BOND, beta=5e-10).beta_hat == 5e-10
    assert energy(beta=-5e-10) == pytest.approx(energy(beta=0.0), rel=1e-8)


@settings(max_examples=300)
@given(declared=st.none() | st.floats(allow_nan=False, allow_infinity=False),
       passed=st.none() | st.booleans() | st.floats())
def test_degree_is_the_passed_finite_float_or_the_declared_one(declared, passed):
    bond = dataclasses.replace(UNDECLARED, beta=declared)
    finite = passed is not None and not isinstance(passed, bool) and math.isfinite(passed)
    if passed is None:
        assert bond.degree(passed) is declared
    elif finite and (declared is None or abs(passed - declared) <= 1e-9):
        assert bond.degree(passed) is passed
    else:
        named = "conflicts with the declared degree" if finite else f"beta = {passed!r}"
        with pytest.raises(ValueError, match=re.escape(named)):
            bond.degree(passed)


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
    return verify_limit_invariances(limit, A3, 2, build_rule(3, 4))


def _scan(beta):
    def run(evaluator):
        g = ScalarProfile("well", {}, evaluator)
        return mooney_rivlin_inequality_check(beta, g)
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
