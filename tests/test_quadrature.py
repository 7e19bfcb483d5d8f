import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peribond.linalg import INF
from peribond.potentials import ScalarProfile, make_mooney_rivlin
from peribond.quadrature import (
    build_circle_rule,
    build_rule,
    build_sphere_rule,
    sphere_measure,
)
from conftest import rotations


def test_sphere_measure():
    assert sphere_measure(2) == pytest.approx(2 * math.pi)
    assert sphere_measure(3) == pytest.approx(4 * math.pi)
    with pytest.raises(ValueError):
        sphere_measure(4)


@pytest.mark.parametrize("rule", [build_circle_rule(64), build_sphere_rule(32)])
def test_rule_invariants(rule):
    norms = np.linalg.norm(rule.nodes, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-14
    assert np.all(rule.weights > 0.0)
    assert abs(np.sum(rule.weights) - rule.measure) < 1e-12
    n = rule.dim
    for j in range(n):
        for k in range(n):
            moment = float(np.dot(rule.weights, rule.nodes[:, j] * rule.nodes[:, k]))
            ref = rule.measure / n if j == k else 0.0
            assert abs(moment - ref) < 1e-10


def test_sphere_rule_matches_scipy_gauss_legendre():
    roots_legendre = pytest.importorskip("scipy.special").roots_legendre

    for order in range(2, 129):
        t, wt = roots_legendre(order)
        nphi = 2 * order
        phi = 2.0 * math.pi * (np.arange(nphi) + 0.5) / nphi
        st = np.sqrt(1.0 - t * t)
        nodes = np.stack([
            np.outer(st, np.cos(phi)).ravel(),
            np.outer(st, np.sin(phi)).ravel(),
            np.repeat(t, nphi),
        ], axis=1)
        weights = np.repeat(wt * (2.0 * math.pi / nphi), nphi)
        rule = build_sphere_rule(order)
        assert np.max(np.abs(rule.nodes - nodes)) <= 1e-13, order
        assert np.max(np.abs(rule.weights - weights)) <= 1e-13, order


def test_circle_examples():
    rule = build_circle_rule(8)
    assert rule.integrate(np.ones(8)) == pytest.approx(2 * math.pi, abs=1e-12)
    rule = build_circle_rule(16)
    assert rule.integrate(rule.nodes[:, 0] ** 2) == pytest.approx(math.pi, abs=1e-12)
    # oracle: closed-form angular integral of cos^4 is (3/8) * 2*pi
    assert rule.integrate(rule.nodes[:, 0] ** 4) == pytest.approx(
        0.375 * 2 * math.pi, abs=1e-12
    )


def test_integrate_stacked_rows():
    # one integral per row of (..., N) values: a row holding +inf gives
    # +inf (also next to -inf), a NaN anywhere raises
    rule = build_circle_rule(8)
    rows = np.stack([np.ones(8), rule.nodes[:, 0] ** 2, np.full(8, -1.0)])
    rows[2, 3], rows[2, 5] = math.inf, -math.inf
    got = rule.integrate(rows)
    assert got[0] == rule.integrate(rows[0]) and got[1] == rule.integrate(rows[1])
    assert got[2] == math.inf
    assert rule.integrate(rows[None]).shape == (1, 3)
    rows[0, 0] = math.nan
    with pytest.raises(ValueError, match="NaN"):
        rule.integrate(rows)


def test_circle_rejects_too_few_points():
    with pytest.raises(ValueError):
        build_circle_rule(3)


def test_sphere_examples():
    rule = build_sphere_rule(32)
    assert rule.integrate(np.ones(len(rule))) == pytest.approx(4 * math.pi, abs=1e-12)
    # oracle: 1D Gauss integral of t^4 on [-1, 1] times 2*pi
    t, w = np.polynomial.legendre.leggauss(8)
    oracle = 2 * math.pi * float(np.dot(w, t**4))
    assert rule.integrate(rule.nodes[:, 2] ** 4) == pytest.approx(oracle, abs=1e-11)


def test_sphere_rejects_low_order():
    with pytest.raises(ValueError):
        build_sphere_rule(1)


def test_build_rule_dispatch():
    assert build_rule(2, 32).dim == 2
    assert len(build_rule(2, 32)) == 64
    assert build_rule(3, 32).dim == 3
    with pytest.raises(ValueError):
        build_rule(4, 32)


def test_mean_quadratic_identity():
    # oracle: mean |Az|^2 = |A|^2 / n by degree-2 exactness
    a = np.diag([1.0, 2.0])
    rule = build_circle_rule(64)
    got = rule.integrate(np.sum((rule.nodes @ a.T) ** 2, axis=-1)) / rule.measure
    assert got == pytest.approx(2.5, abs=1e-12)


def test_mean_infinity_absorbs():
    rule = build_circle_rule(8)
    values = np.zeros(8)
    values[3] = INF
    assert rule.integrate(values) / rule.measure == INF


def test_mean_nan_is_error():
    rule = build_circle_rule(8)
    with pytest.raises(ValueError):
        rule.integrate(np.full(len(rule), math.nan))


@pytest.mark.parametrize("dim,order", [(2, 20), (3, 20)])
@settings(max_examples=5)
@given(data=st.data())
def test_mean_rotation_invariance(dim, order, data):
    rule = build_rule(dim, order)
    v = np.arange(1.0, dim + 1.0)
    v /= np.linalg.norm(v)

    def smooth(z):
        return np.exp(0.7 * z @ v)

    r = data.draw(rotations(dim))
    base = rule.integrate(smooth(rule.nodes)) / rule.measure
    rotated = rule.integrate(smooth(rule.nodes @ r.T)) / rule.measure
    assert abs(rotated - base) < 1e-8 * (1 + abs(base))


def test_refinement_convergence_on_builtin_density():
    # doubling the order moves the mean of a built-in density by < 1e-8
    density = make_mooney_rivlin(1.0, 1.0, ScalarProfile.well())
    a = np.diag([1.0, 2.0, 3.0])  # |A| <= 4
    assert math.sqrt(np.sum(a * a)) <= 4.0

    def f(rule):
        t = np.linalg.norm(rule.nodes @ a.T, axis=-1)
        mats = t[:, None, None] * np.eye(3)
        return rule.integrate(density(mats)) / rule.measure

    coarse, fine = f(build_sphere_rule(32)), f(build_sphere_rule(64))
    assert abs(coarse - fine) < 1e-8
