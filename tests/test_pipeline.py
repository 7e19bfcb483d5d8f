import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peribond import pipeline
from peribond.pipeline import (
    BlowupError,
    compute_blowup,
    estimate_beta,
    local_density,
    verify_limit_invariances,
)
from peribond.potentials import PairwisePotential, make_power_bond
from peribond.quadrature import build_circle_rule, build_rule, build_sphere_rule


def quadratic_bond(dim):
    sigma = 2 * math.pi if dim == 2 else 4 * math.pi
    return make_power_bond(dim / sigma, 2.0, 2.0, dim=dim)


LIMITS = {dim: compute_blowup(quadratic_bond(dim)) for dim in (2, 3)}


def reference_blowup(w, beta, x_ref, y_def, rel_tol=1e-7):
    """The blow-up limit evaluated on every level k = 4, ..., 12, of which
    the Cauchy test and the Aitken step read the finest three."""
    v = np.stack([np.asarray(w(2.0**-k * x_ref, 2.0**-k * y_def), dtype=float) / (2.0**-k) ** beta
                  for k in range(4, 13)])
    assert np.all(np.isfinite(v))
    assert np.all(np.abs(v[-1] - v[-2]) <= rel_tol * (1.0 + np.abs(v[-1])))
    d2 = v[-1] - 2.0 * v[-2] + v[-3]
    num = (v[-1] - v[-2]) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where(np.abs(d2) > 0.0, num / np.where(d2 == 0.0, 1.0, d2), 0.0)
    corr = np.where(np.abs(corr) <= np.abs(v[-1] - v[-2]), corr, 0.0)
    return v[-1] - corr


def test_blowup_homogeneous_is_identity():
    w = quadratic_bond(3)
    x = np.array([1.0, 0.5, -0.25])
    y = np.array([0.5, 2.0, 1.0])
    assert pipeline._blowup(w, 0.0, x, y) == pytest.approx(w(x, y), rel=1e-12)
    w21 = make_power_bond(1.5, 2.0, 1.0, dim=2)
    x2, y2 = np.array([2.0, 0.0]), np.array([1.0, 1.0])
    assert pipeline._blowup(w21, 1.0, x2, y2) == pytest.approx(1.5 * 2.0 / 2.0, rel=1e-12)


def test_blowup_wrong_degree_diverges():
    w = quadratic_bond(2)
    with pytest.raises(BlowupError):
        pipeline._blowup(w, 1.0, np.array([1.0, 0.0]), np.array([2.0, 0.0]))


def test_blowup_slow_tail_needs_depth():
    # w(t x, t y) = t^2 |y|^2 (1 + t |x|): degree 2 with an O(t) correction.
    # The grid still moves by ~2^-12 at its finest t and is rejected.
    w = PairwisePotential.from_radial_profile(
        lambda r, s: s * s * (1.0 + r), beta=2.0, ref_dim=2, def_dim=2
    )
    x, y = np.array([1.0, 0.0]), np.array([2.0, 0.0])
    with pytest.raises(BlowupError):
        pipeline._blowup(w, 2.0, x, y)


@pytest.mark.parametrize("profile, beta", [
    (lambda r, s: s * s / (r * r), 0.0),
    (lambda r, s: s**4 / r**3, 1.0),
    (lambda r, s: s * s / (r * r) * (1.0 + 1e-4 * r), 0.0),  # Aitken corrects
], ids=["p2q2", "p4q3", "tail"])
def test_blowup_reads_three_finest_levels(profile, beta):
    w = PairwisePotential.from_radial_profile(profile, ref_dim=2, def_dim=3)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((40, 2))
    y = rng.standard_normal((40, 3))
    levels = []

    def counted(x_ref, y_def):
        levels.append(round(-math.log2(np.max(np.abs(x_ref)) / np.max(np.abs(x)))))
        return w(x_ref, y_def)

    got = pipeline._blowup(counted, beta, x, y)
    assert levels == [10, 11, 12]
    assert np.array_equal(got, reference_blowup(w, beta, x, y))


def test_compute_blowup_checks_every_level_at_reference_pair():
    # not finite for |x| >= 2^-8: the kernel reads t <= 2^-10 only and accepts
    # the bond, compute_blowup samples every level and refuses it
    w = PairwisePotential.from_radial_profile(
        lambda r, s: np.where(r < 2.0**-8, s * s / (r * r), np.inf), ref_dim=2, def_dim=2
    )
    assert pipeline._blowup(w, 0.0, np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 4.0
    with pytest.raises(BlowupError, match="reference offset pair"):
        compute_blowup(w, beta=0.0)


def test_estimate_beta_powers():
    assert estimate_beta(make_power_bond(1.0, 4.0, 2.0)) == pytest.approx(2.0, abs=1e-6)
    assert estimate_beta(quadratic_bond(2)) == pytest.approx(0.0, abs=1e-6)


def test_estimate_beta_rejects_mixed_powers():
    w = PairwisePotential.from_radial_profile(
        lambda r, s: s * s / (r * r) + s**4 / (r * r), ref_dim=3, def_dim=3
    )
    with pytest.raises(ValueError):
        estimate_beta(w)


def test_compute_blowup_degree_conflict():
    w = quadratic_bond(2)
    with pytest.raises(ValueError):
        compute_blowup(w, beta=1.0)


def test_compute_blowup_estimates_when_unknown():
    w = PairwisePotential.from_radial_profile(
        lambda r, s: s**4 / r**2, ref_dim=2, def_dim=2
    )
    limit = compute_blowup(w, estimate_beta(w))
    assert limit.beta_hat == pytest.approx(2.0, abs=1e-6)
    assert limit.diagnostics["extrapolation_residual"] < 1e-10


def test_blowup_result_homogeneity():
    limit = compute_blowup(quadratic_bond(3))
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal(3), rng.standard_normal(3)
    base = limit.evaluate(x, y)
    for t in (0.5, 0.25):
        scaled = limit.evaluate(t * x, t * y)
        assert scaled == pytest.approx(t**limit.beta_hat * base, rel=1e-6)


@pytest.mark.parametrize("dim", [2, 3])
def test_local_density_recovers_frobenius_squared(dim):
    limit = compute_blowup(quadratic_bond(dim))
    rule = build_rule(dim, 32)
    rng = np.random.default_rng(17)
    for _ in range(25):
        a = rng.standard_normal((dim, dim))
        assert local_density(limit, a, rule) == pytest.approx(
            float(np.sum(a * a)), abs=1e-8
        )


@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=50)
@given(data=st.data())
def test_mean_value_identity_for_affine_frobenius(dim, data):
    # the quadratic bond n/|S^(n-1)| |y|^2/|x|^2 integrates to |A|^2: the
    # sphere mean of |Az|^2 is |A|^2/n, and the rule is exact for quadratics
    entries = data.draw(st.lists(st.floats(-5.0, 5.0), min_size=dim * dim, max_size=dim * dim))
    a = np.array(entries).reshape(dim, dim)
    got = local_density(LIMITS[dim], a, build_rule(dim, 32))
    assert abs(got - float(np.sum(a * a))) <= 1e-12 * float(np.sum(a * a))


def test_local_density_stacks_gradients():
    # one value per stacked gradient, equal to the single-matrix call; a
    # single matrix still gives a float
    rule = build_rule(3, 16)
    stack = np.random.default_rng(3).standard_normal((2, 5, 3, 3))
    got = local_density(LIMITS[3], stack, rule)
    assert got.shape == (2, 5)
    want = [[local_density(LIMITS[3], a, rule) for a in row] for row in stack]
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)
    assert isinstance(local_density(LIMITS[3], stack[0, 0], rule), float)


@pytest.mark.parametrize("dim, p, q", [(2, 2.0, 2.0), (3, 4.0, 3.0), (3, 2.5, 3.0)])
def test_local_density_of_stacked_gradients_matches_broadcast_nodes(dim, p, q):
    # the nodes go in unbroadcast: the same numbers as one reference offset
    # per (gradient, node) pair, with one norm per node
    limit = compute_blowup(make_power_bond(1.0, p, q, dim=dim))
    rule = build_rule(dim, 16)
    a = np.random.default_rng(dim).standard_normal((5, 4, dim, dim))
    y_def = rule.nodes @ np.swapaxes(a, -1, -2)
    x_ref = np.broadcast_to(rule.nodes, y_def.shape[:-1] + (dim,))
    want = rule.integrate(limit.evaluate(x_ref, y_def))
    assert np.array_equal(local_density(limit, a, rule), want)


def test_local_density_rectangular_gradient():
    # 3x2 gradient: directions live on the circle, images in R^3
    w = PairwisePotential.from_radial_profile(
        lambda r, s: s * s / (r * r), beta=0.0, ref_dim=2, def_dim=3
    )
    limit = compute_blowup(w)
    a = np.array([[1.0, 0.0], [0.0, 2.0], [0.5, 0.5]])
    rule = build_circle_rule(64)
    got = local_density(limit, a, rule)
    mean = rule.integrate(np.sum((rule.nodes @ a.T) ** 2, axis=-1)) / rule.measure
    assert got == pytest.approx(2 * math.pi * mean, rel=1e-12)


def test_local_density_quartic_profile():
    # oracle: closed-form angular integral of (1 + 3 sin^2)^2 gives 59/8,
    # so the surface integral is 2*pi * 59/8 = 59*pi/4
    w = PairwisePotential.from_radial_profile(
        lambda r, s: s**4, beta=4.0, ref_dim=2, def_dim=2
    )
    limit = compute_blowup(w)
    got = local_density(limit, np.diag([1.0, 2.0]), build_circle_rule(64))
    assert got == pytest.approx(59.0 * math.pi / 4.0, rel=1e-12)


def test_local_density_at_zero_matrix():
    limit = compute_blowup(quadratic_bond(2))
    assert local_density(limit, np.zeros((2, 2)), build_circle_rule(16)) == 0.0


def test_local_density_dimension_guard():
    limit = compute_blowup(quadratic_bond(2))
    with pytest.raises(ValueError):
        local_density(limit, np.eye(3), build_circle_rule(16))


def test_local_density_matches_sigma_times_mean():
    w = PairwisePotential.from_radial_profile(
        lambda r, s: s**4, beta=4.0, ref_dim=3, def_dim=3
    )
    limit = compute_blowup(w)
    rule = build_sphere_rule(32)
    a = np.diag([1.0, 2.0, 0.5])
    integral = local_density(limit, a, rule)
    mean = rule.integrate(np.linalg.norm(rule.nodes @ a.T, axis=-1) ** 4) / rule.measure
    assert integral == pytest.approx(rule.measure * mean, rel=1e-12)


def test_local_density_scaling_in_gradient():
    # Scaling A only rescales the deformed offsets, so the density inherits
    # the deformed-slot degree p of the bond (not the pair degree p - q).
    p = 3.0
    w = make_power_bond(0.7, p, 1.0, dim=2)
    limit = compute_blowup(w)
    rule = build_circle_rule(64)
    a = np.array([[1.0, 0.3], [-0.2, 1.5]])
    base = local_density(limit, a, rule)
    for t in (0.5, 2.0):
        got = local_density(limit, t * a, rule)
        assert got == pytest.approx(t**p * base, rel=1e-7)


def test_local_density_quadrature_refinement():
    limit = compute_blowup(quadratic_bond(3))
    a = np.diag([1.0, 2.0, 3.0]) * (4.0 / math.sqrt(14.0))  # |A| = 4
    coarse = local_density(limit, a, build_sphere_rule(32))
    fine = local_density(limit, a, build_sphere_rule(64))
    assert abs(coarse - fine) < 1e-8


def test_invariance_check_passes_for_radial_bond():
    limit = compute_blowup(quadratic_bond(3))
    rule = build_sphere_rule(32)
    report = verify_limit_invariances(limit, np.diag([1.0, 2.0, 3.0]), 20, rule)
    assert report.passed
    assert report.max_abs_deviation <= report.tolerance


def test_invariance_exact_at_identity_rotations():
    limit = compute_blowup(quadratic_bond(3))
    rule = build_sphere_rule(16)
    a = np.diag([1.0, 2.0, 3.0])
    eye = np.eye(3)
    assert local_density(limit, eye @ a @ eye, rule) == local_density(limit, a, rule)


def test_invariance_check_fails_for_anisotropic_control():
    def aniso(x, y):
        return x[..., 0] ** 2 * np.sum(y * y, axis=-1)

    w = PairwisePotential("custom", {}, aniso, beta=4.0, ref_dim=3, def_dim=3)
    limit = compute_blowup(w)
    report = verify_limit_invariances(
        limit, np.diag([1.0, 2.0, 3.0]), 20, build_sphere_rule(32)
    )
    assert not report.passed


def test_invariance_check_refuses_zero_trials():
    # with no trial every density would pass, the anisotropic control above too
    limit = compute_blowup(quadratic_bond(3))
    with pytest.raises(ValueError, match="trials"):
        verify_limit_invariances(limit, np.diag([1.0, 2.0, 3.0]), 0, build_sphere_rule(32))
