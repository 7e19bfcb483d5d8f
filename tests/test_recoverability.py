import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peribond.cli import MODELS, _json_safe, build_model, load_config
from peribond.linalg import INF
from peribond.pipeline import compute_blowup, local_density
from peribond.potentials import (
    ScalarProfile,
    affine_frobenius_squared,
    custom_energy,
    frobenius_power,
    frobenius_squared,
    make_incompressible_mr,
    make_mooney_rivlin,
    make_power_bond,
    make_profile_energy,
)
from peribond.quadrature import build_circle_rule, build_rule, build_sphere_rule, sphere_measure
from peribond.recoverability import (
    IndeterminateResidualError,
    _stretch_mean,
    cubic_mean_lower_constant,
    default_test_matrices,
    extract_candidate,
    jensen_counterexample_suite,
    mooney_rivlin_inequality_check,
    roundtrip_check,
)
from conftest import rotations

RULE3 = build_sphere_rule(32)
RULE2 = build_circle_rule(64)
DENSITY_DEFAULTS = load_config(None, overrides={"task": "recoverability"})["density"]

# Frozen from the closed-form angular integral (1 + 3 sin^2)^2 -> 59/8:
# lhs = 25, rhs = 4 * 59/8 = 29.5 for W = |A|^4 at diag(1, 2).
QUARTIC_RESIDUAL = -4.5

# Frozen from order-64 and order-128 rules agreeing to 4e-12.
MR_RESIDUAL_AT_STRETCH = -14.319531092277245


def _residual(density, a, rule):
    """One matrix's residual W(A) minus the stretch mean: a one-row battery."""
    return roundtrip_check(density, rule, [a]).rows[0].residual


def test_residual_zero_for_frobenius_squared():
    rng = np.random.default_rng(21)
    density = frobenius_squared()
    for _ in range(20):
        a = rng.standard_normal((3, 3))
        assert abs(_residual(density, a, RULE3)) < 1e-9


def test_residual_quartic_reference():
    got = _residual(frobenius_power(4.0), np.diag([1.0, 2.0]), RULE2)
    assert got == pytest.approx(QUARTIC_RESIDUAL, abs=1e-6)


def test_residual_incompressible_one_sided_infinity():
    density = make_incompressible_mr(1.0, 1.0)
    a = np.diag([2.0, 0.5, 1.0])  # det 1: finite value, infinite sphere mean
    got = _residual(density, a, RULE3)
    assert got == -INF


def test_residual_indeterminate_when_both_sides_infinite():
    density = make_incompressible_mr(1.0, 0.0)
    with pytest.raises(IndeterminateResidualError):
        _residual(density, np.diag([2.0, 1.0, 1.0]), RULE3)


def test_residual_requires_square():
    with pytest.raises(ValueError):
        _residual(frobenius_squared(), np.ones((3, 2)), RULE2)


def test_residual_vanishes_on_identity_multiples():
    # |t I z| = t up to the 1e-14 node normalization, so both sides agree to
    # floating-point noise (exact equality is not attainable in floats)
    density = make_mooney_rivlin(1.0, 1.0, ScalarProfile.well())
    for t in (0.0, 0.5, 1.0, 2.0, 3.5):
        res = _residual(density, t * np.eye(3), RULE3)
        assert abs(res) < 5e-13 * (1.0 + abs(density(t * np.eye(3))))


@settings(max_examples=10)
@given(r1=rotations(3), r2=rotations(3))
def test_residual_rotation_invariance(r1, r2):
    density = make_mooney_rivlin(1.0, 1.0, ScalarProfile.well())
    a = np.diag([1.0, 2.0, 0.5])
    base = _residual(density, a, RULE3)
    got = _residual(density, r1 @ a @ r2, RULE3)
    assert abs(got - base) < 1e-8 * (1.0 + abs(base))


def test_extract_candidate_formulas():
    cand2 = extract_candidate(frobenius_squared(), 2)
    for t in (0.0, 0.5, 1.0, 2.0):
        assert cand2(t) == pytest.approx(2.0 * t * t / (2 * math.pi))
    cand3 = extract_candidate(frobenius_squared(), 3)
    assert cand3(2.0) == pytest.approx(3.0 * 4.0 / (4 * math.pi))
    assert cand3(0.0) == 0.0


def test_default_battery_composition():
    mats = default_test_matrices(3)
    assert len(mats) == 27
    assert any(np.allclose(m, 2.0 * np.eye(3)) for m in mats)
    assert any(np.allclose(m, np.diag([2.0, 0.5, 1.0])) for m in mats)
    assert any(np.allclose(m, np.diag([1.0, 2.0, 3.0])) for m in mats)
    # a fixed battery: fewer randoms are the first of the same draws
    again = default_test_matrices(3, randoms=5)
    assert all(np.array_equal(a, b) for a, b in zip(again, mats))


def test_library_rejects_negative_counts_and_tolerances():
    with pytest.raises(ValueError, match="randoms"):
        default_test_matrices(3, randoms=-3)
    with pytest.raises(ValueError, match="rel_tol"):
        roundtrip_check(frobenius_squared(), RULE3, rel_tol=-1.0)
    with pytest.raises(ValueError, match="rel_tol"):
        roundtrip_check(frobenius_squared(), RULE3, rel_tol=math.nan)


def test_roundtrip_consistent_for_affine_frobenius():
    report = roundtrip_check(affine_frobenius_squared(1.0, 2.0), RULE3)
    assert report.verdict == "consistent"
    assert report.max_abs_residual <= 1e-8
    assert all(r.within_tol for r in report.rows)


def test_roundtrip_residuals_stay_small_under_refinement():
    for order in (8, 16, 32):
        report = roundtrip_check(
            affine_frobenius_squared(1.0, 2.0), build_sphere_rule(order)
        )
        assert report.max_abs_residual <= 1e-9


def test_roundtrip_violated_for_mooney_rivlin():
    density = make_mooney_rivlin(1.0, 1.0, ScalarProfile.well())
    stretch = np.diag([2.0, 0.5, 1.0])
    report = roundtrip_check(density, RULE3, test_set=[stretch])
    assert report.verdict == "violated"
    row = report.rows[0]
    assert abs(row.residual) > 0.1
    assert row.residual == pytest.approx(MR_RESIDUAL_AT_STRETCH, abs=1e-6)


def test_roundtrip_infinite_violation_verdict():
    density = make_incompressible_mr(1.0, 1.0)
    report = roundtrip_check(density, RULE3)
    assert report.verdict == "infinite-violation"
    kinds = {r.classification for r in report.rows}
    assert "infinite-violation" in kinds
    assert any("det A - 1" in note for note in report.notes)


@pytest.mark.parametrize("kind", ["mooney-rivlin", "neo-hookean", "profile-det",
                                  "incompressible-mr"])
def test_indicator_densities_with_deciding_rows_keep_their_verdict(kind):
    # three rows of the battery are finite on one side and infinite on the
    # other, which decides; compare test_refusals, where no row does
    density = build_model("density", dict(DENSITY_DEFAULTS, kind=kind, g="indicator"))
    report = roundtrip_check(density, RULE3)
    assert report.verdict == "infinite-violation"
    assert sum(r.classification == "infinite-violation" for r in report.rows) == 3


def test_report_serialization():
    report = roundtrip_check(make_incompressible_mr(1.0, 0.0), RULE3)
    blob = _json_safe(asdict(report))
    json.dumps(blob, allow_nan=False)  # no bare inf or nan is left
    assert blob["verdict"] == report.verdict
    assert any(row["residual"] in ("inf", "-inf", "nan") for row in blob["rows"])


def test_incompressibility_note_follows_the_model_not_its_label():
    rule = build_sphere_rule(16)
    labelled = custom_energy(lambda a: np.sum(a * a, axis=(-2, -1)), label="indicator")
    assert roundtrip_check(labelled, rule).notes == ()
    det_indicator = make_profile_energy("det", ScalarProfile.indicator())
    notes = roundtrip_check(det_indicator, rule).notes
    assert any("det A - 1" in note for note in notes)


def test_jensen_suite_margins():
    report = jensen_counterexample_suite(RULE3)
    assert report.all_ok
    by_key = {(r.case, r.profile, tuple(np.diag(r.matrix))): r for r in report.rows}
    strict = by_key[("frobenius", "t^2", (1.0, 2.0, 1.0))]
    # closed form: 9 * mean (1 + 3 z2^2)^2 - 36 = 9 * 24/5 - 36 = 7.2
    assert strict.margin == pytest.approx(7.2, abs=1e-9)
    flat = by_key[("frobenius", "t^2", (1.0, 1.0, 1.0))]
    assert abs(flat.margin) <= 1e-10
    concave = by_key[("frobenius", "-t^2", (1.0, 2.0, 1.0))]
    assert concave.margin == pytest.approx(-7.2, abs=1e-9)
    cof = by_key[("cofactor", "t^2", (2.0, 0.5, 1.0))]
    assert cof.margin > 0.0


def test_jensen_suite_two_dimensional():
    report = jensen_counterexample_suite(RULE2)
    assert report.all_ok
    assert all(r.case == "frobenius" for r in report.rows)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("order", [16, 32, 64])
def test_jensen_frobenius_margins_are_minus_the_residual(dim, order):
    rule = build_rule(dim, order)
    rows = [r for r in jensen_counterexample_suite(rule).rows if r.case == "frobenius"]
    assert len(rows) == 4
    for r in rows:
        sign = {"t^2": 1.0, "-t^2": -1.0}[r.profile]
        density = make_profile_energy("frobenius", ScalarProfile.power(sign, 2.0))
        assert r.margin == -_residual(density, r.matrix, rule)


@pytest.mark.parametrize("order", [16, 32, 64])
def test_jensen_cofactor_margin_is_the_stretch_mean_less_a_quartic(order):
    rule = build_sphere_rule(order)
    (row,) = [r for r in jensen_counterexample_suite(rule).rows if r.case == "cofactor"]
    cof2 = make_profile_energy("cof", ScalarProfile.power(1.0, 2.0))
    quartic = float(np.sum(row.matrix**2)) ** 2 / 3.0
    assert row.margin == pytest.approx(_stretch_mean(cof2, row.matrix, rule) - quartic, rel=1e-15)
    assert row.margin >= 0.0
    # closed form at diag(2, 1/2, 1): 3 * mean |Az|^4 - 5.25^2 / 3 = 12.3375 - 9.1875
    assert row.margin == pytest.approx(3.15, rel=1e-13)


def test_cubic_mean_constant_close_to_isotropic_floor():
    assert cubic_mean_lower_constant() == 3.0**-1.5


def unblocked_cubic_mean(rule, grid=96, seed=0, randoms=200):
    """Reference search: the nonnegative diagonal family on an octant grid as
    one (N, grid^2) array, plus seeded random full matrices."""
    mean_w = rule.weights / rule.measure
    z2 = rule.nodes**2
    theta = np.linspace(0.0, math.pi / 2.0, grid)
    tt, pp = np.meshgrid(theta, theta, indexing="ij")
    s = np.stack(
        [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
    ).reshape(-1, 3)
    best = float((mean_w @ (z2 @ (s * s).T) ** 1.5).min())
    rng = np.random.default_rng(seed)
    for _ in range(randoms):
        a = rng.standard_normal((3, 3))
        a /= np.linalg.norm(a)
        m = float(np.dot(mean_w, np.linalg.norm(rule.nodes @ a.T, axis=-1) ** 3))
        best = min(best, m)
    return best


@pytest.mark.parametrize("order, grid", [(32, 96), (8, 40), (16, 33)])
def test_cubic_mean_grid_search_brackets_closed_form(order, grid):
    # a search never goes below the least value, and comes close to it
    ref = unblocked_cubic_mean(build_sphere_rule(order), grid=grid)
    assert 3.0**-1.5 * (1.0 - 1e-12) <= ref <= 3.0**-1.5 + 1e-4


def cubic_mean(a, rule=RULE3):
    """Sphere mean of |Az|^3 on ``rule``."""
    cubes = np.linalg.norm(rule.nodes @ a.T, axis=-1) ** 3
    return float(np.dot(rule.weights / rule.measure, cubes))


@settings(max_examples=200)
@given(
    st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
    rotations(3),
    st.floats(0.0, 1e-4),
)
def test_cubic_mean_constant_is_least_and_attained(entries, r, eps):
    c = cubic_mean_lower_constant()
    b = np.array(entries).reshape(3, 3)
    isotropic = r / math.sqrt(3.0)
    # Jensen's floor holds for every unit-Frobenius matrix, also next to the minimizers
    for a in (b, isotropic + eps * b):
        norm = np.linalg.norm(a)
        if norm > 1e-3:
            assert cubic_mean(a / norm) >= c * (1.0 - 1e-12)
    # and R / sqrt(3) attains it: |Az| = 1/sqrt(3) at every node
    assert cubic_mean(isotropic) == pytest.approx(c, rel=1e-14)


def test_stretch_scan_cof_branch_finds_failure():
    scan = mooney_rivlin_inequality_check(1.0, ScalarProfile.power(0.0, 0.0))
    assert scan.branch == "cof-term"
    assert scan.found and scan.lambda_star <= 100.0
    assert scan.lhs_at_failure < scan.rhs_at_failure


def test_stretch_scan_growth_branch_finds_failure():
    scan = mooney_rivlin_inequality_check(0.0, ScalarProfile.well())
    assert scan.branch == "growth"
    assert scan.found and scan.lambda_star <= 100.0


def test_stretch_scan_constant_profile_inconclusive():
    scan = mooney_rivlin_inequality_check(0.0, ScalarProfile.power(0.0, 0.0))
    assert scan.inconclusive


def test_scan_report_serializes():
    scan = mooney_rivlin_inequality_check(1.0, ScalarProfile.power(0.0, 0.0))
    blob = _json_safe(asdict(scan))
    json.dumps(blob, allow_nan=False)
    assert blob["branch"] == "cof-term"
    assert blob["lambda_star"] == 1.0 and "rows" not in blob


def _residual_or_none(density, a):
    try:
        return _residual(density, a, RULE3)
    except IndeterminateResidualError:
        return None


@pytest.mark.parametrize("kind", sorted(MODELS["density"]))
@settings(max_examples=20)
@given(
    singular=st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3),
    flip=st.booleans(),
    turns=st.tuples(*[rotations(3)] * 4),
)
def test_residual_frame_indifferent_and_isotropic(kind, singular, flip, turns):
    # W(R1 A R2) = W(A) for every registry density, and the sphere mean is
    # rotation invariant, so the residual is too (up to quadrature error)
    density = build_model("density", dict(DENSITY_DEFAULTS, kind=kind))
    u, v, r1, r2 = turns
    a = (-1.0 if flip else 1.0) * u @ np.diag(singular) @ v
    base = _residual_or_none(density, a)
    moved = _residual_or_none(density, r1 @ a @ r2)
    if base is None or math.isinf(base):
        assert moved == base
    else:
        assert abs(moved - base) <= 1e-8 * (1.0 + abs(base))


RULE_2D = build_rule(2, 32)


@settings(max_examples=20, deadline=None)
@given(
    c=st.floats(0.1, 10.0),
    p=st.floats(1.0, 4.0),
    q=st.floats(0.0, 4.0),
    eps=st.floats(0.01, 1.0),
)
def test_every_bond_limit_passes_the_screen(c, p, q, eps):
    # the paper's loop: the local density W of a power bond's blow-up is
    # recoverable, so the screen at the same rule order finds it consistent;
    # a volumetric term breaks the identity, a Frobenius term keeps it
    limit = compute_blowup(make_power_bond(c, p, q, dim=2))

    def w(a):
        return local_density(limit, a, RULE_2D)

    def verdict(fn):
        return roundtrip_check(custom_energy(fn, dim=2), RULE_2D).verdict

    assert verdict(w) == "consistent"
    assert verdict(lambda a: w(a) + eps * (np.linalg.det(a) - 1.0) ** 2) == "violated"
    assert verdict(lambda a: w(a) + eps * np.sum(a * a, axis=(-2, -1))) == "consistent"
