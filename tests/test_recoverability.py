import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peribond.cli import MODELS, _json_safe, build_model, load_config
from peribond.linalg import INF, random_rotation
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
    cubic_mean_lower_constant,
    default_test_matrices,
    extract_candidate,
    jensen_counterexample_suite,
    mooney_rivlin_inequality_check,
    recoverability_residual,
    roundtrip_check,
)

RULE3 = build_sphere_rule(32)
RULE2 = build_circle_rule(64)

# Frozen from the closed-form angular integral (1 + 3 sin^2)^2 -> 59/8:
# lhs = 25, rhs = 4 * 59/8 = 29.5 for W = |A|^4 at diag(1, 2).
QUARTIC_RESIDUAL = -4.5

# Frozen from order-64 and order-128 rules agreeing to 4e-12.
MR_RESIDUAL_AT_STRETCH = -14.319531092277245


def test_residual_zero_for_frobenius_squared():
    rng = np.random.default_rng(21)
    density = frobenius_squared()
    for _ in range(20):
        a = rng.standard_normal((3, 3))
        assert abs(recoverability_residual(density, a, RULE3)) < 1e-9


def test_residual_quartic_reference():
    got = recoverability_residual(frobenius_power(4.0), np.diag([1.0, 2.0]), RULE2)
    assert got == pytest.approx(QUARTIC_RESIDUAL, abs=1e-6)


def test_residual_incompressible_one_sided_infinity():
    density = make_incompressible_mr(1.0, 1.0)
    a = np.diag([2.0, 0.5, 1.0])  # det 1: finite value, infinite sphere mean
    got = recoverability_residual(density, a, RULE3)
    assert got == -INF


def test_residual_indeterminate_when_both_sides_infinite():
    density = make_incompressible_mr(1.0, 0.0)
    with pytest.raises(IndeterminateResidualError):
        recoverability_residual(density, np.diag([2.0, 1.0, 1.0]), RULE3)


def test_residual_requires_square():
    with pytest.raises(ValueError):
        recoverability_residual(frobenius_squared(), np.ones((3, 2)), RULE2)


def test_residual_vanishes_on_identity_multiples():
    # |t I z| = t up to the 1e-14 node normalization, so both sides agree to
    # floating-point noise (exact equality is not attainable in floats)
    density = make_mooney_rivlin(1.0, 1.0, ScalarProfile.well())
    for t in (0.0, 0.5, 1.0, 2.0, 3.5):
        res = recoverability_residual(density, t * np.eye(3), RULE3)
        assert abs(res) < 5e-13 * (1.0 + abs(density(t * np.eye(3))))


def test_residual_rotation_invariance():
    density = make_mooney_rivlin(1.0, 1.0, ScalarProfile.well())
    a = np.diag([1.0, 2.0, 0.5])
    base = recoverability_residual(density, a, RULE3)
    for k in range(10):
        r1 = random_rotation(3, 2 * k)
        r2 = random_rotation(3, 2 * k + 1)
        got = recoverability_residual(density, r1 @ a @ r2, RULE3)
        assert abs(got - base) < 1e-8 * (1.0 + abs(base))


def test_extract_candidate_formulas():
    cand2 = extract_candidate(frobenius_squared(), 2)
    for t in (0.0, 0.5, 1.0, 2.0):
        assert cand2(t) == pytest.approx(2.0 * t * t / (2 * math.pi))
    cand3 = extract_candidate(frobenius_squared(), 3)
    assert cand3(2.0) == pytest.approx(3.0 * 4.0 / (4 * math.pi))
    assert cand3(0.0) == 0.0


def test_default_battery_composition():
    mats = default_test_matrices(3, seed=0)
    assert len(mats) == 27
    assert any(np.allclose(m, 2.0 * np.eye(3)) for m in mats)
    assert any(np.allclose(m, np.diag([2.0, 0.5, 1.0])) for m in mats)
    assert any(np.allclose(m, np.diag([1.0, 2.0, 3.0])) for m in mats)
    # deterministic battery
    again = default_test_matrices(3, seed=0)
    assert all(np.array_equal(a, b) for a, b in zip(mats, again))


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
    report = jensen_counterexample_suite(3, RULE3)
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
    report = jensen_counterexample_suite(2, RULE2)
    assert report.all_ok
    assert all(r.case == "frobenius" for r in report.rows)


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
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 1e-4),
)
def test_cubic_mean_constant_is_least_and_attained(entries, seed, eps):
    c = cubic_mean_lower_constant()
    b = np.array(entries).reshape(3, 3)
    isotropic = random_rotation(3, seed) / math.sqrt(3.0)
    # Jensen's floor holds for every unit-Frobenius matrix, also next to the minimizers
    for a in (b, isotropic + eps * b):
        norm = np.linalg.norm(a)
        if norm > 1e-3:
            assert cubic_mean(a / norm) >= c * (1.0 - 1e-12)
    # and R / sqrt(3) attains it: |Az| = 1/sqrt(3) at every node
    assert cubic_mean(isotropic) == pytest.approx(c, rel=1e-14)


def test_stretch_scan_cof_branch_finds_failure():
    lams = np.linspace(1.0, 100.0, 200)
    scan = mooney_rivlin_inequality_check(1.0, ScalarProfile.power(0.0, 0.0), lams)
    assert scan.branch == "cof-term"
    assert scan.found and scan.lambda_star <= 100.0
    assert scan.lhs_at_failure < scan.rhs_at_failure


def test_stretch_scan_growth_branch_finds_failure():
    lams = np.linspace(1.0, 100.0, 200)
    scan = mooney_rivlin_inequality_check(0.0, ScalarProfile.well(), lams)
    assert scan.branch == "growth"
    assert scan.found and scan.lambda_star <= 100.0


def test_stretch_scan_symmetric_point_no_violation():
    # with a/c = 1 the test matrix at lam = 1 is the identity and the
    # inequality holds with equality; nothing fails there
    scan = mooney_rivlin_inequality_check(
        1.0, ScalarProfile.power(0.0, 0.0), [1.0], c_value=1.0
    )
    assert not scan.found


def test_stretch_scan_constant_profile_inconclusive():
    scan = mooney_rivlin_inequality_check(
        0.0, ScalarProfile.power(0.0, 0.0), np.linspace(1, 50, 50)
    )
    assert scan.inconclusive


def test_scan_report_serializes():
    scan = mooney_rivlin_inequality_check(1.0, ScalarProfile.power(0.0, 0.0), [1.0, 2.0])
    blob = _json_safe(asdict(scan))
    json.dumps(blob, allow_nan=False)
    assert blob["branch"] == "cof-term"
    assert blob["lambda_star"] == 1.0 and "rows" not in blob


@pytest.mark.parametrize("kwargs, lams, named", [
    ({"a_value": 0.0}, [1.0], "a_value = 0.0"),
    ({"a_value": -1.0}, [1.0], "a_value = -1.0"),
    ({"a_value": math.nan}, [1.0], "a_value = nan"),
    ({"c_value": 0.0}, [1.0], "c_value = 0.0"),
    ({"c_value": math.inf}, [1.0], "c_value = inf"),
    ({}, [1.0, 0.0], "stretch = 0.0"),
    ({}, [-3.0, 2.0], "stretch = -3.0"),
    ({}, [1.0, math.nan], "stretch = nan"),
], ids=["a-0", "a-negative", "a-nan", "c-0", "c-inf", "stretch-0", "stretch-negative",
        "stretch-nan"])
def test_stretch_scan_rejects_bad_input(kwargs, lams, named):
    for beta, g in ((1.0, ScalarProfile.power(0.0, 0.0)), (0.0, ScalarProfile.well())):
        with pytest.raises(ValueError, match=named):
            mooney_rivlin_inequality_check(beta, g, lams, **kwargs)


DENSITY_DEFAULTS = load_config(None, overrides={"task": "recoverability"})["density"]


def _residual_or_none(density, a):
    try:
        return recoverability_residual(density, a, RULE3)
    except IndeterminateResidualError:
        return None


@pytest.mark.parametrize("kind", sorted(MODELS["density"]))
@settings(max_examples=20)
@given(
    singular=st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3),
    flip=st.booleans(),
    seeds=st.lists(st.integers(0, 2**16), min_size=4, max_size=4),
)
def test_residual_frame_indifferent_and_isotropic(kind, singular, flip, seeds):
    # W(R1 A R2) = W(A) for every registry density, and the sphere mean is
    # rotation invariant, so the residual is too (up to quadrature error)
    density = build_model("density", dict(DENSITY_DEFAULTS, kind=kind))
    u, v, r1, r2 = (random_rotation(3, seed) for seed in seeds)
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
