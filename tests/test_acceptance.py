"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from peribond.convexify import MatrixLattice, rank_one_convexify
from peribond.horizon import DeformationField, convergence_study
from peribond.linalg import INF
from peribond.pipeline import (
    compute_blowup,
    estimate_beta,
    local_density,
    verify_limit_invariances,
)
from peribond.potentials import (
    PairwisePotential,
    ScalarProfile,
    affine_frobenius_squared,
    custom_energy,
    frobenius_power,
    make_incompressible_mr,
    make_mooney_rivlin,
    make_power_bond,
)
from peribond.quadrature import build_circle_rule, build_rule, build_sphere_rule
from peribond.recoverability import (
    jensen_counterexample_suite,
    mooney_rivlin_inequality_check,
    recoverability_residual,
    roundtrip_check,
)

MR_CONFIG = """\
[run]
task = recoverability

[density]
kind = mooney-rivlin
alpha = 1.0
beta = 1.0
g = well
"""


def report(num: int, ok: bool, text: str) -> bool:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {text}")
    return ok


def quadratic_bond(dim):
    sigma = 2 * math.pi if dim == 2 else 4 * math.pi
    return make_power_bond(dim / sigma, 2.0, 2.0, dim=dim)


def test_criterion_1_quadrature_moments():
    start = time.time()
    worst_w = 0.0
    worst_m = 0.0
    for rule in (build_circle_rule(64), build_sphere_rule(32)):
        worst_w = max(worst_w, abs(float(np.sum(rule.weights)) - rule.measure))
        n = rule.dim
        for j in range(n):
            for k in range(n):
                moment = float(np.dot(rule.weights, rule.nodes[:, j] * rule.nodes[:, k]))
                ref = rule.measure / n if j == k else 0.0
                worst_m = max(worst_m, abs(moment - ref))
    elapsed = time.time() - start
    ok = worst_w <= 1e-12 and worst_m <= 1e-10 and elapsed < 1.0
    assert report(
        1, ok,
        f"sphere-rule moments: weight-sum err {worst_w:.2e} <= 1e-12, "
        f"2nd-moment err {worst_m:.2e} <= 1e-10 ({elapsed:.2f}s)",
    )


def test_criterion_2_quadratic_bond_density():
    start = time.time()
    beta_ok = True
    worst = 0.0
    for dim in (2, 3):
        w = quadratic_bond(dim)
        beta_hat = estimate_beta(w)
        beta_ok &= abs(beta_hat) <= 1e-6
        limit = compute_blowup(w)
        rule = build_rule(dim, 32)
        rng = np.random.default_rng(dim)
        for _ in range(100):
            a = rng.standard_normal((dim, dim))
            worst = max(worst, abs(local_density(limit, a, rule) - float(np.sum(a * a))))
    elapsed = time.time() - start
    ok = beta_ok and worst <= 1e-8 and elapsed < 5.0
    assert report(
        2, ok,
        f"quadratic bond: degree 0 within 1e-6, worst |density - |A|^2| = "
        f"{worst:.2e} <= 1e-8 over 100 seeded A in n=2,3 ({elapsed:.2f}s)",
    )


def test_criterion_3_recoverability_positive_control():
    density = affine_frobenius_squared(1.0, 2.0)
    rep = roundtrip_check(density, build_sphere_rule(32))
    ok = rep.verdict == "consistent" and rep.max_abs_residual <= 1e-8
    assert report(
        3, ok,
        f"1 + 2|A|^2 roundtrip: verdict {rep.verdict}, max residual "
        f"{rep.max_abs_residual:.2e} <= 1e-8",
    )


def test_criterion_4_recoverability_negative_controls(tmp_path):
    start = time.time()
    quartic = recoverability_residual(
        frobenius_power(4.0), np.diag([1.0, 2.0]), build_circle_rule(64)
    )
    quartic_ok = abs(quartic - (-4.5)) <= 1e-6

    mr = make_mooney_rivlin(1.0, 1.0, ScalarProfile.well())
    stretch_res = recoverability_residual(mr, np.diag([2.0, 0.5, 1.0]), build_sphere_rule(32))
    rep = roundtrip_check(mr, build_sphere_rule(32))
    cfg = tmp_path / "mr.ini"
    cfg.write_text(MR_CONFIG)
    proc = subprocess.run(
        [sys.executable, "-m", "peribond.cli", "--config", str(cfg),
         "--out", str(tmp_path / "out"), "--no-timestamp"],
        capture_output=True, text=True,
    )
    elapsed = time.time() - start
    mr_ok = abs(stretch_res) > 0.1 and rep.verdict == "violated" and proc.returncode == 2
    ok = quartic_ok and mr_ok and elapsed < 5.0
    assert report(
        4, ok,
        f"|A|^4 residual {quartic:.6f} = -4.5 +- 1e-6; Mooney-Rivlin residual "
        f"{stretch_res:.3f} (>0.1), verdict {rep.verdict}, exit {proc.returncode} "
        f"({elapsed:.2f}s)",
    )


def test_criterion_5_incompressible_infinite_violation():
    density = make_incompressible_mr(1.0, 1.0)
    a = np.diag([2.0, 0.5, 1.0])
    lhs = density(a)
    res = recoverability_residual(density, a, build_sphere_rule(32))
    rep = roundtrip_check(density, build_sphere_rule(32), test_set=[a])
    ok = (
        math.isfinite(lhs)
        and res == -INF
        and rep.rows[0].classification == "infinite-violation"
        and rep.verdict == "infinite-violation"
    )
    assert report(
        5, ok,
        f"incompressible density at diag(2,1/2,1): finite value {lhs:.3f}, "
        f"infinite sphere mean, verdict {rep.verdict}",
    )


def test_criterion_6_jensen_margins():
    rule = build_sphere_rule(32)
    rep = jensen_counterexample_suite(3, rule)
    by_key = {(r.profile, tuple(np.diag(r.matrix))): r for r in rep.rows if r.case == "frobenius"}
    strict = by_key[("t^2", (1.0, 2.0, 1.0))].margin
    flat = by_key[("t^2", (1.0, 1.0, 1.0))].margin
    strict_neg = by_key[("-t^2", (1.0, 2.0, 1.0))].margin
    flat_neg = by_key[("-t^2", (1.0, 1.0, 1.0))].margin
    ok = (
        strict > 0.0
        and abs(flat) <= 1e-10
        and strict_neg < 0.0
        and abs(flat_neg) <= 1e-10
    )
    assert report(
        6, ok,
        f"convex-profile margin {strict:.3f} > 0 at diag(1,2,1), {flat:.1e} at I; "
        f"sign flips to {strict_neg:.3f} for the concave profile",
    )


def test_criterion_7_stretch_scans():
    start = time.time()
    lams = np.linspace(1.0, 100.0, 200)
    cof = mooney_rivlin_inequality_check(1.0, ScalarProfile.power(0.0, 0.0), lams)
    growth = mooney_rivlin_inequality_check(0.0, ScalarProfile.well(), lams)
    elapsed = time.time() - start
    ok = (
        cof.found and cof.lambda_star <= 100.0
        and growth.found and growth.branch == "growth"
        and elapsed < 10.0
    )
    assert report(
        7, ok,
        f"stretch scans: cof-term fails at lambda = {cof.lambda_star}, growth "
        f"branch fails at lambda = {growth.lambda_star} ({elapsed:.2f}s)",
    )


def test_criterion_8_convexification_fixed_points():
    lat = MatrixLattice(dim=3, bound=3.0, step=0.1, mode="diagonal")
    frob = rank_one_convexify(custom_energy(
        lambda m: np.sum(m * m, axis=(-2, -1)), "frob2"), lat, tol=1e-6, max_sweeps=40)
    mr = rank_one_convexify(
        make_mooney_rivlin(1.0, 1.0, ScalarProfile.well()), lat, tol=1e-6, max_sweeps=40
    )
    lat1 = MatrixLattice(dim=1, bound=2.0, step=0.05)
    dw = rank_one_convexify(
        custom_energy(lambda m: (m[..., 0, 0] ** 2 - 1.0) ** 2, "double-well"),
        lat1, tol=1e-9, max_sweeps=60,
    )
    coords = lat1.coordinates
    exact = np.where(np.abs(coords) <= 1.0, 0.0, (coords**2 - 1.0) ** 2)
    dw_err = float(np.max(np.abs(dw.values - exact)))
    ok = (
        frob.converged and frob.max_change_on_interior() <= 1e-5
        and mr.converged and mr.max_change_on_interior() <= 1e-5
        and dw_err <= 1e-4
    )
    assert report(
        8, ok,
        f"envelopes: |A|^2 change {frob.max_change_on_interior():.1e}, "
        f"Mooney-Rivlin change {mr.max_change_on_interior():.1e} (<= 1e-5), "
        f"double-well vs analytic {dw_err:.1e} <= 1e-4",
    )


def test_criterion_9_symmetry_inheritance():
    rule = build_sphere_rule(32)
    limit = compute_blowup(quadratic_bond(3))
    rng = np.random.default_rng(99)
    all_pass = True
    worst_ratio = 0.0
    for k in range(10):  # 10 matrices x 5 rotation pairs = 50 triples
        a = rng.standard_normal((3, 3))
        rep = verify_limit_invariances(limit, a, trials=5, seed=k, rule=rule)
        all_pass &= rep.passed
        worst_ratio = max(worst_ratio, rep.max_abs_deviation / rep.tolerance)

    def aniso(x, y):
        return x[..., 0] ** 2 * np.sum(y * y, axis=-1)

    control = PairwisePotential.from_evaluator(aniso, beta=4.0, ref_dim=3, def_dim=3)
    control_rep = verify_limit_invariances(
        compute_blowup(control), np.diag([1.0, 2.0, 3.0]), trials=20, seed=0, rule=rule
    )
    ok = all_pass and not control_rep.passed
    assert report(
        9, ok,
        f"rotation invariance holds over 50 random triples (worst dev / tol = "
        f"{worst_ratio:.2e}); anisotropic control fails as required",
    )


def test_criterion_10_horizon_convergence():
    start = time.time()
    study = convergence_study(
        quadratic_bond(2), 0.0, DeformationField.affine(np.diag([1.0, 2.0])),
        (1.0, 1.0), [0.2, 0.1, 0.05, 0.025], cells_per_horizon=8,
    )
    elapsed = time.time() - start
    slope = study.fitted_slope
    ok = slope >= 0.9 and elapsed < 120.0
    gaps = ", ".join(f"{row[3]:.4f}" for row in study.rows)
    assert report(
        10, ok,
        f"horizon-to-zero gaps [{gaps}] fit slope {slope:.3f} >= 0.9 ({elapsed:.1f}s)",
    )


def test_criterion_11_deterministic_reports(tmp_path):
    cfg = tmp_path / "mr.ini"
    cfg.write_text(MR_CONFIG)
    out = tmp_path / "out"
    args = [sys.executable, "-m", "peribond.cli", "--config", str(cfg),
            "--out", str(out), "--threads", "1", "--no-timestamp"]
    first = subprocess.run(args, capture_output=True, text=True)
    summary1 = (out / "summary.json").read_bytes()
    detail1 = (out / "detail.csv").read_bytes()
    second = subprocess.run(args, capture_output=True, text=True)
    same = (
        (out / "summary.json").read_bytes() == summary1
        and (out / "detail.csv").read_bytes() == detail1
    )
    ok = first.returncode == 2 and second.returncode == 2 and same
    assert report(
        11, ok,
        "identical config + seed + --threads 1 reproduce summary.json and "
        "detail.csv byte for byte",
    )


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v", "-s"]))
