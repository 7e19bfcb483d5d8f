import itertools
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from peribond import horizon
from peribond.horizon import (
    BoxDomain,
    DeformationField,
    _ball_octant,
    _clipping_classes,
    _disk_quadrant,
    _margin_cells,
    _multilinear,
    _near_block_integral,
    _offset_coverage,
    _offset_stencil,
    convergence_study,
    local_reference,
    nonlocal_energy,
    two_grid_estimate,
)
from peribond.linalg import random_rotation
from peribond.pipeline import BlowupError, BlowupResult, compute_blowup, local_density
from peribond.potentials import PairwisePotential, make_power_bond
from peribond.quadrature import SphereQuadrature, build_rule

A2 = np.diag([1.0, 2.0])


def quadratic_bond(dim):
    sigma = 2 * math.pi if dim == 2 else 4 * math.pi
    return make_power_bond(dim / sigma, 2.0, 2.0, dim=dim)


def reference_near_block_integral(
    w, field, dom, centers, directions, dir_weights, radial_nodes
):
    """The polar near-block integral one center at a time, as a loop."""
    gl_x, gl_w = leggauss(radial_nodes)
    half = 1.5 * dom.spacing
    sides = np.asarray(dom.sides)
    d = directions
    with np.errstate(divide="ignore"):
        r_block = np.min(np.where(np.abs(d) > 0, half / np.abs(d), np.inf), axis=1)
    out = np.zeros(len(centers))
    for i, x0 in enumerate(centers):
        with np.errstate(divide="ignore", invalid="ignore"):
            t_hi = np.where(d > 0, (sides - x0) / d, np.inf)
            t_lo = np.where(d < 0, -x0 / d, np.inf)
        r_dom = np.minimum(np.min(t_hi, axis=1), np.min(t_lo, axis=1))
        r = np.minimum(r_block, r_dom)
        acc = np.zeros(len(d))
        for gx, gw in zip(gl_x, gl_w):
            rho = 0.5 * r * (1.0 + gx)
            offs = rho[:, None] * d
            diffs = field.difference(np.broadcast_to(x0, offs.shape), x0 - offs)
            vals = np.asarray(w(offs, diffs), dtype=float)
            acc += gw * 0.5 * r * rho ** (dom.dim - 1) * vals
        out[i] = float(np.dot(dir_weights, acc))
    return out


def reference_near_block_stacked_walls(w, field, dom, centers, rule):
    """The chunked near block with every wall's ray parameter stacked in
    (C, M, dim) arrays and reduced by np.min over the last axis, the form
    that clipping one wall at a time replaced; kept to pin its floats."""
    half = 1.5 * dom.spacing
    sides = np.asarray(dom.sides)
    d = rule.nodes
    with np.errstate(divide="ignore"):
        r_block = np.min(np.where(np.abs(d) > 0, half / np.abs(d), np.inf), axis=1)
    step = max(1, horizon._NEAR_CHUNK // d.size)
    out = np.empty(len(centers))
    for start in range(0, len(centers), step):
        x0 = centers[start:start + step, None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            t_hi = np.where(d > 0, (sides - x0) / d, np.inf)
            t_lo = np.where(d < 0, -x0 / d, np.inf)
        r = np.minimum(r_block, np.minimum(np.min(t_hi, axis=2), np.min(t_lo, axis=2)))
        acc = np.zeros(r.shape)
        u0 = None if field.kind == "affine" else field.evaluate(x0)
        for gx, gw in zip(horizon._RADIAL_X, horizon._RADIAL_W):
            rho = 0.5 * r * (1.0 + gx)
            offs = rho[..., None] * d
            y = x0 - offs
            diffs = field.difference(x0, y) if u0 is None else u0 - field.evaluate(y)
            acc += gw * 0.5 * r * rho ** (dom.dim - 1) * np.asarray(w(offs, diffs), dtype=float)
        out[start:start + step] = rule.integrate(acc)
    return out


def reference_local_reference(limit, field, dom, rule):
    """The local reference of a non-affine field, one cell at a time."""
    grads = field.gradient(dom.centers())
    total = 0.0
    for g in grads.reshape(-1, *grads.shape[-2:]):
        total += local_density(limit, g, rule)
    return total * dom.cell_volume


def reference_circle_box_area(a1, b1, a2, b2, radius):
    """Area of the centered disk inside [a1, b1] x [a2, b2] by piecewise
    Gauss integration of the chord length, the 2D rim rule before the closed
    form. The chord has a square-root end point where the circle's extreme
    point lies inside the cell, which costs up to about 1e-7 of a cell there."""
    nodes, weights = leggauss(24)
    breaks = {a1, b1}
    for edge in (abs(a2), abs(b2)):
        if edge < radius:
            x_star = math.sqrt(radius * radius - edge * edge)
            for s in (x_star, -x_star):
                if a1 < s < b1:
                    breaks.add(s)
    for s in (radius, -radius):
        if a1 < s < b1:
            breaks.add(s)
    pts = sorted(breaks)
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        if hi <= -radius or lo >= radius:
            continue
        xm = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
        g = np.sqrt(np.maximum(radius * radius - xm * xm, 0.0))
        chord = np.maximum(np.minimum(b2, g) - np.maximum(a2, -g), 0.0)
        total += 0.5 * (hi - lo) * float(np.dot(weights, chord))
    return total


def reference_voxel_fraction(k, h, delta, n):
    """Share of the n^3 voxel centers of the offset cell k inside the ball,
    the 3D rim rule before the exact coverage. It counts the centers one
    z-column at a time, so a 192^3 count stays cheap."""
    lo = (np.asarray(k) - 0.5) * h
    gx, gy = np.meshgrid(*[lo[j] + h[j] * (np.arange(n) + 0.5) / n
                           for j in range(2)], indexing="ij")
    rest = delta * delta - gx * gx - gy * gy
    reach = np.sqrt(np.maximum(rest, 0.0))
    dz = h[2] / n  # centers lo_z + (m + 1/2) dz, m = 0 .. n - 1
    top = np.clip(np.floor((reach - lo[2]) / dz - 0.5), -1, n - 1)
    bottom = np.clip(np.ceil((-reach - lo[2]) / dz - 0.5), 0, n)
    count = np.where(rest >= 0.0, np.maximum(top - bottom + 1, 0), 0)
    return float(np.sum(count)) / n ** 3


def outer_centers(dom, margins):
    inner = tuple(slice(m, n - m) for m, n in zip(margins, dom.resolution))
    return dom.centers()[inner].reshape(-1, dom.dim)


def analytic_2d():
    return DeformationField.analytic(lambda p: np.stack(
        [p[..., 0] + 0.1 * np.sin(2 * p[..., 1]), p[..., 1] + 0.2 * p[..., 0] ** 2], axis=-1
    ))


def test_box_domain_geometry():
    dom = BoxDomain((1.0, 2.0), (10, 40))
    assert dom.dim == 2
    assert np.allclose(dom.spacing, [0.1, 0.05])
    assert dom.cell_volume == pytest.approx(0.005)
    centers = dom.centers()
    assert centers.shape == (10, 40, 2)
    assert centers[0, 0, 0] == pytest.approx(0.05)
    with pytest.raises(ValueError):
        BoxDomain((1.0,), (4,))
    with pytest.raises(ValueError):
        BoxDomain((1.0, -1.0), (4, 4))


@pytest.mark.parametrize("sides, res, named", [
    ((1.0, 1.0), (30.5, 30), "(30.5, 30)"),
    ((1.0, 1.0), (30.0, 30), "(30.0, 30)"),
    ((1.0, 1.0), (True, 30), "(True, 30)"),
    ((1.0, 1.0), (0, 30), "(0, 30)"),
    ((math.nan, 1.0), (30, 30), "(nan, 1.0)"),
    ((1.0, math.inf), (30, 30), "(1.0, inf)"),
    ((0.0, 1.0), (30, 30), "(0.0, 1.0)"),
], ids=["fractional-cells", "float-cells", "bool-cells", "no-cells", "nan-side", "inf-side",
        "zero-side"])
def test_box_domain_refuses_grids_it_cannot_represent(sides, res, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        BoxDomain(sides, res)


def test_affine_field_differences_exact():
    u = DeformationField.affine(A2)
    x = np.array([0.3, 0.7])
    y = np.array([0.1, 0.2])
    assert np.array_equal(u.difference(x, y), (x - y) @ A2.T)
    assert np.allclose(u.gradient(np.stack([x, y]))[0], A2)


def test_analytic_field_probe_and_gradient():
    u = DeformationField.analytic(lambda p: np.stack(
        [p[..., 0] ** 2, p[..., 0] * p[..., 1]], axis=-1
    ))
    pts = np.array([[0.5, 0.25]])
    grad = u.gradient(pts)[0]
    assert u.out_dim == 2  # read off the first evaluation
    expect = np.array([[1.0, 0.0], [0.25, 0.5]])
    assert np.max(np.abs(grad - expect)) < 1e-6


def test_analytic_3d_field_without_out_dim():
    u = DeformationField.analytic(lambda p: p @ np.eye(3).T)
    pts = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
    assert np.allclose(u.evaluate(pts), pts)
    assert u.out_dim == 3
    assert np.allclose(u.gradient(pts), np.eye(3), atol=1e-8)
    # per-cell local reference on a fresh field; the central-difference
    # gradients carry a rounding error of about 1e-10
    fresh = DeformationField.analytic(lambda p: p @ np.eye(3).T)
    limit = compute_blowup(quadratic_bond(3), 0.0)
    dom = BoxDomain((1.0, 1.0, 1.0), (2, 2, 2))
    assert local_reference(limit, fresh, dom, build_rule(3, 16)) == pytest.approx(3.0, rel=1e-8)


def test_sampled_field_interpolates_grid_values():
    dom = BoxDomain((1.0, 1.0), (8, 8))
    values = np.sin(dom.centers())  # shape (8, 8, 2)
    u = DeformationField.sampled(values, dom)
    centers = dom.centers().reshape(-1, 2)
    got = u.evaluate(centers).reshape(8, 8, 2)
    assert np.max(np.abs(got - values)) < 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_multilinear_matches_map_coordinates(dim):
    map_coordinates = pytest.importorskip("scipy.ndimage").map_coordinates
    rng = np.random.default_rng(dim)
    grid = (5, 7, 4)[:dim]
    values = rng.standard_normal(grid + (3,))
    values[rng.uniform(size=values.shape) < 0.05] = np.nan
    top = np.array(grid) - 1
    coords = {
        "integer": rng.integers(-2, top + 3, (4000, dim)).astype(float),
        "half-integer": rng.integers(-2, top + 2, (4000, dim)) + 0.5,
        "random": rng.uniform(0.0, top, (4000, dim)),
        "past-the-grid": rng.uniform(-3.0, top + 3.0, (4000, dim)),
    }
    scale = np.nanmax(np.abs(values))
    for name, idx in coords.items():
        got = _multilinear(values, idx)
        for j in range(values.shape[-1]):
            want = map_coordinates(values[..., j], idx.T, order=1, mode="nearest")
            assert np.array_equal(np.isnan(got[:, j]), np.isnan(want)), name
            ok = ~np.isnan(want)
            assert np.all(np.abs(got[ok, j] - want[ok]) <= 1e-14 * scale), name


def test_multilinear_nan_corner_and_edge():
    values = np.arange(12.0).reshape(3, 4, 1)
    values[1, 2, 0] = np.nan

    def at(*point):
        return _multilinear(values, np.array([point], dtype=float))[0, 0]

    # on the grid point (1, 1) the NaN at (1, 2) is a corner of weight 0
    assert np.isnan(at(1.0, 1.0))
    assert at(0.0, 3.0) == values[0, 3, 0]  # no NaN corner: the grid value
    # past the grid each corner index clamps to the edge
    assert at(5.5, -2.0) == values[2, 0, 0]
    assert at(-0.5, 3.5) == values[0, 3, 0]


@pytest.mark.parametrize("sides, res", [((1.0, 1.3), (8, 10)), ((1.0, 0.7, 1.2), (5, 4, 6))],
                         ids=["2d", "3d"])
def test_sampled_gradient_is_quarter_cell_central_differences(sides, res):
    dom = BoxDomain(sides, res)
    u = DeformationField.sampled(np.sin(3.0 * dom.centers()), dom)
    pts = np.random.default_rng(1).uniform(0.0, 1.0, (40, dom.dim)) * sides
    eps = float(np.min(dom.spacing)) / 4.0
    cols = []
    for j in range(dom.dim):
        step = np.zeros(dom.dim)
        step[j] = eps
        cols.append((u.evaluate(pts + step) - u.evaluate(pts - step)) / (2 * eps))
    grad = u.gradient(pts)
    assert grad.shape == (40, dom.dim, dom.dim)
    assert np.array_equal(grad, np.stack(cols, axis=-1))


def test_sampled_difference_broadcasts_like_two_evaluations():
    dom = BoxDomain((1.0, 1.0), (8, 8))
    u = DeformationField.sampled(np.sin(3.0 * dom.centers()), dom)
    pts = np.random.default_rng(0).uniform(0.0, 1.0, (50, 2))
    x0 = np.array([0.3, 0.6])
    assert np.array_equal(u.difference(x0, pts), u.evaluate(x0) - u.evaluate(pts))


def test_zero_field_energy_is_zero():
    dom = BoxDomain((1.0, 1.0), (40, 40))
    w = quadratic_bond(2)
    zero = DeformationField.affine(np.zeros((2, 2)))
    assert nonlocal_energy(w, 0.0, 0.1, zero, dom) == 0.0


@pytest.mark.parametrize("sides, res, delta, a", [
    ((1.0, 1.0), (40, 40), 0.1, A2),
    ((1.0, 1.0, 1.0), (12, 12, 12), 0.25, np.diag([1.0, 2.0, 0.5])),
], ids=["2d", "3d"])
def test_energy_linear_in_potential(sides, res, delta, a):
    dom = BoxDomain(sides, res)
    dim = dom.dim
    u = DeformationField.affine(a)
    one = nonlocal_energy(quadratic_bond(dim), 0.0, delta, u, dom)
    sigma = 2 * math.pi if dim == 2 else 4 * math.pi
    double = nonlocal_energy(
        make_power_bond(2 * dim / sigma, 2.0, 2.0, dim=dim), 0.0, delta, u, dom
    )
    assert double == pytest.approx(2 * one, rel=1e-14)
    assert type(one) is float and type(double) is float


def test_translation_invariance():
    # affine pair differences drop any constant shift identically; sampled
    # fields pick up only rounding from the shifted samples
    dom = BoxDomain((1.0, 1.0), (40, 40))
    w = quadratic_bond(2)
    u = DeformationField.affine(A2)
    base = nonlocal_energy(w, 0.0, 0.1, u, dom)
    values = dom.centers() @ A2.T
    shifted = DeformationField.sampled(values + 17.0, dom)
    plain = DeformationField.sampled(values, dom)
    e_plain = nonlocal_energy(w, 0.0, 0.1, plain, dom)
    e_shift = nonlocal_energy(w, 0.0, 0.1, shifted, dom)
    # the interpolant clamps beyond the outermost centers, so the sampled
    # field only approximates the affine one near the walls
    assert e_plain == pytest.approx(base, rel=1e-2)
    assert e_shift == pytest.approx(e_plain, rel=1e-12)


def test_frame_invariance():
    dom = BoxDomain((1.0, 1.0), (40, 40))
    w = quadratic_bond(2)
    base = nonlocal_energy(w, 0.0, 0.1, DeformationField.affine(A2), dom)
    for seed in range(3):
        r = random_rotation(2, seed)
        rotated = nonlocal_energy(w, 0.0, 0.1, DeformationField.affine(r @ A2), dom)
        assert abs(rotated - base) < 1e-9 * (1 + abs(base))


def test_interior_restricted_matches_local_density():
    # oracle: for a degree-beta bond the full-ball inner integral equals
    # delta^(n+beta)/(n+beta) times the local density, so the restricted
    # energy is (covered area) * density(A)
    dom = BoxDomain((1.0, 1.0), (80, 80))
    w = quadratic_bond(2)
    delta = 0.1
    got = nonlocal_energy(w, 0.0, delta, DeformationField.affine(A2), dom,
                          outer_margin=delta)
    h = dom.spacing[0]
    per_axis = sum(
        1 for i in range(dom.resolution[0]) if min((i + 0.5) * h, 1 - (i + 0.5) * h) >= delta
    )
    covered = (per_axis * h) ** 2
    expect = covered * 5.0  # |A|^2
    assert got == pytest.approx(expect, rel=2e-4)


@pytest.mark.parametrize("sides, res, delta, a", [
    ((1.0, 1.0), (40, 40), 0.1, A2),
    ((1.0, 1.0, 1.0), (12, 12, 12), 0.25, np.diag([1.0, 2.0, 0.5])),
], ids=["2d", "3d"])
def test_general_path_matches_affine_path(sides, res, delta, a):
    dom = BoxDomain(sides, res)
    w = quadratic_bond(dom.dim)
    fast = nonlocal_energy(w, 0.0, delta, DeformationField.affine(a), dom)
    slow = nonlocal_energy(
        w, 0.0, delta, DeformationField.analytic(lambda p: p @ a.T, out_dim=dom.dim), dom
    )
    assert slow == pytest.approx(fast, rel=1e-12)


def test_three_dimensional_energy_identity():
    w = quadratic_bond(3)
    dom = BoxDomain((1.0, 1.0, 1.0), (16, 16, 16))
    a = np.diag([1.0, 2.0, 0.5])
    got = nonlocal_energy(w, 0.0, 0.25, DeformationField.affine(a), dom,
                          outer_margin=0.25)
    per_axis = 8  # centers at (i+.5)/16 with distance >= 0.25 from both walls
    covered = (per_axis / 16.0) ** 3
    assert got == pytest.approx(covered * float(np.sum(a * a)), rel=2e-3)


def test_energy_validations():
    dom = BoxDomain((1.0, 1.0), (40, 40))
    u = DeformationField.affine(A2)
    w = quadratic_bond(2)
    with pytest.raises(ValueError):
        nonlocal_energy(w, 0.0, 0.6, u, dom)  # horizon >= half the side
    with pytest.raises(ValueError):
        nonlocal_energy(w, 0.0, 0.05, u, dom)  # spans two cells only
    with pytest.raises(ValueError):
        nonlocal_energy(w, 1.0, 0.1, u, dom)  # degree conflicts with bond
    with pytest.raises(ValueError):
        nonlocal_energy(w, 0.0, 0.1, u, dom, outer_margin=0.6)


@pytest.mark.parametrize("block", ["far", "near"])
def test_energy_raises_on_nan_bond_values(block):
    # 30^2 cells, delta = 0.1: outer cells start at x = 0.117 under the 0.1
    # margin, so their near blocks stop at x = 0.067 while the far field
    # reaches partners down to x = 0.017. The second field is NaN off the
    # cell centers, which only the near block's polar nodes leave.
    dom = BoxDomain((1.0, 1.0), (30, 30))
    if block == "far":
        u = DeformationField.analytic(
            lambda p: np.where(p[..., :1] < 0.06, np.nan, p), out_dim=2)
    else:
        def u_fn(p):
            idx = p * 30 - 0.5
            on_grid = np.all(np.abs(idx - np.rint(idx)) < 1e-9, axis=-1)
            return np.where(on_grid[..., None], p, np.nan)
        u = DeformationField.analytic(u_fn, out_dim=2)
    with pytest.raises(ValueError, match="far-field" if block == "far" else "quadrature node"):
        nonlocal_energy(quadratic_bond(2), 0.0, 0.1, u, dom, outer_margin=0.1)


def test_energy_rejects_rule_of_other_dimension():
    dom = BoxDomain((1.0, 1.0), (40, 40))
    with pytest.raises(ValueError, match="S\\^2"):
        nonlocal_energy(quadratic_bond(2), 0.0, 0.1, DeformationField.affine(A2), dom,
                        rule=build_rule(3, 8))


@pytest.mark.parametrize("kwargs, named", [
    ({"deltas": []}, "deltas"),
    ({"deltas": [0.2, 0.0]}, "deltas"),
    ({"deltas": [0.2, -0.1]}, "deltas"),
    ({"deltas": [0.2, math.nan]}, "deltas"),
    ({"cells_per_horizon": 0}, "cells_per_horizon"),
    ({"cells_per_horizon": 2}, "cells_per_horizon"),
    ({"cells_per_horizon": 8.5}, "cells_per_horizon"),
    ({"cells_per_horizon": True}, "cells_per_horizon"),
])
def test_convergence_study_rejects_bad_input(kwargs, named):
    args = {"deltas": [0.2, 0.1], "cells_per_horizon": 8, **kwargs}
    with pytest.raises(ValueError, match=named):
        convergence_study(quadratic_bond(2), 0.0, DeformationField.affine(A2), (1.0, 1.0),
                          args.pop("deltas"), **args)


def test_two_grid_estimate_bounds_refinement():
    # halving h again moves the energy by less than the reported estimate
    w = quadratic_bond(2)
    u = DeformationField.affine(A2)
    dom = BoxDomain((1.0, 1.0), (20, 20))
    fine, estimate = two_grid_estimate(w, 0.0, 0.2, u, dom)
    finer = nonlocal_energy(w, 0.0, 0.2, u, BoxDomain((1.0, 1.0), (80, 80)))
    assert abs(finer - fine) <= estimate


def test_convergence_study_affine():
    study = convergence_study(
        quadratic_bond(2), 0.0, DeformationField.affine(A2), (1.0, 1.0),
        [0.2, 0.1], cells_per_horizon=8,
    )
    assert len(study.rows) == 2
    d0, e0, ref0, gap0, s0 = study.rows[0]
    assert ref0 == pytest.approx(5.0)
    assert math.isnan(s0)
    assert study.rows[1][4] == pytest.approx(study.fitted_slope)
    assert 0.8 <= study.fitted_slope <= 1.2


@pytest.mark.parametrize("gaps, slope", [
    ((0.4, 0.2, 0.1), 0.97),
    ((0.4,), math.nan),  # one row fits no slope
    ((0.4, 0.0, 0.1), math.nan),  # a zero gap has no logarithm
    ((0.4, math.nan, 0.1), math.nan),
], ids=["slope", "one-row", "zero-gap", "nan-gap"])
def test_fitted_slope_reads_last_running_slope(gaps, slope):
    # 0.97 stands for the running slope convergence_study writes in each row
    rows = [(0.2 / 2**i, 1.0 + gap, 1.0, gap, 0.97) for i, gap in enumerate(gaps)]
    assert horizon.ConvergenceStudy(rows).fitted_slope == pytest.approx(slope, nan_ok=True)


def test_convergence_study_smooth_field_gaps_shrink():
    # quadratic map: gaps must decrease monotonically as the horizon shrinks
    u = DeformationField.analytic(
        lambda p: np.stack([p[..., 0] ** 2, p[..., 1] ** 2 + p[..., 0]], axis=-1),
        grad_fn=lambda p: np.stack(
            [
                np.stack([2 * p[..., 0], np.zeros_like(p[..., 0])], axis=-1),
                np.stack([np.ones_like(p[..., 0]), 2 * p[..., 1]], axis=-1),
            ],
            axis=-2,
        ),
    )
    study = convergence_study(
        quadratic_bond(2), 0.0, u, (1.0, 1.0), [0.25, 0.125], cells_per_horizon=6,
        rule=build_rule(2, 16),
    )
    gaps = [row[3] for row in study.rows]
    assert gaps[1] < gaps[0]



@pytest.mark.parametrize("sides, res, delta, margin", [
    ((1.0, 1.0), (40, 40), 0.1, 0.0),
    ((1.0, 1.0), (40, 40), 0.1, 0.1),
    ((1.0, 1.3), (37, 52), 0.1, 0.0),
    ((1.0, 1.3), (37, 52), 0.1, 0.1),
    ((1.0, 1.0, 1.0), (24, 24, 24), 0.15, 0.0),
    ((1.0, 1.0, 1.0), (24, 24, 24), 0.15, 0.15),
    ((1.0, 1.2, 1.1), (20, 30, 25), 0.18, 0.0),
    ((1.0, 1.2, 1.1), (20, 30, 25), 0.18, 0.18),
])
def test_affine_clipping_classes_match_per_center_loop(sides, res, delta, margin):
    dom = BoxDomain(sides, res)
    dim = dom.dim
    a = np.eye(dim) + 0.3 * np.random.default_rng(dim).standard_normal((dim, dim))
    w, u = quadratic_bond(dim), DeformationField.affine(a)
    rule = build_rule(dim, 32 if dim == 2 else 4)
    dirs, weights = rule.nodes, rule.weights
    margins = _margin_cells(dom, margin)
    centers, counts = _clipping_classes(dom, margins)
    values = _near_block_integral(w, u, dom, centers, rule)
    # the loop at the midpoint for the cells off the walls, and at every
    # outermost ("ring") cell itself
    cells = outer_centers(dom, margins)
    idx = np.rint(cells / dom.spacing - 0.5).astype(int)
    ring = np.any((idx == 0) | (idx == np.array(res) - 1), axis=1)
    mid = np.asarray(sides)[None, :] / 2.0
    want = (len(cells) - np.count_nonzero(ring)) * reference_near_block_integral(
        w, u, dom, mid, dirs, weights, 8)[0]
    want += float(np.sum(reference_near_block_integral(w, u, dom, cells[ring], dirs, weights, 8)))
    got = float(np.sum(counts * values))
    assert abs(got - want) <= 1e-12 * abs(want)
    # the classes cover every outer cell once, and each cell's own integral
    # is its class's (per axis: 0 first cell, 1 inner, 2 last cell)
    assert len(counts) == (3 ** dim if margin == 0 else 1)
    assert counts.sum() == len(cells)
    per_cell = _near_block_integral(w, u, dom, cells, rule)
    cell_class = np.where(idx == 0, 0, np.where(idx == np.array(res) - 1, 2, 1))
    h = dom.spacing
    rep_class = np.where(centers < h, 0, np.where(centers > np.array(sides) - h, 2, 1))
    for key, count, value in zip(rep_class, counts, values):
        mine = np.all(cell_class == key, axis=1)
        assert np.count_nonzero(mine) == count
        assert np.all(np.abs(per_cell[mine] - value) <= 1e-12 * value)


def test_general_near_block_chunks_match_per_center_loop():
    # 40^2 centers with 64 directions: chunks of 512 centers, the last one
    # partial
    dom = BoxDomain((1.0, 1.0), (40, 40))
    w, u = quadratic_bond(2), analytic_2d()
    rule = build_rule(2, 32)
    dirs, weights = rule.nodes, rule.weights
    centers = outer_centers(dom, [0, 0])
    assert len(centers) > 512 and len(centers) % 512
    got = _near_block_integral(w, u, dom, centers, rule)
    want = reference_near_block_integral(w, u, dom, centers, dirs, weights, 8)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def sampled_field(dom, seed):
    rng = np.random.default_rng(seed)
    centers = dom.centers()
    return DeformationField.sampled(centers + 0.05 * rng.standard_normal(centers.shape), dom)


@pytest.mark.parametrize("case", ["sampled-2d", "analytic-3d", "sampled-3d"])
def test_near_block_matches_per_node_difference(case):
    # u(x0) evaluated once per chunk against u(x0) - u(x0 - offset) per node
    if case.endswith("2d"):
        dom = BoxDomain((1.0, 1.0), (20, 24))
    else:
        dom = BoxDomain((1.0, 1.0, 1.0), (6, 5, 7))
    if case == "analytic-3d":
        u = DeformationField.analytic(lambda p: p + 0.1 * np.sin(p[..., ::-1]) ** 2)
    else:
        u = sampled_field(dom, 4)
    w, rule = quadratic_bond(dom.dim), build_rule(dom.dim, 8)
    centers = outer_centers(dom, [0] * dom.dim)
    got = _near_block_integral(w, u, dom, centers, rule)
    want = reference_near_block_integral(w, u, dom, centers, rule.nodes, rule.weights, 8)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def axis_rule(dim):
    """A hand-built rule whose nodes include every +-e_j, and oblique nodes
    with zero components, so rays run parallel to walls (d_j == 0)."""
    oblique = [(0.6, 0.8), (-0.28, 0.96)] if dim == 2 else [
        (0.6, 0.8, 0.0), (0.0, -0.6, 0.8), (1 / 3, -2 / 3, 2 / 3), (-0.48, 0.6, -0.64)]
    eye = np.eye(dim)
    nodes = np.concatenate([eye, -eye, np.array(oblique)])
    weights = np.full(len(nodes), (2 * math.pi if dim == 2 else 4 * math.pi) / len(nodes))
    return SphereQuadrature(dim, nodes, weights, len(nodes))


@pytest.mark.parametrize("dim, field", [(2, "affine"), (2, "analytic"), (3, "affine"),
                                         (3, "analytic")])
def test_near_block_wall_clipping_is_bit_equal_to_stacked_walls(dim, field):
    # every clipping class's representative, and every cell of an uneven
    # box, whose first and last cells on each axis are clipped by the walls
    if dim == 2:
        dom = BoxDomain((1.0, 1.3), (9, 11))
        u = analytic_2d() if field == "analytic" else DeformationField.affine(A2)
    else:
        dom = BoxDomain((1.0, 1.2, 0.9), (5, 6, 7))
        u = (DeformationField.analytic(lambda p: p + 0.1 * np.sin(p[..., ::-1]) ** 2)
             if field == "analytic" else DeformationField.affine(np.diag([1.0, 2.0, 1.5])))
    rule, w = axis_rule(dim), quadratic_bond(dim)
    classes, _ = _clipping_classes(dom, [0] * dim)
    assert len(classes) == 3 ** dim
    centers = np.concatenate([classes, outer_centers(dom, [0] * dim)])
    got = _near_block_integral(w, u, dom, centers, rule)
    want = reference_near_block_stacked_walls(w, u, dom, centers, rule)
    assert np.all(np.isfinite(want))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dim", [2, 3])
def test_local_reference_matches_per_cell_loop(dim):
    # more cells than one chunk (512 cells in 2D, 16 in 3D), the last partial
    if dim == 2:
        dom, u = BoxDomain((1.0, 1.0), (40, 40)), analytic_2d()
    else:
        dom = BoxDomain((1.0, 1.0, 1.0), (6, 5, 7))
        u = DeformationField.analytic(lambda p: p + 0.1 * np.sin(p[..., ::-1]) ** 2)
    limit, rule = compute_blowup(quadratic_bond(dim), 0.0), build_rule(dim, 32)
    got = local_reference(limit, u, dom, rule)
    want = reference_local_reference(limit, u, dom, rule)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_local_reference_raises_on_nan_after_inf_cell():
    # cell 0 has an infinite gradient and cell 1000 (a later chunk) a NaN
    # one: the loop sums +inf, then raises on the NaN, and so must the chunks
    dom = BoxDomain((1.0, 1.0), (32, 32))

    def grad(p):
        g = np.broadcast_to(np.eye(2), p.shape[:-1] + (2, 2)).copy()
        flat = g.reshape(-1, 2, 2)
        flat[0, 0, 0], flat[1000, 0, 0] = math.inf, math.nan
        return g

    u = DeformationField.analytic(lambda p: p, grad_fn=grad, out_dim=2)
    rule = build_rule(2, 32)
    def bare_limit(x, y):  # the limit without the blow-up's finiteness check
        with np.errstate(over="ignore", invalid="ignore"):
            return np.sum(y * y, -1) / np.sum(x * x, -1)

    unchecked = BlowupResult(quadratic_bond(2), 0.0, bare_limit)
    for limit, error in ((unchecked, ValueError),
                         (compute_blowup(quadratic_bond(2), 0.0), BlowupError)):
        with pytest.raises(error):
            reference_local_reference(limit, u, dom, rule)
        with pytest.raises(error):
            local_reference(limit, u, dom, rule)
    # without the NaN both sum the +inf cell to +inf
    nan_free = DeformationField.analytic(
        lambda p: p, grad_fn=lambda p: np.nan_to_num(grad(p), nan=1.0), out_dim=2)
    assert local_reference(unchecked, nan_free, dom, rule) == math.inf
    assert reference_local_reference(unchecked, nan_free, dom, rule) == math.inf


def test_three_dimensional_study_reaches_small_horizons():
    # delta down to 0.025 at 8 cells per horizon, a 320^3 grid
    start = time.monotonic()
    study = convergence_study(
        quadratic_bond(3), 0.0, DeformationField.affine(np.diag([1.0, 2.0, 1.5])),
        (1.0, 1.0, 1.0), [0.2, 0.1, 0.05, 0.025], cells_per_horizon=8,
    )
    elapsed = time.monotonic() - start
    assert study.fitted_slope >= 0.9
    assert elapsed < 30.0


@settings(max_examples=200)
@given(r=st.floats(0.01, 100.0),
       sides=st.lists(st.floats(0.0, 1.5), min_size=3, max_size=3))
def test_quadrant_and_octant_ignore_side_order(r, sides):
    # the octant volume integrates along the third side only, so its
    # permutations check the slicing and its split points independently
    a, b, c = (np.array(x * r) for x in sides)
    assert abs(_disk_quadrant(a, b, r) - _disk_quadrant(b, a, r)) <= 1e-13 * r ** 2
    want = _ball_octant(a, b, c, r)
    for perm in itertools.permutations((a, b, c)):
        assert abs(_ball_octant(*perm, r) - want) <= 1e-13 * r ** 3


@pytest.mark.parametrize("frac", [0.35, 0.7, 0.95])
def test_coverage_closed_forms(frac):
    r = 1.3
    d = frac * r
    # along x the cell k = 1 of spacing 2d is the slab [d, 3d], which reaches
    # past the ball; on the other axes the cell k = 0 of spacing 2.5r spans it
    h2, h3 = np.array([2 * d, 2.5 * r]), np.array([2 * d, 2.5 * r, 2.5 * r])
    segment = _offset_coverage(h2, r, [1, 0])[2, 0] * np.prod(h2)
    assert segment == pytest.approx(r * r * math.acos(d / r) - d * math.sqrt(r * r - d * d),
                                    rel=1e-12)
    cap = _offset_coverage(h3, r, [1, 0, 0])[2, 0, 0] * np.prod(h3)
    assert cap == pytest.approx(math.pi * (r - d) ** 2 * (2 * r + d) / 3, rel=1e-12)
    # the quarter of the ball between x = 0 and x = d
    a = np.array(d)
    assert _ball_octant(a, np.array(r), np.array(r), r) == pytest.approx(
        math.pi / 4 * (r * r * d - d ** 3 / 3), rel=1e-13)
    # a box inside the ball, and one containing it
    inside = np.array(frac * r / 2)
    assert _disk_quadrant(inside, inside, r) == pytest.approx(float(inside) ** 2, rel=1e-14)
    assert _ball_octant(inside, inside, inside, r) == pytest.approx(float(inside) ** 3, rel=1e-13)
    around = np.array(r / frac)
    assert _disk_quadrant(around, around, r) == pytest.approx(math.pi * r * r / 4, rel=1e-14)
    assert _ball_octant(around, around, around, r) == pytest.approx(math.pi * r ** 3 / 6,
                                                                    rel=1e-13)


@pytest.mark.parametrize("h, delta", [
    ((0.025, 0.025), 0.2),
    ((0.03, 0.021), 0.2),
    ((0.025, 0.025, 0.025), 0.2),
    ((0.06, 0.045, 0.05), 0.18),
], ids=["2d", "2d-anisotropic", "3d", "3d-anisotropic"])
def test_offset_coverage_sums_to_ball_volume(h, delta):
    # over the whole offset box, diagonal block included
    h = np.array(h)
    reach = [int(math.ceil(delta / hj + 0.5)) for hj in h]
    cov = _offset_coverage(h, delta, reach)
    ball = math.pi * delta ** 2 if len(h) == 2 else 4.0 / 3.0 * math.pi * delta ** 3
    assert abs(float(np.sum(cov)) * np.prod(h) / ball - 1.0) <= 1e-12
    assert np.all(cov >= -1e-12) and np.all(cov <= 1.0 + 1e-12)


def test_slice_rule_is_converged(monkeypatch):
    h = np.full(3, 0.025)
    coarse = _offset_coverage(h, 0.2, [9, 9, 9])
    nodes, weights = horizon._slice_rule(400)
    monkeypatch.setattr(horizon, "_SLICE_Z", nodes)
    monkeypatch.setattr(horizon, "_SLICE_W", weights)
    assert np.max(np.abs(coarse - _offset_coverage(h, 0.2, [9, 9, 9]))) <= 1e-12


def test_rim_coverage_matches_fine_voxel_count():
    # delta = 0.2 at 8 cells per horizon; the voxel count's own resolution
    # on these cells is about 5e-5
    dom = BoxDomain((1.0, 1.0, 1.0), (40, 40, 40))
    stencil = _offset_stencil(dom, 0.2)
    rims = [(k, cov) for k, _, cov in stencil if cov < 1.0]
    assert (len(stencil), len(rims)) == (2822, 1250)
    worst = max(abs(cov - reference_voxel_fraction(k, dom.spacing, 0.2, 192))
                for k, cov in rims)
    assert worst <= 1e-4


def test_two_dimensional_coverage_matches_chord_rule():
    # every rim cell at delta = 0.2 with 8 cells per horizon; the chord rule
    # is off by up to about 1e-7 where the circle's extreme point is inside
    dom = BoxDomain((1.0, 1.0), (40, 40))
    h = dom.spacing
    stencil = _offset_stencil(dom, 0.2)
    rims = [(k, cov) for k, _, cov in stencil if cov < 1.0]
    assert (len(stencil), len(rims)) == (232, 64)
    for k, cov in rims:
        lo, hi = (np.array(k) - 0.5) * h, (np.array(k) + 0.5) * h
        area = reference_circle_box_area(lo[0], hi[0], lo[1], hi[1], 0.2)
        assert abs(cov - area / dom.cell_volume) <= 1e-6

