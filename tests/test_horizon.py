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
    _check_horizon,
    _clipping_classes,
    _disk_quadrant,
    _near_block_integral,
    _offset_coverage,
    _offset_stencil,
    convergence_study,
    local_reference,
    nonlocal_energy,
)
from peribond.linalg import matvec
from peribond.pipeline import BlowupError, BlowupResult, compute_blowup, local_density
from peribond.potentials import PairwisePotential, make_power_bond
from peribond.quadrature import build_rule
from conftest import rotations

A2 = np.diag([1.0, 2.0])


def quadratic_bond(dim):
    sigma = 2 * math.pi if dim == 2 else 4 * math.pi
    return make_power_bond(dim / sigma, 2.0, 2.0, dim=dim)


def reference_near_block_integral(w, field, dom, centers, n_face, n_radial, beta):
    """The near block one center, one wall and one face piece at a time:
    the block [x0 - lo, x0 + hi] clipped to the box is 2 dim pyramids with
    apex x0, the points x' = x0 + lam (P - x0) for P on a wall face, with
    volume element a lam^(dim - 1) for a wall at distance a. Each face is
    split at the foot of the perpendicular from x0; its pieces take
    n_face Gauss-Legendre nodes per axis, and lam the n_radial-node
    Gauss-Jacobi rule for lam^(dim - 1 + beta)."""
    roots_jacobi = pytest.importorskip("scipy.special").roots_jacobi
    dim = dom.dim
    lam, lam_w = roots_jacobi(n_radial, 0.0, dim - 1.0 + beta)
    lam, lam_w = (lam + 1.0) / 2.0, lam_w / 2.0 ** (dim + beta)
    gl_x, gl_w = leggauss(n_face)
    half, sides = 1.5 * dom.spacing, np.asarray(dom.sides)
    out = np.zeros(len(centers))
    for i, x0 in enumerate(centers):
        lo, hi = np.minimum(half, x0), np.minimum(half, sides - x0)
        for j, wall in itertools.product(range(dim), (-1, 1)):
            a = lo[j] if wall < 0 else hi[j]
            others = [k for k in range(dim) if k != j]
            for signs in itertools.product((-1, 1), repeat=dim - 1):
                ends = [x0[k] + (hi[k] if sg > 0 else -lo[k]) for k, sg in zip(others, signs)]
                nodes = np.meshgrid(*[x0[k] + (e - x0[k]) * (gl_x + 1.0) / 2.0
                                      for k, e in zip(others, ends)], indexing="ij")
                weights = math.prod(np.meshgrid(*[abs(e - x0[k]) * gl_w / 2.0
                                                  for k, e in zip(others, ends)], indexing="ij"))
                face = np.empty((weights.size, dim))
                face[:, j] = x0[j] + wall * a
                face[:, others] = np.stack([g.ravel() for g in nodes], axis=-1)
                y = x0 + lam[:, None, None] * (face - x0)  # (radial, face node, dim)
                vals = np.asarray(w(x0 - y, field.difference(x0, x0 - y)))
                out[i] += a * float(np.sum(weights.ravel() * (lam_w / lam ** beta)[:, None] * vals))
    return out


def reference_polar_near_block(w, field, dom, centers, rule):
    """The near block in polar coordinates about each center, along the
    directions of ``rule`` with 8 Gauss-Legendre nodes out to the clipped
    block's wall: the rule the pyramids replaced."""
    gl_x, gl_w = leggauss(8)
    half, sides, d = 1.5 * dom.spacing, np.asarray(dom.sides), rule.nodes
    out = np.zeros(len(centers))
    for i, x0 in enumerate(centers):
        lo, hi = np.minimum(half, x0), np.minimum(half, sides - x0)
        with np.errstate(divide="ignore"):
            r = np.min(np.where(d > 0, hi, lo) / np.abs(d), axis=1)
        acc = np.zeros(len(d))
        for gx, gw in zip(gl_x, gl_w):
            rho = 0.5 * r * (1.0 + gx)
            y = x0 + rho[:, None] * d
            diffs = field.difference(x0, x0 - y)
            acc += gw * 0.5 * r * rho ** (dom.dim - 1) * np.asarray(w(x0 - y, diffs))
        out[i] = rule.integrate(acc)
    return out


def midpoint_near_block(w, field, dom, x0, per_half_cell):
    """Midpoint sum over the clipped block of one center, on a grid of
    ``per_half_cell`` points per half cell width, which puts x0 on a grid
    vertex; it converges as the grid squared."""
    half = 1.5 * dom.spacing
    lo, hi = np.minimum(half, x0), np.minimum(half, np.asarray(dom.sides) - x0)
    step = dom.spacing / (2 * per_half_cell)
    axes = [x0[k] - lo[k] + step[k] * (np.arange(int(round((lo[k] + hi[k]) / step[k]))) + 0.5)
            for k in range(dom.dim)]
    total = 0.0
    for first in np.array_split(axes[0], 8):  # bounded memory in 3D
        y = np.stack(np.meshgrid(first, *axes[1:], indexing="ij"), axis=-1).reshape(-1, dom.dim)
        total += float(np.sum(w(x0 - y, field.difference(x0, x0 - y))))
    return total * float(np.prod(step))


def pointwise_local_reference(limit, field, sides, rule, nodes):
    """The local reference of a non-affine field on its tensor Gauss rule of
    ``nodes`` per axis over the box, one node at a time."""
    x, w = leggauss(nodes)
    total = 0.0
    for index in itertools.product(range(len(x)), repeat=len(sides)):
        point = np.array([[s * (x[i] + 1.0) / 2.0 for s, i in zip(sides, index)]])
        weight = math.prod(s * w[i] / 2.0 for s, i in zip(sides, index))
        total += weight * local_density(limit, field.gradient(point)[0], rule)
    return total


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
    assert np.array_equal(u.difference(y, x - y), (x - y) @ A2.T)
    assert np.allclose(u.gradient(np.stack([x, y]))[0], A2)


@settings(max_examples=50)
@given(dim=st.sampled_from([2, 3]), seed=st.integers(0, 2**16),
       shapes=st.sampled_from([((), (5,)), ((4, 1), (6,)), ((3, 1), (1, 7)), ((8,), ())]))
def test_difference_is_the_offset_rule_whatever_the_points(dim, seed, shapes):
    # the point and offset batch shapes broadcast against each other; an
    # affine field reads only the offsets, bit for bit, and any other field
    # takes u(x) - u(x - offset)
    rng = np.random.default_rng(seed)
    points = rng.uniform(-2.0, 2.0, shapes[0] + (dim,))
    offsets = rng.uniform(-1.0, 1.0, shapes[1] + (dim,))
    a = rng.standard_normal((dim, dim))
    affine = DeformationField.affine(a)
    assert np.array_equal(affine.difference(points, offsets), matvec(a, offsets))
    u = DeformationField.analytic(lambda p: p + 0.1 * np.sin(p[..., ::-1]) ** 2)
    assert np.array_equal(u.difference(points, offsets),
                          u.evaluate(points) - u.evaluate(points - offsets))


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
    # local reference on a fresh field; the central-difference gradients
    # carry a rounding error of about 1e-10
    fresh = DeformationField.analytic(lambda p: p @ np.eye(3).T)
    limit = compute_blowup(quadratic_bond(3), 0.0)
    dom = BoxDomain((1.0, 1.0, 1.0), (2, 2, 2))
    got = local_reference(limit, fresh, dom.sides, 16)
    assert got == pytest.approx(3.0, rel=1e-8)


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


@settings(max_examples=10)
@given(r=rotations(2), stretch=st.lists(st.floats(0.5, 2.0), min_size=2, max_size=2),
       bend=st.floats(-0.1, 0.1), wave=st.floats(1.0, 3.0),
       c=st.lists(st.floats(-20.0, 20.0), min_size=2, max_size=2).filter(
           lambda c: math.hypot(*c) <= 20.0))
def test_translation_invariance(r, stretch, bend, wave, c):
    # a shift c drops out of every pair difference u(x) - u(x'), up to the
    # rounding of the shifted values
    dom = BoxDomain((1.0, 1.0), (40, 40))
    w = quadratic_bond(2)
    a = r @ np.diag(stretch)

    def field(shift):
        return DeformationField.analytic(
            lambda p: p @ a.T + bend * np.sin(wave * p[..., ::-1]) + shift)

    plain = nonlocal_energy(w, 0.0, 0.1, field(0.0), dom)
    shifted = nonlocal_energy(w, 0.0, 0.1, field(np.array(c)), dom)
    assert shifted == pytest.approx(plain, rel=1e-12)


@settings(max_examples=3)
@given(r=rotations(2))
def test_frame_invariance(r):
    dom = BoxDomain((1.0, 1.0), (40, 40))
    w = quadratic_bond(2)
    base = nonlocal_energy(w, 0.0, 0.1, DeformationField.affine(A2), dom)
    rotated = nonlocal_energy(w, 0.0, 0.1, DeformationField.affine(r @ A2), dom)
    assert abs(rotated - base) < 1e-9 * (1 + abs(base))


@pytest.mark.parametrize("sides, res, delta, a, tol", [
    ((1.0, 1.0), (80, 80), 0.1, A2, 2e-4),
    ((1.0, 1.0, 1.0), (16, 16, 16), 0.25, np.diag([1.0, 2.0, 0.5]), 2e-3),
], ids=["2d", "3d"])
def test_interior_cell_energy_matches_local_density(sides, res, delta, a, tol):
    # oracle: for a degree-beta bond the full-ball inner integral equals
    # delta^(n+beta)/(n+beta) times the local density, so a cell whose
    # stencil lies inside the box carries W(A) = |A|^2 per unit volume: the
    # cell volume times its coverage-weighted far-field bonds, plus its
    # near block
    dom = BoxDomain(sides, res)
    dim = dom.dim
    w, u = quadratic_bond(dim), DeformationField.affine(a)
    mid = tuple(n // 2 for n in res)
    x0 = dom.centers()[mid]
    stencil = _offset_stencil(dom, delta)
    k = np.array([kk for kk, _, _ in stencil])
    assert np.all(mid + k >= 0) and np.all(mid + k < np.array(res))
    xts = np.array([xt for _, xt, _ in stencil])
    cov = np.array([c for _, _, c in stencil])
    far = dom.cell_volume * float(np.sum(cov * w(-xts, u.difference(x0, -xts))))
    near = _near_block_integral(w, u, dom, x0[None], 32, beta=0.0)[0]
    got = dim / delta ** dim * (far + near)
    assert got == pytest.approx(float(np.sum(a * a)), rel=tol)


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


@pytest.mark.parametrize("block", ["far", "near"])
def test_energy_raises_on_nan_bond_values(block):
    # 30^2 cells, delta = 0.1: the first field is NaN on the cell centers
    # below x = 0.06, the first two columns, which the far field pairs with
    # the rest of the box. The second field is NaN off the cell centers,
    # which only the near block's pyramid nodes leave.
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
    with pytest.raises(ValueError, match="far-field" if block == "far" else "near-block"):
        nonlocal_energy(quadratic_bond(2), 0.0, 0.1, u, dom)


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
        lambda p: np.stack([p[..., 0] ** 2, p[..., 1] ** 2 + p[..., 0]], axis=-1))
    study = convergence_study(
        quadratic_bond(2), 0.0, u, (1.0, 1.0), [0.25, 0.125], cells_per_horizon=6,
        order=16,
    )
    gaps = [row[3] for row in study.rows]
    assert gaps[1] < gaps[0]



@settings(max_examples=200)
@given(data=st.data(), dim=st.sampled_from([2, 3]), share=st.floats(0.05, 0.999))
def test_every_offset_and_clipping_class_has_cells(data, dim, share):
    # on any grid _check_horizon accepts, 3 h_j <= delta < n_j h_j / 2, so
    # every stencil offset k has n_j - |k_j| >= 1 cell pairs on each axis
    # and every axis has first, inner and last cells: the far field needs
    # no branch for an offset without pairs, nor the near block for an
    # empty class
    sides = tuple(data.draw(st.lists(st.floats(0.5, 1.5), min_size=dim, max_size=dim)))
    delta = share * min(sides) / 2.0
    res = tuple(math.ceil(3.0 * s / delta) + data.draw(st.integers(0, 8)) for s in sides)
    dom = BoxDomain(sides, res)
    _check_horizon(delta, dom)
    k = np.array([kk for kk, _, _ in _offset_stencil(dom, delta)])
    assert np.all(np.array(res) - np.abs(k) >= 1)
    centers, counts = _clipping_classes(dom)
    assert len(centers) == len(counts) == 3 ** dim
    assert np.all(counts > 0) and counts.sum() == math.prod(res)


@pytest.mark.parametrize("sides, res, delta", [
    ((1.0, 1.0), (40, 40), 0.1),
    ((1.0, 1.3), (37, 52), 0.1),
    ((1.0, 1.0, 1.0), (24, 24, 24), 0.15),
    ((1.0, 1.2, 1.1), (20, 30, 25), 0.18),
], ids=["sides0-res0-0.1-0.0", "sides2-res2-0.1-0.0", "sides4-res4-0.15-0.0",
        "sides6-res6-0.18-0.0"])
def test_affine_clipping_classes_match_per_center_loop(sides, res, delta):
    dom = BoxDomain(sides, res)
    dim = dom.dim
    a = np.eye(dim) + 0.3 * np.random.default_rng(dim).standard_normal((dim, dim))
    w, u = quadratic_bond(dim), DeformationField.affine(a)
    order = 32 if dim == 2 else 4
    centers, counts = _clipping_classes(dom)
    values = _near_block_integral(w, u, dom, centers, order, beta=0.0)
    # the classes cover every cell once, and each cell's own integral is
    # its class's (per axis: 0 first cell, 1 inner, 2 last cell)
    cells = dom.centers().reshape(-1, dim)
    idx = np.rint(cells / dom.spacing - 0.5).astype(int)
    assert len(counts) == 3 ** dim
    assert counts.sum() == len(cells)
    per_cell = _near_block_integral(w, u, dom, cells, order, beta=0.0)
    cell_class = np.where(idx == 0, 0, np.where(idx == np.array(res) - 1, 2, 1))
    h = dom.spacing
    rep_class = np.where(centers < h, 0, np.where(centers > np.array(sides) - h, 2, 1))
    firsts = []
    for key, count, value in zip(rep_class, counts, values):
        mine = np.all(cell_class == key, axis=1)
        assert np.count_nonzero(mine) == count
        assert np.all(np.abs(per_cell[mine] - value) <= 1e-12 * value)
        firsts.append(cells[np.argmax(mine)])
    # the loop at one actual cell of each class, the midpoint's included
    want = float(np.sum(counts * reference_near_block_integral(
        w, u, dom, np.array(firsts), math.ceil(order / 8), horizon._RADIAL_NODES, 0.0)))
    got = float(np.sum(counts * values))
    assert abs(got - want) <= 1e-12 * abs(want)


def test_general_near_block_chunks_match_per_center_loop():
    # 40^2 centers with 128 nodes each: the 38^2 unclipped centers share one
    # geometry and take chunks of 256 centers, the last one partial
    dom = BoxDomain((1.0, 1.0), (40, 40))
    w, u = quadratic_bond(2), analytic_2d()
    centers = dom.centers().reshape(-1, 2)
    inner = 38 ** 2
    assert horizon._NEAR_CHUNK // (128 * 2) == 256 and inner > 256 and inner % 256
    got = _near_block_integral(w, u, dom, centers, 32, beta=0.0)
    want = reference_near_block_integral(w, u, dom, centers, 4, horizon._RADIAL_NODES, 0.0)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("case", ["analytic-2d", "analytic-3d"])
def test_near_block_matches_per_node_difference(case):
    # u(x0) evaluated once per chunk against u(x0) - u(x') per node
    if case.endswith("2d"):
        dom, u = BoxDomain((1.0, 1.0), (20, 24)), analytic_2d()
    else:
        dom = BoxDomain((1.0, 1.0, 1.0), (6, 5, 7))
        u = DeformationField.analytic(lambda p: p + 0.1 * np.sin(p[..., ::-1]) ** 2)
    w = quadratic_bond(dom.dim)
    centers = dom.centers().reshape(-1, dom.dim)
    got = _near_block_integral(w, u, dom, centers, 8, beta=0.0)
    want = reference_near_block_integral(w, u, dom, centers, 1, horizon._RADIAL_NODES, 0.0)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("order", [2, 8, 9, 16, 17, 32])
@pytest.mark.parametrize("dim", [2, 3])
def test_near_block_takes_ceil_order_over_8_face_nodes(dim, order):
    # the same face nodes on the circle as on the sphere: 1 up to order 8,
    # 2 from order 9, 3 from order 17
    dom, u, centers = accuracy_case(dim, "analytic")
    w = quadratic_bond(dim)
    got = _near_block_integral(w, u, dom, centers, order, beta=0.0)
    want = reference_near_block_integral(w, u, dom, centers, math.ceil(order / 8),
                                         horizon._RADIAL_NODES, 0.0)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("dim, field", [(2, "affine"), (2, "analytic"), (3, "affine"),
                                         (3, "analytic")])
def test_near_block_is_bit_equal_per_center_and_per_class(dim, field):
    # every clipping class's representative, and every cell of an uneven
    # box, whose first and last cells on each axis are clipped by the walls:
    # one call for all of them, one call per center and one per class agree
    # bit for bit, so batching never moves a report digit (a matmul over the
    # batch moved the bits of most 3D affine class values)
    if dim == 2:
        dom = BoxDomain((1.0, 1.3), (9, 11))
        u = analytic_2d() if field == "analytic" else DeformationField.affine(A2)
    else:
        dom = BoxDomain((1.0, 1.2, 0.9), (5, 6, 7))
        u = (DeformationField.analytic(lambda p: p + 0.1 * np.sin(p[..., ::-1]) ** 2)
             if field == "analytic" else DeformationField.affine(np.diag([2.0, -1.0, 1.5])))
    w = quadratic_bond(dim)
    classes, _ = _clipping_classes(dom)
    assert len(classes) == 3 ** dim
    centers = np.concatenate([classes, dom.centers().reshape(-1, dim)])
    got = _near_block_integral(w, u, dom, centers, 32, beta=0.0)
    assert np.all(np.isfinite(got))
    one_by_one = [_near_block_integral(w, u, dom, centers[i:i + 1], 32, beta=0.0)[0]
                  for i in range(len(centers))]
    assert np.array_equal(got, one_by_one)
    per_class = [_near_block_integral(w, u, dom, c[None], 32, beta=0.0)[0] for c in classes]
    assert np.array_equal(got[:len(classes)], per_class)


def recording(field):
    """``field`` with every point its callable sees appended to a list."""
    seen = []

    def fn(p):
        seen.append(np.array(p).reshape(-1, p.shape[-1]))
        return field.fn(p)

    return DeformationField(fn=fn, out_dim=field.out_dim), seen


@pytest.mark.parametrize("case", ["analytic-2d", "analytic-3d"])
def test_near_block_evaluates_u_inside_the_box(case):
    # a clipped block's points lie on the side of the center the box holds,
    # never mirrored past the wall, outside the domain u is given on
    if case.endswith("2d"):
        dom, u = BoxDomain((1.0, 1.3), (9, 11)), analytic_2d()
    else:
        dom = BoxDomain((1.0, 1.2, 0.9), (5, 6, 7))
        u = DeformationField.analytic(lambda p: p + 0.1 * np.sin(p[..., ::-1]) ** 2, out_dim=3)
    recorded, seen = recording(u)
    centers = dom.centers().reshape(-1, dom.dim)
    _near_block_integral(quadratic_bond(dom.dim), recorded, dom, centers, 32, beta=0.0)
    points = np.concatenate(seen)
    assert len(points) > len(centers)
    assert np.all(points >= 0.0) and np.all(points <= np.asarray(dom.sides))


def test_near_block_first_and_last_cells_match_midpoint_sum():
    # u = (x + 0.1 sin 2y, y + 0.1 x^2) on 40^2 cells: at (h/2, 0.5) the
    # clipped block integrates to 1.19993e-3 and its mirror image past the
    # wall to 1.20326e-3
    dom = BoxDomain((1.0, 1.0), (40, 40))
    u = DeformationField.analytic(lambda p: np.stack(
        [p[..., 0] + 0.1 * np.sin(2 * p[..., 1]), p[..., 1] + 0.1 * p[..., 0] ** 2], axis=-1))
    h, w = dom.spacing, quadratic_bond(2)
    centers = np.array([[h[0] / 2, 0.5], [1.0 - h[0] / 2, 0.5], [0.5, h[1] / 2],
                        [0.5, 1.0 - h[1] / 2], h / 2, [1.0 - h[0] / 2, h[1] / 2]])
    got = _near_block_integral(w, u, dom, centers, 32, beta=0.0)
    want = np.array([midpoint_near_block(w, u, dom, x0, 40) for x0 in centers])
    assert got[0] == pytest.approx(1.19993e-3, rel=1e-5)
    assert np.all(np.abs(got - want) <= 2e-4 * want)


def accuracy_case(dim, field):
    """A box of non-square cells, a field on it, and one center of each
    kind: unclipped, clipped on one axis, clipped on every axis, and one
    cell in from a wall, where the block just touches it."""
    if dim == 2:
        dom = BoxDomain((1.0, 1.3), (40, 40))
        u = (DeformationField.affine(np.array([[1.0, 0.3], [-0.2, 2.0]])) if field == "affine"
             else analytic_2d())
    else:
        dom = BoxDomain((1.0, 1.2, 0.9), (10, 10, 10))
        u = (DeformationField.affine(np.diag([1.0, 2.0, 1.5]) + 0.2) if field == "affine"
             else DeformationField.analytic(lambda p: p + 0.1 * np.sin(p[..., ::-1]) ** 2))
    h, sides = dom.spacing, np.asarray(dom.sides)
    axis = np.arange(dim)
    middle = (np.floor(sides / 2 / h) + 0.5) * h
    centers = np.array([middle, np.where(axis == 0, h / 2, middle),
                        np.where(axis % 2 == 0, h / 2, sides - h / 2),
                        np.where(axis == 0, 1.5 * h, middle)])
    return dom, u, centers


@pytest.mark.parametrize("p, q", [(2.0, 2.0), (4.0, 3.0), (2.5, 3.0)],
                         ids=["p2q2", "p4q3", "p2.5q3"])
@pytest.mark.parametrize("dim, field", [(2, "affine"), (2, "analytic"), (3, "affine"),
                                         (3, "analytic")])
def test_near_block_accuracy_against_converged_reference(dim, field, p, q):
    # converged: 48 (2D) or 24 (3D) face nodes per piece axis and 16 radial
    # nodes, which a fine midpoint sum confirms where the bond is bounded
    dom, u, centers = accuracy_case(dim, field)
    w, beta = make_power_bond(1.0, p, q, dim=dim), p - q
    rule = build_rule(dim, 32)
    exact = reference_near_block_integral(w, u, dom, centers, 48 if dim == 2 else 24, 16, beta)
    if beta >= 0:
        mid = [midpoint_near_block(w, u, dom, x0, 40 if dim == 2 else 12) for x0 in centers]
        assert np.all(np.abs(mid / exact - 1.0) <= 3e-4)
    pyramid = np.abs(_near_block_integral(w, u, dom, centers, 32, beta=beta) / exact - 1.0)
    polar = np.abs(reference_polar_near_block(w, u, dom, centers, rule) / exact - 1.0)
    assert np.all(pyramid <= polar)
    if (p, q) == (2.0, 2.0):
        assert np.all(pyramid <= polar / 10.0)
        assert np.all(pyramid <= (1.1e-4 if dim == 2 else 3.3e-5))


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.5, 0.5, 1.5, -0.9])
def test_gauss_jacobi_rule(alpha):
    roots_jacobi = pytest.importorskip("scipy.special").roots_jacobi
    nodes, weights = horizon._gauss_jacobi(6, alpha)
    x, wx = roots_jacobi(6, 0.0, alpha)
    assert np.max(np.abs(nodes - (x + 1.0) / 2.0)) <= 1e-14
    assert np.max(np.abs(weights - wx / 2.0 ** (alpha + 1.0))) <= 1e-13
    # exact for lam^alpha times polynomials of degree < 12
    for k in range(12):
        assert float(np.sum(weights * nodes ** k)) == pytest.approx(1.0 / (alpha + k + 1.0),
                                                                    rel=1e-13)


@pytest.mark.parametrize("lo, hi", [((1.5, 1.5), (1.5, 1.5)), ((0.5, 1.5), (1.5, 0.7)),
                                    ((0.5, 1.5, 0.5), (1.5, 1.5, 0.9))])
def test_pyramid_nodes_fill_the_block(lo, hi):
    # 2 dim walls of 2^(dim - 1) face pieces, 3 nodes per piece axis and 4
    # radial nodes; at degree 0 the weights sum to the block's measure
    lo, hi = np.array(lo), np.array(hi)
    for beta in (0.0, -0.5, 1.0):
        offs, wts = horizon._pyramid_nodes(lo, hi, 3, beta)
        assert len(offs) == len(wts) == 2 * len(lo) * 2 ** (len(lo) - 1) * 3 ** (len(lo) - 1) * 4
        assert np.all(offs > -hi) and np.all(offs < lo) and np.all(wts > 0.0)
        if beta == 0.0:
            assert float(np.sum(wts)) == pytest.approx(float(np.prod(lo + hi)), rel=1e-14)


def sine_field(a, b, dim):
    """u = (x + a sin 2y, y + b x^2, z): under the quadratic bond its local
    density is |grad u|^2 = dim + 4 a^2 cos^2 2y + 4 b^2 x^2."""
    return DeformationField.analytic(lambda p: np.concatenate([
        np.stack([p[..., 0] + a * np.sin(2.0 * p[..., 1]), p[..., 1] + b * p[..., 0] ** 2], -1),
        p[..., 2:]], axis=-1))


def sine_field_local_energy(a, b, sides):
    """Closed form of the integral of |grad u|^2 over the box: on the unit
    square 2 + 4 a^2 (1/2 + sin 4 / 8) + 4 b^2 / 3."""
    x, y, rest = sides[0], sides[1], math.prod(sides[2:])
    return rest * (len(sides) * x * y + 4 * a * a * x * (y / 2 + math.sin(4 * y) / 8)
                   + 4 * b * b * y * x ** 3 / 3)


@pytest.mark.parametrize("dim, examples", [(2, 25), (3, 10)])
def test_study_local_energy_matches_closed_form(dim, examples):
    # 1e-9 leaves room for the central-difference gradient, about 5e-11 off;
    # the one horizon keeps the grid small
    @settings(max_examples=examples, deadline=None)
    @given(a=st.floats(-0.2, 0.2), b=st.floats(-0.2, 0.2),
           sides=st.lists(st.floats(0.5, 1.5), min_size=dim, max_size=dim))
    def check(a, b, sides):
        study = convergence_study(quadratic_bond(dim), 0.0, sine_field(a, b, dim), sides,
                                  [min(sides) / 2.2], cells_per_horizon=4)
        want = sine_field_local_energy(a, b, sides)
        assert abs(study.rows[0][2] - want) <= 1e-9 * want

    check()


@pytest.mark.parametrize("dim", [2, 3])
def test_affine_local_reference_is_volume_times_density(dim):
    a = np.diag([1.0, 2.0, 1.5][:dim]) + 0.1
    limit = compute_blowup(quadratic_bond(dim), 0.0)
    sides = (0.7, 1.3, 0.9)[:dim]
    got = local_reference(limit, DeformationField.affine(a), sides, 16)
    assert got == float(np.prod(sides)) * local_density(limit, a, build_rule(dim, 16))


def test_study_computes_local_reference_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return local_reference(*args)

    monkeypatch.setattr(horizon, "local_reference", counted)
    study = convergence_study(quadratic_bond(2), 0.0, sine_field(0.1, 0.1, 2), (1.0, 1.0),
                              [0.2, 0.15, 0.1], cells_per_horizon=4)
    assert len(calls) == 1
    assert len({row[2] for row in study.rows}) == 1


@pytest.mark.parametrize("order", [2, 4, 8, 9, 16, 17, 32])
@pytest.mark.parametrize("dim", [2, 3])
def test_local_reference_slabs_match_pointwise_loop(dim, order):
    # order // 4 nodes per axis on the circle as on the sphere, 8 at order
    # 32; the floor of 2 at the lowest orders
    u = DeformationField.analytic(lambda p: p + 0.1 * np.sin(p[..., ::-1]) ** 2)
    limit = compute_blowup(quadratic_bond(dim), 0.0)
    sides = (1.0, 0.6, 1.4)[:dim]
    got = local_reference(limit, u, sides, order)
    want = pointwise_local_reference(limit, u, sides, build_rule(dim, order), max(2, order // 4))
    assert abs(got - want) <= 1e-12 * abs(want)


def test_local_reference_raises_on_nan_after_inf_slab():
    # 8 Gauss nodes per axis: the first slab, x = 0.020, holds one node with
    # an infinite gradient and the last, x = 0.980, one with a NaN gradient.
    # The slabs sum +inf, then raise on the NaN.
    def grad(p):
        g = np.broadcast_to(np.eye(2), p.shape[:-1] + (2, 2)).copy()
        x, y = p[..., 0], p[..., 1]
        g[(x < 0.1) & (y < 0.1), 0, 0] = math.inf
        g[(x > 0.9) & (y > 0.9), 0, 0] = math.nan
        return g

    def field_with_gradient(gradient):
        u = DeformationField.analytic(lambda p: p, out_dim=2)
        u.gradient = gradient  # inject non-finite gradients on the instance
        return u

    u = field_with_gradient(grad)
    rule, sides = build_rule(2, 32), (1.0, 1.0)
    def bare_limit(x, y):  # the limit without the blow-up's finiteness check
        with np.errstate(over="ignore", invalid="ignore"):
            return np.sum(y * y, -1) / np.sum(x * x, -1)

    unchecked = BlowupResult(0.0, bare_limit)
    for limit, error in ((unchecked, ValueError),
                         (compute_blowup(quadratic_bond(2), 0.0), BlowupError)):
        with pytest.raises(error):
            pointwise_local_reference(limit, u, sides, rule, 8)
        with pytest.raises(error):
            local_reference(limit, u, sides, 32)
    # without the NaN both sum the +inf node to +inf
    nan_free = field_with_gradient(lambda p: np.nan_to_num(grad(p), nan=1.0))
    assert local_reference(unchecked, nan_free, sides, 32) == math.inf
    assert pointwise_local_reference(unchecked, nan_free, sides, rule, 8) == math.inf


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

