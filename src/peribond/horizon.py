"""Finite-horizon bond energies on gridded box domains.

The scaled double integral over the interacting pairs of the whole box,
Omega x Omega, is evaluated with a midpoint-rule double sum over its grid
cells. Two refinements keep the error well below the boundary-layer gap
the convergence studies measure: cells straddling the interaction sphere
|x - x'| = delta enter with their exact covered area or volume instead of
an all-or-nothing center test (a closed form in 2D, that form integrated
over slices in 3D), and the block of cells around the diagonal is
integrated over its wall pyramids. Each center's
block, clipped to the box, splits into one pyramid per wall with its apex
at the center (Duffy, SIAM J. Numer. Anal. 19, 1982); a Gauss-Jacobi rule
along the apex-to-wall segment absorbs the r^(dim-1) volume factor and the
bond's degree, and tensor Gauss-Legendre nodes cover each wall face, split
at the foot of the perpendicular from the center. Every field takes the
same near-block path: it reads the pair differences from
:meth:`DeformationField.difference`, which for an affine field is A times
the offset whatever the point. So an affine field collapses the double sum
to a single stencil pass and the diagonal blocks to one integral per way
the box walls clip them. The local energy a convergence study compares
against is one tensor Gauss-Legendre sum over the box per study.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .linalg import is_real, matvec, vector_norm
from .pipeline import BlowupResult, compute_blowup, local_density, resolve_degree
from .potentials import PairwisePotential
from .quadrature import build_rule, check_order, is_integer


def _slice_rule(n: int):
    """n-node Gauss-Legendre rule on [0, 1] under t = (1 - cos(pi s)) / 2,
    which flattens the (t - t_k)^(3/2) kinks of a rim cell's slice area at
    the ends of its pieces: 24 nodes agree with 400 to about 1e-13."""
    x, w = leggauss(n)
    s = 0.5 * math.pi * (x + 1.0)
    return 0.5 * (1.0 - np.cos(s)), 0.25 * math.pi * w * np.sin(s)


# built once: the eigenvalue solve costs more than a whole stencil's coverage
_SLICE_Z, _SLICE_W = _slice_rule(24)
# Gauss-Jacobi nodes along each near-block pyramid, from apex to wall
_RADIAL_NODES = 4

# (center, node, axis) entries per near-block chunk
_NEAR_CHUNK = 2**16
_MAX_CELLS = 2**52  # cells per side: past it, (i + 1/2) h rounds the last center onto the wall


def _check_sides(sides) -> None:
    """Refuse box sides that are not 2 or 3 finite positive real lengths."""
    if len(sides) not in (2, 3) or not all(is_real(s) and math.isfinite(s) and s > 0
                                           for s in sides):
        raise ValueError(f"sides = {sides!r}: need 2 or 3 finite positive lengths")


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box [0, side_1] x ... with a regular cell grid."""

    sides: tuple
    resolution: tuple

    def __post_init__(self):
        if len(self.sides) != len(self.resolution):
            raise ValueError("sides and resolution must have matching length")
        _check_sides(self.sides)
        # a fractional cell count would skew every pair count of the grid
        if not all(is_integer(r) and 0 < r <= _MAX_CELLS for r in self.resolution):
            raise ValueError(f"resolution = {self.resolution!r}: need positive integers up to 2^52")

    @property
    def dim(self) -> int:
        return len(self.sides)

    @property
    def spacing(self) -> np.ndarray:
        return np.array([s / r for s, r in zip(self.sides, self.resolution)])

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def centers(self) -> np.ndarray:
        """Cell centers, shape (*resolution, dim)."""
        axes = [s / n * (np.arange(n) + 0.5) for s, n in zip(self.sides, self.resolution)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack(grids, axis=-1)


class DeformationField:
    """Deformation u mapping the box into R^m, evaluated through one
    vectorized callable ``fn`` (points (..., dim) -> values (..., m)).

    Build one with :meth:`affine` or :meth:`analytic`; gridded data enter
    as the caller's own interpolant, passed to :meth:`analytic`. An affine
    field keeps its gradient ``matrix``, which makes its gradient and its
    pair differences exact; any other field's gradient is central
    differences of ``fn`` with step 1e-6.
    """

    def __init__(self, matrix=None, fn=None, out_dim=None):
        self.matrix = None if matrix is None else np.asarray(matrix, dtype=float)
        self.fn = fn
        self.out_dim = out_dim

    @staticmethod
    def affine(matrix) -> "DeformationField":
        a = np.asarray(matrix, dtype=float)
        return DeformationField(matrix=a, fn=lambda p: matvec(a, p), out_dim=a.shape[0])

    @staticmethod
    def analytic(fn: Callable, out_dim: int | None = None) -> "DeformationField":
        """Without ``out_dim``, it is read off the first evaluation, since
        only the domain knows the dimension of the points ``fn`` accepts."""
        return DeformationField(fn=fn, out_dim=out_dim)

    def evaluate(self, points) -> np.ndarray:
        out = np.asarray(self.fn(np.asarray(points, dtype=float)), dtype=float)
        if self.out_dim is None:
            self.out_dim = out.shape[-1]
        return out

    def difference(self, points, offsets) -> np.ndarray:
        """u(x) - u(x - offset), broadcast over ``points`` and ``offsets``.
        An affine field returns A times the offsets, whatever the points."""
        if self.matrix is not None:
            return matvec(self.matrix, np.asarray(offsets, dtype=float))
        points = np.asarray(points, dtype=float)
        return self.evaluate(points) - self.evaluate(points - offsets)

    def gradient(self, points) -> np.ndarray:
        """Deformation gradient, shape (..., out_dim, dim)."""
        points = np.asarray(points, dtype=float)
        if self.matrix is not None:
            return np.broadcast_to(self.matrix, points.shape[:-1] + self.matrix.shape).copy()
        eps, dim = 1e-6, points.shape[-1]
        cols = []
        for j in range(dim):
            step = np.zeros(dim)
            step[j] = eps
            cols.append((self.evaluate(points + step) - self.evaluate(points - step)) / (2 * eps))
        return np.stack(cols, axis=-1)


def _disk_quadrant(a, b, r):
    """Area of the disk |x| <= r inside [0, a] x [0, b], a, b >= 0: height b
    up to x, where the circle leaves the top edge, then the circle. Its
    angles come from atan2, whose rounding cancels to first order near r."""
    a, b = np.minimum(a, r), np.minimum(b, r)
    height = np.sqrt(np.maximum(r * r - a * a, 0.0))  # the circle's, over a
    x, x_height = np.minimum(np.sqrt(r * r - b * b), a), np.maximum(b, height)
    return b * x + 0.5 * (a * height - x * x_height
                          + r * r * (np.arctan2(a, height) - np.arctan2(x, x_height)))


def _ball_octant(a, b, c, r):
    """Volume of the ball |x| <= r inside [0, a] x [0, b] x [0, c].

    Integrates the disk quadrant of each slice z = r sin(phi), of radius
    rho = r cos(phi), over phi with dz = rho dphi, which keeps the pole
    z = r a smooth point. The pieces are split where rho passes a, b and
    sqrt(a^2 + b^2).
    """
    top = np.arcsin(np.minimum(c, r) / r)
    kinks = np.arccos(np.minimum(np.stack([a, b, np.hypot(a, b)]) / r, 1.0))
    cuts = np.sort(np.concatenate(
        [np.zeros((1,) + top.shape), np.minimum(kinks, top), top[None]]), axis=0)
    width = np.diff(cuts, axis=0)[..., None]  # (4, ..., 1)
    phi = cuts[:-1, ..., None] + width * _SLICE_Z
    rho = r * np.cos(phi)
    slices = _disk_quadrant(a[..., None], b[..., None], rho)
    return np.sum(width * slices * rho * _SLICE_W, axis=(0, -1))


def _offset_coverage(h, delta, reach) -> np.ndarray:
    """Share of the ball |x| <= delta in each offset cell [(k - 1/2) h,
    (k + 1/2) h], |k_j| <= reach_j, shape (2 reach_j + 1, ...).

    A cell's measure is the signed sum of Q(|corner|), the ball inside
    [0, |corner|], over its corners: one difference along each axis, with Q
    mirrored to minus itself at negative corners.
    """
    axes = [(np.arange(n + 1) + 0.5) * hj for n, hj in zip(reach, h)]
    q = (_disk_quadrant if len(h) == 2 else _ball_octant)(
        *np.meshgrid(*axes, indexing="ij"), delta)
    for axis in range(len(h)):
        q = np.diff(np.concatenate([-np.flip(q, axis), q], axis=axis), axis=axis)
    return q / float(np.prod(h))


def _offset_stencil(dom: BoxDomain, delta: float):
    """Integer offsets outside the diagonal block with their ball coverage."""
    h = dom.spacing
    reach = [int(math.ceil(delta / hj + 0.5)) for hj in h]
    cov = _offset_coverage(h, delta, reach)
    k = np.indices(cov.shape).reshape(dom.dim, -1).T - np.array(reach)  # C order
    ka = np.abs(k)
    dmin = vector_norm(np.maximum(ka - 0.5, 0.0) * h)
    dmax = vector_norm((ka + 0.5) * h)
    cov = np.where(dmax <= delta, 1.0, cov.ravel())
    # the diagonal block is integrated over its wall pyramids
    keep = (np.max(ka, axis=1) > 1) & (dmin <= delta) & (cov > 0.0)
    return [(tuple(kk), np.array(kk) * h, c)
            for kk, c in zip(k[keep].tolist(), cov[keep].tolist())]


def _check_horizon(delta: float, dom: BoxDomain) -> None:
    """Refuse a horizon the grid of ``dom`` cannot carry: one that is not
    finite and positive, reaches half the shortest side or spans fewer than
    three cells of the widest spacing."""
    if not (is_real(delta) and math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta = {delta!r}: need a finite positive horizon")
    if delta >= min(dom.sides) / 2.0:
        raise ValueError(
            f"delta = {delta!r}: the horizon must be smaller than {min(dom.sides) / 2.0!r}, "
            "half the shortest side"
        )
    cells = delta / float(np.max(dom.spacing))
    if cells < 3.0 - 1e-12:
        raise ValueError(
            f"delta = {delta!r} spans {cells:.3g} cells, fewer than 3; refine the grid")


def check_degree(beta: float, dim: int) -> None:
    """Refuse a bond degree the horizon scaling cannot carry: in ``dim``
    dimensions a bond of degree ``beta`` is integrable at the diagonal, and
    the prefactor (dim + beta) / delta^(dim + beta) positive, only if
    dim + beta > 0. A ``beta`` that is not a real number, None say, is
    refused too."""
    if not (is_real(beta) and math.isfinite(beta) and dim + beta > 0):
        raise ValueError(f"beta = {beta!r}, dim = {dim!r}: need a finite degree with "
                         "dim + beta > 0, else the pair energy diverges at the diagonal")


@functools.lru_cache(maxsize=64)
def _gauss_jacobi(n: int, alpha: float):
    """n-node Gauss rule on [0, 1] for the weight lam^alpha, alpha > -1
    (alpha = 0 is Gauss-Legendre), by Golub-Welsch: the nodes are the
    eigenvalues of the Jacobi matrix of the polynomials orthogonal under
    that weight, the weights 1 / (alpha + 1) times the squared first
    components of its eigenvectors. Read-only arrays, built once per rule.
    """
    # three-term recurrence of the Jacobi polynomials P_k^(0, alpha) on
    # [-1, 1], mapped to [0, 1] by lam = (x + 1) / 2
    k = np.arange(n, dtype=float)
    s = 2.0 * k + alpha
    diag = np.empty(n)
    diag[0] = alpha / (alpha + 2.0)
    diag[1:] = alpha * alpha / (s[1:] * (s[1:] + 2.0))
    k, s = k[1:], s[1:]
    off = np.sqrt(4.0 * k * k * (k + alpha) ** 2 / (s * s * (s + 1.0) * (s - 1.0)))
    nodes, vecs = np.linalg.eigh(np.diag(0.5 * (diag + 1.0)) + np.diag(0.5 * off, 1)
                                 + np.diag(0.5 * off, -1))
    weights = vecs[0] ** 2 / (alpha + 1.0)
    for arr in (nodes, weights):
        arr.setflags(write=False)
    return nodes, weights


def _pyramid_nodes(lo, hi, n_face: int, beta: float):
    """Nodes of the near block [x0 - lo, x0 + hi] of one center x0, as
    reference offsets x0 - x' (N, dim), with weights (N,) for integrands
    that are degree ``beta`` homogeneous up to a smooth factor.

    The block is 2 dim pyramids with apex x0, one per wall. A wall at height
    a from x0 and its face F(t) map to x0 - x' = lam F(t), lam in [0, 1],
    with volume element a lam^(dim - 1) dlam dt. So the Gauss-Jacobi rule
    for lam^(dim - 1 + beta) carries the weight a w_face w_lam lam^-beta.
    Each face is split at the foot of the perpendicular from x0, into
    2^(dim - 1) pieces of n_face^(dim - 1) Gauss-Legendre nodes each.
    """
    dim = len(lo)
    lam, lam_w = _gauss_jacobi(_RADIAL_NODES, dim - 1.0 + beta)
    t, t_w = _gauss_jacobi(n_face, 0.0)
    # offsets x0 - x' run over [-hi, lo]: per axis, the face's two pieces
    line = [np.concatenate([-h * t, l * t]) for l, h in zip(lo, hi)]
    line_w = [np.concatenate([h * t_w, l * t_w]) for l, h in zip(lo, hi)]
    offsets, weights = [], []
    for j in range(dim):
        others = [k for k in range(dim) if k != j]
        grids = np.meshgrid(*[line[k] for k in others], indexing="ij")
        face_w = math.prod(np.meshgrid(*[line_w[k] for k in others], indexing="ij")).ravel()
        for a in (lo[j], -hi[j]):
            face = np.empty((face_w.size, dim))
            face[:, j] = a
            for k, g in zip(others, grids):
                face[:, k] = g.ravel()
            offsets.append(lam[:, None, None] * face)  # (radial, face, dim)
            weights.append(np.outer(lam_w * lam ** -beta, abs(a) * face_w))
    return np.concatenate(offsets).reshape(-1, dim), np.concatenate(weights).ravel()


def _near_block_integral(w, field, dom, centers, order, *, beta):
    """Integral of the bond density over the diagonal 3h-block of each
    center, over its wall pyramids (:func:`_pyramid_nodes`).

    ``centers`` has shape (C, dim). A center's block, clipped to the box,
    reaches lo = min(1.5 h, x0) below it and hi = min(1.5 h, side - x0)
    above it on each axis, and u is evaluated only inside it. Centers with
    the same (lo, hi), all but the first and last cells of each axis on a
    grid, share one set of nodes, weights and reference-offset norms. The
    classes are the distinct (lo, hi) rows, each row read as one key of its
    bytes, which sorts faster than rows compared column by column. Every
    field runs the same chunk loop over :meth:`DeformationField.difference`;
    an affine field's differences do not depend on the center, so one
    center per class suffices (:func:`_clipping_classes`). Each face piece
    takes ceil(``order`` / 8) Gauss-Legendre nodes per axis; ``beta`` is the
    bond's degree. Returns shape (C,), NaN for a center whose integrand is
    NaN at a node. Chunks hold at most ``_NEAR_CHUNK`` (center, node, axis)
    entries.
    """
    dim = dom.dim
    centers = np.asarray(centers, dtype=float)
    half = 1.5 * dom.spacing  # block half-widths

    def reach(room):  # a wall 1.5 h away, up to rounding, only touches the block
        return np.where(room < (1.0 - 1e-9) * half, room, half)

    bounds = np.concatenate([reach(centers), reach(np.asarray(dom.sides) - centers)], axis=1)
    rows = bounds.view(np.dtype((np.void, bounds.itemsize * 2 * dim))).ravel()
    _, first, which = np.unique(rows, return_index=True, return_inverse=True)
    boxes = bounds[first]
    n_face = math.ceil(order / 8)
    out = np.empty(len(centers))
    for g, box in enumerate(boxes):
        offs, wts = _pyramid_nodes(box[:dim], box[dim:], n_face, beta)
        mine = np.flatnonzero(which == g)
        step = max(1, _NEAR_CHUNK // offs.size)
        for start in range(0, len(mine), step):
            idx = mine[start:start + step]
            values = np.asarray(w(offs, field.difference(centers[idx, None, :], offs)))
            # a row's sum over the node axis is the same however many rows
            # are stacked
            out[idx] = np.sum(values * wts, axis=-1)
    return out


def _clipping_classes(dom: BoxDomain):
    """Representative centers and cell counts of the near-block clipping
    classes of the grid's cells.

    The 3h-block around a center is clipped by a wall only when the center
    lies in the first or last cell of that axis (a center 1.5h from a wall
    touches it at the block edge). So on each axis a cell is first, inner
    or last; inner cells are represented by the box midpoint. Returns
    (centers (3^dim, dim), counts (3^dim,)).
    """
    per_axis = [((0.5 * h, 1), (side / 2.0, n - 2), ((n - 0.5) * h, 1))
                for side, n, h in zip(dom.sides, dom.resolution, dom.spacing)]
    classes = list(itertools.product(*per_axis))
    centers = np.array([[x for x, _ in c] for c in classes])
    counts = np.array([math.prod(k for _, k in c) for c in classes], dtype=float)
    return centers, counts


def nonlocal_energy(
    w: PairwisePotential,
    beta: float,
    delta: float,
    field: DeformationField,
    dom: BoxDomain,
    order: int = 32,
) -> float:
    """Scaled pair energy (n+beta)/delta^(n+beta) * double integral of the
    bond density over the interacting cell pairs of the box, Omega x Omega.

    Each stencil offset adds its ball coverage times the bond summed over
    the cell pairs at that offset; the diagonal block of each cell is
    :func:`_near_block_integral`. An affine field's pair terms depend on the
    offset only: the bond is called once over all offsets, and each
    offset's term is its coverage times its pair count times that value,
    added in stencil order. Its near block takes one integral per clipping
    class (:func:`_clipping_classes`), on the path every field takes.

    Parameters
    ----------
    w, beta
        Bond density and its homogeneity degree, declared or passed, checked
        by :func:`~peribond.pipeline.resolve_degree` (the prefactor needs it).
    delta
        Horizon, finite and positive. Must stay below half the shortest side
        and span at least three cells per axis.
    order
        Quad-order, an integer of at least 2: each near-block face piece
        takes ceil(order / 8) Gauss-Legendre nodes per axis. The pyramids'
        radial rule is fixed at 4 Gauss-Jacobi nodes.

    Raises
    ------
    ValueError
        If ``beta`` has dim + beta <= 0 or ``resolve_degree`` refuses it (a
        NaN, or a degree the bond contradicts); if ``delta`` is not a finite
        positive real, reaches half the shortest side or spans fewer than
        three cells; if ``order`` is not an integer of at least 2; or if the
        bond is NaN in the degree test, the far-field sum or the near-block
        sum, so a NaN bond value never yields an energy.
    """
    check_degree(beta, dom.dim)
    resolve_degree(w, beta)
    _check_horizon(delta, dom)
    check_order(order)

    dim = dom.dim
    res = dom.resolution
    cellvol = dom.cell_volume
    stencil = _offset_stencil(dom, delta)

    # _check_horizon keeps 3 h_j <= delta < n_j h_j / 2 on every axis, so
    # n_j >= 6 > reach_j: every offset k pairs n_j - |k_j| >= 1 cells per axis
    far = 0.0
    if field.matrix is not None:
        # an affine integrand depends on the offset only: one bond call
        # over every offset, the terms summed in stencil order
        xts = np.array([xt for _, xt, _ in stencil]).reshape(-1, dim)
        vals = np.asarray(w(-xts, field.difference(np.zeros(dim), -xts))).tolist()
        for (k, _, cov), val in zip(stencil, vals):
            far += cov * math.prod(n - abs(kj) for n, kj in zip(res, k)) * val
    else:
        u_grid = field.evaluate(dom.centers())  # (*res, m)
        for k, xt, cov in stencil:
            sl_out = tuple(slice(max(0, -kj), n - max(0, kj)) for n, kj in zip(res, k))
            sl_in = tuple(slice(max(0, kj), n + min(0, kj)) for n, kj in zip(res, k))
            diff = u_grid[sl_out] - u_grid[sl_in]
            vals = np.asarray(w(-xt, diff))
            far += cov * float(np.sum(vals))
    if math.isnan(far):
        raise ValueError("far-field sum of the bond density is NaN")
    far *= cellvol * cellvol

    # diagonal block over its wall pyramids, per cell
    if field.matrix is not None:
        # the integrand does not depend on the center, only the clipping does
        centers, counts = _clipping_classes(dom)
    else:
        centers = dom.centers().reshape(-1, dim)
        counts = np.ones(len(centers))
    values = _near_block_integral(w, field, dom, centers, order, beta=beta)
    near = float(np.sum(counts * values))
    if math.isnan(near):
        raise ValueError("near-block sum of the bond density is NaN")
    near *= cellvol

    prefactor = (dim + beta) / delta ** (dim + beta)
    return prefactor * (far + near)


@dataclass(frozen=True)
class ConvergenceStudy:
    """Energy gap between the finite-horizon functional and its local limit."""

    rows: list = field(default_factory=list)  # (delta, I_delta, I_local, gap, slope)

    @property
    def fitted_slope(self) -> float:
        """The last row's running slope, a fit over every row; nan unless
        there are two rows or more and every gap is positive."""
        if len(self.rows) < 2 or not all(row[3] > 0 for row in self.rows):
            return math.nan
        return self.rows[-1][4]


def local_reference(limit: BlowupResult, field: DeformationField, sides, order: int) -> float:
    """I_local: the local density at the deformation gradient, integrated
    over the box [0, side_1] x ... on the sphere rule ``build_rule(len(sides),
    order)``; ``sides`` as :class:`BoxDomain` takes them, else ValueError.
    An affine field gives the volume times W(A); any other field a
    tensor Gauss-Legendre rule with order // 4 nodes per axis, at least 2 (8
    at the default order 32). One local-density call per node of the first
    axis bounds memory; every slab runs, so a NaN raises even after a +inf
    slab."""
    _check_sides(sides)
    rule = build_rule(len(sides), order)
    if field.matrix is not None:
        return float(np.prod(sides)) * local_density(limit, field.matrix, rule)
    x, w = leggauss(max(2, order // 4))
    points = np.stack(np.meshgrid(*[s * (x + 1.0) / 2.0 for s in sides], indexing="ij"), axis=-1)
    weights = math.prod(np.meshgrid(*[s * w / 2.0 for s in sides], indexing="ij"))
    return sum(float(np.sum(wts * local_density(limit, field.gradient(pts), rule)))
               for pts, wts in zip(points, weights))


def study_grids(sides, deltas, cells_per_horizon: int) -> list[tuple[float, BoxDomain]]:
    """The (delta, grid) pairs of a convergence study: for each horizon, the
    box with ``sides`` at ``cells_per_horizon`` cells per delta, each side's
    cell count rounded to the nearest integer of at least 1.

    Raises
    ------
    ValueError
        If ``sides`` are not 2 or 3 finite positive lengths, as
        :class:`BoxDomain` takes them; if ``deltas`` holds a value that is
        not a real number, a bool say, is empty, holds a horizon that is not
        positive, repeats one or needs over 2^52 cells per side; if
        ``cells_per_horizon`` is not an integer of at least 3; or if a
        horizon reaches half the shortest side or
        spans fewer than three cells of its rounded grid, as
        :func:`nonlocal_energy` would refuse it. One horizon is a study
        without a slope; the CLI, whose verdict reads the slope, asks for two.
    """
    sides, deltas = tuple(sides), list(deltas)
    _check_sides(sides)
    if not all(is_real(d) for d in deltas):  # float() would run True as 1.0
        raise ValueError(f"deltas = {deltas!r}: need real numbers")
    sides = tuple(float(s) for s in sides)
    deltas = [float(d) for d in deltas]
    # a repeated horizon repeats a row of the study; with two equal
    # horizons the slope fit is singular
    if not deltas or not all(d > 0 for d in deltas) or len(set(deltas)) < len(deltas):
        raise ValueError(f"deltas = {deltas!r}: need one horizon or more, each positive "
                         "and none repeated")
    if not is_integer(cells_per_horizon) or cells_per_horizon < 3:
        raise ValueError(f"cells_per_horizon = {cells_per_horizon!r}: need an integer of at least 3")
    grids = []
    for d in deltas:
        cells = [s / (d / cells_per_horizon) for s in sides]
        if not all(c <= _MAX_CELLS for c in cells):  # an infinite count too
            raise ValueError(f"deltas = {deltas!r}: delta = {d!r} needs over 2^52 cells per side")
        dom = BoxDomain(sides, tuple(max(1, int(round(c))) for c in cells))
        _check_horizon(d, dom)
        grids.append((d, dom))
    return grids


def convergence_study(
    w: PairwisePotential,
    beta: float,
    field: DeformationField,
    sides,
    deltas,
    cells_per_horizon: int = 8,
    order: int = 32,
) -> ConvergenceStudy:
    """Shrink the horizon and tabulate the gap to the local energy.

    The grid is rebuilt for each horizon at ``cells_per_horizon`` cells per
    delta, so the discretization error stays a fixed small fraction of the
    energy while the boundary-layer gap shrinks linearly. The local energy
    does not depend on the horizon: :func:`local_reference` computes it once
    and every row reuses it. The one quad-order ``order`` sets the near
    block of each energy and the local reference's sphere rule and Gauss
    rule over the box.

    Raises
    ------
    ValueError
        On the inputs :func:`study_grids` refuses, and as
        :func:`nonlocal_energy` and :func:`local_reference` raise.
    """
    grids = study_grids(sides, deltas, cells_per_horizon)
    check_degree(beta, len(sides))  # dim + beta <= 0, refused before the local reference runs
    reference = local_reference(compute_blowup(w, beta), field, grids[0][1].sides, order)
    rows = []
    log_d, log_g = [], []
    for d, dom in grids:
        energy = nonlocal_energy(w, beta, d, field, dom, order=order)
        gap = abs(energy - reference)
        slope = math.nan
        if gap > 0:
            log_d.append(math.log(d))
            log_g.append(math.log(gap))
            if len(log_d) >= 2:
                slope = float(np.polyfit(log_d, log_g, 1)[0])
        rows.append((float(d), float(energy), float(reference), float(gap), slope))
    return ConvergenceStudy(rows)
