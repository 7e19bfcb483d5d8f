"""Finite-horizon bond energies on gridded box domains.

The scaled double integral over interacting pairs is evaluated with a
midpoint-rule double sum over grid cells. Two refinements keep the error
well below the boundary-layer gap the convergence studies measure: cells
straddling the interaction sphere |x - x'| = delta enter with their exact
covered area or volume instead of an all-or-nothing center test (a closed
form in 2D, that form integrated over slices in 3D), and the block of cells
around the diagonal is integrated in polar coordinates, where the radial
Jacobian absorbs the kernel singularity. Affine deformations factor through
cell offsets, which collapses the double sum to a single stencil pass and
the diagonal blocks to one polar integral per way the box walls clip them.
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .linalg import vector_norm
from .pipeline import BlowupResult, compute_blowup, local_density
from .potentials import PairwisePotential
from .quadrature import SphereQuadrature, build_rule


def _slice_rule(n: int):
    """n-node Gauss-Legendre rule on [0, 1] under t = (1 - cos(pi s)) / 2,
    which flattens the (t - t_k)^(3/2) kinks of a rim cell's slice area at
    the ends of its pieces: 24 nodes agree with 400 to about 1e-13."""
    x, w = leggauss(n)
    s = 0.5 * math.pi * (x + 1.0)
    return 0.5 * (1.0 - np.cos(s)), 0.25 * math.pi * w * np.sin(s)


# built once: the eigenvalue solve costs more than a whole stencil's coverage
_SLICE_Z, _SLICE_W = _slice_rule(24)
# radial Gauss-Legendre rule of the near block's polar integral, on [-1, 1]
_RADIAL_X, _RADIAL_W = leggauss(8)

# chunk bounds of the batched horizon integrals: (center, direction, axis)
# entries per near-block chunk, (cell, node) pairs per local-density call
_NEAR_CHUNK = 2**16
_LOCAL_CHUNK = 2**15


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box [0, side_1] x ... with a regular cell grid."""

    sides: tuple
    resolution: tuple

    def __post_init__(self):
        if len(self.sides) != len(self.resolution):
            raise ValueError("sides and resolution must have matching length")
        if len(self.sides) not in (2, 3):
            raise ValueError("box domains support dimensions 2 and 3")
        # a fractional cell count would skew every pair count of the grid
        if not all(isinstance(r, (int, np.integer)) and not isinstance(r, bool) and r > 0
                   for r in self.resolution):
            raise ValueError(f"resolution = {self.resolution!r}: need positive integers")
        if not all(math.isfinite(s) and s > 0 for s in self.sides):
            raise ValueError(f"sides = {self.sides!r}: need finite positive lengths")

    @property
    def dim(self) -> int:
        return len(self.sides)

    @property
    def spacing(self) -> np.ndarray:
        return np.array([s / r for s, r in zip(self.sides, self.resolution)])

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis_centers(self, axis: int) -> np.ndarray:
        h = self.sides[axis] / self.resolution[axis]
        return h * (np.arange(self.resolution[axis]) + 0.5)

    def centers(self) -> np.ndarray:
        """Cell centers, shape (*resolution, dim)."""
        axes = [self.axis_centers(k) for k in range(self.dim)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack(grids, axis=-1)


class DeformationField:
    """Deformation u mapping the box into R^m, evaluated through one
    vectorized callable ``fn`` (points (..., dim) -> values (..., m)).

    ``grad_fn`` gives the gradient, else central differences of ``fn`` with
    step 1e-6 do. An affine field also keeps its gradient ``matrix``, which
    makes its pair differences A (x - x') exact.
    """

    def __init__(self, matrix=None, fn=None, grad_fn=None, out_dim=None):
        self.matrix = None if matrix is None else np.asarray(matrix, dtype=float)
        self.fn = fn
        self.grad_fn = grad_fn
        self.out_dim = out_dim

    @staticmethod
    def affine(matrix) -> "DeformationField":
        a = np.asarray(matrix, dtype=float)
        return DeformationField(
            matrix=a, fn=lambda p: p @ a.T,
            grad_fn=lambda p: np.broadcast_to(a, p.shape[:-1] + a.shape).copy(),
            out_dim=a.shape[0],
        )

    @staticmethod
    def analytic(fn: Callable, grad_fn: Callable | None = None,
                 out_dim: int | None = None) -> "DeformationField":
        """Without ``out_dim``, it is read off the first evaluation, since
        only the domain knows the dimension of the points ``fn`` accepts."""
        return DeformationField(fn=fn, grad_fn=grad_fn, out_dim=out_dim)

    @staticmethod
    def sampled(values, domain: BoxDomain) -> "DeformationField":
        """Multilinear interpolant of grid values (*resolution, m) at the
        cell centers; its gradient takes central differences a quarter of
        the shortest cell side wide."""
        values = np.asarray(values, dtype=float)
        if values.shape[:-1] != tuple(domain.resolution):
            raise ValueError("sampled values must cover the domain grid")
        spacing, dim, m = domain.spacing, domain.dim, values.shape[-1]

        def fn(points):
            idx = (points / spacing - 0.5).reshape(-1, dim)
            return _multilinear(values, idx).reshape(points.shape[:-1] + (m,))

        eps = float(np.min(spacing)) / 4.0
        return DeformationField(fn=fn, out_dim=m,
                                grad_fn=lambda p: _central_differences(fn, p, eps))

    def evaluate(self, points) -> np.ndarray:
        out = np.asarray(self.fn(np.asarray(points, dtype=float)), dtype=float)
        if self.out_dim is None:
            self.out_dim = out.shape[-1]
        return out

    def difference(self, x_pts, y_pts) -> np.ndarray:
        """u(x) - u(y); exact in the offset for affine fields."""
        if self.matrix is not None:
            return (np.asarray(x_pts, dtype=float) - np.asarray(y_pts, dtype=float)) @ self.matrix.T
        return self.evaluate(x_pts) - self.evaluate(y_pts)

    def gradient(self, points) -> np.ndarray:
        """Deformation gradient, shape (..., out_dim, dim)."""
        points = np.asarray(points, dtype=float)
        if self.grad_fn is not None:
            return np.asarray(self.grad_fn(points), dtype=float)
        return _central_differences(self.evaluate, points, 1e-6)


def _central_differences(fn, points: np.ndarray, eps: float) -> np.ndarray:
    """Central differences of ``fn`` at ``points`` with step ``eps`` along
    each axis, shape (..., m, dim)."""
    dim = points.shape[-1]
    cols = []
    for j in range(dim):
        step = np.zeros(dim)
        step[j] = eps
        cols.append((fn(points + step) - fn(points - step)) / (2 * eps))
    return np.stack(cols, axis=-1)


def _multilinear(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Multilinear interpolant of ``values`` (*grid, m) at fractional grid
    indices ``idx`` (P, dim), all m components and 2^dim corners at once.

    Each corner index is clamped to the grid on its own, so a point past the
    grid reads the edge value; a NaN corner gives NaN even at weight 0.
    """
    grid = values.shape[:-1]
    corners = np.indices((2,) * len(grid)).reshape(len(grid), -1, 1)  # (dim, 2^dim, 1)
    base = np.floor(idx).astype(int)
    frac = idx - base
    pos = np.ravel_multi_index(tuple(base.T[:, None] + corners), grid, mode="clip")
    terms = values.reshape(-1, values.shape[-1])[pos]  # (2^dim, P, m)
    for k, upper in enumerate(corners):
        terms = terms * np.where(upper, frac[:, k], 1.0 - frac[:, k])[..., None]
    return sum(terms)  # corners in C order, one after the other


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
    # the diagonal block is integrated in polar coordinates
    keep = (np.max(ka, axis=1) > 1) & (dmin <= delta) & (cov > 0.0)
    return [(tuple(kk), np.array(kk) * h, c)
            for kk, c in zip(k[keep].tolist(), cov[keep].tolist())]


def _margin_cells(dom: BoxDomain, margin: float) -> list[int]:
    """Excluded boundary cells per axis so centers sit >= margin from the wall."""
    if not (math.isfinite(margin) and margin >= 0):
        raise ValueError(f"outer_margin = {margin!r}: need a finite number of at least 0")
    out = []
    for j in range(dom.dim):
        h = dom.spacing[j]
        m = max(0, int(math.ceil(margin / h - 0.5 - 1e-12)))
        if 2 * m >= dom.resolution[j]:
            raise ValueError("outer margin leaves no cells in the domain")
        out.append(m)
    return out


def _check_horizon(delta: float, dom: BoxDomain) -> None:
    """Refuse a horizon the grid of ``dom`` cannot carry: one that is not
    finite and positive, reaches half the shortest side or spans fewer than
    three cells of the widest spacing."""
    if not (math.isfinite(delta) and delta > 0):
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


def _pair_ranges(res, k, margins):
    """Per axis, the first and last outer cell whose partner at offset ``k``
    lies in the box too; None when an axis has no such cell."""
    ranges = []
    for n, kj, m in zip(res, k, margins):
        lo, hi = max(m, -kj), min(n - 1 - m, n - 1 - kj)
        if hi < lo:
            return None
        ranges.append((lo, hi))
    return ranges


def _near_block_integral(w, field, dom, centers, rule):
    """Polar integral of the bond density over the diagonal 3h-block.

    ``centers`` has shape (C, dim); rays along the nodes of the sphere rule
    ``rule`` are clipped exactly to the block and to the domain box. Returns
    shape (C,); a NaN integrand raises. Centers go through in chunks of at
    most ``_NEAR_CHUNK`` (center, direction, axis) entries.
    """
    half = 1.5 * dom.spacing  # block half-widths
    sides = np.asarray(dom.sides)
    d = rule.nodes  # (M, dim)
    with np.errstate(divide="ignore"):
        r_block = np.min(
            np.where(np.abs(d) > 0, half / np.abs(d), np.inf), axis=1
        )  # (M,)
    step = max(1, _NEAR_CHUNK // d.size)
    out = np.empty(len(centers))
    for start in range(0, len(centers), step):
        x0 = centers[start:start + step, None, :]  # (C, 1, dim)
        r = r_block
        # each wall in turn: a minimum is exact, so the order does not matter
        with np.errstate(divide="ignore", invalid="ignore"):
            for j, dj in enumerate(d.T):
                xj = x0[..., j]  # (C, 1)
                r = np.minimum(r, np.where(dj > 0, (sides[j] - xj) / dj, np.inf))
                r = np.minimum(r, np.where(dj < 0, -xj / dj, np.inf))  # (C, M)
        acc = np.zeros(r.shape)
        # u(x0) once per chunk; an affine field keeps its exact offset product
        u0 = None if field.matrix is not None else field.evaluate(x0)
        for gx, gw in zip(_RADIAL_X, _RADIAL_W):
            rho = 0.5 * r * (1.0 + gx)  # (C, M)
            offs = rho[..., None] * d  # x - x' = rho * direction
            y = x0 - offs
            diffs = field.difference(x0, y) if u0 is None else u0 - field.evaluate(y)
            vals = np.asarray(w(offs, diffs), dtype=float)
            acc += gw * 0.5 * r * rho ** (dom.dim - 1) * vals
        out[start:start + step] = rule.integrate(acc)
    return out


def _clipping_classes(dom: BoxDomain, margins):
    """Representative centers and cell counts of the near-block clipping
    classes of the outer cells.

    The 3h-block around a center is clipped by a wall only when the center
    lies in the first or last cell of that axis (a center 1.5h from a wall
    touches it at the block edge). So on each axis an outer cell is first,
    inner or last; inner cells are represented by the box midpoint. Returns
    (centers (K, dim), counts (K,)) over the classes with cells, K <= 3^dim.
    """
    per_axis = []
    for j in range(dom.dim):
        n, h = dom.resolution[j], dom.spacing[j]
        edge = int(margins[j] == 0)  # first and last cells are outer cells
        per_axis.append((
            (0.5 * h, edge),
            (dom.sides[j] / 2.0, n - 2 * margins[j] - 2 * edge),
            ((n - 0.5) * h, edge),
        ))
    classes = [c for c in itertools.product(*per_axis) if all(k for _, k in c)]
    centers = np.array([[x for x, _ in c] for c in classes])
    counts = np.array([math.prod(k for _, k in c) for c in classes], dtype=float)
    return centers, counts


def nonlocal_energy(
    w: PairwisePotential,
    beta: float,
    delta: float,
    field: DeformationField,
    dom: BoxDomain,
    outer_margin: float = 0.0,
    rule: SphereQuadrature | None = None,
) -> float:
    """Scaled pair energy (n+beta)/delta^(n+beta) * double integral of the
    bond density over interacting cell pairs.

    Parameters
    ----------
    w, beta
        Bond density and its homogeneity degree (must match a declared
        degree on ``w``; the prefactor depends on it).
    delta
        Horizon, finite and positive. Must stay below half the shortest side
        and span at least three cells per axis.
    outer_margin
        Restrict the outer integration to cells at least this far from the
        boundary (0 = whole box).
    rule
        Sphere rule of the near block's polar integral, on S^(dim-1);
        default ``build_rule(dim, 32)``. Its radial rule is fixed at 8
        Gauss-Legendre nodes.

    Raises
    ------
    ValueError
        If ``beta`` is not finite or conflicts with the degree declared on
        ``w``; if ``delta`` is not finite and positive, reaches half the
        shortest side or spans fewer than three cells; if ``outer_margin``
        is negative or not finite, or leaves no cells; if ``rule`` lives on
        another sphere; or if the far-field sum or the near block meets a
        NaN bond value.
    """
    if not math.isfinite(beta):
        raise ValueError(f"beta = {beta!r}: need a finite degree")
    if w.beta is not None and abs(beta - w.beta) > 1e-9:
        raise ValueError(
            f"scaling degree {beta} conflicts with the declared degree {w.beta}"
        )
    _check_horizon(delta, dom)

    dim = dom.dim
    margins = _margin_cells(dom, outer_margin)
    res = dom.resolution
    cellvol = dom.cell_volume
    stencil = _offset_stencil(dom, delta)
    if rule is None:
        rule = build_rule(dim, 32)
    elif rule.dim != dim:
        raise ValueError(f"rule lives on S^{rule.dim - 1} but the domain is {dim}D")

    far = 0.0
    if field.matrix is not None:
        for k, xt, cov in stencil:
            ranges = _pair_ranges(res, k, margins)
            if ranges is None:
                continue
            pairs = math.prod(hi - lo + 1 for lo, hi in ranges)
            val = float(w(-xt, field.difference(np.zeros(dim), xt)))
            far += cov * pairs * val
    else:
        u_grid = field.evaluate(dom.centers())  # (*res, m)
        for k, xt, cov in stencil:
            ranges = _pair_ranges(res, k, margins)
            if ranges is None:
                continue
            sl_out = tuple(slice(lo, hi + 1) for lo, hi in ranges)
            sl_in = tuple(slice(lo + kj, hi + 1 + kj) for (lo, hi), kj in zip(ranges, k))
            diff = u_grid[sl_out] - u_grid[sl_in]
            vals = np.asarray(w(np.broadcast_to(-xt, diff.shape[:-1] + (dim,)), diff))
            far += cov * float(np.sum(vals))
    if math.isnan(far):
        raise ValueError("far-field sum of the bond density is NaN")
    far *= cellvol * cellvol

    # diagonal block in polar coordinates, per outer cell
    if field.matrix is not None:
        # the integrand does not depend on the center, only the clipping does
        centers, counts = _clipping_classes(dom, margins)
    else:
        inner = tuple(slice(m, n - m) for m, n in zip(margins, res))
        centers = dom.centers()[inner].reshape(-1, dim)
        counts = np.ones(len(centers))
    values = _near_block_integral(w, field, dom, centers, rule)
    near = float(np.sum(counts * values))
    near *= cellvol

    prefactor = (dim + beta) / delta ** (dim + beta)
    return prefactor * (far + near)


def two_grid_estimate(
    w: PairwisePotential,
    beta: float,
    delta: float,
    field: DeformationField,
    dom: BoxDomain,
    **kwargs,
) -> tuple[float, float]:
    """Energy on the doubled grid plus a two-grid discretization estimate.

    Re-evaluates at half the spacing and reports |I_h - I_(h/2)| as the
    error estimate attached to the fine value; a further refinement moves
    the energy by less than this bound.
    """
    coarse = nonlocal_energy(w, beta, delta, field, dom, **kwargs)
    fine_dom = BoxDomain(dom.sides, tuple(2 * r for r in dom.resolution))
    fine = nonlocal_energy(w, beta, delta, field, fine_dom, **kwargs)
    return fine, abs(coarse - fine)


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


def local_reference(
    limit: BlowupResult, field: DeformationField, dom: BoxDomain, rule
) -> float:
    """Grid quadrature of the local density at the deformation gradient."""
    if field.matrix is not None:
        return float(np.prod(dom.sides)) * local_density(limit, field.matrix, rule)
    grads = field.gradient(dom.centers())
    grads = grads.reshape(-1, *grads.shape[-2:])
    # stacked local densities, at most _LOCAL_CHUNK (cell, node) pairs per
    # call; every chunk runs, so a NaN raises even after a +inf cell
    step = max(1, _LOCAL_CHUNK // len(rule))
    total = 0.0
    for start in range(0, len(grads), step):
        total += float(np.sum(local_density(limit, grads[start:start + step], rule)))
    return total * dom.cell_volume


def study_grids(sides, deltas, cells_per_horizon: int) -> list[tuple[float, BoxDomain]]:
    """The (delta, grid) pairs of a convergence study: for each horizon, the
    box with ``sides`` at ``cells_per_horizon`` cells per delta, each side's
    cell count rounded to the nearest integer of at least 1.

    Raises
    ------
    ValueError
        If ``deltas`` is empty or holds a horizon that is not positive; if
        ``cells_per_horizon`` is not an integer of at least 3; if ``sides``
        are not 2 or 3 finite positive lengths; or if a horizon reaches
        half the shortest side or spans fewer than three cells of its
        rounded grid, as :func:`nonlocal_energy` would refuse it. One
        horizon is a study without a slope; the CLI, whose verdict reads
        the slope, asks for two.
    """
    sides = tuple(float(s) for s in sides)
    deltas = [float(d) for d in deltas]
    if not deltas or not all(d > 0 for d in deltas):
        raise ValueError(f"deltas = {deltas!r}: need one horizon or more, each positive")
    if (isinstance(cells_per_horizon, bool) or not isinstance(cells_per_horizon, (int, np.integer))
            or cells_per_horizon < 3):
        raise ValueError(f"cells_per_horizon = {cells_per_horizon!r}: need an integer of at least 3")
    grids = []
    for d in deltas:
        h = d / cells_per_horizon
        # a non-finite side gets one cell, which BoxDomain refuses by name
        dom = BoxDomain(sides, tuple(max(1, int(round(s / h))) if math.isfinite(s) else 1
                                     for s in sides))
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
    rule: SphereQuadrature | None = None,
) -> ConvergenceStudy:
    """Shrink the horizon and tabulate the gap to the local energy.

    The grid is rebuilt for each horizon at ``cells_per_horizon`` cells per
    delta, so the discretization error stays a fixed small fraction of the
    energy while the boundary-layer gap shrinks linearly. The one sphere
    rule ``rule`` (default ``build_rule(dim, 32)``) serves both the near
    block of each energy and the local reference.

    Raises
    ------
    ValueError
        On the inputs :func:`study_grids` refuses, and as
        :func:`nonlocal_energy` and :func:`local_reference` raise.
    """
    grids = study_grids(sides, deltas, cells_per_horizon)
    rule = rule if rule is not None else build_rule(len(sides), 32)
    limit = compute_blowup(w, beta)
    rows = []
    log_d, log_g = [], []
    for d, dom in grids:
        energy = nonlocal_energy(w, beta, d, field, dom, rule=rule)
        reference = local_reference(limit, field, dom, rule)
        gap = abs(energy - reference)
        slope = math.nan
        if gap > 0:
            log_d.append(math.log(d))
            log_g.append(math.log(gap))
            if len(log_d) >= 2:
                slope = float(np.polyfit(log_d, log_g, 1)[0])
        rows.append((float(d), float(energy), float(reference), float(gap), slope))
    return ConvergenceStudy(rows)
