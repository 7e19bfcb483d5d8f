"""Quadrature rules on the unit circle and unit sphere.

Every integral over S^(n-1) in the toolkit goes through one of these rules:
equispaced angles on the circle, and a Gauss-Legendre (in the polar cosine)
times trapezoid (in azimuth) product rule on the sphere. Both refine to
arbitrary order, which the convergence checks rely on; tabulated rules of
fixed order would not.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .linalg import INF


def sphere_measure(dim: int) -> float:
    """Total surface measure of S^(dim-1): 2*pi for dim 2, 4*pi for dim 3."""
    if dim == 2:
        return 2.0 * math.pi
    if dim == 3:
        return 4.0 * math.pi
    raise ValueError(f"supported sphere dimensions are 2 and 3, got {dim}")


@dataclass(frozen=True)
class SphereQuadrature:
    """Nodes on S^(dim-1) with positive weights summing to the surface measure.

    Attributes
    ----------
    dim : int
        Ambient dimension (2 or 3).
    nodes : ndarray, shape (N, dim)
        Unit vectors.
    weights : ndarray, shape (N,)
        Positive weights with sum sigma_{dim-1}.
    order : int
        Refinement parameter the rule was built with (points on the circle,
        polar node count on the sphere).
    """

    dim: int
    nodes: np.ndarray
    weights: np.ndarray
    order: int

    @property
    def measure(self) -> float:
        return sphere_measure(self.dim)

    def __len__(self) -> int:
        return len(self.weights)

    def integrate(self, values):
        """Weighted sum of per-node values (the surface integral).

        ``values`` has shape (..., N); returns one integral per leading
        index, a float for shape (N,). A NaN anywhere raises; a row holding
        +inf integrates to +inf.
        """
        values = np.asarray(values, dtype=float)
        if np.any(np.isnan(values)):
            raise ValueError("integrand returned NaN at a quadrature node")
        inf_rows = np.any(np.isposinf(values), axis=-1)
        if np.any(inf_rows):
            values = np.where(inf_rows[..., None], 0.0, values)
        total = np.where(inf_rows, INF, np.dot(values, self.weights))
        return float(total) if total.ndim == 0 else total


def build_circle_rule(points: int) -> SphereQuadrature:
    """Equispaced rule on S^1, exact for trigonometric degree < points.

    Parameters
    ----------
    points : int
        Number of nodes, at least 4. All weights equal 2*pi/points.
    """
    if points < 4:
        raise ValueError(f"circle rule needs at least 4 points, got {points}")
    angles = 2.0 * math.pi * (np.arange(points) + 0.5) / points
    nodes = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    weights = np.full(points, 2.0 * math.pi / points)
    return SphereQuadrature(dim=2, nodes=nodes, weights=weights, order=points)


def build_sphere_rule(order: int) -> SphereQuadrature:
    """Gauss-Legendre x trapezoid product rule on S^2.

    Parameters
    ----------
    order : int
        Polar node count, at least 2; azimuth gets 2*order equispaced nodes.
        Spherical polynomials of total degree <= 2*order - 1 are integrated
        exactly.
    """
    if order < 2:
        raise ValueError(f"sphere rule needs order >= 2, got {order}")
    t, wt = leggauss(order)  # t = cos(polar angle) on [-1, 1]
    nphi = 2 * order
    phi = 2.0 * math.pi * (np.arange(nphi) + 0.5) / nphi
    wphi = 2.0 * math.pi / nphi
    st = np.sqrt(np.maximum(1.0 - t * t, 0.0))
    x = np.outer(st, np.cos(phi)).ravel()
    y = np.outer(st, np.sin(phi)).ravel()
    z = np.outer(t, np.ones(nphi)).ravel()
    nodes = np.stack([x, y, z], axis=1)
    weights = np.outer(wt * wphi, np.ones(nphi)).ravel()
    return SphereQuadrature(dim=3, nodes=nodes, weights=weights, order=order)


def build_rule(dim: int, order: int) -> SphereQuadrature:
    """Dispatch: order circle points on S^1 are 2*order so that the default
    order 32 gives the 64-point circle and the 32x64 sphere rule."""
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)):
        raise ValueError(f"order = {order!r}: need an integer")
    if dim == 2:
        return build_circle_rule(2 * order)
    if dim == 3:
        return build_sphere_rule(order)
    raise ValueError(f"supported dimensions are 2 and 3, got {dim}")


def mean_over_sphere(rule: SphereQuadrature, f) -> float:
    """Mean integral of f over the sphere: sum(w_i f(z_i)) / sigma_{n-1}.

    ``f`` is called once, on the (N, dim) node array, and its result must
    broadcast to shape (N,): one value per node, or one constant. Any other
    shape raises ValueError; whatever ``f`` raises propagates. Any +inf node
    value makes the mean +inf; NaN raises.
    """
    values = np.asarray(f(rule.nodes), dtype=float)
    try:
        values = np.broadcast_to(values, (len(rule),))
    except ValueError:
        raise ValueError(
            f"integrand returned shape {values.shape}; expected ({len(rule)},) "
            "or a value that broadcasts to it"
        ) from None
    total = rule.integrate(values)
    if math.isinf(total):
        return total
    return total / rule.measure
