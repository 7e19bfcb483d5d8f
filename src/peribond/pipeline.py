"""From a bond potential to the local zero-horizon energy density.

The pipeline has three numerical stages: take the homogeneity degree of
the potential near zero separation (declared, passed, or estimated by
:func:`estimate_beta`; one test on the grid's three finest levels checks it
whichever it is), evaluate the small-scale limit w(t*x, t*y)/t^beta as t -> 0
on that grid with extrapolation, and integrate it against directions on the
unit sphere to obtain the local density. The quasiconvexification stage
lives in :mod:`peribond.convexify`.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import is_integer, is_real, normals, rotation_from_rng, seeded
from .potentials import PairwisePotential
from .quadrature import SphereQuadrature

#: geometric grid t_k = 2^-k for the small-scale limit: :func:`compute_blowup`'s
#: diagnostics read every level; its ``evaluate`` and the degree test of
#: :func:`resolve_degree` and :func:`estimate_beta` read the three finest.
DEFAULT_K_RANGE = (4, 12)

#: relative Cauchy tolerance for accepting the limit.
BLOWUP_REL_TOL = 1e-7


class BlowupError(RuntimeError):
    """The scaled potential has no finite limit at the requested degree."""


def _scaled_values(w: PairwisePotential, beta: float, x_ref, y_def, k_range):
    k_min, k_max = k_range
    x_ref = np.asarray(x_ref, dtype=float)
    y_def = np.asarray(y_def, dtype=float)
    out = []
    for k in range(k_min, k_max + 1):
        t = 2.0**-k
        out.append(np.asarray(w(t * x_ref, t * y_def), dtype=float) / t**beta)
    return np.stack(out, axis=0)  # (levels, ...)


def _blowup(w: PairwisePotential, beta: float, x_ref, y_def):
    """Numerical limit of w(t*x, t*y) / t^beta as t -> 0, the kernel of
    :func:`compute_blowup`'s ``evaluate``, which resolves ``beta`` first.

    Evaluates on the three finest levels t_k = 2^-k of ``DEFAULT_K_RANGE``,
    the only ones the Cauchy test and the Aitken step read.
    Inputs may be stacked arrays of offsets; the limit is taken elementwise.

    Raises
    ------
    BlowupError
        If the scaled values are not finite on those levels, or their last
        step exceeds ``BLOWUP_REL_TOL * (1 + |v|)`` at the finest value v,
        which is what a degree above the true one produces. A degree far
        enough below it sends v to 0 and can pass here; :func:`compute_blowup`
        refuses it first, declared or passed.
    """
    k_max = DEFAULT_K_RANGE[1]
    v = _scaled_values(w, beta, x_ref, y_def, (k_max - 2, k_max))
    if not np.all(np.isfinite(v)):
        raise BlowupError(
            f"scaled potential is not finite on the t-grid at degree {beta}"
        )
    tail = np.abs(v[-1] - v[-2])
    scale = 1.0 + np.abs(v[-1])
    if np.any(tail > BLOWUP_REL_TOL * scale):
        worst = float(np.max(tail / scale))
        raise BlowupError(
            f"no finite blow-up at degree {beta}: scaled values still move by "
            f"{worst:.3e} (relative) at the finest t"
        )
    # Aitken step from the last three levels; exact homogeneity gives a
    # zero denominator and we keep the finest value.
    d2 = v[-1] - 2.0 * v[-2] + v[-3]
    num = (v[-1] - v[-2]) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where(np.abs(d2) > 0.0, num / np.where(d2 == 0.0, 1.0, d2), 0.0)
    # extrapolation must not move farther than the last step itself
    corr = np.where(np.abs(corr) <= np.abs(v[-1] - v[-2]), corr, 0.0)
    limit = v[-1] - corr
    return float(limit) if limit.ndim == 0 else limit


def _finest_steps(w: PairwisePotential, beta: float) -> np.ndarray:
    """The one degree test's data: log2 |v_k / v_(k+1)| of the scaled values
    v_k = w(t_k x, t_k y) / t_k^beta between the three finest levels, the
    ones :func:`_blowup` reads, at 8 fixed offset pairs, normals drawn from
    ``seeded(0)``: log2 |w_k / w_(k+1)| - beta, as t_k = 2 t_(k+1). Shape
    (8, 2); a bond of degree b steps by b - beta. A pair where a bond value
    is zero or infinite reads NaN; a NaN bond value raises ValueError."""
    rng = seeded(0)
    x, y = zip(*[(normals(rng, w.ref_dim), normals(rng, w.def_dim)) for _ in range(8)])
    k_max = DEFAULT_K_RANGE[1]
    v = _scaled_values(w, 0.0, np.array(x), np.array(y), (k_max - 2, k_max)).T  # (8, 3)
    if np.any(np.isnan(v)):
        raise ValueError(f"the {w.kind!r} potential is NaN at an offset pair of the degree test")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        steps = np.log2(np.abs(v[:, :-1] / v[:, 1:])) - beta
    steps[~np.all(np.isfinite(v) & (v != 0.0), axis=1)] = np.nan
    return steps


def _check_steps(w: PairwisePotential, beta: float) -> None:
    """Refuse ``beta`` if a step of :func:`_finest_steps` at it exceeds 1e-6
    (NaN pairs skipped): below the bond's degree the limit would be 0."""
    steps = np.abs(_finest_steps(w, beta))
    worst = float(np.max(steps, initial=0.0, where=~np.isnan(steps)))
    if worst > 1e-6:
        raise ValueError(f"beta = {beta!r}: the {w.kind!r} potential is not of this degree; "
                         f"its scaled values change by a factor of 2^{worst:.3g} between "
                         "two of the three finest t (at most 2^1e-06 allowed)")


def resolve_degree(w: PairwisePotential, beta: float | None) -> float:
    """The one rule for the degree of the blow-up and the horizon scaling:
    ``beta``, or the declared degree when ``beta`` is None. ValueError if
    neither is given, if the degree is a bool or not a finite real, if it is
    more than 1e-9 from the declared one, or if :func:`_check_steps` refuses
    it, declared or passed (3 bond calls)."""
    if beta is None and w.beta is None:
        raise ValueError(f"beta = None: the {w.kind!r} potential declares no degree; "
                         "pass one, for instance estimate_beta(w)")
    beta = w.beta if beta is None else beta
    if not (is_real(beta) and math.isfinite(beta)):
        raise ValueError(f"beta = {beta!r}: need a finite real degree")
    if w.beta is not None and abs(beta - w.beta) > 1e-9:
        raise ValueError(f"degree {beta!r} conflicts with the declared degree {w.beta!r}")
    _check_steps(w, beta)
    return float(beta)


def estimate_beta(w: PairwisePotential) -> float:
    """Homogeneity degree of w near zero: the mean over the 8 offset pairs of
    :func:`_finest_steps` of the finest step at degree 0,
    log2 |w(t_11 x, t_11 y) / w(t_12 x, t_12 y)|.

    ValueError if the bond vanishes or is not finite at a pair, or if the
    estimate fails :func:`_check_steps`, as a sum of two powers does.
    """
    steps = _finest_steps(w, 0.0)
    if np.any(np.isnan(steps)):
        raise ValueError("potential vanishes or is non-finite along a sampled ray; "
                         "cannot estimate the homogeneity degree")
    beta_hat = float(np.mean(steps[:, -1]))
    _check_steps(w, beta_hat)
    return beta_hat


@dataclass(frozen=True)
class BlowupResult:
    """Small-scale limit of a potential, ready for sphere integration.

    ``evaluate`` maps stacked offset pairs to the degree-``beta_hat``
    homogeneous limit values. ``diagnostics`` records the scaled samples and
    the extrapolation residual at a reference offset pair.
    """

    beta_hat: float
    evaluate: Callable = field(repr=False)
    diagnostics: dict = field(default_factory=dict)


def compute_blowup(w: PairwisePotential, beta: float | None = None) -> BlowupResult:
    """Package the small-scale limit at the degree the potential declares or
    ``beta`` passes; the result's ``evaluate`` is the one public route to
    that limit.

    :func:`resolve_degree` resolves the degree, since the horizon-scaling
    prefactor depends on it: it refuses a missing ``beta`` for a potential
    that declares no degree (pass :func:`estimate_beta`'s), a ``beta`` that
    is not a finite real or conflicts with the declared one, and a degree,
    declared or passed, that the bond's three finest levels contradict.

    The result keeps the degree, not the potential. ``diagnostics`` samples
    every level of ``DEFAULT_K_RANGE`` at one reference offset pair;
    :class:`BlowupError` is raised here when one of those samples is not
    finite, since ``evaluate`` reads only the finest three.
    """
    beta_hat = resolve_degree(w, beta)

    def evaluate(x_ref, y_def):
        return _blowup(w, beta_hat, x_ref, y_def)

    x0 = np.zeros(w.ref_dim)
    x0[0] = 1.0
    y0 = np.ones(w.def_dim) / math.sqrt(w.def_dim)
    samples = _scaled_values(w, beta_hat, x0, y0, DEFAULT_K_RANGE)
    if not np.all(np.isfinite(samples)):
        raise BlowupError(
            f"scaled potential is not finite on the t-grid at degree {beta_hat} "
            "at the reference offset pair"
        )
    diag = {
        "t": [2.0**-k for k in range(DEFAULT_K_RANGE[0], DEFAULT_K_RANGE[1] + 1)],
        "scaled_samples": [float(s) for s in samples],
        "extrapolation_residual": float(abs(samples[-1] - samples[-2])),
    }
    return BlowupResult(beta_hat, evaluate, diag)


def local_density(limit: BlowupResult, a, rule: SphereQuadrature):
    """Local density: integral of the small-scale limit over unit directions.

    Parameters
    ----------
    limit : BlowupResult
        Small-scale limit of the bond potential.
    a : array_like, shape (..., m, n)
        Deformation gradient, or a stack of them; ``rule`` must live on
        S^(n-1).

    Returns
    -------
    float or ndarray, shape (...)
        The surface integral of limit(z, A z) over the unit sphere, one per
        gradient; a float for a single matrix.
    """
    a = np.asarray(a, dtype=float)
    if a.shape[-1] != rule.dim:
        raise ValueError(
            f"matrix has {a.shape[-1]} columns but the rule lives on "
            f"S^{rule.dim - 1}"
        )
    y_def = rule.nodes @ np.swapaxes(a, -1, -2)  # (..., N, m)
    # the nodes broadcast against the stacked images: one norm per node
    return rule.integrate(limit.evaluate(rule.nodes, y_def))


@dataclass(frozen=True)
class SymmetryReport:
    """Outcome of the frame-indifference / isotropy check on the density."""

    max_abs_deviation: float
    tolerance: float
    passed: bool
    trials: int


def verify_limit_invariances(
    limit: BlowupResult,
    a,
    trials: int,
    rule: SphereQuadrature,
) -> SymmetryReport:
    """Check the local density is unchanged by pre/post rotation of A.

    Compares the density at R1 A R2 against the density at A for the first
    ``trials`` of a fixed sequence of Haar rotation pairs (R1, R2), drawn
    from ``seeded(0)``; passes when the worst deviation stays below
    1e-7 * (1 + |density(A)|). The report keeps the density at A only
    through that tolerance.
    """
    if not is_integer(trials) or trials < 1:  # with no trial every density would pass
        raise ValueError(f"trials = {trials!r}: need an integer of at least 1")
    rng = seeded(0)
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    base = local_density(limit, a, rule)
    worst = 0.0
    for _ in range(trials):
        r1 = rotation_from_rng(m, rng)
        r2 = rotation_from_rng(n, rng)
        worst = max(worst, abs(local_density(limit, r1 @ a @ r2, rule) - base))
    tol = 1e-7 * (1.0 + abs(base))
    return SymmetryReport(worst, tol, worst <= tol, trials)
