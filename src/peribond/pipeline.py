"""From a bond potential to the local zero-horizon energy density.

The pipeline has three numerical stages: take the homogeneity degree of
the potential near zero separation (declared, passed, or estimated by
:func:`estimate_beta`), evaluate the small-scale limit w(t*x, t*y)/t^beta
as t -> 0 on a geometric grid with extrapolation, and integrate that limit
against directions on the unit sphere to obtain the local density. The quasiconvexification stage lives
in :mod:`peribond.convexify`.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import is_integer, normals, rotation_from_rng, seeded
from .potentials import PairwisePotential
from .quadrature import SphereQuadrature

#: geometric grid t_k = 2^-k for the small-scale limit: the degree fit and
#: :func:`compute_blowup`'s diagnostics read every level, its ``evaluate``
#: the three finest.
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
        enough below it sends v to 0 and can pass.
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


def estimate_beta(w: PairwisePotential) -> float:
    """Homogeneity degree of w near zero by log-log slope in t.

    Averages least-squares slopes of log |w(t*x, t*y)| against log t over
    8 fixed offset pairs, normals drawn from ``seeded(0)``, on the grid
    ``DEFAULT_K_RANGE``. A fit residual or a slope spread above 1e-6 means
    the potential is not asymptotically homogeneous, which is an error.
    """
    rng = seeded(0)
    k_min, k_max = DEFAULT_K_RANGE
    log_t = np.array([-k * math.log(2.0) for k in range(k_min, k_max + 1)])
    fit_tol = 1e-6
    slopes = []
    for _ in range(8):
        x = normals(rng, w.ref_dim)
        y = normals(rng, w.def_dim)
        v = _scaled_values(w, 0.0, x, y, DEFAULT_K_RANGE)
        if np.any(v == 0.0) or not np.all(np.isfinite(v)):
            raise ValueError(
                "potential vanishes or is non-finite along a sampled ray; "
                "cannot estimate the homogeneity degree"
            )
        log_v = np.log(np.abs(v))
        coeffs, residuals, *_ = np.polyfit(log_t, log_v, 1, full=True)
        rms = math.sqrt(float(residuals[0]) / len(log_t)) if len(residuals) else 0.0
        if rms > fit_tol:
            raise ValueError(
                "potential is not asymptotically homogeneous: log-log fit "
                f"residual {rms:.3e} exceeds {fit_tol:.1e}"
            )
        slopes.append(float(coeffs[0]))
    if max(slopes) - min(slopes) > fit_tol:
        raise ValueError(
            "potential is not asymptotically homogeneous: slope spread "
            f"{max(slopes) - min(slopes):.3e} across samples exceeds {fit_tol:.1e}"
        )
    return float(np.mean(slopes))


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

    :meth:`PairwisePotential.degree` resolves the degree and refuses a
    ``beta`` that is not a finite real number or conflicts with the declared
    one, since the horizon-scaling prefactor depends on it. A potential that
    declares no degree needs a ``beta``: pass :func:`estimate_beta`'s, else
    ValueError.

    The result keeps the degree, not the potential. ``diagnostics`` samples
    every level of ``DEFAULT_K_RANGE`` at one reference offset pair;
    :class:`BlowupError` is raised here when one of those samples is not
    finite, since ``evaluate`` reads only the finest three.
    """
    beta_hat = w.degree(beta)
    if beta_hat is None:
        raise ValueError(f"beta = None: the {w.kind!r} potential declares no degree; "
                         "pass one, for instance estimate_beta(w)")
    beta_hat = float(beta_hat)

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
