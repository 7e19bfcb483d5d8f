"""Recoverability screening of stored-energy densities.

A density is recoverable from an isotropic, frame-indifferent bond model
exactly when it satisfies the mean-value identity: its value at A equals
the sphere mean of its values on the scaled identities |Az| I. One function,
``_stretch_mean``, computes that mean. The module evaluates the identity on
batteries of test matrices, extracts the candidate radial bond profile
W(tI)/sigma, reads the classical counterexample inequalities off the same
mean (Jensen margins for profiles of |A|^2 and of |cof A|), and runs the
large-stretch scan that rules out Mooney-Rivlin densities.

Sampling refutes or accumulates consistency evidence; it cannot certify
the identity for every matrix.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import is_integer, is_real, normals, seeded, vector_norm
from .potentials import DET_TOL, ScalarProfile, StoredEnergy, make_profile_energy
from .quadrature import SphereQuadrature, sphere_measure

#: residual tolerance |W(A)| -> 1e-6 * (1 + |W(A)|); quadrature error at the
#: default orders is below 1e-8 on the built-in zoo, two orders of margin.
RESIDUAL_REL_TOL = 1e-6


class IndeterminateResidualError(ArithmeticError):
    """Both sides of the mean-value identity are infinite at this matrix."""


def extract_candidate(density: StoredEnergy, dim: int):
    """The only radial profile that can reproduce the density, if any does:
    t -> W(tI)/sigma, with sigma the measure of the unit sphere."""
    eye, sigma = np.eye(dim), sphere_measure(dim)

    def candidate(t):
        t = np.asarray(t, dtype=float)
        return density(t[..., None, None] * eye) / sigma

    return candidate


def default_test_matrices(dim: int, randoms: int = 20) -> list[np.ndarray]:
    """Battery: identity multiples, volume-preserving stretches diag(l, 1/l, 1),
    a distinct-diagonal matrix, and the first ``randoms`` of a fixed sequence
    of random matrices, normals drawn from ``seeded(0)``."""
    if not is_integer(randoms) or randoms < 0:
        raise ValueError(f"randoms = {randoms!r}: need an integer of at least 0")
    mats = [t * np.eye(dim) for t in (0.5, 1.0, 2.0)]
    for lam in (1.5, 2.0, 4.0):
        stretch = np.diag([lam, 1.0 / lam, 1.0][:dim])
        mats.append(stretch)
    mats.append(np.diag(np.arange(1.0, dim + 1.0)))
    rng = seeded(0)
    for _ in range(randoms):
        mats.append(normals(rng, dim, dim))
    return mats


@dataclass(frozen=True)
class ResidualRow:
    matrix: np.ndarray
    lhs: float
    rhs: float
    residual: float
    classification: str  # finite | infinite-violation | indeterminate
    within_tol: bool


@dataclass(frozen=True)
class RecoverabilityReport:
    """Residual table of the mean-value identity over a matrix battery."""

    density: dict
    rows: list
    max_abs_residual: float
    verdict: str  # consistent | violated | infinite-violation
    quadrature: dict
    rel_tol: float
    notes: tuple = ()


def _stretch_mean(density: StoredEnergy, a: np.ndarray, rule: SphereQuadrature) -> float:
    """The sphere mean of W(|Az| I): the sphere integral of the extracted
    candidate profile at the stretches |Az|, the right side of the identity."""
    stretches = vector_norm(rule.nodes @ a.T)
    return rule.integrate(np.asarray(extract_candidate(density, rule.dim)(stretches), dtype=float))


def _residual_row(density: StoredEnergy, a, rule: SphereQuadrature, rel_tol: float) -> ResidualRow:
    """One matrix of the mean-value identity: lhs W(A), rhs its stretch mean."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("the mean-value identity is evaluated on square matrices")
    n = a.shape[0]
    if n != rule.dim:
        raise ValueError(f"matrix is {n}x{n} but rule lives on S^{rule.dim - 1}")
    lhs = float(density(a))
    rhs = _stretch_mean(density, a, rule)
    if math.isinf(lhs) and math.isinf(rhs):
        return ResidualRow(a, lhs, rhs, math.nan, "indeterminate", False)
    residual = lhs - rhs
    if math.isinf(residual):
        return ResidualRow(a, lhs, rhs, residual, "infinite-violation", False)
    ok = abs(residual) <= rel_tol * (1.0 + abs(lhs))
    return ResidualRow(a, lhs, rhs, residual, "finite", ok)


def roundtrip_check(
    density: StoredEnergy,
    rule: SphereQuadrature,
    test_set=None,
    rel_tol: float = RESIDUAL_REL_TOL,
) -> RecoverabilityReport:
    """Extract the candidate profile and test whether it reproduces the density.

    The candidate's sphere integral at each test matrix (by default the
    battery ``default_test_matrices(rule.dim)``) is compared with the
    density value; residuals beyond rel_tol * (1 + |W(A)|) flip the verdict
    to 'violated', any one-sided infinity to 'infinite-violation'. An empty
    ``test_set`` raises ValueError; one whose every row is infinite on both
    sides raises :class:`IndeterminateResidualError`, since no row decides.
    One matrix's residual W(A) minus the sphere mean of W(|Az| I) is a
    one-row battery: ``roundtrip_check(density, rule, [a]).rows[0].residual``.
    """
    if not (is_real(rel_tol) and rel_tol >= 0):  # a negative tolerance fails every finite row
        raise ValueError(f"rel_tol = {rel_tol!r}: need a real number of at least 0")
    if test_set is None:
        test_set = default_test_matrices(rule.dim)
    rows = [_residual_row(density, a, rule, rel_tol) for a in test_set]
    if not rows:  # with no row every density would be consistent
        raise ValueError("test_set is empty: need at least one test matrix")
    if all(r.classification == "indeterminate" for r in rows):  # nor with no deciding row
        raise IndeterminateResidualError(
            f"density {density.kind!r} is infinite on both sides of the mean-value identity "
            f"at all {len(rows)} test matrices: no row decides recoverability"
        )

    finite = [abs(r.residual) for r in rows if r.classification == "finite"]
    max_abs = max(finite) if finite else 0.0
    if any(r.classification == "infinite-violation" for r in rows):
        verdict = "infinite-violation"
    elif any(r.classification == "finite" and not r.within_tol for r in rows):
        verdict = "violated"
    else:
        verdict = "consistent"
    notes = []
    if density.kind == "incompressible-mr" or any(
        isinstance(v, ScalarProfile) and v.kind == "indicator"
        for v in density.params.values()
    ):
        notes.append(f"incompressibility resolved with |det A - 1| <= {DET_TOL}")
    return RecoverabilityReport(
        density.describe(),
        rows,
        max_abs,
        verdict,
        rule.describe(),
        rel_tol,
        tuple(notes),
    )


@dataclass(frozen=True)
class JensenRow:
    case: str
    profile: str
    matrix: np.ndarray
    margin: float
    expected: str  # positive | negative | zero | nonnegative
    ok: bool


@dataclass(frozen=True)
class JensenReport:
    rows: list
    all_ok: bool


def jensen_counterexample_suite(rule: SphereQuadrature) -> JensenReport:
    """Counterexample margins that block whole families of densities, on
    ``rule.dim`` x ``rule.dim`` matrices.

    Each margin is the stretch mean of a density (the right side of the
    mean-value identity) minus a value at A. For W = g(|A|^2) that value is
    W(A), so the margin is minus the recoverability residual: a strictly
    convex g makes it positive whenever z -> |Az| is nonconstant (negative
    for strictly concave g), with equality at identity multiples. For
    W = g(|cof A|) with g(t) = t^2 on 3x3 matrices the stretch mean
    dominates g(|A|^2 / sqrt(3)) on the volume-preserving stretches. A
    margin expected to be zero passes within 1e-10.
    """
    dim = rule.dim
    rows = []
    stretch = np.diag([1.0, 2.0, 1.0][:dim])
    eye = np.eye(dim)
    for sign, label in ((1.0, "t^2"), (-1.0, "-t^2")):
        density = make_profile_energy("frobenius", ScalarProfile.power(sign, 2.0))
        m = _stretch_mean(density, stretch, rule) - density(stretch)
        expected = "positive" if sign > 0 else "negative"
        rows.append(
            JensenRow("frobenius", label, stretch, m, expected, sign * m > 0.0)
        )
        m0 = _stretch_mean(density, eye, rule) - density(eye)
        rows.append(
            JensenRow("frobenius", label, eye, m0, "zero", abs(m0) <= 1e-10)
        )

    if dim == 3:
        lam = 2.0
        a = np.diag([lam, 1.0 / lam, 1.0])
        sq = ScalarProfile.power(1.0, 2.0)
        mean = _stretch_mean(make_profile_energy("cof", sq), a, rule)
        margin = mean - sq(float(np.sum(a * a)) / math.sqrt(3.0))
        rows.append(JensenRow("cofactor", "t^2", a, margin, "nonnegative", margin >= 0.0))

    return JensenReport(rows, all(r.ok for r in rows))


def cubic_mean_lower_constant() -> float:
    """Least sphere mean of |Az|^3 over unit-Frobenius 3x3 matrices: 3^(-3/2).

    Jensen's inequality for the convex map t -> t^(3/2) gives
    mean |Az|^3 >= (mean |Az|^2)^(3/2) = (|A|^2 / 3)^(3/2) = 3^(-3/2), and
    equality holds exactly when |Az| is constant on the sphere, that is at
    A = R / sqrt(3) for a rotation R.
    """
    return 3.0**-1.5


#: the stretches l of the large-stretch scan, 200 evenly spaced from 1 to 100
STRETCH_GRID = tuple(np.linspace(1.0, 100.0, 200).tolist())


@dataclass(frozen=True)
class StretchScanReport:
    """Outcome of the large-stretch necessary-inequality scan."""

    branch: str  # cof-term | growth
    c_value: float
    a_value: float
    lambda_star: float | None
    lhs_at_failure: float | None
    rhs_at_failure: float | None
    inconclusive: bool

    @property
    def found(self) -> bool:
        return self.lambda_star is not None


def mooney_rivlin_inequality_check(beta: float, g: ScalarProfile) -> StretchScanReport:
    """Scan the stretch family diag(l, 1/l, (a/c)^(1/3)) for the inequality
    every recoverable Mooney-Rivlin-type density
    alpha |A|^2 + beta |cof A|^2 + g(det A) would have to satisfy.

    The stretches l are ``STRETCH_GRID``; the first that violates the
    inequality is ``lambda_star``. The alpha |A|^2 term satisfies the
    mean-value identity on its own, so it cancels from both sides and the
    scan takes no alpha. With beta > 0 the cofactor term must dominate a
    quartic in |A|, which fails at a finite stretch; with beta = 0 the scan
    looks for growth of g beyond its value at the reference point (g must
    not be eventually constant for this branch to conclude). Both CLI scans,
    beta = 1 with g = 0 and beta = 0 with the well profile, conclude at
    l = 1. The point a = 1 past which g is nondecreasing covers every profile
    in the zoo; the constant c is the least sphere mean of |Az|^3 on the unit
    Frobenius sphere, 3^(-3/2). The report keeps both.

    Raises
    ------
    ValueError
        If ``beta`` is a bool, negative or not finite, or if either side of the
        inequality is NaN at a stretch.
    """
    if not (is_real(beta) and math.isfinite(beta) and beta >= 0):  # the branch reads beta > 0
        raise ValueError(f"beta = {beta!r}: need a finite number of at least 0")
    c_value = cubic_mean_lower_constant()
    ac = 1.0 / c_value
    lam_star = None
    lhs_fail = rhs_fail = None
    branch = "cof-term" if beta > 0 else "growth"
    for lam in STRETCH_GRID:
        if branch == "cof-term":
            lhs = beta * (1.0 + lam**2 * ac ** (2.0 / 3.0) + ac ** (2.0 / 3.0) / lam**2)
            lhs += float(g(ac ** (1.0 / 3.0)))
            rhs = (beta / 3.0) * (lam**2 + lam**-2 + ac ** (2.0 / 3.0)) ** 2
        else:
            lhs = float(g(ac ** (1.0 / 3.0)))
            rhs = float(g(c_value * (lam**2 + lam**-2 + ac ** (2.0 / 3.0)) ** 1.5))
        if math.isnan(lhs) or math.isnan(rhs):  # a NaN side fails every comparison
            raise ValueError(f"g is NaN in the {branch} scan at stretch {lam!r}")
        if lam_star is None and lhs < rhs:
            lam_star, lhs_fail, rhs_fail = lam, lhs, rhs
    return StretchScanReport(
        branch, c_value, 1.0, lam_star, lhs_fail, rhs_fail,
        inconclusive=lam_star is None,
    )
