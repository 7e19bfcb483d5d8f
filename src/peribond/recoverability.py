"""Recoverability screening of stored-energy densities.

A density is recoverable from an isotropic, frame-indifferent bond model
exactly when it satisfies the mean-value identity: its value at A equals
the sphere mean of its values on the scaled identities |Az| I. The module
evaluates that identity on batteries of test matrices, extracts the
candidate radial bond profile W(tI)/sigma, reproduces the classical
counterexample inequalities (Jensen margins for profiles of |A|^2 and of
|cof A|), and runs the large-stretch scan that rules out Mooney-Rivlin
densities.

Sampling refutes or accumulates consistency evidence; it cannot certify
the identity for every matrix.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import INF, vector_norm
from .potentials import DET_TOL, ScalarProfile, StoredEnergy
from .quadrature import SphereQuadrature, sphere_measure

#: residual tolerance |W(A)| -> 1e-6 * (1 + |W(A)|); quadrature error at the
#: default orders is below 1e-8 on the built-in zoo, two orders of margin.
RESIDUAL_REL_TOL = 1e-6


class IndeterminateResidualError(ArithmeticError):
    """Both sides of the mean-value identity are infinite at this matrix."""


@dataclass(frozen=True)
class CandidateProfile:
    """Radial bond profile t -> W(tI)/sigma extracted from a density."""

    density: StoredEnergy
    dim: int

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        mats = t[..., None, None] * np.eye(self.dim)
        return self.density(mats) / sphere_measure(self.dim)


def extract_candidate(density: StoredEnergy, dim: int) -> CandidateProfile:
    """The only radial profile that can reproduce the density, if any does."""
    return CandidateProfile(density, dim)


def default_test_matrices(dim: int, seed: int = 0, randoms: int = 20) -> list[np.ndarray]:
    """Battery: identity multiples, volume-preserving stretches diag(l, 1/l, 1),
    a distinct-diagonal matrix, and seeded random matrices."""
    if randoms < 0:
        raise ValueError(f"randoms must be at least 0, not {randoms!r}")
    mats = [t * np.eye(dim) for t in (0.5, 1.0, 2.0)]
    for lam in (1.5, 2.0, 4.0):
        stretch = np.diag([lam, 1.0 / lam, 1.0][:dim])
        mats.append(stretch)
    mats.append(np.diag(np.arange(1.0, dim + 1.0)))
    rng = np.random.default_rng(seed)
    for _ in range(randoms):
        mats.append(rng.standard_normal((dim, dim)))
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


def _residual_row(density: StoredEnergy, a, rule: SphereQuadrature, rel_tol: float) -> ResidualRow:
    """One matrix of the mean-value identity: lhs W(A), rhs the sphere
    integral of the extracted candidate profile at the stretches |Az|."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("the mean-value identity is evaluated on square matrices")
    n = a.shape[0]
    if n != rule.dim:
        raise ValueError(f"matrix is {n}x{n} but rule lives on S^{rule.dim - 1}")
    lhs = float(density(a))
    stretches = vector_norm(rule.nodes @ a.T)
    rhs = rule.integrate(np.asarray(extract_candidate(density, n)(stretches), dtype=float))
    if math.isinf(lhs) and math.isinf(rhs):
        return ResidualRow(a, lhs, rhs, math.nan, "indeterminate", False)
    residual = lhs - rhs
    if math.isinf(residual):
        return ResidualRow(a, lhs, rhs, residual, "infinite-violation", False)
    ok = abs(residual) <= rel_tol * (1.0 + abs(lhs))
    return ResidualRow(a, lhs, rhs, residual, "finite", ok)


def recoverability_residual(density: StoredEnergy, a, rule: SphereQuadrature) -> float:
    """W(A) minus the sphere integral of the candidate profile at |Az|.

    That integral is the sphere mean of W(|Az| I). Zero (up to quadrature
    error) at every matrix characterizes densities that come from a radial
    bond profile. A single infinite side returns an infinite residual; two
    infinite sides raise :class:`IndeterminateResidualError`.
    """
    row = _residual_row(density, a, rule, RESIDUAL_REL_TOL)
    if row.classification == "indeterminate":
        raise IndeterminateResidualError(
            "density is infinite at the matrix and on the scaled identities"
        )
    return row.residual


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
    to 'violated', any one-sided infinity to 'infinite-violation'.
    """
    if not rel_tol >= 0:  # a negative tolerance fails every finite row
        raise ValueError(f"rel_tol must be at least 0, not {rel_tol!r}")
    if test_set is None:
        test_set = default_test_matrices(rule.dim)
    rows = [_residual_row(density, a, rule, rel_tol) for a in test_set]

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
        {"dim": rule.dim, "order": rule.order, "nodes": len(rule)},
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


def jensen_counterexample_suite(dim: int, rule: SphereQuadrature) -> JensenReport:
    """Counterexample margins that block whole families of densities.

    For profiles of the squared Frobenius norm the identity forces
    mean g(n |Az|^2) = g(|A|^2); a strictly convex g makes the left side
    strictly larger whenever z -> |Az| is nonconstant (and strictly smaller
    for strictly concave g), with equality at identity multiples. For
    profiles of |cof A| on 3x3 matrices the corresponding mean dominates
    g(|A|^2 / sqrt(3)) on the volume-preserving stretches. A margin expected
    to be zero passes within 1e-10.
    """
    if dim != rule.dim:
        raise ValueError("suite dimension must match the quadrature rule")
    rows = []
    sq = ScalarProfile.power(1.0, 2.0)
    neg_sq = ScalarProfile.power(-1.0, 2.0)
    stretch = np.diag([1.0, 2.0, 1.0][:dim])
    eye = np.eye(dim)
    mean_w = rule.weights / rule.measure

    def frob_margin(profile, a):
        s2 = np.sum((rule.nodes @ a.T) ** 2, axis=-1)
        lhs = float(np.dot(mean_w, profile(dim * s2)))
        frob2 = float(np.sum(a * a))
        return lhs - profile(frob2)

    for profile, label, sign in ((sq, "t^2", 1.0), (neg_sq, "-t^2", -1.0)):
        m = frob_margin(profile, stretch)
        expected = "positive" if sign > 0 else "negative"
        rows.append(
            JensenRow("frobenius", label, stretch, m, expected, sign * m > 0.0)
        )
        m0 = frob_margin(profile, eye)
        rows.append(
            JensenRow("frobenius", label, eye, m0, "zero", abs(m0) <= 1e-10)
        )

    if dim == 3:
        lam = 2.0
        a = np.diag([lam, 1.0 / lam, 1.0])
        s2 = np.sum((rule.nodes @ a.T) ** 2, axis=-1)
        lhs = float(np.dot(mean_w, sq(math.sqrt(3.0) * s2)))
        margin = lhs - sq(float(np.sum(a * a)) / math.sqrt(3.0))
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


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} = {value!r}: need a finite positive number")


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


def mooney_rivlin_inequality_check(
    beta: float,
    g: ScalarProfile,
    lambda_list,
    a_value: float = 1.0,
    c_value: float | None = None,
) -> StretchScanReport:
    """Scan the stretch family diag(l, 1/l, (a/c)^(1/3)) for the inequality
    every recoverable Mooney-Rivlin-type density
    alpha |A|^2 + beta |cof A|^2 + g(det A) would have to satisfy.

    The alpha |A|^2 term satisfies the mean-value identity on its own, so it
    cancels from both sides and the scan takes no alpha. With beta > 0 the
    cofactor term must dominate a quartic in |A|, which fails at a finite
    stretch; with beta = 0 the scan looks for growth of g beyond its value at
    the reference point (g must not be eventually constant for this branch
    to conclude). ``a_value`` is a point past which g is nondecreasing; 1.0
    covers every profile in the zoo. The constant c is the least sphere mean
    of |Az|^3 on the unit Frobenius sphere, 3^(-3/2), capped at 1/a^2.

    Raises
    ------
    ValueError
        If ``beta`` is negative or not finite, or if ``a_value``, a given
        ``c_value`` or a stretch is not finite and positive.
    """
    if not (math.isfinite(beta) and beta >= 0):  # the branch reads beta > 0
        raise ValueError(f"beta = {beta!r}: need a finite number of at least 0")
    _require_positive("a_value", a_value)
    if c_value is not None:
        _require_positive("c_value", c_value)
    lambda_list = [float(lam) for lam in lambda_list]
    for lam in lambda_list:
        _require_positive("stretch", lam)
    if c_value is None:
        c_value = min(cubic_mean_lower_constant(), 1.0 / (a_value * a_value))
    ac = a_value / c_value
    lam_star = None
    lhs_fail = rhs_fail = None
    branch = "cof-term" if beta > 0 else "growth"
    for lam in lambda_list:
        if branch == "cof-term":
            lhs = beta * (1.0 + lam**2 * ac ** (2.0 / 3.0) + ac ** (2.0 / 3.0) / lam**2)
            lhs += float(g(ac ** (1.0 / 3.0)))
            rhs = (beta / 3.0) * (lam**2 + lam**-2 + ac ** (2.0 / 3.0)) ** 2
        else:
            lhs = float(g(ac ** (1.0 / 3.0)))
            rhs = float(g(c_value * (lam**2 + lam**-2 + ac ** (2.0 / 3.0)) ** 1.5))
        if lam_star is None and lhs < rhs:
            lam_star, lhs_fail, rhs_fail = lam, lhs, rhs
    return StretchScanReport(
        branch, c_value, a_value, lam_star, lhs_fail, rhs_fail,
        inconclusive=lam_star is None,
    )
