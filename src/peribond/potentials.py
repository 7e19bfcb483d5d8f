"""Pairwise bond potentials and hyperelastic stored-energy densities.

Built-in potentials are frame indifferent and isotropic by construction:
they evaluate through a radial profile of (|reference offset|, |deformed
offset|) only. Stored energies evaluate square matrices to extended reals
(+inf marks the incompressible constraint). Every built-in carries a
serializable ``kind`` plus ``params``, which ``describe()`` reports, so
reports can round-trip the exact model; arbitrary callables are accepted
through ``custom_energy`` and the ``PairwisePotential`` constructor for
tests and probes, at the price of not being serializable.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import INF, cofactor, determinant, is_real, vector_norm

#: |det A - 1| tolerance for the incompressible branch; exact equality is
#: meaningless in floating point. Reports quote this value.
DET_TOL = 1e-9


@dataclass(frozen=True)
class _Model:
    """A model that ``fn`` evaluates and its serializable ``kind`` and
    ``params`` describe: the base of profiles, bonds and densities."""

    kind: str
    params: dict
    fn: Callable

    def __call__(self, *args):
        """``fn`` at ``args`` read as float arrays: a float for a 0-d value,
        else an array."""
        out = self._evaluate(*[np.asarray(x, dtype=float) for x in args])
        return float(out) if out.ndim == 0 else out

    def _evaluate(self, *args) -> np.ndarray:
        return np.asarray(self.fn(*args), dtype=float)

    def describe(self) -> dict:
        """``kind`` and ``params``, a model among the params described alike."""
        params = {k: v.describe() if isinstance(v, _Model) else v for k, v in self.params.items()}
        return {"kind": self.kind, "params": params}


@dataclass(frozen=True)
class ScalarProfile(_Model):
    """Scalar profile g used inside stored energies, t -> g(t).

    Kinds form a closed, serializable enumeration: ``power`` (coeff * t**p),
    ``affine-square`` (a + b*t^2), ``well`` ((t-1)^2) and ``indicator``
    (0 at t=1, +inf elsewhere, within ``DET_TOL``).
    """

    @staticmethod
    def power(coeff: float = 1.0, exponent: float = 1.0) -> "ScalarProfile":
        return ScalarProfile(
            "power",
            {"coeff": float(coeff), "exponent": float(exponent)},
            lambda t, c=coeff, p=exponent: c * t**p,
        )

    @staticmethod
    def affine_square(a: float, b: float) -> "ScalarProfile":
        return ScalarProfile(
            "affine-square",
            {"a": float(a), "b": float(b)},
            lambda t, a=a, b=b: a + b * t * t,
        )

    @staticmethod
    def well() -> "ScalarProfile":
        return ScalarProfile("well", {}, lambda t: (t - 1.0) ** 2)

    @staticmethod
    def indicator() -> "ScalarProfile":
        return ScalarProfile(
            "indicator",
            {"tol": DET_TOL},
            lambda t: np.where(np.abs(t - 1.0) <= DET_TOL, 0.0, INF),
        )


@dataclass(frozen=True)
class PairwisePotential(_Model):
    """Bond density w(x_ref, y_def) on pairs of offsets.

    ``fn`` maps arrays of shape (..., ref_dim) and (..., def_dim) to (...)
    values. The leading axes of ``x_ref`` and ``y_def`` broadcast against
    each other, and ``fn`` returns values of their broadcast shape: callers
    pass reference offsets shared by many deformed ones unbroadcast, so
    their norms are taken once. ``beta`` is the declared homogeneity degree
    of the pair (None = unknown), checked by :func:`~peribond.pipeline.resolve_degree`.
    """

    beta: float | None = None
    ref_dim: int = 3
    def_dim: int = 3

    @staticmethod
    def from_radial_profile(
        profile: Callable,
        kind: str = "custom-radial",
        params: dict | None = None,
        beta: float | None = None,
        ref_dim: int = 3,
        def_dim: int = 3,
    ) -> "PairwisePotential":
        """Potential w = profile(|x_ref|, |y_def|); frame indifferent and
        isotropic by construction."""

        def fn(x, y):
            return profile(vector_norm(x), vector_norm(y))

        return PairwisePotential(kind, dict(params or {}), fn, beta, ref_dim, def_dim)


def make_power_bond(c: float, p: float, q: float, dim: int = 3) -> PairwisePotential:
    """Bond density c |y_def|^p / |x_ref|^q, homogeneity degree p - q.

    Evaluation at a zero reference offset is an error: the bond density
    blows up at the origin and the diagonal never enters any integral here.
    A coefficient ``c`` that is a bool or not finite and positive raises
    ValueError.
    """
    if not (is_real(c) and math.isfinite(c) and c > 0):
        raise ValueError(f"c = {c!r}: need a finite positive coefficient")

    def profile(r, s, c=float(c), p=float(p), q=float(q)):
        if np.any(r == 0.0):
            raise ValueError("power bond evaluated at zero reference offset")
        return c * s**p / r**q

    return PairwisePotential.from_radial_profile(
        profile,
        "power-bond",
        {"c": float(c), "p": float(p), "q": float(q)},
        beta=float(p) - float(q),
        ref_dim=dim,
        def_dim=dim,
    )


def _squares(a):
    """|A|^2 of stacked matrices: ``np.sum``'s own reduction, without its
    wrapper, which costs a single-matrix density call about a microsecond."""
    return np.add.reduce(a * a, axis=(-2, -1))


@dataclass(frozen=True)
class StoredEnergy(_Model):
    """Extended-real density W(A) on square matrices.

    ``fn`` maps stacked matrices of shape (..., n, n) to (...) values; +inf
    is a legal value (incompressible models). A NaN value raises ValueError
    naming the kind and the first matrix where it occurs, so no caller draws
    a verdict from it.
    """

    dim: int | None = None  # None: any square size up to 3

    def check_dim(self, n: int) -> None:
        """Refuse n x n matrices when the density takes another size only."""
        if self.dim not in (None, n):
            raise ValueError(
                f"density {self.kind!r} takes {self.dim}x{self.dim} matrices only, not {n}x{n}"
            )

    @np.errstate(invalid="ignore")  # no warning: a NaN is refused below, naming A
    def _evaluate(self, a):
        self.check_dim(a.shape[-1])
        out = np.asarray(self.fn(a), dtype=float)
        nan = np.isnan(out)
        if np.count_nonzero(nan):  # faster than nan.any() on a single value
            stack = a.shape[:-2]
            first = np.unravel_index(np.argmax(np.broadcast_to(nan, stack)), stack)
            raise ValueError(f"density {self.kind!r} is NaN at A = {a[first].tolist()}")
        return out


def _check_det_profile(kind: str, g: ScalarProfile) -> None:
    """Refuse g(det A) for a power profile with a non-integer exponent: it is
    NaN wherever det A < 0, and every battery and lattice holds such A."""
    if g.kind == "power" and not g.params["exponent"].is_integer():
        raise ValueError(
            f"density {kind!r} takes g(det A), and g = power with exponent "
            f"{g.params['exponent']!r} is NaN wherever det A < 0; need an integer exponent"
        )


def _mooney_rivlin(kind: str, alpha: float, beta: float, g: ScalarProfile) -> Callable:
    """alpha |A|^2 + beta |cof A|^2 + g(det A), the ``fn`` of density
    ``kind``. A negative coefficient, or a power profile g with a
    non-integer exponent, raises ValueError naming ``kind``."""
    negative = [f"{name} = {value!r}" for name, value in (("alpha", alpha), ("beta", beta))
                if value < 0]
    if negative:
        raise ValueError(f"density {kind!r}: {', '.join(negative)}: need nonnegative coefficients")
    _check_det_profile(kind, g)

    def fn(a, al=float(alpha), be=float(beta), g=g):
        out = al * _squares(a)
        if be != 0.0:
            cof = cofactor(a)
            out = out + be * _squares(cof)
        return out + g(determinant(a))

    return fn


def make_mooney_rivlin(alpha: float, beta: float, g: ScalarProfile) -> StoredEnergy:
    """Stored energy alpha |A|^2 + beta |cof A|^2 + g(det A).

    A negative coefficient, or a power profile g with a non-integer
    exponent, raises ValueError.
    """
    fn = _mooney_rivlin("mooney-rivlin", alpha, beta, g)
    return StoredEnergy("mooney-rivlin", {"alpha": float(alpha), "beta": float(beta), "g": g}, fn)


def make_neo_hookean(alpha: float, g: ScalarProfile) -> StoredEnergy:
    """alpha |A|^2 + g(det A): Mooney-Rivlin with beta = 0, refused as
    ``make_mooney_rivlin`` refuses."""
    fn = _mooney_rivlin("neo-hookean", alpha, 0.0, g)
    return StoredEnergy("neo-hookean", {"alpha": float(alpha), "g": g}, fn)


def make_incompressible_mr(alpha: float, beta: float) -> StoredEnergy:
    """alpha |A|^2 + beta |cof A|^2 where det A = 1 (within DET_TOL), else
    +inf: Mooney-Rivlin with the indicator as g."""
    fn = _mooney_rivlin("incompressible-mr", alpha, beta, ScalarProfile.indicator())
    return StoredEnergy(
        "incompressible-mr", {"alpha": float(alpha), "beta": float(beta)}, fn, dim=3
    )


def make_profile_energy(kind: str, g: ScalarProfile) -> StoredEnergy:
    """Compose a scalar profile with a matrix invariant.

    kind 'frobenius' gives A -> g(|A|^2); 'cof' gives g(|cof A|) and 'det'
    gives g(det A), the latter two on 3x3 matrices only. 'det' refuses a
    power profile with a non-integer exponent, as ``make_mooney_rivlin`` does.
    """
    if kind == "frobenius":
        return StoredEnergy(
            "profile-frobenius",
            {"g": g},
            lambda a, g=g: g(_squares(a)),
        )
    if kind == "cof":
        return StoredEnergy(
            "profile-cof", {"g": g}, lambda a, g=g: g(np.sqrt(_squares(cofactor(a)))), dim=3
        )
    if kind == "det":
        _check_det_profile("profile-det", g)
        return StoredEnergy(
            "profile-det", {"g": g}, lambda a, g=g: g(determinant(a)), dim=3
        )
    raise ValueError(f"unknown profile energy kind {kind!r}")


def frobenius_squared() -> StoredEnergy:
    """W(A) = |A|^2, the density the quadratic bond recovers exactly."""
    return StoredEnergy("frobenius-squared", {}, _squares)


def frobenius_power(p: float) -> StoredEnergy:
    """W(A) = |A|^p."""
    return StoredEnergy(
        "frobenius-power",
        {"p": float(p)},
        lambda a, p=float(p): _squares(a) ** (p / 2.0),
    )


def affine_frobenius_squared(a: float, b: float) -> StoredEnergy:
    """W(A) = a + b |A|^2, the full family the mean-value identity admits
    among functions of |A|^2."""
    return StoredEnergy(
        "affine-frobenius-squared",
        {"a": float(a), "b": float(b)},
        lambda m, a=float(a), b=float(b): a + b * _squares(m),
    )


def custom_energy(fn: Callable, label: str = "custom", dim: int | None = None) -> StoredEnergy:
    """Arbitrary density for tests; not serializable by the CLI."""
    return StoredEnergy("custom", {"label": label}, fn, dim=dim)
