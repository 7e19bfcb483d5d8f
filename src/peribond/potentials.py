"""Pairwise bond potentials and hyperelastic stored-energy densities.

Built-in potentials are frame indifferent and isotropic by construction:
they evaluate through a radial profile of (|reference offset|, |deformed
offset|) only. Stored energies evaluate square matrices to extended reals
(+inf marks the incompressible constraint). Every built-in carries a
serializable ``kind`` plus ``params`` so reports can round-trip the exact
model; arbitrary callables are accepted through ``custom_energy`` and
``PairwisePotential.from_evaluator`` for tests and probes, at the price of
not being serializable.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import INF, cofactor, determinant, frobenius, vector_norm

#: |det A - 1| tolerance for the incompressible branch; exact equality is
#: meaningless in floating point. Reports quote this value.
DET_TOL = 1e-9


@dataclass(frozen=True)
class ScalarProfile:
    """Scalar profile g used inside stored energies, t -> g(t).

    Kinds form a closed, serializable enumeration: ``power`` (coeff * t**p),
    ``affine-square`` (a + b*t^2), ``well`` ((t-1)^2) and ``indicator``
    (0 at t=1, +inf elsewhere, within ``DET_TOL``).
    """

    kind: str
    params: dict = field(default_factory=dict)
    fn: Callable = None

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.asarray(self.fn(t), dtype=float)
        return float(out) if out.ndim == 0 else out

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
class PairwisePotential:
    """Bond density w(x_ref, y_def) on pairs of offsets.

    ``fn`` maps arrays of shape (..., ref_dim) and (..., def_dim) to (...)
    values. The leading axes of ``x_ref`` and ``y_def`` broadcast against
    each other, and ``fn`` returns values of their broadcast shape: callers
    pass reference offsets shared by many deformed ones unbroadcast, so
    their norms are taken once. ``beta`` is the declared homogeneity degree
    of the pair (None = unknown).
    """

    kind: str
    params: dict
    fn: Callable
    beta: float | None = None
    ref_dim: int = 3
    def_dim: int = 3

    def __call__(self, x_ref, y_def):
        x_ref = np.asarray(x_ref, dtype=float)
        y_def = np.asarray(y_def, dtype=float)
        out = np.asarray(self.fn(x_ref, y_def), dtype=float)
        return float(out) if out.ndim == 0 else out

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

    @staticmethod
    def from_evaluator(
        fn: Callable,
        beta: float | None = None,
        kind: str = "custom",
        ref_dim: int = 3,
        def_dim: int = 3,
    ) -> "PairwisePotential":
        """Arbitrary evaluator, used by tests (e.g. anisotropic controls)."""
        return PairwisePotential(kind, {}, fn, beta, ref_dim, def_dim)


def make_power_bond(c: float, p: float, q: float, dim: int = 3) -> PairwisePotential:
    """Bond density c |y_def|^p / |x_ref|^q, homogeneity degree p - q.

    Evaluation at a zero reference offset is an error: the bond density
    blows up at the origin and the diagonal never enters any integral here.
    A coefficient ``c`` that is not finite and positive raises ValueError.
    """
    if not (math.isfinite(c) and c > 0):
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


@dataclass(frozen=True)
class StoredEnergy:
    """Extended-real density W(A) on square matrices.

    ``fn`` maps stacked matrices of shape (..., n, n) to (...) values; +inf
    is a legal value (incompressible models). A NaN value raises ValueError
    naming the kind and the first matrix where it occurs, so no caller draws
    a verdict from it.
    """

    kind: str
    params: dict
    fn: Callable
    dim: int | None = None  # None: any square size up to 3

    def __call__(self, a):
        a = np.asarray(a, dtype=float)
        if self.dim is not None and a.shape[-1] != self.dim:
            raise ValueError(
                f"density {self.kind!r} expects {self.dim}x{self.dim} matrices, "
                f"got {a.shape[-2]}x{a.shape[-1]}"
            )
        out = np.asarray(self.fn(a), dtype=float)
        nan = np.isnan(out)
        if nan.any():
            stack = a.shape[:-2]
            first = np.unravel_index(np.argmax(np.broadcast_to(nan, stack)), stack)
            raise ValueError(f"density {self.kind!r} is NaN at A = {a[first].tolist()}")
        return float(out) if out.ndim == 0 else out

    def describe(self) -> dict:
        return {"kind": self.kind, "params": _describe_params(self.params)}


def _describe_params(params: dict) -> dict:
    out = {}
    for k, v in params.items():
        if isinstance(v, ScalarProfile):
            out[k] = {"kind": v.kind, "params": v.params}
        else:
            out[k] = v
    return out


def make_mooney_rivlin(alpha: float, beta: float, g: ScalarProfile) -> StoredEnergy:
    """Stored energy alpha |A|^2 + beta |cof A|^2 + g(det A).

    beta = 0 gives the Neo-Hookean family.
    """
    if alpha < 0 or beta < 0:
        raise ValueError("mooney-rivlin coefficients must be nonnegative")

    def fn(a, al=float(alpha), be=float(beta), g=g):
        out = al * np.sum(a * a, axis=(-2, -1))
        if be != 0.0:
            cof = cofactor(a)
            out = out + be * np.sum(cof * cof, axis=(-2, -1))
        return out + g(determinant(a))

    return StoredEnergy(
        "mooney-rivlin", {"alpha": float(alpha), "beta": float(beta), "g": g}, fn
    )


def make_incompressible_mr(alpha: float, beta: float) -> StoredEnergy:
    """alpha |A|^2 + beta |cof A|^2 where det A = 1 (within DET_TOL), else +inf."""
    if alpha < 0 or beta < 0:
        raise ValueError("incompressible coefficients must be nonnegative")

    def fn(a, al=float(alpha), be=float(beta)):
        cof = cofactor(a)
        finite = al * np.sum(a * a, axis=(-2, -1)) + be * np.sum(cof * cof, axis=(-2, -1))
        det = determinant(a)
        return np.where(np.abs(np.asarray(det) - 1.0) <= DET_TOL, finite, INF)

    return StoredEnergy(
        "incompressible-mr", {"alpha": float(alpha), "beta": float(beta)}, fn, dim=3
    )


def make_profile_energy(kind: str, g: ScalarProfile) -> StoredEnergy:
    """Compose a scalar profile with a matrix invariant.

    kind 'frobenius' gives A -> g(|A|^2); 'cof' gives g(|cof A|) and 'det'
    gives g(det A), the latter two on 3x3 matrices only.
    """
    if kind == "frobenius":
        return StoredEnergy(
            "profile-frobenius",
            {"g": g},
            lambda a, g=g: g(np.sum(a * a, axis=(-2, -1))),
        )
    if kind == "cof":
        return StoredEnergy(
            "profile-cof", {"g": g}, lambda a, g=g: g(frobenius(cofactor(a))), dim=3
        )
    if kind == "det":
        return StoredEnergy(
            "profile-det", {"g": g}, lambda a, g=g: g(determinant(a)), dim=3
        )
    raise ValueError(f"unknown profile energy kind {kind!r}")


def frobenius_squared() -> StoredEnergy:
    """W(A) = |A|^2, the density the quadratic bond recovers exactly."""
    return StoredEnergy(
        "frobenius-squared", {}, lambda a: np.sum(a * a, axis=(-2, -1))
    )


def frobenius_power(p: float) -> StoredEnergy:
    """W(A) = |A|^p."""
    return StoredEnergy(
        "frobenius-power",
        {"p": float(p)},
        lambda a, p=float(p): np.sum(a * a, axis=(-2, -1)) ** (p / 2.0),
    )


def affine_frobenius_squared(a: float, b: float) -> StoredEnergy:
    """W(A) = a + b |A|^2, the full family the mean-value identity admits
    among functions of |A|^2."""
    return StoredEnergy(
        "affine-frobenius-squared",
        {"a": float(a), "b": float(b)},
        lambda m, a=float(a), b=float(b): a + b * np.sum(m * m, axis=(-2, -1)),
    )


def custom_energy(fn: Callable, label: str = "custom", dim: int | None = None) -> StoredEnergy:
    """Arbitrary density for tests; not serializable by the CLI."""
    return StoredEnergy("custom", {"label": label}, fn, dim=dim)
