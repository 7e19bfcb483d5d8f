import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peribond.linalg import INF, cofactor, determinant
from peribond.potentials import (
    DET_TOL,
    PairwisePotential,
    ScalarProfile,
    affine_frobenius_squared,
    custom_energy,
    frobenius_power,
    frobenius_squared,
    make_incompressible_mr,
    make_mooney_rivlin,
    make_neo_hookean,
    make_power_bond,
    make_profile_energy,
)
from conftest import rotations


def sample_offsets(rng, n, m):
    return rng.standard_normal(n), rng.standard_normal(m)


def test_power_bond_value():
    for dim, sigma in ((2, 2 * math.pi), (3, 4 * math.pi)):
        w = make_power_bond(dim / sigma, 2.0, 2.0, dim=dim)
        e1 = np.zeros(dim)
        e1[0] = 1.0
        y = np.zeros(dim)
        y[0] = 2.0
        assert w(e1, y) == pytest.approx(dim / sigma * 4.0)


def test_power_bond_homogeneity():
    w = make_power_bond(1.3, 3.0, 1.0, dim=3)
    assert w.beta == pytest.approx(2.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = sample_offsets(rng, 3, 3)
        for t in (0.5, 0.25, 0.125):
            expect = t**w.beta * w(x, y)
            assert w(t * x, t * y) == pytest.approx(expect, rel=1e-12)


def test_power_bond_rejects_origin():
    w = make_power_bond(1.0, 2.0, 2.0, dim=2)
    with pytest.raises(ValueError):
        w(np.zeros(2), np.ones(2))


@settings(max_examples=50)
@given(r=rotations(3), seed=st.integers(0, 2**16))
def test_bond_frame_indifference_and_isotropy(r, seed):
    w = make_power_bond(1.0, 2.0, 1.0, dim=3)
    x, y = sample_offsets(np.random.default_rng(seed), 3, 3)
    base = w(x, y)
    assert abs(w(x, r @ y) - base) < 1e-10 * (1 + abs(base))
    assert abs(w(r @ x, y) - base) < 1e-10 * (1 + abs(base))


def test_radial_profile_potential_vectorizes():
    w = PairwisePotential.from_radial_profile(
        lambda r, s: s**2 / r, beta=1.0, ref_dim=2, def_dim=2
    )
    xs = np.array([[1.0, 0.0], [0.0, 2.0]])
    ys = np.array([[3.0, 0.0], [0.0, 1.0]])
    out = w(xs, ys)
    assert out.shape == (2,)
    assert out[0] == pytest.approx(9.0)
    assert out[1] == pytest.approx(0.5)


def test_mooney_rivlin_values():
    w_nh = make_mooney_rivlin(1.0, 0.0, ScalarProfile.power(0.0, 0.0))
    assert w_nh(np.eye(3)) == pytest.approx(3.0)
    # direct minor expansion at diag(2, 1/2, 1):
    #   |A|^2 = 4 + 1/4 + 1 = 5.25, cof A = diag(1/2, 2, 1) so |cof A|^2 = 5.25,
    #   det A = 1 so the well vanishes; total 10.5
    w = make_mooney_rivlin(1.0, 1.0, ScalarProfile.well())
    assert w(np.diag([2.0, 0.5, 1.0])) == pytest.approx(10.5, abs=1e-12)


def test_neo_hookean_reduction():
    g = ScalarProfile.well()
    nh = make_neo_hookean(2.0, g)
    assert nh.describe() == {"kind": "neo-hookean", "params": {"alpha": 2.0, "g": g.describe()}}
    rng = np.random.default_rng(2)
    mats = rng.standard_normal((10, 3, 3))
    # Mooney-Rivlin with beta = 0, to the bit
    assert nh(mats).tobytes() == make_mooney_rivlin(2.0, 0.0, g)(mats).tobytes()
    for a in mats:
        expect = 2.0 * np.sum(a * a) + g(float(np.linalg.det(a)))
        assert nh(a) == pytest.approx(expect, rel=1e-12)


def test_mooney_rivlin_rejects_negative_coefficients():
    # each refusal names its kind and only the negative coefficients
    for build, named in [
        (lambda: make_mooney_rivlin(-1.0, 0.0, ScalarProfile.well()), "'mooney-rivlin': alpha = -1.0"),
        (lambda: make_mooney_rivlin(1.0, -2.0, ScalarProfile.well()), "'mooney-rivlin': beta = -2.0"),
        (lambda: make_neo_hookean(-1.0, ScalarProfile.well()), "'neo-hookean': alpha = -1.0"),
        (lambda: make_incompressible_mr(1.0, -2.0), "'incompressible-mr': beta = -2.0"),
    ]:
        with pytest.raises(ValueError, match=f"{named}: need nonnegative coefficients"):
            build()


def test_incompressible_values():
    w = make_incompressible_mr(1.0, 0.0)
    assert w(np.eye(3)) == pytest.approx(3.0)
    assert w(np.diag([2.0, 1.0, 1.0])) == INF
    lam = 3.0
    assert w(np.diag([lam, 1.0 / lam, 1.0])) == pytest.approx(9.0 + 1.0 / 9.0 + 1.0)


def test_profile_energies():
    sq = ScalarProfile.power(1.0, 2.0)
    frob = make_profile_energy("frobenius", sq)
    assert frob(np.diag([1.0, 2.0])) == pytest.approx(25.0)
    cof = make_profile_energy("cof", ScalarProfile.power(1.0, 1.0))
    assert cof(np.eye(3)) == pytest.approx(math.sqrt(3.0))
    det = make_profile_energy("det", ScalarProfile.indicator())
    assert det(np.eye(3)) == 0.0
    assert det(np.diag([2.0, 1.0, 1.0])) == INF


def test_profile_energies_dim_guard():
    cof = make_profile_energy("cof", ScalarProfile.power(1.0, 1.0))
    with pytest.raises(ValueError):
        cof(np.eye(2))


@pytest.mark.parametrize(
    "density",
    [
        frobenius_squared(),
        frobenius_power(4.0),
        affine_frobenius_squared(1.0, 2.0),
        make_mooney_rivlin(1.0, 1.0, ScalarProfile.well()),
        make_incompressible_mr(1.0, 1.0),
    ],
)
@settings(max_examples=50)
@given(r1=rotations(3), r2=rotations(3), seed=st.integers(0, 2**16))
def test_density_orthogonal_invariance(density, r1, r2, seed):
    # W(R1 A R2) = W(A) for 50 rotation pairs; exact on infinite values
    a = np.random.default_rng(seed).standard_normal((3, 3))
    base = density(a)
    rotated = density(r1 @ a @ r2)
    if math.isinf(base) or math.isinf(rotated):
        assert base == rotated
    else:
        assert abs(rotated - base) < 1e-10 * (1 + abs(base))


def test_scalar_profiles():
    assert ScalarProfile.power(2.0, 3.0)(2.0) == pytest.approx(16.0)
    assert ScalarProfile.affine_square(1.0, 2.0)(3.0) == pytest.approx(19.0)
    assert ScalarProfile.well()(1.0) == 0.0
    ind = ScalarProfile.indicator()
    assert ind(1.0) == 0.0
    assert ind(1.5) == INF
    vals = ind(np.array([1.0, 2.0]))
    assert vals[0] == 0.0 and vals[1] == INF


def test_density_descriptor_serializes_profiles():
    w = make_mooney_rivlin(1.0, 2.0, ScalarProfile.well())
    desc = w.describe()
    assert desc["kind"] == "mooney-rivlin"
    assert desc["params"]["g"] == {"kind": "well", "params": {}}


def described(kind, **params):
    return {"kind": kind, "params": params}


WELL = described("well")
DESCRIPTIONS = [
    (ScalarProfile.power(2.0, 3.0), described("power", coeff=2.0, exponent=3.0)),
    (ScalarProfile.affine_square(1.0, 2.0), described("affine-square", a=1.0, b=2.0)),
    (ScalarProfile.well(), WELL),
    (ScalarProfile.indicator(), described("indicator", tol=DET_TOL)),
    (make_power_bond(1.5, 2.0, 3.0, dim=2), described("power-bond", c=1.5, p=2.0, q=3.0)),
    (frobenius_squared(), described("frobenius-squared")),
    (frobenius_power(4.0), described("frobenius-power", p=4.0)),
    (affine_frobenius_squared(1.0, 2.0), described("affine-frobenius-squared", a=1.0, b=2.0)),
    (make_mooney_rivlin(1.0, 2.0, ScalarProfile.well()),
     described("mooney-rivlin", alpha=1.0, beta=2.0, g=WELL)),
    (make_incompressible_mr(1.0, 2.0), described("incompressible-mr", alpha=1.0, beta=2.0)),
    (make_profile_energy("frobenius", ScalarProfile.well()), described("profile-frobenius", g=WELL)),
    (make_profile_energy("cof", ScalarProfile.well()), described("profile-cof", g=WELL)),
    (make_profile_energy("det", ScalarProfile.well()), described("profile-det", g=WELL)),
    (custom_energy(np.trace, label="trace"), described("custom", label="trace")),
]


@pytest.mark.parametrize("model, description", DESCRIPTIONS,
                         ids=[description["kind"] for _, description in DESCRIPTIONS])
def test_every_model_describes_itself(model, description):
    assert model.describe() == description


def test_check_dim_names_both_sizes():
    cof = make_profile_energy("cof", ScalarProfile.well())
    cof.check_dim(3)
    with pytest.raises(ValueError, match="'profile-cof' takes 3x3 matrices only, not 2x2"):
        cof.check_dim(2)
    frobenius_squared().check_dim(2)


@pytest.mark.parametrize("build", [
    lambda g: make_mooney_rivlin(1.0, 1.0, g),
    lambda g: make_neo_hookean(1.0, g),
    lambda g: make_profile_energy("det", g),
], ids=["mooney-rivlin", "neo-hookean", "profile-det"])
def test_det_profile_refuses_a_fractional_power(request, build):
    # (det A)^0.5 is NaN wherever det A < 0, so no battery or lattice could run
    kind = request.node.callspec.id
    with pytest.raises(ValueError, match=f"'{kind}' takes g.det A., and g = power with "
                                         "exponent 0.5 is NaN wherever det A < 0"):
        build(ScalarProfile.power(1.0, 0.5))
    assert build(ScalarProfile.power(1.0, -1.0))(-np.eye(3)) == pytest.approx(
        build(ScalarProfile.power(0.0, 0.0))(-np.eye(3)) - 1.0)


def test_fractional_powers_of_nonnegative_invariants_load():
    root = ScalarProfile.power(1.0, 0.5)
    assert make_profile_energy("frobenius", root)(np.diag([3.0, -4.0])) == pytest.approx(5.0)
    assert make_profile_energy("cof", root)(-np.eye(3)) == pytest.approx(3.0**0.25)


def test_nan_density_raises_without_a_numpy_warning():
    density = custom_energy(lambda a: np.sqrt(a[..., 0, 0]), dim=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"'custom' is NaN at A = \[\[-1.0, 0.0, 0.0\]"):
            density(np.diag([-1.0, 1.0, 1.0]))
    # +inf is a legal value, so dividing by zero still warns
    inverse = make_profile_energy("det", ScalarProfile.power(1.0, -1.0))
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        assert inverse(np.zeros((3, 3))) == INF


def incompressible_before(a, alpha, beta):
    """The formula make_incompressible_mr evaluated on its own before it was
    built on make_mooney_rivlin."""
    cof = cofactor(a)
    finite = alpha * np.sum(a * a, axis=(-2, -1)) + beta * np.sum(cof * cof, axis=(-2, -1))
    return np.where(np.abs(np.asarray(determinant(a)) - 1.0) <= DET_TOL, finite, INF)


@st.composite
def near_unimodular(draw):
    """diag(2^k, 2^-k, 1 + eps) with a shear: det A is exactly 1 + eps in
    floating point, and eps reaches in and out of DET_TOL."""
    k = draw(st.integers(-6, 6))
    eps = draw(st.one_of(st.sampled_from([0.0, DET_TOL, -DET_TOL, 2 * DET_TOL, -0.5]),
                         st.floats(-3 * DET_TOL, 3 * DET_TOL)))
    shear = draw(st.floats(-4.0, 4.0))
    return np.array([[2.0**k, shear, 0.0], [0.0, 2.0**-k, 0.0], [0.0, 0.0, 1.0 + eps]])


@given(a=st.one_of(near_unimodular(),
                   st.lists(st.floats(-10.0, 10.0), min_size=9, max_size=9).map(
                       lambda entries: np.array(entries).reshape(3, 3))),
       alpha=st.floats(0.0, 10.0), beta=st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
def test_incompressible_is_mooney_rivlin_with_the_indicator(a, alpha, beta):
    value = make_incompressible_mr(alpha, beta)(a)
    before = float(incompressible_before(a, alpha, beta))
    assert np.float64(value).tobytes() == np.float64(before).tobytes(), (value, before)
