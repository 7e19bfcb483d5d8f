import math

import numpy as np
import pytest

from peribond.linalg import INF, random_rotation
from peribond.potentials import (
    PairwisePotential,
    ScalarProfile,
    affine_frobenius_squared,
    frobenius_power,
    frobenius_squared,
    make_incompressible_mr,
    make_mooney_rivlin,
    make_power_bond,
    make_profile_energy,
)


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


def test_bond_frame_indifference_and_isotropy():
    w = make_power_bond(1.0, 2.0, 1.0, dim=3)
    rng = np.random.default_rng(5)
    for k in range(50):
        x, y = sample_offsets(rng, 3, 3)
        r = random_rotation(3, k)
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
    nh = make_mooney_rivlin(2.0, 0.0, g)
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rng.standard_normal((3, 3))
        expect = 2.0 * np.sum(a * a) + g(float(np.linalg.det(a)))
        assert nh(a) == pytest.approx(expect, rel=1e-12)


def test_mooney_rivlin_rejects_negative_coefficients():
    with pytest.raises(ValueError):
        make_mooney_rivlin(-1.0, 0.0, ScalarProfile.well())


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
def test_density_orthogonal_invariance(density):
    # W(R1 A R2) = W(A) for 50 rotation pairs; exact on infinite values
    rng = np.random.default_rng(9)
    for k in range(50):
        a = rng.standard_normal((3, 3))
        r1 = random_rotation(3, 2 * k)
        r2 = random_rotation(3, 2 * k + 1)
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
