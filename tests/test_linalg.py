import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from peribond.linalg import (
    INF,
    cofactor,
    determinant,
    is_real,
    matvec,
    rotation_from_rng,
    seeded,
    vector_norm,
)
from conftest import rotations


def leibniz_det(a):
    """Independent determinant oracle: permutation expansion."""
    n = a.shape[0]
    total = 0.0
    for perm in itertools.permutations(range(n)):
        sign = 1.0
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = 1.0
        for i in range(n):
            prod *= a[i, perm[i]]
        total += sign * prod
    return total


# values whose squares overflow to inf or underflow to (subnormal or) zero
NORM_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-160, 1e154, -1e155, 1e200,
                 1.7e308, math.inf, -math.inf, math.nan]
NORM_VIEWS = ["contiguous", "reversed", "last-reversed", "transposed", "broadcast"]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), view=st.sampled_from(NORM_VIEWS),
       lead=hnp.array_shapes(min_dims=0, max_dims=2, max_side=6))
def test_vector_norm_is_numpys_norm(data, dim, view, lead):
    # moderate values, where the summation order shows in the last bit
    elements = (st.floats(-10.0, 10.0) | st.floats(allow_subnormal=True)
                | st.sampled_from(NORM_SPECIALS))
    if view == "transposed":  # the last axis strided, the leading ones not
        v = data.draw(hnp.arrays(float, (dim,) + lead[::-1], elements=elements)).T
    else:
        v = data.draw(hnp.arrays(float, lead + (dim,), elements=elements))
        if view == "reversed":
            v = v[::-1] if v.ndim > 1 else v
        elif view == "last-reversed":
            v = v[..., ::-1]
        elif view == "broadcast":
            v = np.broadcast_to(v, (3,) + v.shape)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        got, want = vector_norm(v), np.linalg.norm(v, axis=-1)
    assert np.shape(got) == np.shape(want)
    # equal bits wherever numpy's norm is a number, NaN wherever it is NaN
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


@pytest.mark.parametrize("shape", [(), (0,), (4,), (5, 4)])
def test_vector_norm_rejects_other_lengths(shape):
    with pytest.raises(ValueError, match="vector length"):
        vector_norm(np.ones(shape))


def test_determinant_examples():
    assert determinant(np.eye(3)) == 1.0
    assert determinant(np.diag([2.0, 0.5, 1.0])) == pytest.approx(1.0)
    a = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert determinant(a) == pytest.approx(0.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_determinant_matches_leibniz(n):
    rng = np.random.default_rng(n)
    for _ in range(30):
        a = rng.standard_normal((n, n))
        assert determinant(a) == pytest.approx(leibniz_det(a), abs=1e-12)


def test_cofactor_examples():
    assert np.allclose(cofactor(np.eye(3)), np.eye(3))
    lam = 2.5
    got = cofactor(np.diag([lam, 1.0 / lam, 1.0]))
    assert np.allclose(got, np.diag([1.0 / lam, lam, 1.0]))
    assert np.array_equal(cofactor(np.array([[7.0]])), np.array([[1.0]]))


@pytest.mark.parametrize("n", [2, 3])
def test_cofactor_identity_random(n):
    # cof(A) A^T = det(A) I with det from the independent permutation oracle
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = rng.standard_normal((n, n))
        lhs = cofactor(a) @ a.T
        assert np.max(np.abs(lhs - leibniz_det(a) * np.eye(n))) < 1e-12 * (
            1.0 + np.max(np.abs(lhs))
        )


@settings(max_examples=100)
@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(st.floats(-10.0, 10.0), min_size=n * n, max_size=n * n)
))
def test_cofactor_identity_property(entries):
    # cof(A) A^T = det(A) I; each entry is a sum of n products of n entries,
    # so the rounding error scales with max|a|^n
    n = math.isqrt(len(entries))
    a = np.array(entries).reshape(n, n)
    lhs = cofactor(a) @ a.T
    scale = (1.0 + np.max(np.abs(a))) ** n
    assert np.max(np.abs(lhs - leibniz_det(a) * np.eye(n))) <= 1e-12 * scale


def rotation_and_matrix(data, n):
    """A rotation of R^n and an n x n matrix with entries in [-3, 3]."""
    entries = hnp.arrays(float, (n, n), elements=st.floats(-3.0, 3.0))
    return data.draw(rotations(n)), data.draw(entries)


@settings(max_examples=100)
@given(data=st.data(), n=st.sampled_from([2, 3]))
def test_cofactor_multiplicative_under_rotation(data, n):
    r, a = rotation_and_matrix(data, n)
    assert np.max(np.abs(cofactor(r @ a) - cofactor(r) @ cofactor(a))) < 1e-10
    assert abs(determinant(r @ a) - determinant(a)) < 1e-10 * (1 + abs(determinant(a)))


@settings(max_examples=50)
@given(data=st.data(), n=st.sampled_from([2, 3]))
def test_rotation_preserves_frobenius(data, n):
    r, a = rotation_and_matrix(data, n)
    norm = np.linalg.norm(a)
    assert abs(np.linalg.norm(r @ a) - norm) < 1e-12 * (1 + norm)
    assert abs(np.linalg.norm(a @ r) - norm) < 1e-12 * (1 + norm)


@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=25)
@given(data=st.data())
def test_random_rotation_invariants(dim, data):
    r = data.draw(rotations(dim))
    assert np.max(np.abs(r @ r.T - np.eye(dim))) < 1e-12
    assert abs(determinant(r) - 1.0) < 1e-12


def test_random_rotation_deterministic():
    # the Haar draw is a function of the generator's state
    first = rotation_from_rng(3, seeded(42))
    assert np.array_equal(first, rotation_from_rng(3, seeded(42)))
    assert not np.array_equal(first, rotation_from_rng(3, seeded(43)))


def test_random_rotation_rejects_bad_dim():
    with pytest.raises(ValueError):
        rotation_from_rng(4, seeded(0))


def test_square_only_operations():
    rect = np.ones((2, 3))
    with pytest.raises(ValueError):
        determinant(rect)
    with pytest.raises(ValueError):
        cofactor(rect)


def test_extended_real_absorption():
    assert INF + 5.0 == INF
    assert INF * 2.5 == INF
    assert INF > 1e300
    assert not INF < INF
    assert min(INF, 3.0) == 3.0


@pytest.mark.parametrize("m, n", [(2, 2), (3, 3), (3, 2), (1, 3)])
def test_matvec_bits_do_not_depend_on_the_batch(m, n):
    rng = np.random.default_rng(m * 10 + n)
    a = rng.standard_normal((m, n))
    v = rng.standard_normal((7, 300, n))
    whole = matvec(a, v)
    assert whole.shape == (7, 300, m)
    # the sum in order, per vector, and every slice of the batch alone
    want = v[..., 0:1] * a[:, 0]
    for j in range(1, n):
        want = want + v[..., j:j + 1] * a[:, j]
    assert np.array_equal(whole, want)
    assert np.array_equal(whole[3, 17:18], matvec(a, v[3, 17:18]))
    assert np.array_equal(whole[2, 5], matvec(a, v[2, 5]))
    assert np.allclose(whole, v @ a.T, rtol=1e-14, atol=1e-14)
    with pytest.raises(ValueError, match="cannot apply"):
        matvec(a, v[..., :n - 1] if n > 1 else np.ones((4, 2)))


def test_is_real_takes_real_numbers_and_refuses_bools():
    for value in (1, 1.5, -math.inf, math.nan, Fraction(1, 3), np.float32(2.0), np.int8(3)):
        assert is_real(value), value
    for value in (True, False, np.bool_(True), None, "1.0", 1j, np.array([1.0])):
        assert not is_real(value), value
