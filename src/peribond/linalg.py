"""Small dense matrix arithmetic for energy densities.

Matrices are plain numpy arrays with at most 3 rows/columns; cofactor and
determinant use explicit minor expansion (exact for these sizes, no
factorization). All functions accept stacked inputs of shape (..., m, n)
and broadcast over the leading axes. Extended-real values are IEEE floats
with ``math.inf`` as the infinity marker, so absorption under addition and
multiplication by positive reals is exact.

Every seeded draw of the package comes from one generator rule: ``seeded``
builds Python's Mersenne Twister, whose ``seed()`` and ``random()`` output
Python keeps the same across versions, and ``normals`` turns its uniforms
into standard normals by Box-Muller, so numpy's random module is never
imported.
"""

import math
import numbers
import random

import numpy as np

INF = math.inf

MAX_DIM = 3


def is_integer(value) -> bool:
    """Whether ``value`` is an integer, Python's or numpy's, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether ``value`` is a real number, Python's or numpy's, and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def seeded(seed) -> random.Random:
    """The generator of every seeded draw: a Mersenne Twister seeded with
    ``seed``, an integer of at least 0 (numpy integers included).

    A bool, a non-integer or a negative seed raises ValueError;
    ``random.Random(-s)`` would silently give the stream of ``s``.
    """
    if not is_integer(seed) or seed < 0:
        raise ValueError(f"seed = {seed!r}: need an integer of at least 0")
    return random.Random(int(seed))


def normals(rng: random.Random, *shape: int) -> np.ndarray:
    """Standard normals of the given shape, float64 in C order, by Box-Muller
    on ``rng.random()``: each pair of uniforms (u, v) gives the pair
    r cos(2 pi v), r sin(2 pi v) with r = sqrt(-2 log(1 - u)), and an odd
    count drops the last sine."""
    count = math.prod(shape)
    out = []
    for _ in range((count + 1) // 2):
        radius = math.sqrt(-2.0 * math.log(1.0 - rng.random()))
        angle = 2.0 * math.pi * rng.random()
        out += (radius * math.cos(angle), radius * math.sin(angle))
    return np.array(out[:count], dtype=float).reshape(shape)


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim < 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    m, n = a.shape[-2], a.shape[-1]
    if not (1 <= m <= MAX_DIM and 1 <= n <= MAX_DIM):
        raise ValueError(f"matrix dimensions must lie in 1..{MAX_DIM}, got {m}x{n}")
    return a


def _require_square(a: np.ndarray) -> int:
    if a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected a square matrix, got {a.shape[-2]}x{a.shape[-1]}")
    return a.shape[-1]


def vector_norm(v) -> np.ndarray:
    """Euclidean norm over the last axis, of length 1 to 3: the square root
    of the squared components summed one after the other, in order.

    That is numpy's own summation order for so short an axis, so every
    number is bit-equal to ``np.linalg.norm(v, axis=-1)``, without its
    reduction; a NaN stays NaN, though its payload bits may differ.
    """
    v = np.asarray(v, dtype=float)
    n = v.shape[-1] if v.ndim else 0
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"vector length must lie in 1..{MAX_DIM}, got shape {v.shape}")
    total = v[..., 0] * v[..., 0]
    for j in range(1, n):
        total += v[..., j] * v[..., j]
    return np.sqrt(total)


def matvec(a, v) -> np.ndarray:
    """A v over the last axis of ``v``, shape (..., m) for A of shape (m, n):
    the products summed one after the other, in order, as ``vector_norm``
    does. A matmul's rounding depends on how many vectors are stacked; this
    sum gives every vector the same bits however it is batched.
    """
    a, v = np.asarray(a, dtype=float), np.asarray(v, dtype=float)
    if a.ndim != 2 or v.ndim < 1 or v.shape[-1] != a.shape[1]:
        raise ValueError(f"cannot apply a {a.shape} matrix to vectors of shape {v.shape}")
    out = v[..., :1] * a[:, 0]
    for j in range(1, a.shape[1]):
        out += v[..., j:j + 1] * a[:, j]
    return out


def determinant(a) -> float | np.ndarray:
    """Determinant by explicit cofactor expansion, square n <= 3 only."""
    a = _as_matrix(a)
    n = _require_square(a)
    if n == 1:
        out = a[..., 0, 0]
    elif n == 2:
        out = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    else:
        out = (
            a[..., 0, 0] * (a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1])
            - a[..., 0, 1] * (a[..., 1, 0] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 0])
            + a[..., 0, 2] * (a[..., 1, 0] * a[..., 2, 1] - a[..., 1, 1] * a[..., 2, 0])
        )
    return float(out) if out.ndim == 0 else np.asarray(out)


def cofactor(a) -> np.ndarray:
    """Cofactor matrix of signed (n-1)-minors; satisfies cof(A) A^T = det(A) I.

    For 1x1 input the cofactor is [[1]] (the empty minor).
    """
    a = _as_matrix(a)
    n = _require_square(a)
    out = np.empty_like(a)
    if n == 1:
        out[..., 0, 0] = 1.0
        return out
    if n == 2:
        out[..., 0, 0] = a[..., 1, 1]
        out[..., 0, 1] = -a[..., 1, 0]
        out[..., 1, 0] = -a[..., 0, 1]
        out[..., 1, 1] = a[..., 0, 0]
        return out
    for i in range(3):
        i1, i2 = (i + 1) % 3, (i + 2) % 3
        for j in range(3):
            j1, j2 = (j + 1) % 3, (j + 2) % 3
            # cyclic index choice absorbs the (-1)^(i+j) sign
            out[..., i, j] = (
                a[..., i1, j1] * a[..., i2, j2] - a[..., i1, j2] * a[..., i2, j1]
            )
    return out


def rotation_from_angle(angle: float) -> np.ndarray:
    """2x2 rotation by the given angle."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def rotation_from_quaternion(q) -> np.ndarray:
    """3x3 rotation from a unit quaternion (w, x, y, z)."""
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def rotation_from_rng(dim: int, rng: random.Random) -> np.ndarray:
    """Haar-distributed rotation drawn from an existing generator."""
    if dim == 2:
        return rotation_from_angle(2.0 * math.pi * rng.random())
    if dim == 3:
        # normalized 4-gaussian = uniform quaternion = Haar on SO(3)
        return rotation_from_quaternion(normals(rng, 4))
    raise ValueError(f"rotations supported for dim 2 and 3 only, got {dim}")
