import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peribond import convexify
from peribond.convexify import (
    MatrixLattice,
    _chains,
    _hull_envelope_1d,
    _largest_decrease,
    _random_direction_pass,
    rank_one_convexify,
)
from peribond.linalg import INF, normals, seeded
from peribond.potentials import (
    ScalarProfile,
    custom_energy,
    frobenius_squared,
    make_incompressible_mr,
    make_mooney_rivlin,
    make_profile_energy,
)


def brute_force_envelope_1d(values):
    """Oracle: exhaust every convex split across every pair of points."""
    n = len(values)
    out = values.copy()
    changed = True
    while changed:
        changed = False
        for idx in range(n):
            for i in range(1, n):
                for j in range(1, n):
                    lo, hi = idx - j, idx + i
                    if lo < 0 or hi >= n:
                        continue
                    combo = (i * out[lo] + j * out[hi]) / (i + j)
                    if combo < out[idx] - 1e-15:
                        out[idx] = combo
                        changed = True
    return out


def reference_hull_1d(values):
    """Reference per-chain hull: Andrew's monotone chain over the finite
    entries of one 1D array, then the chord between consecutive vertices."""
    finite = np.flatnonzero(np.isfinite(values))
    if len(finite) < 2:
        return values.copy()
    hull: list[int] = []
    for i in finite:
        while len(hull) >= 2:
            j, k = hull[-2], hull[-1]
            # drop k if it lies on or above chord (j, i)
            if (values[i] - values[j]) * (k - j) <= (values[k] - values[j]) * (i - j):
                hull.pop()
            else:
                break
        hull.append(int(i))
    out = values.copy()
    for (j, k) in zip(hull[:-1], hull[1:]):
        if k - j > 1:
            t = np.arange(1, k - j) / (k - j)
            chord = values[j] * (1 - t) + values[k] * t
            seg = out[j + 1 : k]
            np.minimum(chord, seg, out=seg)
    return out


def reference_iter_lines(shape, step):
    """Reference chain walk: every point tested as a chain head, every chain
    followed point by point; yields index tuples in step order."""
    dims = len(shape)
    for start in np.ndindex(shape):
        prev = tuple(start[d] - step[d] for d in range(dims))
        if all(0 <= prev[d] < shape[d] for d in range(dims)):
            continue  # not a chain head
        chain = []
        cur = start
        while all(0 <= cur[d] < shape[d] for d in range(dims)):
            chain.append(cur)
            cur = tuple(cur[d] + step[d] for d in range(dims))
        if len(chain) >= 2:
            yield chain


def reference_chains(shape, step):
    """The chain table with its heads found by testing all P lattice points
    (``np.indices``), against which the per-axis boundary masks are checked."""
    shape = np.array(shape)
    step = np.asarray(step, dtype=int)
    points = np.indices(shape).reshape(len(shape), -1).T
    back = points - step
    heads = points[np.any((back < 0) | (back >= shape), axis=1)]
    moving = step != 0
    room = np.where(step > 0, shape - 1 - heads, heads)[:, moving] // np.abs(step[moving])
    lengths = room.min(axis=1) + 1
    keep = lengths >= 2
    heads, lengths = heads[keep], lengths[keep]
    strides = np.append(np.cumprod(shape[:0:-1])[::-1], 1)
    slots = np.arange(lengths.max())
    table = (heads @ strides)[:, None] + (step @ strides) * slots
    table[slots >= lengths[:, None]] = np.prod(shape)
    return table


def reference_sweep_step(values, step):
    """Reference hull pass in one direction: the per-chain hull on 1D slices
    for unit axis steps, on the point-by-point chain walk otherwise."""
    nonzero = np.flatnonzero(step)
    if len(nonzero) == 1 and abs(step[nonzero[0]]) == 1:
        view = np.moveaxis(values, nonzero[0], -1)
        flat = np.ascontiguousarray(view).reshape(-1, view.shape[-1])
        for row in range(flat.shape[0]):
            flat[row] = reference_hull_1d(flat[row])
        view[...] = flat.reshape(view.shape)
        return
    for chain in reference_iter_lines(values.shape, step):
        idx = tuple(np.array(chain).T)
        values[idx] = reference_hull_1d(values[idx])


def reference_convexify(density, lattice, directions, tol, max_sweeps, seed):
    """The sweep loop of rank_one_convexify over the reference hull pass."""
    values = lattice.fill(density)
    rng = seeded(seed)
    decrement = INF
    sweeps = 0
    while sweeps < max_sweeps:
        sweeps += 1
        before = values.copy()
        for step in lattice.directions():
            reference_sweep_step(values, step)
        values = _random_direction_pass(values, lattice, directions, rng)
        both_finite = np.isfinite(before) & np.isfinite(values)
        decrement = (
            float((before[both_finite] - values[both_finite]).max())
            if both_finite.any()
            else 0.0
        )
        if np.any(np.isinf(before) & np.isfinite(values)):
            decrement = INF
        if decrement <= tol:
            break
    return values, sweeps, decrement


def reference_random_pass(values, lattice, count, rng):
    """Reference random-dyad pass: both endpoints of every lattice point read
    point by point from scipy.ndimage.map_coordinates (order 1, index
    clamping), NaN standing for +inf."""
    map_coordinates = pytest.importorskip("scipy.ndimage").map_coordinates
    if lattice.mode == "diagonal" or lattice.dim == 1 or count <= 0:
        return values
    shape = values.shape
    grid_idx = np.indices(shape, dtype=float).reshape(len(shape), -1)
    work = values.copy()
    filled = np.where(np.isfinite(work), work, np.nan)
    for _ in range(count):
        a = normals(rng, lattice.dim)
        b = normals(rng, lattice.dim)
        d = np.outer(a / np.linalg.norm(a), b / np.linalg.norm(b)).ravel()
        for i, j in ((1, 1), (1, 2), (2, 1)):
            lo = grid_idx - j * d[:, None]
            hi = grid_idx + i * d[:, None]
            ok = np.all((lo >= 0) & (lo <= np.array(shape)[:, None] - 1), axis=0)
            ok &= np.all((hi >= 0) & (hi <= np.array(shape)[:, None] - 1), axis=0)
            if not np.any(ok):
                continue
            f_lo = map_coordinates(filled, lo[:, ok], order=1, mode="nearest")
            f_hi = map_coordinates(filled, hi[:, ok], order=1, mode="nearest")
            combo = (i * f_lo + j * f_hi) / (i + j)
            good = ~np.isnan(combo)
            flat = work.reshape(-1)
            target = np.flatnonzero(ok)[good]
            flat[target] = np.minimum(flat[target], combo[good])
    return work


def exact_random_pass(values, lattice, count, rng, points):
    """The random-dyad pass at the flat indices ``points`` in exact rational
    arithmetic on the same float dyads, endpoints and lattice values."""
    top = lattice.points_per_axis - 1
    out = {}
    dyads = []
    for _ in range(count):
        a, b = normals(rng, lattice.dim), normals(rng, lattice.dim)
        dyads.append(np.outer(a / np.linalg.norm(a), b / np.linalg.norm(b)).ravel())

    def interpolant(coords):
        base = [min(math.floor(c), top) for c in coords]
        total = Fraction(0)
        for corner in itertools.product((0, 1), repeat=len(coords)):
            weight = Fraction(1)
            for c, lo, k in zip(coords, base, corner):
                weight *= (c - lo) if k else 1 - (c - lo)
            if weight:
                value = values[tuple(min(lo + k, top) for lo, k in zip(base, corner))]
                if not np.isfinite(value):
                    return None
                total += weight * Fraction(float(value))
        return total

    for point in points:
        index = np.unravel_index(point, values.shape)
        best = Fraction(float(values[index]))
        for d in dyads:
            for i, j in ((1, 1), (1, 2), (2, 1)):
                lo = [Fraction(int(x)) - j * Fraction(float(dk)) for x, dk in zip(index, d)]
                hi = [Fraction(int(x)) + i * Fraction(float(dk)) for x, dk in zip(index, d)]
                if not all(0 <= c <= top for c in lo + hi):
                    continue
                f_lo, f_hi = interpolant(lo), interpolant(hi)
                if f_lo is not None and f_hi is not None:
                    best = min(best, (i * f_lo + j * f_hi) / (i + j))
        out[point] = best
    return out


CHAIN_LATTICES = [
    MatrixLattice(dim=1, bound=1.0, step=0.5),
    MatrixLattice(dim=3, bound=1.0, step=0.5, mode="diagonal"),
    MatrixLattice(dim=2, bound=1.0, step=0.5, mode="full"),
]


@pytest.mark.parametrize("lattice", CHAIN_LATTICES, ids=["1x1", "diagonal-3x3", "full-2x2"])
def test_chain_tables_match_point_walk(lattice):
    shape = (lattice.points_per_axis,) * lattice.axes
    size = math.prod(shape)
    for step in lattice.directions():
        table = _chains(shape, step)
        # padding only after a chain's end, and only with the one-past-the-end index
        padded = table == size
        assert np.array_equal(padded, np.maximum.accumulate(padded, axis=1))
        assert not padded[:, :2].any() and np.all((table >= 0) & (table <= size))
        got = [row[row < size].tolist() for row in table]
        want = [
            np.ravel_multi_index(tuple(np.array(chain).T), shape).tolist()
            for chain in reference_iter_lines(shape, step)
        ]
        assert got == want, step


@pytest.mark.parametrize("lattice", [
    MatrixLattice(dim=3, bound=1.5, step=0.05, mode="diagonal"),
    MatrixLattice(dim=2, bound=1.0, step=0.25, mode="full"),
], ids=["diagonal-61^3", "full-9^4"])
def test_chain_heads_from_boundary_masks_match_all_points(lattice):
    shape = (lattice.points_per_axis,) * lattice.axes
    assert lattice.points_per_axis in (61, 9)
    for step in lattice.directions():
        got, want = _chains(shape, step), reference_chains(shape, step)
        assert got.dtype == want.dtype and np.array_equal(got, want), step


def well_with_inf_patch(m):
    """The Frobenius double well, +inf where det A < -1/2."""
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    well = make_profile_energy("frobenius", ScalarProfile.well())
    return np.where(det < -0.5, INF, well(m))


@pytest.mark.parametrize("lattice, directions, density", [
    (MatrixLattice(dim=2, bound=2.0, step=0.5, mode="full"), 8,
     make_profile_energy("frobenius", ScalarProfile.well())),
    (MatrixLattice(dim=2, bound=2.0, step=0.5, mode="full"), 8,
     custom_energy(well_with_inf_patch, "well-inf-patch")),
    (MatrixLattice(dim=3, bound=2.0, step=0.25, mode="diagonal"), 0,
     make_profile_energy("frobenius", ScalarProfile.well())),
], ids=["full-2x2", "full-2x2-inf-patch", "diagonal-3x3"])
def test_envelope_matches_reference_sweep(lattice, directions, density):
    result = rank_one_convexify(density, lattice, directions=directions, tol=1e-6, seed=5)
    values, sweeps, decrement = reference_convexify(density, lattice, directions, 1e-6, 40, 5)
    assert np.array_equal(result.values, values)
    assert (result.sweeps, result.last_decrement) == (sweeps, decrement)
    assert np.any(values < result.initial)  # the sweep has work to do


@pytest.mark.parametrize("bound, step", [(2.0, 0.5), (1.5, 0.25)], ids=["9^4", "13^4"])
@pytest.mark.parametrize("data", ["double-well", "uniform"])
def test_random_pass_matches_map_coordinates_reference(bound, step, data):
    lattice = MatrixLattice(dim=2, bound=bound, step=step, mode="full")
    mats = lattice.matrices()
    if data == "double-well":
        values = (np.sum(mats * mats, axis=(-2, -1)) - 1.0) ** 2 + 0.5 * (mats[..., 0, 1] - 0.3) ** 2
    else:
        values = np.random.default_rng(5).uniform(0.0, 1.0, mats.shape[:-2])
    values[np.linalg.det(mats) < -0.5] = INF
    lowered = 0
    for seed in range(3):
        got = _random_direction_pass(values, lattice, 8, seeded(seed))
        want = reference_random_pass(values, lattice, 8, seeded(seed))
        lowered += np.count_nonzero(want < values)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        # one weight per corner in place of per-point coordinates: ulp-level
        # only. The reference rounds each coordinate idx - j d at ulp(idx), an
        # error on the scale of the values it blends, so at the few points
        # where it misses the bound the pass is held to exact arithmetic
        close = np.ones(values.shape, dtype=bool)
        close[finite] = np.abs(got[finite] - want[finite]) <= 1e-14 * np.abs(want[finite])
        for point in np.flatnonzero(~close):
            exact = exact_random_pass(values, lattice, 8, seeded(seed), [point])[point]
            assert abs(Fraction(float(got.flat[point])) - exact) <= 1e-14 * abs(exact)
    assert lowered  # the pass has work to do


def test_random_pass_is_exact_to_a_few_ulps():
    # on the uniform 13^4 data of the test above, at the points where the pass
    # and the map_coordinates reference differ most relative to the result
    lattice = MatrixLattice(dim=2, bound=1.5, step=0.25, mode="full")
    values = np.random.default_rng(5).uniform(0.0, 1.0, (13,) * 4)
    values[np.linalg.det(lattice.matrices()) < -0.5] = INF
    got = _random_direction_pass(values, lattice, 8, seeded(0))
    want = reference_random_pass(values, lattice, 8, seeded(0))
    finite = np.isfinite(want)
    gap = np.zeros(values.shape)
    gap[finite] = np.abs(got[finite] - want[finite]) / want[finite]
    points = np.argsort(gap, axis=None)[-4:]
    exact = exact_random_pass(values, lattice, 8, seeded(0), points)
    # a few ulps of the result; map_coordinates is off by about 2^-45 there
    for point in points:
        assert abs(Fraction(float(got.flat[point])) - exact[point]) <= 2.0**-50 * exact[point]


class AxisDyads:
    """Stands in for the generator: every dyad is e_1 (x) e_1, so every
    endpoint is a lattice point and the upper corners carry weight 0. Each
    Box-Muller pair of uniforms (1/2, 0) is the normal pair (r, 0), r > 0."""

    def __init__(self):
        self.draws = itertools.cycle([0.5, 0.0])

    def random(self):
        return next(self.draws)


def test_random_pass_with_lattice_dyads_matches_reference():
    lattice = MatrixLattice(dim=2, bound=2.0, step=0.5, mode="full")
    values = np.random.default_rng(3).uniform(0.0, 1.0, (9,) * 4)
    values[np.linalg.det(lattice.matrices()) < -0.5] = INF
    got = _random_direction_pass(values, lattice, 1, AxisDyads())
    want = reference_random_pass(values, lattice, 1, AxisDyads())
    assert np.any(want < values)
    assert np.array_equal(got, want)


def test_lattice_contains_zero_and_identity():
    lat = MatrixLattice(dim=3, bound=3.0, step=0.1, mode="diagonal")
    coords = lat.coordinates
    assert 0.0 in coords and 1.0 in coords and -1.0 in coords
    with pytest.raises(ValueError):
        MatrixLattice(dim=2, bound=1.0, step=0.3)
    with pytest.raises(ValueError):
        MatrixLattice(dim=3, bound=1.0, step=0.5, mode="full")
    with pytest.raises(ValueError, match="bound must be at least 1"):
        MatrixLattice(dim=1, bound=0.5, step=0.5)  # a multiple of step, but no +-1


def test_fill_rejects_negative_infinity():
    # the hull never takes an infinite vertex, so a -inf would stay in place
    # and its chain would report convergence
    lat = MatrixLattice(dim=1, bound=1.0, step=0.5)
    square = custom_energy(
        lambda m: np.where(m[..., 0, 0] == 0.0, -INF, m[..., 0, 0] ** 2), "square-minus-inf"
    )
    with pytest.raises(ValueError, match="-inf"):
        lat.fill(square)
    with pytest.raises(ValueError, match="-inf"):
        rank_one_convexify(square, lat)


@pytest.mark.parametrize("lattice, density", [
    (MatrixLattice(dim=3, bound=3.0, step=0.1, mode="diagonal"),
     make_mooney_rivlin(0.7, 1.3, ScalarProfile.well())),
    (MatrixLattice(dim=3, bound=3.0, step=0.1, mode="diagonal"), make_incompressible_mr(1.0, 0.5)),
    (MatrixLattice(dim=2, bound=2.0, step=0.5, mode="full"),
     make_profile_energy("frobenius", ScalarProfile.well())),
    (MatrixLattice(dim=1, bound=1.0, step=0.5), frobenius_squared()),
], ids=["mooney-rivlin-diag61", "incompressible-diag61", "double-well-full2x2", "interval"])
def test_fill_in_chunks_is_bit_equal_to_one_call(lattice, density):
    # 61^3 and 9^4 lattice points: several chunks, the last one partial
    want = np.asarray(density(lattice.matrices()), dtype=float)
    got = lattice.fill(density)
    assert got.shape == want.shape == (lattice.points_per_axis,) * lattice.axes
    assert np.array_equal(got, want)


def test_fill_rejects_nan_in_a_later_chunk():
    lat = MatrixLattice(dim=3, bound=3.0, step=0.1, mode="diagonal")
    target = lat.matrices().reshape(-1, 3, 3)[5 * convexify._FILL_CHUNK + 7]

    def fn(m):
        hit = np.all(m == target, axis=(-2, -1))
        return np.where(hit, np.nan, np.sum(m * m, axis=(-2, -1)))

    with pytest.raises(ValueError, match="NaN"):
        lat.fill(custom_energy(fn, "one-nan"))


def test_lattice_matrices_shapes():
    lat = MatrixLattice(dim=2, bound=1.0, step=0.5, mode="full")
    mats = lat.matrices()
    assert mats.shape == (5, 5, 5, 5, 2, 2)
    lat3 = MatrixLattice(dim=3, bound=1.0, step=1.0, mode="diagonal")
    mats3 = lat3.matrices()
    assert mats3.shape == (3, 3, 3, 3, 3)
    # off-diagonal stays zero on the diagonal sublattice
    assert np.all(mats3[..., 0, 1] == 0.0)


def test_hull_envelope_matches_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(30):
        values = rng.standard_normal(12)
        got = _hull_envelope_1d(values)
        want = brute_force_envelope_1d(values)
        assert np.max(np.abs(got - want)) < 1e-12


def test_hull_envelope_with_infinities():
    values = np.array([INF, 2.0, INF, INF, 0.0, INF])
    got = _hull_envelope_1d(values)
    # chord between the two finite points, +inf outside their span
    assert got[0] == INF and got[5] == INF
    assert got[1] == 2.0 and got[4] == 0.0
    assert got[2] == pytest.approx(2.0 * 2.0 / 3.0)
    assert got[3] == pytest.approx(2.0 / 3.0)
    assert np.all(_hull_envelope_1d(np.array([INF, 1.0, INF])) == np.array([INF, 1.0, INF]))


@st.composite
def hull_rows(draw):
    """A (chains, length) array as the sweep stacks it: rows of rounded
    values (ties, collinear runs), exact lines, strictly convex rows (a
    rounded offset plus k i^2, k down to below the values' ulp), lines and
    convex rows with one entry moved by one ulp, so that the keep test of a
    row that is its own hull is drawn at its exact boundary, +inf entries,
    rows with 0 or 1 finite entries and +inf-padded tails."""
    length = draw(st.integers(1, 24))
    rounded = st.integers(-8, 8).map(lambda k: k / 4)
    entry = st.one_of(rounded, st.floats(-1e3, 1e3), st.just(INF))
    curvature = st.one_of(st.integers(1, 8).map(lambda k: k / 4),
                          st.integers(40, 60).map(lambda e: 2.0**-e))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        shape = draw(st.sampled_from(["entries", "line", "convex"]))
        if shape == "entries":
            row = draw(st.lists(entry, min_size=length, max_size=length))
        else:
            offset, slope = draw(rounded), draw(rounded)
            k = draw(curvature) if shape == "convex" else 0.0
            row = [offset + slope * i + k * i * i for i in range(length)]
            if draw(st.booleans()):
                j = draw(st.integers(0, length - 1))
                row[j] = float(np.nextafter(row[j], draw(st.sampled_from([-INF, INF]))))
        end = draw(st.integers(0, length))  # padded from here on
        rows.append(row[:end] + [INF] * (length - end))
    return np.array(rows, dtype=float).reshape(len(rows), length)


@settings(max_examples=300)
@given(hull_rows())
def test_batched_hull_matches_per_chain_reference(values):
    got = _hull_envelope_1d(values)
    assert got.shape == values.shape
    for row, want in zip(got, values):
        assert np.array_equal(row, reference_hull_1d(want))


def test_rows_that_are_their_own_hull_skip_the_chain(monkeypatch):
    i = np.arange(12.0)
    convex = np.array([0.25 + 0.5 * i * i, -3.0 + i + 2.0**-40 * i * i, np.exp(i)])
    monkeypatch.setattr(convexify, "_monotone_chain", None)  # a walk would fail
    assert np.array_equal(_hull_envelope_1d(convex), convex)


def test_hull_on_infinite_rows_raises_no_warning():
    rows = np.array([[INF, INF, INF, INF], [1.0, INF, 0.0, 2.0], [INF, 0.0, 1.0, 4.0],
                     [0.0, 1.0, 4.0, INF], [0.0, 1.0, 4.0, 9.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _hull_envelope_1d(rows)
    for row, want in zip(got, rows):
        assert np.array_equal(row, reference_hull_1d(want))


@settings(max_examples=50)
@given(st.lists(st.one_of(st.floats(-1e3, 1e3), st.just(INF)), min_size=1, max_size=40))
def test_hull_below_idempotent_and_convex(entries):
    values = np.array(entries)
    hull = _hull_envelope_1d(values)
    assert np.all(hull <= values)
    tol = 1e-12 * (1.0 + np.abs(np.where(np.isfinite(values), values, 0.0)))
    again = _hull_envelope_1d(hull)
    assert np.array_equal(np.isinf(again), np.isinf(hull))
    finite = np.isfinite(hull)
    assert np.all(np.abs(again[finite] - hull[finite]) <= tol[finite])
    # convex from the first to the last finite entry, with no +inf between
    idx = np.flatnonzero(np.isfinite(values))
    if len(idx) >= 2:
        span = hull[idx[0] : idx[-1] + 1]
        assert np.all(np.isfinite(span))
        bend = span[:-2] - 2.0 * span[1:-1] + span[2:]
        assert np.all(bend >= -4.0 * tol.max())


@settings(max_examples=20)
@given(
    coeffs=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_envelope_below_density(coeffs, seed):
    # a nonconvex quartic in the entries with a +inf patch where det A < -1/2
    c2, c4, cdet = coeffs

    def energy(m):
        frob2 = np.sum(m * m, axis=(-2, -1))
        det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
        value = c2 * frob2 + (1.0 + c4) * frob2**2 + cdet * det
        return np.where(det < -0.5, INF, value)

    lattice = MatrixLattice(dim=2, bound=1.0, step=0.5, mode="full")
    result = rank_one_convexify(
        custom_energy(energy, "quartic"), lattice, directions=2, max_sweeps=5, seed=seed
    )
    assert np.all(result.values <= result.initial)


def test_double_well_envelope():
    lat = MatrixLattice(dim=1, bound=2.0, step=0.05)
    dw = custom_energy(lambda m: (m[..., 0, 0] ** 2 - 1.0) ** 2, "double-well")
    result = rank_one_convexify(dw, lat, tol=1e-9, max_sweeps=60)
    coords = lat.coordinates
    # analytic convex envelope: 0 between the wells, the function outside
    exact = np.where(np.abs(coords) <= 1.0, 0.0, (coords**2 - 1.0) ** 2)
    assert result.converged
    assert np.max(np.abs(result.values - exact)) < 1e-4


@pytest.mark.parametrize("mode,dim,bound,step", [
    ("full", 2, 1.0, 0.25),
    ("diagonal", 3, 2.0, 0.25),
])
def test_convex_density_is_fixed_point(mode, dim, bound, step):
    lat = MatrixLattice(dim=dim, bound=bound, step=step, mode=mode)
    result = rank_one_convexify(frobenius_squared(), lat, tol=1e-8, max_sweeps=10)
    assert result.converged
    assert result.max_change_on_interior() < 1e-8
    assert np.all(result.values <= result.initial + 1e-15)


def test_random_directions_keep_convex_fixed_point():
    lat = MatrixLattice(dim=2, bound=1.0, step=0.25, mode="full")
    result = rank_one_convexify(
        frobenius_squared(), lat, directions=6, tol=1e-8, max_sweeps=10, seed=2
    )
    assert result.converged
    assert result.max_change_on_interior() < 1e-8


def test_random_dyads_lower_an_off_axis_well_and_stay_above_its_envelope():
    # W(A) = phi(u.Av) + 0.02 |A|^2 with phi(s) = (s^2 - 1)^2 has its well
    # across the off-axis dyad u (x) v, which no lattice dyad follows. Its
    # envelope is at least ((s^2 - 1)_+)^2 + 0.02 |A|^2, the sum of the
    # convex envelopes of both terms, s being linear in A.
    u = np.array([1.0, math.sqrt(2.0)]) / math.sqrt(3.0)
    v = np.array([math.sqrt(3.0), -1.0]) / 2.0

    def stretch(a):
        return np.einsum("i,...ij,j->...", u, a, v)

    def fn(a):
        s = stretch(a)
        return (s * s - 1.0) ** 2 + 0.02 * np.sum(a * a, axis=(-2, -1))

    density = custom_energy(fn, "off-axis-well", dim=2)
    lat = MatrixLattice(dim=2, bound=1.0, step=0.25, mode="full")
    axes_only = rank_one_convexify(density, lat, directions=0)
    dyads = rank_one_convexify(density, lat, directions=16, seed=5)
    assert axes_only.converged and dyads.converged
    assert np.max(axes_only.values - dyads.values) > 1e-3  # the pass is live
    mats = lat.matrices()
    s = stretch(mats)
    floor = np.maximum(s * s - 1.0, 0.0) ** 2 + 0.02 * np.sum(mats * mats, axis=(-2, -1))
    assert np.all(dyads.values >= floor)


@pytest.mark.parametrize("lattice, directions", [
    (MatrixLattice(dim=3, bound=1.0, step=0.5, mode="diagonal"), 5),
    (MatrixLattice(dim=1, bound=1.0, step=0.5, mode="full"), 2),
    (MatrixLattice(dim=2, bound=1.0, step=0.5, mode="full"), -1),
], ids=["diagonal", "full-1x1", "negative"])
def test_directions_without_random_dyads_rejected(lattice, directions):
    # a diagonal or 1x1 lattice has no random dyads: the count would be ignored
    with pytest.raises(ValueError, match="directions"):
        rank_one_convexify(frobenius_squared(), lattice, directions=directions)


def test_mooney_rivlin_fixed_point():
    lat = MatrixLattice(dim=3, bound=3.0, step=0.1, mode="diagonal")
    density = make_mooney_rivlin(1.0, 1.0, ScalarProfile.well())
    result = rank_one_convexify(density, lat, tol=1e-6, max_sweeps=40)
    assert result.converged
    assert result.max_change_on_interior() <= 10 * 1e-6


def test_rank_one_envelope_sits_above_convex_envelope():
    # -det is affine along every rank-one segment, so the sweep leaves it
    # unchanged, while the plain convex envelope along the non-rank-one
    # diagonal direction t*I dips strictly below it at the origin
    lat = MatrixLattice(dim=2, bound=1.0, step=0.25, mode="full")
    neg_det = custom_energy(
        lambda m: -(m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]),
        "neg-det",
    )
    result = rank_one_convexify(neg_det, lat, tol=1e-10, max_sweeps=10)
    assert result.converged
    # affine-along-lines data only picks up chord rounding noise
    assert np.max(np.abs(result.values - result.initial)) < 1e-12
    coords = lat.coordinates
    diag_line = -(coords**2)  # -det at t*I
    hull = _hull_envelope_1d(diag_line)
    mid = len(coords) // 2
    center = (mid,) * 4
    assert hull[mid] < result.values[center] - 0.5


def test_incompressible_density_on_lattice():
    # the det = 1 surface misses almost every diagonal lattice point, and no
    # axis segment carries two finite straddling values, so +inf persists
    lat = MatrixLattice(dim=3, bound=2.0, step=0.25, mode="diagonal")
    density = make_incompressible_mr(1.0, 0.0)
    result = rank_one_convexify(density, lat, tol=1e-8, max_sweeps=5)
    finite_before = np.isfinite(result.initial)
    assert np.array_equal(np.isfinite(result.values), finite_before)
    assert result.values[finite_before] == pytest.approx(result.initial[finite_before])


@st.composite
def decreases(draw):
    """A ``before`` row holding +inf and an ``after <= before`` row in which
    some +inf entries may turn finite."""
    finite = st.floats(-1e6, 1e6)
    before = draw(st.lists(st.one_of(finite, st.just(INF)), min_size=1, max_size=30)
                  .filter(lambda row: INF in row))
    after = [draw(st.one_of(st.just(INF), finite)) if math.isinf(b)
             else b - draw(st.floats(0.0, 1e6)) for b in before]
    return np.array(before), np.array(after)


@settings(max_examples=200)
@given(decreases())
def test_largest_decrease_is_infinite_exactly_when_a_point_leaves_inf(pair):
    before, after = pair
    left = any(math.isinf(b) and math.isfinite(a) for b, a in zip(before, after))
    drops = [b - a for b, a in zip(before, after) if math.isfinite(b) and math.isfinite(a)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _largest_decrease(before, after)
    assert got == (INF if left else max(drops, default=0.0))


@pytest.mark.parametrize("kind, left", [("frobenius", 7), ("cof", 19)])
def test_points_that_leave_inf_are_an_infinite_change(kind, left):
    lat = MatrixLattice(3, 1.0, 0.5, "diagonal")
    result = rank_one_convexify(make_profile_energy(kind, ScalarProfile.indicator()), lat)
    inside = result.interior_mask
    fell = np.isinf(result.initial[inside]) & np.isfinite(result.values[inside])
    assert np.count_nonzero(fell) == left
    assert result.max_change_on_interior() == INF


def test_envelope_monotone_and_interior_mask():
    lat = MatrixLattice(dim=1, bound=2.0, step=0.5)
    dw = custom_energy(lambda m: np.cos(3 * m[..., 0, 0]), "wiggle")
    result = rank_one_convexify(dw, lat, tol=1e-10, max_sweeps=50)
    assert np.all(result.values <= result.initial + 1e-15)
    mask = result.interior_mask
    assert mask.shape == result.values.shape
    assert not mask[0] and not mask[-1] and mask[1:-1].all()
