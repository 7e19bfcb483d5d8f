"""Computable envelope machinery: lattice rank-one convexification.

The quasiconvex envelope itself is not computable in general; the rank-one
convex envelope on a matrix lattice is, and it sandwiches the quasiconvex
envelope from above while coinciding with the density exactly when the
density is already quasiconvex. That fixed-point behaviour is all the
toolkit needs from the envelope stage, and every report carries the caveat
explicitly (see ``SURROGATE_NOTE``).

Each sweep replaces the stored values along every lattice segment in a
rank-one direction by their lower convex hull, which exhausts all pairwise
convex-combination updates along that segment at once; +inf values never
serve as hull endpoints, so convex combinations with an infinite endpoint
are never used. The chains of one direction partition the lattice, so a
sweep takes one batched hull per direction over all its chains at once.
"""

import itertools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .linalg import INF, normals, seeded
from .potentials import StoredEnergy

#: Caveat attached to every envelope report: agreement of the rank-one
#: envelope with the density on the lattice is numerical evidence for, not a
#: proof of, the density being its own quasiconvexification.
SURROGATE_NOTE = (
    "rank-one convex envelope used as a computable upper surrogate of the "
    "quasiconvex envelope; a lattice fixed point is evidence, not proof"
)

#: lattice matrices per density call in ``MatrixLattice.fill``
_FILL_CHUNK = 4096


@dataclass(frozen=True)
class MatrixLattice:
    """Regular grid of square matrices on [-bound, bound] per varying entry.

    mode 'full' varies all dim*dim entries (kept coarse: the point count is
    resolution^(dim^2)); mode 'diagonal' varies the diagonal only and fixes
    the rest at zero, which covers every counterexample matrix the checks
    use. 1x1 lattices are plain intervals. ``bound`` and ``step`` must place
    0 and +-1 exactly on the grid.
    """

    dim: int
    bound: float
    step: float
    mode: str = "full"

    def __post_init__(self):
        if self.mode not in ("full", "diagonal"):
            raise ValueError(f"unknown lattice mode {self.mode!r}")
        if not (self.dim >= 1 and self.bound > 0 and self.step > 0):
            raise ValueError("dim, bound and step must be positive")
        if self.bound < 1:
            raise ValueError(f"bound must be at least 1 to hold +-1, not {self.bound!r}")
        for value, name in ((self.bound / self.step, "bound"), (1.0 / self.step, "1")):
            if abs(value - round(value)) > 1e-9:
                raise ValueError(
                    f"{name} must be an integer multiple of step so the lattice "
                    "contains 0 and the identity exactly"
                )
        if self.dim > 1 and self.mode == "full" and self.dim**2 > 4:
            raise ValueError("full lattices are only tractable for dim <= 2")

    @property
    def axes(self) -> int:
        """Number of varying matrix entries."""
        return self.dim if self.mode == "diagonal" else self.dim * self.dim

    @property
    def takes_random_dyads(self) -> bool:
        """Whether off-axis random rank-one dyads move within the lattice:
        full lattices of dim > 1 only, since a 1x1 lattice has the one axis
        and a diagonal sublattice admits no off-axis rank-one move."""
        return self.mode == "full" and self.dim > 1

    @property
    def points_per_axis(self) -> int:
        return 2 * int(round(self.bound / self.step)) + 1

    @property
    def coordinates(self) -> np.ndarray:
        half = int(round(self.bound / self.step))
        return self.step * np.arange(-half, half + 1)

    def matrices(self) -> np.ndarray:
        """All lattice matrices, shape (*grid_shape, dim, dim)."""
        coords = self.coordinates
        grids = np.meshgrid(*([coords] * self.axes), indexing="ij")
        flat = np.stack([g.ravel() for g in grids], axis=-1)  # (P, axes)
        mats = np.zeros(flat.shape[:-1] + (self.dim, self.dim))
        if self.mode == "diagonal":
            for k in range(self.dim):
                mats[..., k, k] = flat[..., k]
        else:
            mats = flat.reshape(flat.shape[:-1] + (self.dim, self.dim))
        return mats.reshape((self.points_per_axis,) * self.axes + (self.dim, self.dim))

    def fill(self, density: StoredEnergy) -> np.ndarray:
        """Density values at every lattice matrix; NaN and -inf are rejected.

        The density sees ``_FILL_CHUNK`` matrices at a time, so its
        temporaries stay small whatever the lattice; its own call refuses a
        NaN. The hull never takes an infinite value as a vertex, so a -inf
        would stay in place while its chains reported convergence.
        """
        mats = self.matrices()
        flat = mats.reshape(-1, self.dim, self.dim)
        values = np.empty(len(flat))
        for start in range(0, len(flat), _FILL_CHUNK):
            values[start:start + _FILL_CHUNK] = density(flat[start:start + _FILL_CHUNK])
        values = values.reshape(mats.shape[:-2])
        if np.any(np.isneginf(values)):
            raise ValueError("density produced -inf on the lattice")
        return values

    def directions(self) -> list[np.ndarray]:
        """Integer rank-one steps, as index-space vectors of length ``axes``.

        Full mode: all dyads a (x) b with a, b in {-1,0,1}^dim, deduplicated
        up to sign and scaling. Diagonal mode: only the axis dyads
        e_k (x) e_k survive, because no other dyad stays inside the diagonal
        sublattice.
        """
        if self.mode == "diagonal":
            out = []
            for k in range(self.axes):
                d = np.zeros(self.axes, dtype=int)
                d[k] = 1
                out.append(d)
            return out
        vecs = [
            np.array(v)
            for v in itertools.product((-1, 0, 1), repeat=self.dim)
            if any(v)
        ]
        seen = set()
        out = []
        for a in vecs:
            for b in vecs:
                d = np.outer(a, b).ravel()
                key_pos = tuple(d)
                key_neg = tuple(-d)
                if key_pos in seen or key_neg in seen:
                    continue
                seen.add(key_pos)
                out.append(d)
        return out


@dataclass(frozen=True)
class EnvelopeResult:
    """Lattice values of the rank-one convex envelope.

    ``values`` is the converged (or last) sweep, ``interior_mask`` marks the
    points at least one lattice step from the boundary along every axis,
    where boundary truncation cannot have touched the result.
    """

    lattice: MatrixLattice
    values: np.ndarray
    initial: np.ndarray
    sweeps: int
    last_decrement: float
    converged: bool
    note: str = SURROGATE_NOTE

    @property
    def interior_mask(self) -> np.ndarray:
        mask = np.ones(self.values.shape, dtype=bool)
        for ax in range(self.values.ndim):
            idx = [slice(None)] * self.values.ndim
            idx[ax] = [0, -1]
            mask[tuple(idx)] = False
        return mask

    def max_change_on_interior(self) -> float:
        """How far the envelope fell below the density on the interior, by
        :func:`_largest_decrease`: +inf if a point left +inf there."""
        mask = self.interior_mask
        return _largest_decrease(self.initial[mask], self.values[mask])


def _largest_decrease(before: np.ndarray, after: np.ndarray) -> float:
    """The one decrease rule of the envelope, for ``after <= before``
    pointwise: +inf if a point is +inf before and finite after, else the
    largest ``before - after`` over the points finite in both, 0.0 if none.
    No inf is ever subtracted from an inf."""
    if np.any(np.isinf(before) & np.isfinite(after)):
        return INF
    both_finite = np.isfinite(before) & np.isfinite(after)
    return float((before[both_finite] - after[both_finite]).max()) if both_finite.any() else 0.0


def _hull_envelope_1d(values: np.ndarray) -> np.ndarray:
    """Lower convex hull of equispaced samples along the last axis, +inf
    entries allowed.

    Every row of a ``(..., length)`` array is hulled on its own, all rows at
    once: Andrew's monotone chain runs column by column, each column popping
    vertices only in the rows whose finite value there lies on or below the
    chord from the vertex before last. Infinite entries never become hull
    vertices; positions strictly between two vertices take the smaller of
    their own value and the chord of the nearest vertex on each side, and
    everything outside a row's finite range keeps its own value.

    A row that is its own hull skips the chain walk: finite everywhere, it
    passes the chain's keep test at every consecutive triple, the negation
    of the pop test of :func:`_monotone_chain` with k - j = 1 and i - j = 2,
    in the same float expression. The chain would pop no vertex and
    interpolate nowhere, so the row comes out as it went in. Only
    all-finite rows take the test, so no inf - inf warns.
    """
    values = np.asarray(values, dtype=float)
    rows = values.reshape(-1, values.shape[-1])
    out = rows.copy()
    own = np.isfinite(rows).all(axis=1)
    v = rows[own]
    own[own] = ((v[:, 2:] - v[:, :-2]) * 1 > (v[:, 1:-1] - v[:, :-2]) * 2).all(axis=1)
    if not own.all():
        out[~own] = _monotone_chain(rows[~own])
    return out.reshape(values.shape)


def _monotone_chain(rows: np.ndarray) -> np.ndarray:
    """The hull of each row of a 2D array by the batched monotone chain of
    :func:`_hull_envelope_1d`."""
    count, n = rows.shape
    finite = np.isfinite(rows)
    stack = np.zeros((count, n), dtype=np.intp)  # hull vertex columns per row
    top = np.zeros(count, dtype=np.intp)  # hull size per row
    for i in range(n):
        live = np.flatnonzero(finite[:, i])
        cand = live[top[live] >= 2]
        while cand.size:
            k = stack[cand, top[cand] - 1]
            j = stack[cand, top[cand] - 2]
            vj = rows[cand, j]
            # drop k if it lies on or above chord (j, i)
            pop = (rows[cand, i] - vj) * (k - j) <= (rows[cand, k] - vj) * (i - j)
            cand = cand[pop]
            top[cand] -= 1
            cand = cand[top[cand] >= 2]
        stack[live, top[live]] = i
        top[live] += 1
    cols = np.arange(n)
    vertex = np.zeros((count, n), dtype=bool)
    held = cols < top[:, None]
    vertex[np.nonzero(held)[0], stack[held]] = True
    left = np.maximum.accumulate(np.where(vertex, cols, -1), axis=1)
    right = np.minimum.accumulate(np.where(vertex, cols, n)[:, ::-1], axis=1)[:, ::-1]
    row, pos = np.nonzero((left >= 0) & (right < n) & ~vertex)
    j, k = left[row, pos], right[row, pos]
    t = (pos - j) / (k - j)
    chord = rows[row, j] * (1 - t) + rows[row, k] * t
    out = rows.copy()
    out[row, pos] = np.minimum(chord, rows[row, pos])
    return out


def _chains(shape: tuple[int, ...], step: np.ndarray) -> np.ndarray:
    """Flat C-order indices of every maximal lattice chain along an integer step.

    Chain heads are the points whose backward neighbour falls outside the
    grid; a chain ends before the first axis along which its next point
    would leave it. Returns a ``(chains, max_len)`` table, one row per chain
    of at least 2 points in step order, with the heads in C order; slots
    past a chain's end hold ``prod(shape)``, one past the last point.
    """
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
    strides = np.append(np.cumprod(shape[:0:-1])[::-1], 1)  # C-order, in elements
    slots = np.arange(lengths.max())
    table = (heads @ strides)[:, None] + (step @ strides) * slots
    table[slots >= lengths[:, None]] = np.prod(shape)
    return table


def _random_direction_pass(
    values: np.ndarray, lattice: MatrixLattice, count: int, rng: random.Random
) -> np.ndarray:
    """Extra coverage from random rank-one dyads via multilinear interpolation.

    Off-lattice endpoints are read from the linear interpolant of the values
    at the start of the pass; interpolation along single-entry axes happens
    along rank-one lines, so it never undershoots the true envelope. Full
    lattices of dim > 1 only, as ``rank_one_convexify`` checks; diagonal
    sublattices admit no off-axis rank-one moves.

    Every endpoint of one dyad and weight pair is its lattice point shifted
    by the same vector, so the interpolant is a blend of 2^axes shifted views
    of the lattice with one scalar weight per corner, over the box of points
    whose two endpoints both stay on the lattice. +inf reads as NaN, which
    propagates through the blend (also at weight 0) and never lowers a point.
    """
    if count == 0:
        return values
    work = values.copy()
    # one edge layer past the last point: a corner there reads the last point
    filled = np.pad(np.where(np.isfinite(work), work, np.nan), [(0, 1)] * work.ndim, mode="edge")
    index = np.arange(lattice.points_per_axis)
    top = lattice.points_per_axis - 1
    for _ in range(count):
        a = normals(rng, lattice.dim)
        b = normals(rng, lattice.dim)
        d = np.outer(a / np.linalg.norm(a), b / np.linalg.norm(b)).ravel()
        for i, j in ((1, 1), (1, 2), (2, 1)):
            lo, hi = -j * d, i * d
            box = []  # per axis, the interval of points with both endpoints inside
            for k in range(lattice.axes):
                ok = np.flatnonzero((index + lo[k] >= 0) & (index + lo[k] <= top)
                                    & (index + hi[k] >= 0) & (index + hi[k] <= top))
                box.append(slice(ok[0], ok[-1] + 1) if ok.size else None)
            if None in box:
                continue
            f_lo, f_hi = (_shifted_blend(filled, box, shift) for shift in (lo, hi))
            combo = (i * f_lo + j * f_hi) / (i + j)
            target = work[tuple(box)]
            np.fmin(target, combo, out=target)  # a NaN combination changes nothing
    return work


def _shifted_blend(padded: np.ndarray, box: list[slice], shift: np.ndarray) -> np.ndarray:
    """Multilinear interpolant of ``padded`` at every point of ``box`` shifted
    by the fractional index vector ``shift``."""
    base = np.floor(shift).astype(int)
    frac = shift - base
    out = 0.0
    for corner in itertools.product((0, 1), repeat=len(box)):
        weight = np.prod(np.where(corner, frac, 1.0 - frac))
        view = tuple(slice(s.start + o + c, s.stop + o + c) for s, o, c in zip(box, base, corner))
        out = out + weight * padded[view]
    return out


def check_directions(lattice: MatrixLattice, directions: int) -> None:
    """Refuse a random dyad count the lattice would ignore: it must be at
    least 0, and 0 unless the lattice takes random dyads."""
    if directions < 0 or (directions > 0 and not lattice.takes_random_dyads):
        raise ValueError(
            f"directions = {directions!r}: need 0, or more on a full lattice of dim > 1 "
            f"(this one has mode = {lattice.mode}, dim = {lattice.dim})"
        )


def rank_one_convexify(
    density: StoredEnergy,
    lattice: MatrixLattice,
    directions: int = 0,
    tol: float = 1e-6,
    max_sweeps: int = 40,
    seed: int = 0,
) -> EnvelopeResult:
    """Iterated rank-one sweep until no lattice point decreases by more than tol.

    A sweep's decrement and :meth:`EnvelopeResult.max_change_on_interior`
    follow the one rule of :func:`_largest_decrease`: a point that leaves
    +inf is an infinite change, so it keeps the sweeps going and its
    density is no fixed point.

    Parameters
    ----------
    density : StoredEnergy
        Must be evaluable (finite or +inf) at every lattice matrix.
    directions : int
        Extra random rank-one dyads per sweep on top of the integer dyad
        set; at least 0, and 0 unless the lattice is full with dim > 1.
    tol, max_sweeps
        Stop when the largest pointwise decrement of a sweep drops to tol;
        running out of sweeps first leaves ``converged`` False.

    Raises
    ------
    ValueError
        If ``directions`` is one :func:`check_directions` refuses, ``tol``
        is negative or NaN, ``max_sweeps`` is below 1, or ``seed`` is one
        :func:`peribond.linalg.seeded` refuses, also when no dyad is drawn;
        and if the density is NaN or -inf at a lattice matrix.
    """
    check_directions(lattice, directions)
    if not tol >= 0:  # a negative or NaN tolerance never stops the sweeps
        raise ValueError(f"tol = {tol!r}: need a number of at least 0")
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps = {max_sweeps!r}: need at least 1")
    rng = seeded(seed)
    initial = lattice.fill(density)
    values = initial.copy()
    tables = [_chains(values.shape, step) for step in lattice.directions()]
    decrement = INF
    sweeps = 0
    while sweeps < max_sweeps:
        sweeps += 1
        flat = np.append(values.reshape(-1), INF)  # padded slots read the +inf at the end
        for table in tables:
            flat[table] = _hull_envelope_1d(flat[table])
        before = values
        values = _random_direction_pass(flat[:-1].reshape(values.shape), lattice, directions, rng)
        decrement = _largest_decrease(before, values)
        if decrement <= tol:
            break
    converged = decrement <= tol
    return EnvelopeResult(lattice, values, initial, sweeps, decrement, converged)


@dataclass(frozen=True)
class ProbeReport:
    """Sampled necessary-condition check for strict polyconvexity."""

    trials: int
    convexity_violations: int
    strictness_violations: int
    min_gap: float
    worst_case: dict = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return self.convexity_violations == 0 and self.strictness_violations == 0


def strict_polyconvexity_probe(density: StoredEnergy, trials: int, seed: int) -> ProbeReport:
    """Midpoint tests on 3x3 matrices along random segments whose minors
    combine affinely.

    Pairs differing by a rank-one matrix have midpoints whose minors are the
    exact average of the endpoint minors, so strict polyconvexity forces a
    strictly convex midpoint inequality there. This is a refutation sampler,
    not a decision procedure: a clean report is evidence only. Fewer than
    one trial raises ValueError, since it would report clean having tested
    nothing.
    """
    if trials < 1:
        raise ValueError(f"trials = {trials!r}: need at least 1")
    rng = seeded(seed)
    conv = 0
    strict = 0
    min_gap = INF
    worst: dict = {}
    for _ in range(trials):
        a = normals(rng, 3, 3)
        u = normals(rng, 3)
        v = normals(rng, 3)
        d = np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
        d *= 0.2 + 0.8 * rng.random()
        f_mid = density(a)
        f_lo = density(a - d)
        f_hi = density(a + d)
        if math.isinf(f_lo) or math.isinf(f_hi) or math.isinf(f_mid):
            continue  # an infinite endpoint makes the combination vacuous
        gap = 0.5 * (f_lo + f_hi) - f_mid
        scale = 1e-10 * (1.0 + abs(f_lo) + abs(f_hi) + abs(f_mid))
        if gap < min_gap:
            min_gap = gap
            worst = {"matrix": a.tolist(), "direction": d.tolist(), "gap": gap}
        if gap < -scale:
            conv += 1
        elif gap <= scale:
            strict += 1
    return ProbeReport(trials, conv, strict, min_gap, worst)
