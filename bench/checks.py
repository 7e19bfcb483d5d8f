"""Output checks, computed apart from the program.

Every check compares a job's outputs with a closed form or with a property
the method must have, evaluated here with numpy; none compares with a
stored copy of earlier output. Each check returns a list of problems; an
empty list means the job's output is correct.
"""

import csv
import json
import math

import numpy as np

SPHERE_MEASURE = {2: 2.0 * math.pi, 3: 4.0 * math.pi}


def _summary(out_dir):
    with open(out_dir / "summary.json") as fh:
        return json.load(fh)


def _rows(out_dir):
    with open(out_dir / "detail.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def _close(value, reference, rel):
    return abs(value - reference) <= rel * max(1.0, abs(reference))


def quadrature(job, out_dir, output):
    """Weights sum to the sphere measure; second moments are sigma/n delta_jk."""
    problems = []
    if _summary(out_dir)["verdict"] != "pass":
        problems.append("verdict is not pass")
    _, rows = _rows(out_dir)
    seen = set()
    for rule, moment, value, _, _ in rows:
        n = int(rule[1:]) + 1
        sigma = SPHERE_MEASURE[n]
        seen.add(n)
        if moment == "weight-sum":
            ref, tol = sigma, 1e-12
        else:
            j, k = moment[len("moment-z"):].split("z")
            ref, tol = (sigma / n if j == k else 0.0), 1e-10
        if abs(float(value) - ref) > tol:
            problems.append(f"{rule} {moment} = {value}, expected {ref!r}")
    if seen != {2, 3}:
        problems.append(f"rules checked: {sorted(seen)}, expected the circle and the sphere")
    return problems


def gamma_limit(job, out_dir, output):
    """The power bond n/sigma |y|^p/|x|^q integrates to the sphere moment of
    |Az|^p: tr(A^T A) for p = 2, (2 tr C^2 + (tr C)^2)/(n + 2) for p = 4."""
    dim, p = job["params"]["dim"], job["params"]["p"]
    problems = []
    if _summary(out_dir)["verdict"] != "pass":
        problems.append("verdict is not pass")
    _, rows = _rows(out_dir)
    if not rows:
        problems.append("no local-density rows")
    for matrix, value in rows:
        a = np.array([float(x) for x in matrix.split()]).reshape(dim, dim)
        c = a.T @ a
        if p == 2.0:
            ref = np.trace(c)
        else:
            ref = (2.0 * np.trace(c @ c) + np.trace(c) ** 2) / (dim + 2.0)
        if not _close(float(value), float(ref), 1e-12):
            problems.append(f"local density {value} at [{matrix}], closed form {float(ref)!r}")
    return problems


def recoverability(job, out_dir, output):
    """The verdict the paper predicts; a consistent density has every
    residual within its tolerance."""
    summary = _summary(out_dir)
    expected = job["params"]["verdict"]
    problems = []
    if summary["verdict"] != expected:
        problems.append(f"verdict {summary['verdict']}, expected {expected}")
    header, rows = _rows(out_dir)
    if not rows:
        problems.append("no residual rows")
    within = header.index("within_tol")
    if expected == "consistent" and any(r[within] != "1" for r in rows):
        problems.append("a consistent density has a residual beyond tolerance")
    if expected == "infinite-violation" and not any(
            r[header.index("classification")] == "infinite-violation" for r in rows):
        problems.append("no row carries the infinite violation")
    return problems


def counterexamples(job, out_dir, output):
    """Every Jensen margin has its predicted sign, both stretch scans find a
    failure, and the cubic-mean constant lies between Jensen's lower bound
    3^-1.5 (mean |Az|^3 >= (mean |Az|^2)^1.5) and its value 1/4 at e1 x e1."""
    summary = _summary(out_dir)
    problems = []
    if summary["verdict"] != "confirmed":
        problems.append(f"verdict {summary['verdict']}, expected confirmed")
    _, rows = _rows(out_dir)
    if not rows or any(r[-1] != "1" for r in rows):
        problems.append("a Jensen margin or stretch scan does not confirm")
    c = summary["stretch_scan_cof_term"]["c_value"]
    if not 3.0**-1.5 - 1e-9 <= c <= 0.25 + 1e-9:
        problems.append(f"cubic-mean constant {c} outside [3^-1.5, 1/4]")
    return problems


def _study(rows, local, rel):
    """Rows (delta, I_delta, I_local, gap): I_local within rel of its closed
    form, every I_delta below I_local, the gaps shrinking with delta."""
    problems = []
    for delta, energy, reference, gap in rows:
        if not _close(reference, local, rel):
            problems.append(f"I_local {reference!r} at delta {delta}, closed form {local!r}")
        if not energy < reference:
            problems.append(f"I_delta {energy!r} not below I_local at delta {delta}")
        if not _close(gap, reference - energy, 1e-12):
            problems.append(f"gap {gap!r} is not I_local - I_delta at delta {delta}")
    deltas = [r[0] for r in rows]
    if deltas != sorted(deltas, reverse=True):
        problems.append("deltas do not decrease")
    gaps = [r[3] for r in rows]
    if any(b >= a for a, b in zip(gaps, gaps[1:])):
        problems.append(f"gaps {gaps} do not shrink")
    return problems


def converge(job, out_dir, output):
    """Affine field: I_local = |A|^2 volume exactly, the gaps shrink and the
    fitted slope of log gap against log delta is at least 0.9."""
    _, rows = _rows(out_dir)
    rows = [[float(x) for x in r[:4]] for r in rows]
    problems = _study(rows, job["params"]["local"], 1e-12)
    if len(rows) >= 2:
        slope = float(np.polyfit(np.log([r[0] for r in rows]), np.log([r[3] for r in rows]), 1)[0])
        if not slope >= 0.9:
            problems.append(f"fitted slope {slope:.4f} below 0.9")
    summary = _summary(out_dir)
    if summary["verdict"] != "pass":
        problems.append(f"verdict {summary['verdict']}, expected pass")
    return problems


def analytic_study(job, out_dir, output):
    """Analytic field: I_local within 1e-5 of the closed-form integral of
    |grad u|^2 (the midpoint rule is second order), the gaps shrink."""
    return _study([r[:4] for r in output["rows"]], job["params"]["local"], 1e-5)


def _lattice(out_dir):
    """Lattice coordinates (P, axes), envelope values (P,), interior mask."""
    with open(out_dir / "detail.csv") as fh:
        header = fh.readline()
        first = fh.readline()
        axes = len(first.split(",")[0].split())
        text = first + fh.read()
    if header.strip() != "lattice_coordinates,value,interior":
        raise ValueError(f"unexpected detail.csv header {header.strip()!r}")
    table = np.array(text.replace(",", " ").split(), dtype=float).reshape(-1, axes + 2)
    return table[:, :axes], table[:, axes], table[:, axes + 1] == 1.0


def _axis_convexity(coords, values, sweep_tol):
    """Second differences along every lattice axis are >= -2 sweep_tol: each
    axis pass leaves its chains convex, and the last sweep moves no point by
    more than sweep_tol."""
    axes = coords.shape[1]
    side = round(len(values) ** (1.0 / axes))
    grid = values.reshape((side,) * axes)
    worst = 0.0
    for ax in range(axes):
        g = np.moveaxis(grid, ax, -1)
        second = g[..., :-2] - 2.0 * g[..., 1:-1] + g[..., 2:]
        second = second[np.isfinite(second)]
        if second.size:
            worst = min(worst, float(second.min()))
    if worst < -2.0 * sweep_tol - 1e-9:
        return [f"envelope not convex along an axis: second difference {worst:.3e}"]
    return []


def envelope_fixed_point(job, out_dir, output):
    """Mooney-Rivlin alpha|A|^2 + beta|cof A|^2 + (det A - 1)^2 is polyconvex,
    so the envelope equals the density on the interior within 1e-5."""
    coords, values, interior = _lattice(out_dir)
    alpha, beta = job["params"]["alpha"], job["params"]["beta"]
    d = coords
    cof2 = (d[:, 1] * d[:, 2]) ** 2 + (d[:, 0] * d[:, 2]) ** 2 + (d[:, 0] * d[:, 1]) ** 2
    density = alpha * np.sum(d * d, axis=1) + beta * cof2 + (np.prod(d, axis=1) - 1.0) ** 2
    problems = []
    if _summary(out_dir)["verdict"] != "fixed-point":
        problems.append("verdict is not fixed-point")
    change = float(np.max(np.abs(values - density)[interior]))
    if change > job["params"]["tol"]:
        problems.append(f"interior change {change:.3e} above {job['params']['tol']}")
    if np.any(values > density + 1e-9 * (1.0 + density)):
        problems.append("envelope above the density")
    return problems


def envelope_double_well(job, out_dir, output):
    """W = (|A|^2 - 1)^2, convex envelope ((|A|^2 - 1)_+)^2: the lattice
    envelope lies between the two and is convex along every axis."""
    coords, values, _ = _lattice(out_dir)
    frob2 = np.sum(coords * coords, axis=1)  # diagonal or row-major entries
    density = (frob2 - 1.0) ** 2
    convex = np.maximum(frob2 - 1.0, 0.0) ** 2
    slack = 1e-9 * (1.0 + density)
    problems = []
    if _summary(out_dir)["verdict"] != "lowered":
        problems.append("verdict is not lowered")
    if np.any(values > density + slack):
        problems.append("envelope above the density")
    if np.any(values < convex - slack):
        problems.append("envelope below the convex envelope")
    problems += _axis_convexity(coords, values, job["params"]["sweep_tol"])
    return problems


CHECKS = {f.__name__: f for f in (
    quadrature, gamma_limit, recoverability, counterexamples, converge,
    analytic_study, envelope_fixed_point, envelope_double_well,
)}


def check(job, out_dir, output):
    return CHECKS[job["check"]](job, out_dir, output)
