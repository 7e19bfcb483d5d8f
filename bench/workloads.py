"""The two workloads: fixed job lists whose inputs derive from the run seed.

A job is a dict with
  name    unique within the workload
  kind    "cli" (a peribond CLI task, config written as JSON) or "lib"
          (a library call made by job.py)
  config  CLI config sections (cli jobs), or call parameters (lib jobs)
  seed    value passed as --seed to a CLI task
  expect  exit code the paper predicts
  check   name of the output check in checks.py, with its parameters

The seed changes values, never sizes: the random test matrices and dyads
the program draws (through --seed), the coefficients of the Mooney-Rivlin
envelope job, the entry order and signs of the affine gradients and the
amplitudes of the analytic field. Every job costs the same on every seed,
and every check has a closed form valid for every seed.
"""

import math
import random

#: every density kind that ``peribond --list-zoo`` lists
ZOO_3D = (
    "frobenius-squared",
    "frobenius-power",
    "affine-frobenius-squared",
    "mooney-rivlin",
    "neo-hookean",
    "incompressible-mr",
    "profile-frobenius",
    "profile-cof",
    "profile-det",
)
ZOO_2D = ("frobenius-squared", "frobenius-power", "mooney-rivlin")

#: W affine in |A|^2 satisfies the mean-value identity; nothing else in the zoo does
AFFINE_IN_FROB2 = ("frobenius-squared", "affine-frobenius-squared")

EXIT_PASS = 0
EXIT_VIOLATED = 2

WORKLOADS = ("screen", "compute")


def _cli(name, config, seed, expect, check, **params):
    return {"name": name, "kind": "cli", "config": config, "seed": seed,
            "expect": expect, "check": check, "params": params}


def _signed_diagonal(rng, entries):
    """Row-major diagonal matrix: the entries in seeded order and signs.

    |Az| for diagonal A depends on neither, and the box is a cube, so the
    energies and their closed forms stay the same on every seed.
    """
    d = [x * rng.choice((-1.0, 1.0)) for x in rng.sample(entries, len(entries))]
    n = len(d)
    return [d[i] if i == j else 0.0 for i in range(n) for j in range(n)]


def screen(seed):
    rng = random.Random(seed)
    jobs = []
    for order in (32, 64):
        jobs.append(_cli(
            f"quadrature-check-{order}",
            {"run": {"task": "quadrature-check", "quad-order": order}},
            rng.randrange(1, 10**6), EXIT_PASS, "quadrature",
        ))
    for dim, p, q in ((2, 2.0, 2.0), (3, 2.0, 2.0), (3, 4.0, 3.0)):
        jobs.append(_cli(
            f"gamma-limit-p{p:g}q{q:g}-{dim}d",
            {"run": {"task": "gamma-limit", "quad-order": 32},
             "potential": {"dim": dim, "p": p, "q": q}},
            rng.randrange(1, 10**6), EXIT_PASS, "gamma_limit", dim=dim, p=p,
        ))
    for dim, kinds in ((3, ZOO_3D), (2, ZOO_2D)):
        for kind in kinds:
            if kind in AFFINE_IN_FROB2:
                verdict = "consistent"
            elif kind == "incompressible-mr":
                verdict = "infinite-violation"
            else:
                verdict = "violated"
            jobs.append(_cli(
                f"recoverability-{kind}-{dim}d",
                {"run": {"task": "recoverability", "quad-order": 32},
                 "density": {"kind": kind, "dim": dim}},
                rng.randrange(1, 10**6), EXIT_PASS if verdict == "consistent" else EXIT_VIOLATED,
                "recoverability", verdict=verdict,
            ))
    jobs.append(_cli(
        "counterexamples",
        {"run": {"task": "counterexamples", "quad-order": 32}},
        rng.randrange(1, 10**6), EXIT_PASS, "counterexamples",
    ))
    matrix = _signed_diagonal(rng, [1.0, 2.0])
    jobs.append(_cli(
        "converge-affine-2d",
        {"run": {"task": "converge", "quad-order": 32},
         "potential": {"dim": 2},
         "converge": {"box": [1.0, 1.0], "deltas": [0.2, 0.1, 0.05, 0.025],
                      "cells-per-horizon": 8, "matrix": matrix}},
        rng.randrange(1, 10**6), EXIT_PASS, "converge", local=5.0,
    ))
    return jobs


def compute(seed):
    """The convexify and finite-horizon jobs, where the rank-one sweep, the
    227k-row report and the horizon integrals do over 90 % of the work."""
    rng = random.Random(seed)
    alpha, beta = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
    matrix = _signed_diagonal(rng, [1.0, 2.0, 1.5])
    a, b = rng.uniform(0.08, 0.12), rng.uniform(0.08, 0.12)
    return [
        _cli(
            "convexify-mooney-rivlin-diag61",
            {"run": {"task": "convexify"},
             "density": {"kind": "mooney-rivlin", "alpha": alpha, "beta": beta, "g": "well"},
             "lattice": {"bound": 3.0, "step": 0.1, "mode": "diagonal", "dim": 3,
                         "directions": 0, "tol": 1e-6, "max-sweeps": 40}},
            rng.randrange(1, 10**6), EXIT_PASS, "envelope_fixed_point",
            alpha=alpha, beta=beta, tol=1e-5,
        ),
        _cli(
            "convexify-double-well-full2x2",
            {"run": {"task": "convexify"},
             "density": {"kind": "profile-frobenius", "g": "well"},
             "lattice": {"bound": 2.0, "step": 0.5, "mode": "full", "dim": 2,
                         "directions": 8, "tol": 1e-6, "max-sweeps": 40}},
            rng.randrange(1, 10**6), EXIT_VIOLATED, "envelope_double_well",
            sweep_tol=1e-6,
        ),
        _cli(
            "converge-affine-3d",
            {"run": {"task": "converge", "quad-order": 32},
             "potential": {"dim": 3},
             "converge": {"box": [1.0, 1.0, 1.0], "deltas": [0.3, 0.2],
                          "cells-per-horizon": 3, "matrix": matrix}},
            rng.randrange(1, 10**6), EXIT_PASS, "converge", local=7.25,
        ),
        {"name": "convergence-study-analytic-2d", "kind": "lib",
         "config": {"call": "horizon_analytic", "a": a, "b": b,
                    "deltas": [0.2, 0.1], "cells_per_horizon": 8},
         "seed": None, "expect": EXIT_PASS, "check": "analytic_study",
         "params": {"local": analytic_local_energy(a, b)}},
    ]


def analytic_local_energy(a, b):
    """Closed form of the integral of |grad u|^2 over the unit square for
    u = (x + a sin 2y, y + b x^2): 2 + 4a^2 (1/2 + sin 4 / 8) + 4b^2 / 3."""
    return 2.0 + 4.0 * a * a * (0.5 + math.sin(4.0) / 8.0) + 4.0 * b * b / 3.0


def jobs(workload, seed):
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")
    return {"screen": screen, "compute": compute}[workload](seed)
