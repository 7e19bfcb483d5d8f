"""Run one benchmark job in a fresh interpreter.

    python bench/job.py SPEC.json

SPEC names the job (see workloads.py), its output directory and the result
file to write. A CLI job runs ``peribond.cli.main`` on the job's argv and
exits with the CLI's code; a library job makes its call and exits 0. The
result file records when the task started (``time.monotonic``, which all
processes of the host share), the import time and module count and, for a
traced job, the spans and layer totals.

Only the standard library is imported before ``import peribond``, so the
import is timed as a user pays it.
"""

import json
import sys
import time


def _horizon_analytic(config):
    """Finite-horizon study of u = (x + a sin 2y, y + b x^2) on the unit
    square with the quadratic bond, whose local density is |grad u|^2."""
    import math

    import numpy as np

    from peribond import horizon, potentials

    a, b = config["a"], config["b"]

    def u(points):
        x, y = points[..., 0], points[..., 1]
        return np.stack([x + a * np.sin(2.0 * y), y + b * x * x], axis=-1)

    bond = potentials.make_power_bond(2.0 / (2.0 * math.pi), 2.0, 2.0, dim=2)
    field = horizon.DeformationField.analytic(u, out_dim=2)
    started = time.monotonic()
    study = horizon.convergence_study(
        bond, 0.0, field, (1.0, 1.0), config["deltas"],
        cells_per_horizon=config["cells_per_horizon"],
    )
    return started, {"rows": [list(row) for row in study.rows]}


LIB_CALLS = {"horizon_analytic": _horizon_analytic}


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    before = set(sys.modules)
    t0 = time.monotonic()
    import peribond  # noqa: F401

    result = {"import_s": time.monotonic() - t0,
              "import_modules": len(set(sys.modules) - before)}
    if spec["kind"] == "cli":
        from peribond import cli
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer(spec["job_id"])
        tracer.install()

    code = 0
    try:
        if spec["kind"] == "cli":
            # the task starts when main() hands the resolved config to run()
            run = cli.run

            def timed_run(cfg):
                result["task_start"] = time.monotonic()
                return run(cfg)

            cli.run = timed_run
            code = cli.main(spec["argv"])
        else:
            started, output = LIB_CALLS[spec["config"]["call"]](spec["config"])
            result["task_start"] = started
            result["output"] = output
    finally:
        if tracer is not None:
            result["trace"] = tracer.report()
        with open(spec["result"], "w") as fh:
            json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
