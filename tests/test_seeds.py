"""Seeded draws come from one rule, ``linalg.seeded`` with ``linalg.normals``,
and only convexify's random-dyad pass reads the seed: every other task writes
the same reports at every ``--seed``."""

import json

import numpy as np
import pytest

from peribond.cli import MODELS, build_model, load_config, main
from peribond.linalg import normals, seeded

DENSITY_DEFAULTS = load_config(None, {"task": "recoverability"})["density"]

ZOO = [
    (kind, 2) for kind in MODELS["density"]
    if build_model("density", {**DENSITY_DEFAULTS, "kind": kind}).dim in (None, 2)
] + [("frobenius-squared", 3), ("mooney-rivlin", 3), ("incompressible-mr", 3)]


def assert_seed_free(tmp_path, config):
    """Run ``config`` at --seed 0 and at --seed 12345: the exit codes and the
    detail.csv bytes agree, and summary.json differs only in config.run.seed.
    Returns the exit code."""
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(config))
    runs = []
    for seed in (0, 12345):
        code = main(["--config", str(path), "--out", str(out), "--seed", str(seed),
                     "--no-timestamp"])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["run"].pop("seed") == seed
        runs.append((code, summary, (out / "detail.csv").read_bytes()))
    assert runs[0] == runs[1]
    return runs[0][0]


@pytest.mark.parametrize("kind, dim", ZOO, ids=[f"{kind}-{dim}d" for kind, dim in ZOO])
def test_recoverability_verdict_does_not_depend_on_the_seed(tmp_path, kind, dim):
    assert_seed_free(tmp_path, {"run": {"task": "recoverability"},
                                "density": {"kind": kind, "dim": dim}})


@pytest.mark.parametrize("dim, p, q", [(2, 2.0, 2.0), (3, 2.0, 2.0), (3, 4.0, 3.0)])
def test_power_bond_invariances_pass_on_every_seed(tmp_path, dim, p, q):
    config = {"run": {"task": "gamma-limit"}, "potential": {"dim": dim, "p": p, "q": q}}
    assert assert_seed_free(tmp_path, config) == 0


@pytest.mark.parametrize("task", ["quadrature-check", "converge", "counterexamples"])
def test_reports_do_not_depend_on_the_seed(tmp_path, task):
    assert_seed_free(tmp_path, {"run": {"task": task}})


def test_normals_are_seeded_shaped_and_distinct():
    first = normals(seeded(7), 4, 3)
    assert first.shape == (4, 3) and first.dtype == np.float64 and first.flags.c_contiguous
    assert np.array_equal(first, normals(seeded(np.int64(7)), 4, 3))
    assert normals(seeded(7), 5).shape == (5,)  # an odd count drops one sine
    assert not np.array_equal(first, normals(seeded(8), 4, 3))
