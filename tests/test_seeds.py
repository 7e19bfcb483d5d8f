"""Seeded draws come from one rule, ``linalg.seeded`` with ``linalg.normals``,
and the verdicts they feed do not depend on the seed."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peribond.cli import MODELS, build_model, load_config
from peribond.linalg import normals, seeded
from peribond.pipeline import compute_blowup, verify_limit_invariances
from peribond.potentials import make_power_bond
from peribond.quadrature import build_rule, sphere_measure
from peribond.recoverability import default_test_matrices, roundtrip_check

SEEDS = st.integers(0, 2**32 - 1)
FEW_SEEDS = settings(max_examples=10, derandomize=True, database=None, deadline=None)

DENSITY_DEFAULTS = load_config(None, {"task": "recoverability"})["density"]


def zoo_density(kind):
    """The zoo density ``kind`` with its default keys."""
    return build_model("density", {**DENSITY_DEFAULTS, "kind": kind})


ZOO = [(kind, 2) for kind in MODELS["density"] if zoo_density(kind).dim in (None, 2)] + [
    ("frobenius-squared", 3), ("mooney-rivlin", 3), ("incompressible-mr", 3)
]


@functools.cache
def rule(dim):
    return build_rule(dim, 32)


@functools.cache
def verdict(kind, dim, seed):
    mats = default_test_matrices(dim, seed=seed)
    return roundtrip_check(zoo_density(kind), rule(dim), mats).verdict


@pytest.mark.parametrize("kind, dim", ZOO, ids=[f"{kind}-{dim}d" for kind, dim in ZOO])
@FEW_SEEDS
@given(seed=SEEDS)
def test_recoverability_verdict_does_not_depend_on_the_seed(kind, dim, seed):
    assert verdict(kind, dim, seed) == verdict(kind, dim, 0)


@pytest.mark.parametrize("dim, p, q", [(2, 2.0, 2.0), (3, 2.0, 2.0), (3, 4.0, 3.0)])
@FEW_SEEDS
@given(seed=SEEDS)
def test_power_bond_invariances_pass_on_every_seed(dim, p, q, seed):
    limit = compute_blowup(make_power_bond(dim / sphere_measure(dim), p, q, dim=dim))
    a = np.diag(np.arange(1.0, dim + 1.0))
    assert verify_limit_invariances(limit, a, trials=5, seed=seed, rule=rule(dim)).passed


def test_normals_are_seeded_shaped_and_distinct():
    first = normals(seeded(7), 4, 3)
    assert first.shape == (4, 3) and first.dtype == np.float64 and first.flags.c_contiguous
    assert np.array_equal(first, normals(seeded(np.int64(7)), 4, 3))
    assert normals(seeded(7), 5).shape == (5,)  # an odd count drops one sine
    assert not np.array_equal(first, normals(seeded(8), 4, 3))
