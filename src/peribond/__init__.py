"""Zero-horizon limits of bond-based pair energies and recoverability tests.

The package walks the full path from a pairwise bond potential to a local
hyperelastic energy density: homogeneity estimation and small-scale limits,
sphere integration into the local density, rank-one convexification as the
computable envelope stage, and the mean-value recoverability criterion with
the counterexample suites that rule out Mooney-Rivlin-type materials.
Finite-horizon double-integral energies on box domains close the loop with
direct horizon-to-zero convergence studies.
"""

from .convexify import EnvelopeResult, MatrixLattice, rank_one_convexify
from .horizon import (
    BoxDomain,
    ConvergenceStudy,
    DeformationField,
    convergence_study,
    nonlocal_energy,
)
from .linalg import INF, cofactor, determinant
from .pipeline import (
    BlowupError,
    BlowupResult,
    compute_blowup,
    estimate_beta,
    local_density,
    verify_limit_invariances,
)
from .potentials import (
    PairwisePotential,
    ScalarProfile,
    StoredEnergy,
    frobenius_power,
    frobenius_squared,
    make_incompressible_mr,
    make_mooney_rivlin,
    make_neo_hookean,
    make_power_bond,
    make_profile_energy,
)
from .quadrature import SphereQuadrature, build_circle_rule, build_rule, build_sphere_rule, sphere_measure
from .recoverability import (
    IndeterminateResidualError,
    RecoverabilityReport,
    default_test_matrices,
    extract_candidate,
    jensen_counterexample_suite,
    mooney_rivlin_inequality_check,
    roundtrip_check,
)

__version__ = "0.1.0"

__all__ = [
    "INF",
    "BlowupError",
    "BlowupResult",
    "BoxDomain",
    "ConvergenceStudy",
    "DeformationField",
    "EnvelopeResult",
    "IndeterminateResidualError",
    "MatrixLattice",
    "PairwisePotential",
    "RecoverabilityReport",
    "ScalarProfile",
    "SphereQuadrature",
    "StoredEnergy",
    "build_circle_rule",
    "build_rule",
    "build_sphere_rule",
    "cofactor",
    "compute_blowup",
    "convergence_study",
    "default_test_matrices",
    "determinant",
    "estimate_beta",
    "extract_candidate",
    "frobenius_power",
    "frobenius_squared",
    "jensen_counterexample_suite",
    "local_density",
    "make_incompressible_mr",
    "make_mooney_rivlin",
    "make_neo_hookean",
    "make_power_bond",
    "make_profile_energy",
    "mooney_rivlin_inequality_check",
    "nonlocal_energy",
    "rank_one_convexify",
    "roundtrip_check",
    "sphere_measure",
    "verify_limit_invariances",
]
