"""Rainbow Hamiltonian connectivity for graph collections under Ore-type degree sums.

Given n graphs on a shared n-vertex set, each with degree sums at least
n+k over non-adjacent pairs, the solver constructively finds a rainbow
Hamiltonian u,v-path containing a prescribed rainbow linear forest with k
edges, or returns a machine-checkable extremal certificate explaining why
none exists.  An exponential-time oracle provides independent ground truth
at small sizes, and seeded generators plus a CLI harness drive experiments.
"""

from .forest import (
    RainbowLinearForest,
    ReductionPlan,
    is_h_compatible,
    select_deletion_set,
)
from .gen import GenSpec, GenerationError, build_extremal, random_instance
from .model import (
    CycleCertificate,
    GraphCollection,
    InputError,
    InternalError,
    PathCertificate,
    RotationDerivation,
    canonical_edge,
    check_hypothesis,
    degree,
    derivation_violations,
    rainbow_assignment,
    sigma2,
    validate_cycle_certificate,
    validate_path_certificate,
)
from .oracle import (
    FOUND,
    NOT_FOUND,
    UNKNOWN,
    BudgetExceeded,
    OracleBudget,
    OracleResult,
    exact_rainbow_ham_cycle,
    exact_rainbow_ham_path,
)
from .solver import (
    HamiltonianConnectivityResult,
    SolverOutcome,
    hamiltonian_or_connected,
    li2_dispatch,
    solve,
    solve_pair,
)
from .structures import (
    ExtremalCertificate,
    cycle_from_extremal,
    detect_identical_split,
    detect_independent_heavy_side,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "CycleCertificate",
    "ExtremalCertificate",
    "FOUND",
    "GenSpec",
    "GenerationError",
    "GraphCollection",
    "HamiltonianConnectivityResult",
    "InputError",
    "InternalError",
    "NOT_FOUND",
    "OracleBudget",
    "OracleResult",
    "PathCertificate",
    "RainbowLinearForest",
    "ReductionPlan",
    "RotationDerivation",
    "SolverOutcome",
    "UNKNOWN",
    "build_extremal",
    "canonical_edge",
    "check_hypothesis",
    "cycle_from_extremal",
    "degree",
    "derivation_violations",
    "detect_identical_split",
    "detect_independent_heavy_side",
    "exact_rainbow_ham_cycle",
    "exact_rainbow_ham_path",
    "hamiltonian_or_connected",
    "is_h_compatible",
    "li2_dispatch",
    "rainbow_assignment",
    "random_instance",
    "select_deletion_set",
    "sigma2",
    "solve",
    "solve_pair",
    "validate_cycle_certificate",
    "validate_path_certificate",
    "verify_certificate",
]
