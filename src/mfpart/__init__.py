"""Mean-field partitioning of qubit Hamiltonians.

Splits a Pauli-word Hamiltonian into fragments whose energy can be read
off one qubit at a time with feedforward single-qubit measurements, and
samples those fragments on dense statevectors.
"""

from .entangler import (
    EntanglerSpec,
    FactorabilityVerdict,
    KQubitOp,
    apply_unitary,
    build_clifford_unentangler,
    build_unentangler,
    commutator_norm,
    factorability_check,
    find_commuting_ops,
    op_spectrum,
)
from .hamio import (
    parse_hamiltonian,
    parse_plan,
    parse_state,
    serialize_hamiltonian,
    serialize_plan,
    serialize_state,
)
from .meanfield import (
    GRAM_TOL_SCALE,
    ComplementDecomposition,
    GramData,
    MFCertificate,
    ReductionStep,
    compute_l,
    decompose_by_qubit,
    factor_l1,
    factor_l2,
    reduce_qubit,
    verify_mf,
)
from .partition import MFFragment, PartitionPlan, greedy_partition, validate_plan
from .pauli import PauliSum, PauliWord, SingleQubitOp, commutes, multiply_words, qwc_commutes
from .qwc import QWCGrouping, qwc_partition
from .simulator import (
    EstimatorReport,
    FragmentEstimate,
    StateVector,
    branch_distribution,
    covariance,
    eigensolve,
    estimate_energy,
    expectation,
    measure_fragment,
    to_dense,
    variance,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "PauliWord",
    "PauliSum",
    "SingleQubitOp",
    "commutes",
    "qwc_commutes",
    "multiply_words",
    "QWCGrouping",
    "qwc_partition",
    "GRAM_TOL_SCALE",
    "ComplementDecomposition",
    "GramData",
    "MFCertificate",
    "ReductionStep",
    "compute_l",
    "decompose_by_qubit",
    "factor_l1",
    "factor_l2",
    "reduce_qubit",
    "verify_mf",
    "KQubitOp",
    "EntanglerSpec",
    "FactorabilityVerdict",
    "op_spectrum",
    "find_commuting_ops",
    "factorability_check",
    "build_unentangler",
    "build_clifford_unentangler",
    "apply_unitary",
    "commutator_norm",
    "MFFragment",
    "PartitionPlan",
    "greedy_partition",
    "validate_plan",
    "StateVector",
    "to_dense",
    "expectation",
    "variance",
    "covariance",
    "eigensolve",
    "measure_fragment",
    "branch_distribution",
    "estimate_energy",
    "EstimatorReport",
    "FragmentEstimate",
    "parse_hamiltonian",
    "serialize_hamiltonian",
    "parse_state",
    "serialize_state",
    "serialize_plan",
    "parse_plan",
]
