"""Exact computer algebra for subrings R = (QQ + I_1) ∩ ... ∩ (QQ + I_n) of a
polynomial ring: the functions constant on each configured zero set Z(I_i).

The interesting objects are built in `smeared.ring`; `smeared.poly`,
`smeared.groebner`, `smeared.linalg` and `smeared.ideals` supply the exact
arithmetic underneath, and `smeared.cli` exposes a batch interface.
"""

from .groebner import DivisionResult, GroebnerBasis, divide, groebner_basis
from .ideals import Ideal
from .poly import (
    EliminationOrder,
    GREVLEX,
    LEX,
    ParseError,
    Polynomial,
    PolyRing,
    RingMismatchError,
    parse_poly,
)
from .ring import (
    ChainWitness,
    ConstancyReport,
    LocusEvidence,
    LocusReport,
    MembershipCertificate,
    NegativeDegreeError,
    NegativeLengthError,
    NoChainError,
    NotCoprimeError,
    NotMemberError,
    OffZeroSetError,
    PartitionWitness,
    SmearedRingConfig,
    ValidationReport,
    Verdicts,
    Violation,
    chain_witness,
    evaluate_at_smeared_point,
    locus_member,
    member,
    partition_of_unity,
    r_basis,
    smeared_constancy_check,
    validate,
    verdicts,
)

__version__ = "0.1.0"

__all__ = [
    "ChainWitness",
    "ConstancyReport",
    "DivisionResult",
    "EliminationOrder",
    "GREVLEX",
    "GroebnerBasis",
    "Ideal",
    "LEX",
    "LocusEvidence",
    "LocusReport",
    "MembershipCertificate",
    "NegativeDegreeError",
    "NegativeLengthError",
    "NoChainError",
    "NotCoprimeError",
    "NotMemberError",
    "OffZeroSetError",
    "ParseError",
    "PartitionWitness",
    "PolyRing",
    "Polynomial",
    "RingMismatchError",
    "SmearedRingConfig",
    "ValidationReport",
    "Verdicts",
    "Violation",
    "chain_witness",
    "divide",
    "evaluate_at_smeared_point",
    "groebner_basis",
    "locus_member",
    "member",
    "parse_poly",
    "partition_of_unity",
    "r_basis",
    "smeared_constancy_check",
    "validate",
    "verdicts",
]
