"""locc-forge: synthesize, certify, and verify LOCC protocols for separable
multipartite quantum measurements."""

from .catalog import (
    bennett_three_qubit,
    conditional_basis,
    phase_five,
    qubit_pair,
    rotated_dominoes,
    seven_outcome_family,
)
from .cones import RayDecomposition, decompose, extreme_rays
from .engine import (
    Certificate,
    ProtocolNode,
    SearchStats,
    Verdict,
    check_root,
    synthesize,
)
from .feasibility import (
    FeasibleCone,
    NodeContext,
    build_q,
    feasible_cone,
    root_context,
)
from .io import load_measurement, load_tree, save_measurement, save_tree
from .measurement import (
    Party,
    SeparableMeasurement,
    reconstruct,
)
from .operators import is_psd, tensor
from .verify import random_density_matrix, simulate, verify_tree

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "FeasibleCone",
    "NodeContext",
    "Party",
    "ProtocolNode",
    "RayDecomposition",
    "SearchStats",
    "SeparableMeasurement",
    "Verdict",
    "bennett_three_qubit",
    "build_q",
    "check_root",
    "conditional_basis",
    "decompose",
    "extreme_rays",
    "feasible_cone",
    "is_psd",
    "load_measurement",
    "load_tree",
    "phase_five",
    "qubit_pair",
    "random_density_matrix",
    "reconstruct",
    "root_context",
    "rotated_dominoes",
    "save_measurement",
    "save_tree",
    "seven_outcome_family",
    "simulate",
    "synthesize",
    "tensor",
    "verify_tree",
]
