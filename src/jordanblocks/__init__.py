"""Jordan block sizes of nilpotent and unipotent elements of classical
groups on tensor, exterior and symmetric squares and their irreducible
factors, over prime fields.

Two independent engines compute every type: closed partition-rewriting
rules (:mod:`jordanblocks.rules`) and an exact-rank matrix oracle
(:mod:`jordanblocks.operators`); :mod:`jordanblocks.sweep` compares them
systematically.
"""

from .gfp import GFpMatrix, jordan_type_of_nilpotent
from .operators import (
    DecompositionError,
    DistinguishedVectors,
    ModuleSpec,
    NilpotentOperator,
    admissible_witness,
    distinguished_vectors,
    lift_to_sym2,
    lift_to_tensor,
    lift_to_wedge2,
    natural_nilpotent,
    natural_unipotent,
    oracle_type,
    oracle_types,
    quotient_by_invariant_line,
    restrict_to_trace_kernel,
)
from .partitions import Family, GroupContext, JordanType, is_admissible
from .rules import (
    closed_form_type,
    irreducible_type_from_base,
    psl_type_from_gl,
    sl_type_from_gl,
    sym_square_type,
    tensor_pair_type,
    tensor_square_type,
    unipotent_matches_nilpotent_on_psl,
    wedge_square_type,
)
from .sweep import (
    DiscrepancyReport,
    SweepConfig,
    enumerate_partitions,
    run_sweep,
    verify_lemma_identities,
)

__version__ = "0.1.0"

__all__ = [
    "DecompositionError",
    "DiscrepancyReport",
    "DistinguishedVectors",
    "Family",
    "GFpMatrix",
    "GroupContext",
    "JordanType",
    "ModuleSpec",
    "NilpotentOperator",
    "SweepConfig",
    "admissible_witness",
    "closed_form_type",
    "distinguished_vectors",
    "enumerate_partitions",
    "irreducible_type_from_base",
    "is_admissible",
    "jordan_type_of_nilpotent",
    "lift_to_sym2",
    "lift_to_tensor",
    "lift_to_wedge2",
    "natural_nilpotent",
    "natural_unipotent",
    "oracle_type",
    "oracle_types",
    "psl_type_from_gl",
    "quotient_by_invariant_line",
    "restrict_to_trace_kernel",
    "run_sweep",
    "sl_type_from_gl",
    "sym_square_type",
    "tensor_pair_type",
    "tensor_square_type",
    "unipotent_matches_nilpotent_on_psl",
    "verify_lemma_identities",
    "wedge_square_type",
]
