"""chernslope: exact-arithmetic invariants of cyclic branched covers of
resolved section/fiber arrangements on ruled surfaces."""

from .badset import BadSet, BoundReport, bad_set, good_residues, verify_bounds
from .density import (
    SolvedParams,
    as_fraction,
    find_uv,
    lambda_fn,
    solve_family_a,
    solve_family_aprime,
)
from .geometry import (
    ArrangementParams,
    Component,
    DegenerateParameterError,
    Family,
    ResolvedConfiguration,
    Tangency,
    build_resolution,
    component_count,
    limit_slope,
    log_chern_closed,
    log_chern_pair,
)
from .numtheory import (
    DedekindData,
    DomainError,
    dedekind_data,
    dedekind_sum,
    dedekind_sum_direct,
    hj_length,
)
from .nefcheck import NefReport, closed_entries, config_entries, min_nef_q, nef_report
from .partitions import (
    NotFound,
    PartitionProblem,
    sample_with_stats,
    search_assignment,
    verify_asymptotic,
)
from .pipeline import PipelineResult, run_pipeline
from .prank import (
    CyclicCoverData,
    frobenius_orbits,
    genus,
    genus_via_cohomology,
    h1_dim,
    is_primitive_root,
    prank_upper_bound,
)
from .rootcover import (
    BranchAssignment,
    CoverInvariants,
    InvalidAssignmentError,
    chern_of_cover,
    defect_bound,
    node_residue,
)

__version__ = "0.1.0"
