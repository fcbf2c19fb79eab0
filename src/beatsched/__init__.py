"""Beat scheduling for chains of relaying senders.

The package models one or two multi-hop transmission chains feeding a
destination under a pairwise interference relation, where every hop
takes exactly one beat. It computes the structural quantities of such
chains (interference and concurrency intensity, connection degrees,
dominant subsets), synthesizes periodic interference-free schedules
from equally spaced phase subsets, verifies them by exact beat-by-beat
simulation, and searches route/spacing/traversal grids for the best
sustainable block rate.
"""

from .analysis import (
    IntensityReport,
    analyze,
    check_continuity,
    concurrency_intensity,
    connection_degrees,
    interference_intensity,
    is_dominant,
    split_dominant,
)
from .errors import ConfigurationError, ConsistencyError, DomainError, SchemaError
from .matching import (
    brute_force_max_support,
    max_support_set,
    tiled_support_sizes,
    validate_support_set,
)
from .model import (
    GeometricTopology,
    InterferenceRelation,
    NodeRef,
    PathPair,
    PrimaryPath,
    RulesReport,
    derive_relation,
    is_concurrency_subset,
    validate_path_rules,
)
from .optimizer import (
    DiskScenario,
    LoggedCandidate,
    OptimizationResult,
    RouteCandidate,
    SearchSpace,
    materialize_pair,
    optimize,
    routes_from_graph,
)
from .periods import (
    ConcurrencyMatrix,
    build_matrix,
    continuation,
    intrinsic_period,
    is_reachable_period,
    subset_members,
)
from .scheduler import (
    AuditReport,
    Beat,
    Schedule,
    SubsetActivation,
    audit_schedule,
    predicted_throughput,
    schedule_from_dict,
    schedule_pair_equal,
    schedule_pair_unequal,
    schedule_primary,
)
from .simulator import SimReport, default_warmup_periods, measure_delay, run
from .verify import (
    CRITERIA,
    DEFAULT_SEED,
    CriterionResult,
    line_corpus,
    pair_corpus,
    run_criteria,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "Beat",
    "CRITERIA",
    "ConcurrencyMatrix",
    "ConfigurationError",
    "ConsistencyError",
    "CriterionResult",
    "DEFAULT_SEED",
    "DiskScenario",
    "DomainError",
    "GeometricTopology",
    "IntensityReport",
    "InterferenceRelation",
    "LoggedCandidate",
    "NodeRef",
    "OptimizationResult",
    "PathPair",
    "PrimaryPath",
    "RouteCandidate",
    "RulesReport",
    "Schedule",
    "SchemaError",
    "SearchSpace",
    "SimReport",
    "SubsetActivation",
    "analyze",
    "audit_schedule",
    "brute_force_max_support",
    "build_matrix",
    "check_continuity",
    "concurrency_intensity",
    "connection_degrees",
    "continuation",
    "default_warmup_periods",
    "derive_relation",
    "interference_intensity",
    "intrinsic_period",
    "is_concurrency_subset",
    "is_dominant",
    "is_reachable_period",
    "line_corpus",
    "materialize_pair",
    "max_support_set",
    "measure_delay",
    "optimize",
    "pair_corpus",
    "predicted_throughput",
    "routes_from_graph",
    "run",
    "run_criteria",
    "schedule_from_dict",
    "schedule_pair_equal",
    "schedule_pair_unequal",
    "schedule_primary",
    "split_dominant",
    "subset_members",
    "tiled_support_sizes",
    "validate_path_rules",
    "validate_support_set",
    "__version__",
]
