"""Call graph pruning guided by origin methods.

Find where each called signature was first declared (its origin), rank
origins by how many edges they cause, prune edges targeting derivatives of
the most frequent origins, and measure what that does to vulnerability
reachability.
"""

from .model import (
    CallEdge,
    CallGraph,
    GraphError,
    HierarchyValidationError,
    MethodNode,
    MethodSignature,
    TypeHierarchy,
    TypeNode,
    UnknownTypeError,
    Violation,
    build_call_graph,
    reverse_adjacency,
    validate_call_graph,
    validate_hierarchy,
)
from .origins import (
    ExclusionList,
    OriginFrequencyTable,
    OriginMap,
    OriginRef,
    build_exclusion_list,
    find_origins,
    origin_edge_frequencies,
    unique_derivative_counts,
)
from .localness import (
    LocalnessDistribution,
    LocalnessOptions,
    categorize,
    label_all,
    localness_distribution,
    same_hierarchy,
)
from .pruning import (
    KeepAllOracle,
    PruneAllOracle,
    PruneDecision,
    PruneDecisionOracle,
    PruneResult,
    load_exclusion_list,
    prune_exhaustive,
    prune_selective,
    save_exclusion_list,
)
from .vulnsim import (
    DeltaReport,
    NoEligibleNodesError,
    ProjectRoleMap,
    ReachabilityResult,
    VulnerabilityAssignment,
    compare,
    inject_artificial_cves,
    load_assignment,
    propagate,
    save_assignment,
)
from .synth import (
    GenParams,
    cha_targets,
    generate_call_graph_cha,
    generate_hierarchy,
    signature_pool,
)
from .io import (
    RecordFormatError,
    SchemaVersionError,
    apply_core_prefixes,
    load_call_graph,
    load_hierarchy,
    save_call_graph,
    save_hierarchy,
)
from .pipeline import (
    AnalysisReport,
    ConfigError,
    GraphInput,
    PipelineConfig,
    SyntheticSpec,
    run_pipeline,
    write_aggregates_csv,
    write_report_csv,
    write_report_json,
)

__version__ = "0.1.0"
