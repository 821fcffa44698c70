"""Strong biconnectivity testing and sparse spanning-subgraph extraction
for directed graphs, plus a seeded instance generator and benchmark
harness."""

from .connectivity import (
    ConnectivityReport,
    Witness,
    is_k_vsb,
    is_strongly_biconnected,
    is_strongly_connected,
)
from .digraph import (
    Digraph,
    parse_edge_list,
    serialize_edge_list,
)
from .errors import (
    DuplicateEdgeError,
    EdgeAbsentError,
    EdgeListSyntaxError,
    GraphError,
    NotKVsbError,
    OutOfRangeError,
    SaturatedError,
    SelfLoopError,
    TooFewVerticesError,
    TooLargeError,
    TooManyEdgesError,
)
from .extraction import (
    ExtractionResult,
    ExtractionStats,
    compute_2vsb_spanning,
    minimal_k_vsb,
    two_phase_3vsb,
)
from .generator import (
    GeneratedInstance,
    InstanceSpec,
    generate,
    grow_until_3vsb,
    random_digraph,
)
from .harness import (
    ExperimentPlan,
    ExperimentRow,
    emit_table,
    format_duration,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "ConnectivityReport",
    "Digraph",
    "DuplicateEdgeError",
    "EdgeAbsentError",
    "EdgeListSyntaxError",
    "ExperimentPlan",
    "ExperimentRow",
    "ExtractionResult",
    "ExtractionStats",
    "GeneratedInstance",
    "GraphError",
    "InstanceSpec",
    "NotKVsbError",
    "OutOfRangeError",
    "SaturatedError",
    "SelfLoopError",
    "TooFewVerticesError",
    "TooLargeError",
    "TooManyEdgesError",
    "Witness",
    "compute_2vsb_spanning",
    "emit_table",
    "format_duration",
    "generate",
    "grow_until_3vsb",
    "is_k_vsb",
    "is_strongly_biconnected",
    "is_strongly_connected",
    "minimal_k_vsb",
    "parse_edge_list",
    "random_digraph",
    "run_experiment",
    "serialize_edge_list",
    "two_phase_3vsb",
]
