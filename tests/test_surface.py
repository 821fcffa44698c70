"""The package's public names: exactly these, and each one importable."""
import vsbgraph

PUBLIC_NAMES = [
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


def test_all_is_pinned():
    assert vsbgraph.__all__ == PUBLIC_NAMES


def test_every_name_resolves():
    namespace: dict = {}
    exec("from vsbgraph import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(vsbgraph, name)
