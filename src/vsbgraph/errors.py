"""Exception types shared across the package."""


class GraphError(Exception):
    """Base class for all errors raised by this package."""


class OutOfRangeError(GraphError):
    """A vertex id lies outside [0, n)."""


class SelfLoopError(GraphError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(GraphError):
    """An ordered vertex pair occurs more than once."""


class EdgeAbsentError(GraphError):
    """The referenced edge is not present in the graph."""


class EdgeListSyntaxError(GraphError):
    """Malformed edge-list text."""


class TooFewVerticesError(GraphError):
    """The graph is too small for the requested operation."""


class TooManyEdgesError(GraphError):
    """More edges requested than the vertex count allows."""


class SaturatedError(GraphError):
    """Edge growth used every arc without reaching the target property.

    Cannot happen for simple digraphs on four or more vertices (the
    complete bidirected graph qualifies), so it signals an internal bug
    rather than bad input.
    """


class TooLargeError(GraphError):
    """Input exceeds a size guard (edge-list vertex or digit limit,
    generator vertex limit, brute-force oracle)."""


class NotKVsbError(GraphError):
    """Input fails the k-vertex strong biconnectivity precondition."""

    def __init__(self, k, witness):
        self.k = k
        self.witness = witness
        super().__init__(
            f"graph is not {k}-vertex strongly biconnected ({witness})"
        )
