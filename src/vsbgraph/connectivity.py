"""Connectivity predicates on directed graphs.

A digraph is *strongly biconnected* when it is strongly connected and
its underlying undirected graph has no articulation point.  It is
*k-vertex strongly biconnected* (k-vsb) when deleting any set of at most
k-1 vertices leaves a strongly biconnected graph; the empty set is
included, so k-vsb implies strong biconnectivity and the k levels form a
hierarchy.

Small-graph conventions (they arise in deletion residuals and follow
from the general search, with no special case): a single vertex is
strongly biconnected; two vertices are strongly biconnected iff both
arcs between them are present.

Every negative verdict carries a witness that can be replayed
independently: an unreachable ordered pair, an articulation point, or a
deleted-vertex set that breaks strong biconnectivity.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Iterator

from .digraph import Digraph
from .errors import TooFewVerticesError

UNREACHABLE_PAIR = "unreachable-pair"
ARTICULATION_POINT = "articulation-point"
VERTEX_CUT = "vertex-cut"


@dataclass(frozen=True)
class Witness:
    """Replayable certificate of a failed connectivity predicate."""

    kind: str
    vertices: tuple[int, ...]

    def __str__(self) -> str:
        if self.kind == UNREACHABLE_PAIR:
            u, v = self.vertices
            return f"no directed path from {u} to {v}"
        if self.kind == ARTICULATION_POINT:
            return f"articulation point {self.vertices[0]}"
        if not self.vertices:
            return "graph itself is not strongly biconnected"
        cut = ", ".join(str(v) for v in self.vertices)
        return f"deleting {{{cut}}} breaks strong biconnectivity"


@dataclass(frozen=True)
class ConnectivityReport:
    """Boolean verdict plus a witness exactly when the verdict is false."""

    verdict: bool
    witness: Witness | None = None

    def __post_init__(self) -> None:
        if self.verdict == (self.witness is not None):
            raise ValueError("witness must be present iff verdict is false")

    def __bool__(self) -> bool:
        return self.verdict


def is_strongly_connected(g: Digraph) -> ConnectivityReport:
    """Every vertex reaches every other one by directed paths.

    Checked with one forward and one backward search from vertex 0; on
    failure the witness is an ordered pair (u, v) with no u-to-v path.
    """
    if g.n < 1:
        raise TooFewVerticesError("strong connectivity needs at least one vertex")
    pair = _unreachable_pair(g, 0, ())
    if pair is None:
        return ConnectivityReport(True)
    return ConnectivityReport(False, Witness(UNREACHABLE_PAIR, pair))


def is_strongly_biconnected(g: Digraph) -> ConnectivityReport:
    """Strongly connected with no articulation point in the undirected view."""
    if g.n < 1:
        raise TooFewVerticesError("strong biconnectivity needs at least one vertex")
    witness = _strong_biconnectivity_witness(g, ())
    if witness is None:
        return ConnectivityReport(True)
    return ConnectivityReport(False, witness)


def is_k_vsb(g: Digraph, k: int) -> ConnectivityReport:
    """k-vertex strong biconnectivity for k in {1, 2, 3}.

    Tests every vertex subset of size at most k-1, in increasing size
    and ascending lexicographic order, so a negative verdict reports the
    first (hence minimal-size) failing subset as its witness.
    """
    if k not in (1, 2, 3):
        raise ValueError(f"k must be 1, 2 or 3, got {k}")
    if g.n <= k:
        raise TooFewVerticesError(
            f"{k}-vertex strong biconnectivity needs more than {k} vertices"
        )
    for size in range(k):
        for subset in combinations(range(g.n), size):
            if _strong_biconnectivity_witness(g, subset) is not None:
                return ConnectivityReport(False, Witness(VERTEX_CUT, subset))
    return ConnectivityReport(True)


def _stays_k_vsb(g: Digraph, k: int, u: int, v: int) -> bool:
    """``is_k_vsb(g, k).verdict``, given that g plus the arc (u, v) is k-vsb.

    The caller has just removed (u, v) from a k-vsb graph G; write e for
    that arc and S for a deleted set of at most k-1 vertices.  G-S is
    strongly biconnected for every such S, and only the residuals that
    lost e can have changed:

    - If S contains u or v, e is gone from G-S anyway, so G-e-S = G-S.
      Only the subsets of V minus {u, v} are enumerated.
    - G-S is strongly connected, and every path through e can be routed
      around it along a u-to-v path, so G-e-S is strongly connected
      exactly when u still reaches v: one search from u, stopped at v,
      replaces the forward and backward searches.
    - If the arc (v, u) exists, G-e-S has the same undirected view as
      G-S, which has no articulation point; otherwise one lowpoint pass
      over G-e-S decides it.
    - When only u and v survive, the search fails because e is gone,
      which is the two-vertex convention (both arcs needed).
    """
    n = g.n
    out = g._out
    undirected_kept = u in out[v]
    others = [w for w in range(n) if w != u and w != v]
    for size in range(k):
        for subset in combinations(others, size):
            if not _reaches(n, out, u, v, subset):
                return False
            if not undirected_kept and _articulation_vertices(
                n, out, g._in, u, subset
            ):
                return False
    return True


def _reaches(
    n: int, adj: list[set[int]], src: int, dst: int, blocked: tuple[int, ...]
) -> bool:
    """A path from src to dst along adj that avoids the blocked vertices."""
    seen = bytearray(n)
    for b in blocked:
        seen[b] = 1
    seen[src] = 1
    stack = [src]
    while stack:
        for y in adj[stack.pop()]:
            if not seen[y]:
                if y == dst:
                    return True
                seen[y] = 1
                stack.append(y)
    return False


def _below_degree_bound(g: Digraph, v: int, k: int) -> bool:
    """True when v's degrees alone show that g (with n > k) is not k-vsb.

    The bound is in- or out-degree below k, or, when n >= k+2,
    undirected degree (distinct neighbours in either direction) below
    k+1 (Whitney's inequality: vertex connectivity <= minimum degree).
    Proof that each case breaks k-vsb:

    - Delete the at most k-1 in- (or out-) neighbours of v.  At least
      two vertices survive, and none of them has an arc into (or out
      of) v, so the residual is not strongly connected.
    - With at most k undirected neighbours, delete k-1 of them, or all
      if there are fewer.  At least three vertices survive.  If no
      neighbour is left, v is isolated; otherwise the one neighbour left
      separates v from the other survivors and is an articulation point.

    At n = k+1 the undirected case does not apply: the complete
    bidirected graph on k+1 vertices is k-vsb with undirected degree k.
    """
    out = g._out[v]
    inn = g._in[v]
    if len(out) < k or len(inn) < k:
        return True
    return g.n >= k + 2 and len(out | inn) < k + 1


def _degree_gated(
    g: Digraph, arcs: Iterable[tuple[int, int]], k: int
) -> Iterator[int]:
    """Add ``arcs`` to g one at a time; yield the number added so far
    whenever no vertex is below the k-vsb degree bound, including 0 if g
    meets it already.  Degrees only grow, so after the first yield it
    yields after every further arc."""
    short = {v for v in range(g.n) if _below_degree_bound(g, v, k)}
    added = 0
    if not short:
        yield added
    for u, v in arcs:
        g.add_edge(u, v)
        added += 1
        for x in (u, v):
            if x in short and not _below_degree_bound(g, x, k):
                short.discard(x)
        if not short:
            yield added


def _search_miss(
    n: int, adj: list[set[int]], root: int, blocked: tuple[int, ...]
) -> int | None:
    """First vertex not reached from root along adj, or None if all are."""
    seen = bytearray(n)
    seen[root] = 1
    stack = [root]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if not seen[y] and y not in blocked:
                seen[y] = 1
                stack.append(y)
    for v in range(n):
        if not seen[v] and v not in blocked:
            return v
    return None


def _unreachable_pair(
    g: Digraph, root: int, blocked: tuple[int, ...]
) -> tuple[int, int] | None:
    """A pair (root, v) or (v, root) with no path avoiding the blocked
    vertices, or None: one forward and one backward search from root."""
    missing = _search_miss(g.n, g._out, root, blocked)
    if missing is not None:
        return root, missing
    missing = _search_miss(g.n, g._in, root, blocked)
    if missing is not None:
        return missing, root
    return None


def _strong_biconnectivity_witness(
    g: Digraph, blocked: tuple[int, ...]
) -> Witness | None:
    """Strong-biconnectivity check of g with the blocked vertices ignored.

    Returns None when the residual graph is strongly biconnected,
    otherwise a witness in g's own vertex ids.
    """
    root = next(w for w in range(g.n) if w not in blocked)
    pair = _unreachable_pair(g, root, blocked)
    if pair is not None:
        return Witness(UNREACHABLE_PAIR, pair)
    cut_vertices = _articulation_vertices(g.n, g._out, g._in, root, blocked)
    if cut_vertices:
        return Witness(ARTICULATION_POINT, (min(cut_vertices),))
    return None


def _articulation_vertices(
    n: int,
    out: list[set[int]],
    inn: list[set[int]],
    root: int,
    blocked: tuple[int, ...],
) -> set[int]:
    """Articulation points of the undirected view of root's component.

    One lowpoint depth-first pass from root over out- and in-arcs.  An
    antiparallel pair shows up as two entries; duplicates act as
    repeated back edges, which is harmless, and edges to the current
    parent are skipped entirely since edge multiplicity never affects
    vertex cuts.
    """
    disc = [0] * n
    low = [0] * n
    parent = [-1] * n
    result: set[int] = set()
    timer = 1
    disc[root] = low[root] = timer
    root_children = 0
    stack: list[tuple[int, Iterator[int]]] = [(root, chain(out[root], inn[root]))]
    while stack:
        x, nbrs = stack[-1]
        descended = False
        for y in nbrs:
            if y in blocked or y == parent[x]:
                continue
            dy = disc[y]
            if dy:
                if dy < low[x]:
                    low[x] = dy
            else:
                parent[y] = x
                timer += 1
                disc[y] = low[y] = timer
                stack.append((y, chain(out[y], inn[y])))
                descended = True
                break
        if not descended:
            stack.pop()
            if stack:
                p = stack[-1][0]
                if low[x] < low[p]:
                    low[p] = low[x]
                if p == root:
                    root_children += 1
                elif low[x] >= disc[p]:
                    result.add(p)
    if root_children >= 2:
        result.add(root)
    return result
