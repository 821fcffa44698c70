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

:func:`is_k_vsb` decides its verdict in Menger form: g is k-vsb exactly
when its directed vertex connectivity is at least k and, unless g has
only k+1 vertices, that of its undirected view at least k+1.  Both
bounds are checked by Even's test, on one primitive that counts
vertex-disjoint paths by augmenting searches (:func:`_disjoint_paths`).
The witness of a false verdict is searched among deletion sets, each
prefix and each leaf decided by the same test; these tests share one
table of Even's counts on g itself (:class:`_Table`), and each visits
and recounts only the items its deleted vertices can cut
(:func:`_connectivity_at_least`).  The extractors' local removability test
(:func:`_stays_k_vsb`) makes at most two counts with the same primitive.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Collection, Container, Iterable, Iterator, Sequence

from .digraph import Digraph
from .errors import TooFewVerticesError

UNREACHABLE_PAIR = "unreachable-pair"
ARTICULATION_POINT = "articulation-point"
VERTEX_CUT = "vertex-cut"


# (view, reverse) pairs: the arcs along which paths run, and the same
# arcs reversed, which _disjoint_paths searches
Orientations = tuple[
    tuple[tuple[list[set[int]], ...], tuple[list[set[int]], ...]], ...
]

# one count of Even's test, named (t, orientation index, own): the paths
# into t from the out-neighbours of a with own = (a,) blocked, for the
# pair a < t, or from every survivor below t with own = (), for the fan;
# fans sort into the order in which Even's test visits them
Item = tuple[int, int, tuple[int, ...]]

# an item's count on a whole graph, whether it reached its cap, and the
# vertices of its paths, or None where they were too many to keep
Count = tuple[int, bool, dict[int, int] | None]


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


@dataclass
class _Table:
    """Counts of Even's items on a whole graph g, reused by the tests of
    its residuals (:func:`_connectivity_at_least`).

    Each count is kept with whether it reached its cap (so more paths
    may exist) and with the vertices of its paths when they number at
    most ``keep`` times the cap; longer paths, as in sparse graphs, are
    dropped, so the table holds O(cap) vertices per item.

    Each time a fan is counted it is listed in ``on`` under every vertex
    of its kept paths, or in ``loose`` if its paths were dropped; a fan
    may be listed twice, or under a vertex its paths have since left.
    ``settled`` is the highest K at which Even's test on g itself passed
    with this table, so every fan into t >= settled has a count of at
    least settled here (0 if none).
    """

    counts: dict[Item, Count] = field(default_factory=dict)
    on: dict[int, list[Item]] = field(default_factory=dict)
    loose: set[Item] = field(default_factory=set)
    settled: int = 0
    keep = 4

    def count(
        self,
        item: Item,
        reverse: tuple[list[set[int]], ...],
        starts: Collection[int],
        K: int,
        blocked: tuple[int, ...],
    ) -> tuple[int, int]:
        """g's count c of item and the number h of its paths that blocked
        vertices cut: at least c-h paths avoid them, and c is exact if
        c-h < K.

        The item is counted on g, capped at K + |blocked|, when it has no
        count yet, or when its count reached its cap and fewer than K of
        its paths avoid the blocked vertices.  A capped count whose paths
        were kept is extended from them: augmenting from a set of disjoint
        paths (a feasible flow) reaches the same count as from none.
        """
        found = self.counts.get(item)
        paths: dict[int, int] | None = {}
        if found is not None:
            count, capped, kept = found
            cut = _cut(kept, blocked)
            if count - cut >= K or not capped:
                return count, cut
            paths = dict(kept or {})
        t, _, own = item
        # each path takes a start of its own, so no more can exist
        need = min(K + len(blocked), len(starts))
        count = _disjoint_paths(reverse, starts, t, need, own, paths)
        if len(paths) > self.keep * need:
            paths = None
        self.counts[item] = count, count == need < len(starts), paths
        if not own:
            if paths is None:
                self.loose.add(item)
            else:
                for v in paths:
                    self.on.setdefault(v, []).append(item)
        return count, _cut(paths, blocked)

    def fans(self, first: int, blocked: tuple[int, ...], sides: int) -> list[Item]:
        """The fans that a test at a level K <= settled must visit, in
        Even's order, where ``first`` is its (K+1)-th survivor: those into
        survivors below ``settled``, those listed under a blocked vertex
        and the loose ones, but none into a blocked vertex or below
        ``first`` (proof in :func:`_connectivity_at_least`)."""
        visit = self.loose.union(
            *(self.on.get(v, ()) for v in blocked),
            (
                (t, side, ())
                for t in range(first, self.settled)
                for side in range(sides)
            ),
        )
        return sorted(
            fan for fan in visit if fan[0] >= first and fan[0] not in blocked
        )


def _cut(paths: dict[int, int] | None, blocked: tuple[int, ...]) -> int:
    """How many of a count's paths the blocked vertices can cut: one per
    blocked vertex on them, or one per blocked vertex where the paths
    were not kept."""
    if paths is None:
        return len(blocked)
    return sum(map(paths.__contains__, blocked))


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

    A negative verdict reports the first failing vertex subset in order
    of increasing size, then ascending lexicographic order (hence a
    minimal-size one), as its witness.

    The verdict is the Menger form (:func:`_vsb_at_least`), decided by
    Even's test (:func:`_connectivity_at_least`) in O(k^2 n m) instead
    of the O(n^(k-1) m) of checking every deletion set.  Only a false
    verdict searches for the witness: the smallest failing size s is
    the highest level below k that the same test accepts (0 if none:
    g is not strongly biconnected), and the size-s sets are
    searched in lexicographic order, skipping every prefix P whose
    residual g-P is (s-|P|+1)-vsb, since no extension of P can then
    fail; a set that is not skipped (its residual is not 1-vsb, that
    is, not strongly biconnected) is the witness.

    Every Even's test stops at its first failing item.  The tests that
    find s and the prefix and leaf tests share one table of counts on g
    (:class:`_Table`), and a prefix or leaf test visits and recounts
    only the items that P can cut (:func:`_connectivity_at_least`); so
    a witness that comes late in the order costs neither a full test
    nor a walk over every item per first vertex before it.
    """
    _check_level(g, k)
    if _vsb_at_least(g, k, ()):
        return ConnectivityReport(True)
    tables = (_Table(), _Table())
    size = next(
        (s for s in range(k - 1, 0, -1) if _vsb_at_least(g, s, (), tables)), 0
    )
    cut = _first_cut(g, size, (), tables)
    return ConnectivityReport(False, Witness(VERTEX_CUT, cut))


def _check_level(g: Digraph, k: int) -> None:
    """Raise unless k is in {1, 2, 3} and g has more than k vertices."""
    if k not in (1, 2, 3):
        raise ValueError(f"k must be 1, 2 or 3, got {k}")
    if g.n <= k:
        raise TooFewVerticesError(
            f"{k}-vertex strong biconnectivity needs more than {k} vertices"
        )


def _vsb_at_least(
    g: Digraph,
    k: int,
    blocked: tuple[int, ...],
    tables: tuple[_Table, _Table] | None = None,
) -> bool:
    """g minus the blocked vertices is k-vsb; at least k+1 vertices survive.

    The residual is k-vsb exactly when its directed vertex connectivity
    is at least k and, if at least k+2 vertices survive, that of its
    undirected view at least k+1.  From k+2 survivors on, removing at
    most k-1 vertices leaves at least three, and such a residual is
    strongly biconnected exactly when it stays strongly connected and
    no further single deletion disconnects its undirected view.  With
    exactly k+1 survivors both sides mean "complete bidirected": deleting
    any k-1 vertices leaves two, which need both arcs, and k internally
    disjoint paths between two of k+1 vertices must include the direct
    arc.  (The undirected connectivity of that graph is only k.)

    ``tables`` are g's directed and undirected :class:`_Table`, or None
    to count every item afresh.
    """
    directed, undirected = tables or (None, None)
    return _connectivity_at_least(
        g.n, _orientations(g, True), k, blocked, directed
    ) and (
        g.n - len(blocked) == k + 1
        or _connectivity_at_least(
            g.n, _orientations(g, False), k + 1, blocked, undirected
        )
    )


def _first_cut(
    g: Digraph,
    size: int,
    prefix: tuple[int, ...],
    tables: tuple[_Table, _Table],
) -> tuple[int, ...] | None:
    """Lexicographically first set of ``size`` vertices that extends
    prefix (by larger ids) and breaks strong biconnectivity, or None.

    A prefix whose residual is (size-|prefix|+1)-vsb is skipped with all
    its extensions; a full-size set that is not skipped breaks strong
    biconnectivity (1-vsb).  At least size+2 vertices exist, so the test
    always has enough survivors.  The empty prefix is never skipped: it
    is only searched at a size where some set is known to fail.  Every
    test reads g's item counts from ``tables``.
    """
    if prefix and _vsb_at_least(g, size - len(prefix) + 1, prefix, tables):
        return None
    if len(prefix) == size:
        return prefix
    first = prefix[-1] + 1 if prefix else 0
    for x in range(first, g.n - size + len(prefix) + 1):
        found = _first_cut(g, size, prefix + (x,), tables)
        if found is not None:
            return found
    return None


def _orientations(g: Digraph, directed: bool) -> Orientations:
    """Both orientations of g's arcs, or the one of its undirected view."""
    out, inn = g._out, g._in
    if directed:
        return (((out,), (inn,)), ((inn,), (out,)))
    return (((out, inn), (out, inn)),)


def _even_items(
    orientations: Orientations, alive: Sequence[int], K: int, fans: Iterable[Item]
) -> Iterator[tuple[Item, tuple[list[set[int]], ...], Collection[int]]]:
    """The counts of Even's test at connectivity K over the survivors
    ``alive`` (in id order; only the first K are read): every pair among
    them, in each orientation, and then the ``fans`` given, in order.
    Each is yielded as its :data:`Item` followed by the reverse view and
    the starts to count it on."""
    for side, (view, reverse) in enumerate(orientations):
        for a, b in combinations(alive[:K], 2):
            yield (b, side, (a,)), reverse, set().union(*(adj[a] for adj in view))
    for fan in fans:
        t, side, _ = fan
        # the earlier survivors: every unblocked id below t
        yield fan, orientations[side][1], range(t)


def _connectivity_at_least(
    n: int,
    orientations: Orientations,
    K: int,
    blocked: tuple[int, ...],
    table: _Table | None = None,
) -> bool:
    """Vertex connectivity of the graph along ``orientations``, minus the
    blocked vertices, is at least K; at least K+1 vertices survive.

    ``orientations`` holds both orientations of a directed graph, or the
    one of an undirected view.  Even's test (SIAM J. Comput. 1975), over
    the survivors v1 < v2 < ... in id order (:func:`_even_items`):

    - every pair among v1..vK has K internally disjoint paths, in each
      orientation;
    - for each later vj, K paths from distinct earlier survivors into
      vj, disjoint apart from vj, in each orientation.

    A direct arc counts as a path.  Sufficiency: suppose deleting S,
    |S| < K, leaves some x unable to reach some y; let A be what x still
    reaches and B the rest outside S, so no path leads from A to B
    avoiding S.  Some of v1..vK lies outside S.  If those lie on both
    sides, a pair from A to B has at most |S| paths.  If all lie in A,
    the first vj in B sees its fan from the earlier survivors (all in A
    or S) cross S, so it has at most |S| paths; if all lie in B, the
    same holds for the first vj in A in the reverse orientation.
    Necessity is Menger's theorem.

    ``table`` (a :class:`_Table`) gives g's count c of each item and
    the number h of the blocked set P's vertices on its paths (|P| where
    the paths were not kept).  The item is recounted with P blocked only
    when K <= c < K+h, so never when c >= K+|P|.  A count on g that is
    missing, or that reached its cap with c-h < K, is made first, capped
    at K+|P|; c-h < K then means c is below that cap and exact.  Proof:

    - The paths an item counts share no vertex but the ends the item
      names (t, and a for a pair), and P contains neither, so each
      vertex of P lies on at most one of them: at least c-h of them
      avoid P.  Those start at starts outside P, which are the item's
      starts in the residual (a fan's survivors below t, a pair's
      surviving out-neighbours of a), so they are paths of the
      residual's item; c-h >= K passes it.
    - Deleting vertices adds no path, so c < K (exact) fails the item
      in the residual too.

    Once Even's test at some level s >= K has passed on g itself with
    this table (``table.settled``), the test visits only the pairs, the
    fans into survivors below s, the fans the table lists under a vertex
    of P and the fans whose paths it dropped (:meth:`_Table.fans`), in
    the order of the full walk.  That list is taken before the walk, and
    a count changes the listing of its own item only, so a fan left out
    is neither counted nor relisted during the walk.  Every such fan
    passes without a visit: it is a fan into some t >= s, so the passing
    test at level s counted it, and its count c on g is at least s >= K
    (counts on g only grow as they are extended); its last count kept
    its paths and listed it under each of their vertices, none of which
    is in P, so h = 0 and c-h >= K.  The verdict is the full walk's, and
    so is every count made before the first failing item.
    """
    # the pairs and the fans need only the first K+1 survivors
    alive = [v for v in range(min(n, K + 1 + len(blocked))) if v not in blocked]
    first, sides = alive[K], len(orientations)
    fans: Iterable[Item]
    if table is not None and K <= table.settled:
        fans = table.fans(first, blocked, sides)
    else:
        # made as walked, so a test that stops at an early item makes no
        # more items (a list of every fan raised the peak memory of sparse
        # false verdicts, beside a full table)
        fans = (
            (t, side, ())
            for t in range(first, n)
            if t not in blocked
            for side in range(sides)
        )
    for item, reverse, starts in _even_items(orientations, alive, K, fans):
        if table is not None:
            known, cut = table.count(item, reverse, starts, K, blocked)
            if known < K:
                return False
            if known - cut >= K:
                continue
        t, _, own = item
        if _disjoint_paths(reverse, starts, t, K, blocked + own) < K:
            return False
    if table is not None and not blocked:
        table.settled = max(table.settled, K)
    return True


_SOURCE = -1


class _Own(dict):
    """v -> (v,), made on first use: a vertex's own exit, which the
    augmenting search reads as one more predecessor of its entry."""

    def __missing__(self, v: int) -> tuple[int]:
        return self.setdefault(v, (v,))


def _disjoint_paths(
    reverse: tuple[list[set[int]], ...],
    starts: Container[int],
    t: int,
    need: int,
    blocked: tuple[int, ...],
    pred: dict[int, int] | None = None,
) -> int:
    """Paths into t, capped at need; ``reverse`` gives each vertex's
    predecessors along the arcs of the view.

    Each path starts at a different vertex of starts (a start equal to t
    is a path by itself), the paths share no vertex but t, and none
    uses a blocked vertex.  Direct arcs from a start into t are taken
    first; then each augmenting breadth-first search, run backwards from
    t over the implicit vertex-split graph (node 2v enters v, node 2v+1
    leaves it, with unit capacity in between), adds one path.  Searching
    from t touches only the vertices near it, however many starts there
    are.  A dict passed as ``pred`` is left holding the counted paths;
    its keys are their vertices other than t.  If it holds the paths of
    an earlier count with the same arguments but a lower need, the count
    continues from them (Ford-Fulkerson from a feasible flow reaches the
    same value), at one search per path added.

    The queue holds entries only, and each search stops at the first
    start it reaches.  An exit is entered from one entry alone: its
    vertex's own if the vertex is free, else that of the vertex after it
    on its path.  So each exit is passed through to that entry as soon
    as it is discovered, and every entry but t's (the sink, marked from
    the start) is entered from one exit alone.  The entries are thus
    queued in the order of a search that queues the exits too, the first
    start reached is the one that search finds when it tests each start
    as it dequeues the exit before it, and each node on the way to t has
    the same node after it: the paths found are the same, but the rest
    of the start's layer is not expanded first.
    """
    # pred[v]: _SOURCE if v starts a path, else the vertex before v on
    # it; succ[v]: the vertex after v; vertices off every path are absent
    if pred is None:
        pred = {}
    succ: dict[int, int] = {}
    count = 1 if t in starts else 0
    if pred:
        succ = {x: v for v, x in pred.items() if x != _SOURCE}
        # one start per path; the last vertex of each path enters t
        count += len(pred) - len(succ)
        for v in pred:
            if v not in succ:
                succ[v] = t
    for adj in reverse:
        for y in adj[t]:
            if count >= need:
                return count
            if y in starts and y not in pred and y not in blocked:
                pred[y] = _SOURCE
                succ[y] = t
                count += 1
    sink = 2 * t
    # v's entry is entered from v's own exit, read first and only if v
    # carries a path (a free v's own exit leads back to v's entry), and
    # from the exit of every unblocked vertex with an arc into v
    views = (_Own(), *reverse)
    while count < need:
        # after[node]: the node after it on the way to t
        after = {sink: sink}
        queue = [sink]
        found = -1
        for node in queue:
            v = node >> 1
            for adj in views if v in pred else reverse:
                for y in adj[v]:
                    x = 2 * y + 1
                    if x in after or y in blocked:
                        continue
                    after[x] = node
                    # y's exit is entered from y's entry if y is free,
                    # else from the entry of the vertex after y (undoing
                    # that arc); only the sink can be marked already
                    p = 2 * succ[y] if y in pred else x - 1
                    if p in after:
                        continue
                    after[p] = x
                    if p >> 1 in starts and pred.get(p >> 1) != _SOURCE:
                        # a start that begins no path yet: the source
                        # enters it
                        found = p
                        break
                    queue.append(p)
                else:
                    continue
                break  # a start was found: leave every loop
            else:
                continue
            break
        if found == -1:
            return count
        # walk the path to t; removals before additions, since a vertex
        # can lose its old link and gain a new one
        added = []
        removed = []
        node = found
        while node != sink:
            nxt = after[node]
            if node >> 1 != nxt >> 1:
                if node & 1:
                    added.append((node >> 1, nxt >> 1))
                else:
                    removed.append((nxt >> 1, node >> 1))
            node = nxt
        for x, y in removed:
            del succ[x], pred[y]
        for x, y in added:
            succ[x] = y
            if y != t:
                pred[y] = x
        pred[found >> 1] = _SOURCE
        count += 1
    return count


def _stays_k_vsb(g: Digraph, k: int, u: int, v: int) -> bool:
    """``is_k_vsb(g, k).verdict``, given that g plus the arc (u, v) is k-vsb.

    The caller has just removed (u, v) from a k-vsb graph G; write e for
    that arc.  By the edge-removal lemma for k-connected graphs (Mader),
    G-e is k-vsb exactly when

    - at least k internally disjoint u-to-v paths remain, and
    - unless the arc (v, u) exists, at least k+1 internally disjoint
      u-v paths remain in the undirected view.

    Each is one :func:`_disjoint_paths` count from u's neighbours into
    v with u blocked.  Proof, with S a deleted set of at most k-1
    vertices; k u-to-v paths need k vertices besides u and v, so when
    they remain at least three vertices survive S:

    - If S contains u or v, G-e-S = G-S, which is strongly biconnected.
    - Otherwise, if G-e-S is not strongly connected, some x cannot reach
      some y there although it can in G-S, so every such path uses e: x
      reaches u, v reaches y, and u cannot reach v in G-e-S.  Then S,
      with fewer than k vertices, meets all k u-to-v paths: impossible.
    - If G-e-S is strongly connected but has an articulation point x,
      then x is neither u nor v (deleting either leaves G-S-x, whose
      undirected view is connected), so e's undirected edge joins the
      two sides of G-S-x and is not doubled by (v, u).  Then S plus x,
      at most k vertices, meets all k+1 undirected u-v paths: impossible.
    - Conversely, u and v are not adjacent in the view counted, so by
      Menger's theorem too few paths leave a set T avoiding u and v that
      separates them.  With fewer than k vertices, G-e-T is not strongly
      connected.  With at most k (at least one: the undirected view of
      G-e is still connected), any x in T is an articulation point of
      G-e-(T-x).

    At n = k+1 fewer than k u-to-v paths remain, and indeed G-e is not
    k-vsb: deleting the k-1 other vertices leaves u and v without e.
    """
    out, inn = g._out, g._in
    if _disjoint_paths((inn,), out[u], v, k, (u,)) < k:
        return False
    return (
        u in out[v]
        or _disjoint_paths((out, inn), out[u] | inn[u], v, k + 1, (u,)) >= k + 1
    )


def _slacks(g: Digraph, k: int) -> list[list[int]]:
    """How far each vertex's out-degree, in-degree and number of distinct
    neighbours lie above the k-vsb degree bound, as three lists indexed by
    vertex; g has n > k vertices.  A negative slack shows that g is not
    k-vsb.  This is the degree rule of the extractors and the generator.

    The bound is in- and out-degree k and, when n >= k+2, undirected
    degree (distinct neighbours in either direction) k+1 (Whitney's
    inequality: vertex connectivity <= minimum degree).  Proof that a
    vertex below it breaks k-vsb:

    - Delete its at most k-1 in- (or out-) neighbours.  At least two
      vertices survive, and none of them has an arc into (or out of) the
      vertex, so the residual is not strongly connected.
    - With at most k undirected neighbours, delete k-1 of them, or all
      if there are fewer.  At least three vertices survive.  If no
      neighbour is left, the vertex is isolated; otherwise the one
      neighbour left separates it from the other survivors and is an
      articulation point.

    At n = k+1 the undirected case does not apply: the complete
    bidirected graph on k+1 vertices is k-vsb with undirected degree k.
    """
    fewest = k + 1 if g.n >= k + 2 else 0
    nbrs = [len(a | b) - fewest for a, b in zip(g._out, g._in)]
    return [[len(s) - k for s in g._out], [len(s) - k for s in g._in], nbrs]


def _degree_gated(
    g: Digraph, arcs: Iterable[tuple[int, int]], k: int
) -> Iterator[int]:
    """Add ``arcs`` to g one at a time; yield the number added so far
    whenever no vertex is below the k-vsb degree bound (:func:`_slacks`),
    including 0 if g meets it already.  Degrees only grow, so after the
    first yield it yields after every further arc."""
    out, inn, nbrs = _slacks(g, k)
    # units of slack missing below the bound; an arc makes up at most 4
    missing = -sum([s for s in out + inn + nbrs if s < 0])
    add, succ = g.add_edge, g._out
    if not missing:
        yield 0
    for added, (u, v) in enumerate(arcs, 1):
        lone = u not in succ[v]
        add(u, v)
        missing -= (out[u] < 0) + (inn[v] < 0) + lone * ((nbrs[u] < 0) + (nbrs[v] < 0))
        out[u], inn[v] = out[u] + 1, inn[v] + 1
        nbrs[u], nbrs[v] = nbrs[u] + lone, nbrs[v] + lone
        if not missing:
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
