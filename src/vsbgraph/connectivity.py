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
vertex-disjoint paths by augmenting searches (:func:`_disjoint_paths`);
every count first takes the direct arcs and the two-arc paths into its
target, and most counts need no search after them.  The witness of a
false verdict is searched among deletion sets, each prefix and each
leaf decided by the same test; these tests share one table of Even's
counts on g itself (:class:`_Table`), and each visits and recounts only
the items its deleted vertices can cut (:func:`_connectivity_at_least`).
A count the table makes on g itself keeps one path beyond its level
when the free passes find it, which is what every later test of a
residual asks of g, so those tests skip the fans that have it.  The
extractors' local removability test (:func:`_stays_k_vsb`) makes at
most two counts with the same primitive.

One test leaves Even's test for its directed half: a verdict-only
level-2 test of a graph with at most 4n arcs, as the extractors' 2-vsb
backbone makes.  There g is strongly 2-connected exactly when both
dominator trees from vertex 0, along the arcs and along their reverses,
are flat and g-0 is strongly connected, which their semidominators
decide in O(m log n) instead of Even's O(nm) (:func:`_vsb_at_least`).
On denser graphs most of Even's counts end without a search and the
semidominators cost more, hence the gate.  Its undirected half, every
other level and every test that reads or fills a table stay on Even's
test, so witnesses and table contents are the same either way.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Container, Iterable, Iterator

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

    ``settled`` is the highest K at which Even's test on g itself passed
    with this table, so every fan into t >= settled has a count of at
    least settled here (0 if none).  A fan counted above ``settled``
    holds a spare path, so no test of a residual that skips fans by the
    rule of :func:`_connectivity_at_least` can fail it.

    ``tight`` lists the fans into t >= settled counted at most
    ``settled``, sorted into Even's order.  The first test of a residual
    that skips fans takes it (None until then), and it is dropped when
    ``settled`` rises.  No fan joins it later: every fan into t >=
    settled was counted when ``settled`` last rose, and counts on g only
    grow.
    """

    counts: dict[Item, Count] = field(default_factory=dict)
    tight: list[Item] | None = None
    settled: int = 0
    keep = 4

    def count(
        self,
        item: Item,
        orientation: tuple[tuple[list[set[int]], ...], ...],
        K: int,
        blocked: tuple[int, ...],
    ) -> tuple[int, int]:
        """g's count c of item along ``orientation`` (its view and reverse)
        and the number h of its paths that blocked vertices cut: at least
        c-h paths avoid them, and c is exact if c-h < K.

        The item is counted on g, capped at K + |blocked|, when it has no
        count yet, or when its count reached its cap and fewer than K of
        its paths avoid the blocked vertices.  A recount starts afresh, and
        the count it replaces was below the new cap (c-h < K, with h at
        most |blocked|), so counts on g only grow.  A count made for a test of
        g itself (nothing blocked) also takes one spare path from the free
        passes of :func:`_disjoint_paths`, which set up no search: every
        later test of a residual g-P asks for K+|P| paths on g, one more
        than the test of g, so an item with a spare path is not recounted
        there unless P cuts its paths.
        """
        found = self.counts.get(item)
        if found is not None:
            count, capped, kept = found
            cut = _cut(kept, blocked)
            if count - cut >= K or not capped:
                return count, cut
        t, _, own = item
        view, reverse = orientation
        # made only here, where g is counted, and in the walk, where a
        # residual is: a pair's starts are a's neighbours along the view,
        # a fan's the earlier survivors, every unblocked id below t
        starts = set().union(*(adj[own[0]] for adj in view)) if own else range(t)
        # each path takes a start of its own, so no more can exist
        need = min(K + len(blocked), len(starts))
        paths: dict[int, int] | None = {}
        count = _disjoint_paths(
            reverse, starts, t, need, own, paths, 0 if blocked else 1
        )
        if len(paths) > self.keep * need:
            paths = None
        self.counts[item] = count, need <= count < len(starts), paths
        return count, _cut(paths, blocked)


def _cut(paths: dict[int, int] | None, blocked: tuple[int, ...]) -> int:
    """How many of a count's paths the blocked vertices can cut: one per
    blocked vertex on them, or one per blocked vertex where the paths
    were not kept."""
    if not blocked:
        return 0
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
    nor a walk over every item per first vertex before it.  Such a test
    asks g for K+|P| paths per item, one more than the passing size
    test at s asked, and most fans were counted with that spare path: a
    count c >= K+|P| loses at most |P| paths to P (h <= |P|), so c-h >=
    K, and those fans are not visited at all.  The few tight fans,
    counted at exactly s, are kept in one list and visited only where P
    meets their paths.

    At k=2, on a graph with at most 4n arcs, the first verdict decides
    its directed half with semidominators in O(m log n) instead.  The
    gate and the proof are at :func:`_vsb_at_least`; the witness search
    is unchanged.
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

    A verdict-only test of g itself at level 2 (no tables, nothing
    blocked) decides its directed half with dominators when g has at
    most 4n arcs: g is strongly 2-connected exactly when every vertex
    but 0 has 0 as its immediate dominator, from 0 along g's arcs and
    along their reverses (:func:`_flat_dominators`), and g-0 is strongly
    connected (Italiano, Laura and Santaroni, TCS 2012).  Proof, for
    n >= 3: g-v, v != 0, is strongly connected exactly when every vertex
    of it is reached from 0 and reaches 0 in it, that is, when v
    dominates no vertex from 0 in g or in its reverse, which is what
    flat trees say; and g-0 is checked directly.  Above 4n arcs most of
    Even's counts end in the free passes of :func:`_disjoint_paths`, and
    the semidominators' higher constant outweighs their O(m log n)
    against Even's O(nm), so those graphs stay on Even's test; so do the
    undirected half and every table-backed test, and the witness
    search's counts do not move.
    """
    directed, undirected = tables or (None, None)
    if k == 2 and not (tables or blocked) and g.m <= 4 * g.n:
        out, inn = g._out, g._in
        strong = (
            _flat_dominators(g.n, out, inn)
            and _flat_dominators(g.n, inn, out)
            and _unreachable_pair(g, 1, (0,)) is None
        )
    else:
        strong = _connectivity_at_least(
            g.n, _orientations(g, True), k, blocked, directed
        )
    return strong and (
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
    the survivors v1 < v2 < ... in id order, counts these items
    (:data:`Item`), all pairs before the fans:

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
    missing, or that reached its cap with c-h < K, is made afresh, capped
    at K+|P| (a count with P empty may take one spare path beyond); any
    cap of at least K+|P| will do, since c-h < K then means c is below
    K+|P|, so below the cap, and exact.  Proof:

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
    this table (``table.settled``), a test that asks for K+|P| <= s+1
    paths on g, as every prefix and leaf test of :func:`is_k_vsb`'s
    witness search does, visits only the pairs, the fans into survivors
    below s and, of the fans into t >= s still counted at most s
    (``table.tight``, taken sorted by the first such test), those whose
    kept paths meet P or were dropped, in the order of the full walk.
    Those tight fans are picked before the walk, and only its own visit
    changes a fan's count, so each fan is visited or left out on the
    count it has at its turn.  Every fan left out passes without a
    visit.  It is a fan into some t >= s, so the passing test
    at level s counted it, and its count c on g is at least s >= K
    (counts on g only grow, since a recount replaces only a count below
    its new cap).  If c > s, it holds a spare path: c >= s+1 >= K+|P|,
    and h <= |P|, so c-h >= K.  Otherwise it is in ``table.tight`` (its
    count was at most s when the list was taken too) and its kept paths
    avoid P, so h = 0 and c-h >= K.  The verdict is the full walk's, and
    so is every count made before the first failing item.  Any other
    test with a table visits every fan.
    """
    # the pairs and the fans need only the first K+1 survivors
    alive = [v for v in range(min(n, K + 1 + len(blocked))) if v not in blocked]
    first, sides = alive[K], len(orientations)
    pairs = [
        (b, side, (a,))
        for side in range(sides)
        for a, b in combinations(alive[:K], 2)
    ]
    settled = 0 if table is None else table.settled
    skips = K <= settled and K + len(blocked) <= settled + 1
    # made as walked, so a test that stops at an early item makes no more
    # items (a list of every fan raised the peak memory of sparse false
    # verdicts, beside a full table)
    fans = (
        (t, side, ())
        for t in range(first, settled if skips else n)
        if t not in blocked
        for side in range(sides)
    )
    tight_cut: list[Item] = []
    if skips:
        counts = table.counts
        if table.tight is None:
            table.tight = sorted(
                item
                for item, (count, _, _) in counts.items()
                if not item[2] and item[0] >= settled and count <= settled
            )
        for fan in table.tight:
            count, _, paths = counts[fan]
            if count <= settled and fan[0] >= first and fan[0] not in blocked:
                if _cut(paths, blocked):
                    tight_cut.append(fan)
    for item in chain(pairs, fans, tight_cut):
        t, side, own = item
        if table is not None:
            known, cut = table.count(item, orientations[side], K, blocked)
            if known < K:
                return False
            if known - cut >= K:
                continue
        view, reverse = orientations[side]
        # the item's starts, as _Table.count makes them
        starts = set().union(*(adj[own[0]] for adj in view)) if own else range(t)
        if _disjoint_paths(reverse, starts, t, K, blocked + own) < K:
            return False
    if table is not None and not blocked and K > table.settled:
        table.settled, table.tight = K, None
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
    spare: int = 0,
) -> int:
    """Paths into t, capped at need; ``reverse`` gives each vertex's
    predecessors along the arcs of the view.

    Each path starts at a different vertex of starts (a start equal to t
    is a path by itself), the paths share no vertex but t, and none
    uses a blocked vertex.  Two free passes come first: the direct arcs
    from a start into t, then the two-arc paths (for each free,
    unblocked predecessor y of t, the first free, unblocked start s, not
    t, that precedes y gives the path s -> y -> t).  Most counts of
    Even's test end there, with no search set up.  Then each augmenting
    breadth-first search, run backwards from t over the implicit
    vertex-split graph (node 2v enters v, node 2v+1 leaves it, with unit
    capacity in between), adds one path.  Searching from t touches only
    the vertices near it, however many starts there are.  The free
    passes take up to ``spare`` paths beyond need, which the caller may
    keep for a later, higher need; the searches stop at need.

    An empty dict passed as ``pred`` is left holding the counted paths;
    its keys are their vertices other than t.  The paths of the free
    passes are disjoint, a feasible flow, and Ford-Fulkerson from a
    feasible flow reaches the same value, so the free passes change
    which paths are found, never a count below need.

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
    free = need + spare
    for adj in reverse:
        for y in adj[t]:
            if count >= free:
                return count
            if y in starts and y not in pred and y not in blocked:
                pred[y] = _SOURCE
                succ[y] = t
                count += 1
    # paths s -> y -> t through each predecessor y of t on no path yet;
    # such a y is no start, or the direct arcs would have taken it
    for adj in reverse:
        for y in adj[t]:
            if count >= free:
                return count
            if y in pred or y in blocked:
                continue
            for before in reverse:
                for s in before[y]:
                    if s in starts and s != t and not (s in pred or s in blocked):
                        pred[s], pred[y] = _SOURCE, s
                        succ[s], succ[y] = y, t
                        count += 1
                        break
                else:
                    continue
                break
    if count >= need:
        return count
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


def _flat_dominators(n: int, succ: list[set[int]], pred: list[set[int]]) -> bool:
    """Every vertex is reached from 0 along succ, and 0 is the immediate
    dominator of every other one: no vertex but 0 lies on every path from
    0 to another.  ``pred`` holds the same arcs reversed.

    On depth-first preorder numbers (0 for vertex 0), the tree is flat
    exactly when no vertex w has a tree parent p != 0 with sdom(w) = p,
    so only the semidominators of Lengauer and Tarjan's simple algorithm
    (TOPLAS 1979) are computed, in O(m log n): in reverse preorder, each
    minimum read by ``evaluate`` over a forest of the vertices done so
    far, with iterative path compression.  It stops at once if a vertex
    is not reached or breaks the rule.  Proof, by their Corollary 1: for
    u of least sdom on the tree path sdom(w) ->+ u ->* w, idom(w) is
    sdom(w) if sdom(u) = sdom(w), else idom(u).  If sdom(w) = p, w is
    the only vertex on that path, so idom(w) = p != 0.  Conversely, let
    no vertex break the rule, and take w in preorder, with idom 0 for
    every vertex before it.  If sdom(w) = 0, idom(w) = 0 either way.
    Otherwise let c be the child of sdom(w) on the tree path to w: c != w
    by the rule, and sdom(c) <= parent(c) = sdom(w), so by the rule
    sdom(c) < sdom(w).  Hence u is a proper ancestor of w and idom(w) =
    idom(u) = 0.
    """
    num = [-1] * n
    vertex: list[int] = []  # by preorder number
    parent: list[int] = []  # the number of the tree parent
    # the vertex that pushed v last, whose push is the first one popped
    above = [0] * n
    stack = [0]
    while stack:
        v = stack.pop()
        if num[v] < 0:
            num[v] = len(vertex)
            vertex.append(v)
            parent.append(num[above[v]])
            for w in succ[v]:
                if num[w] < 0:
                    above[w] = v
                    stack.append(w)
    if len(vertex) < n:
        return False
    semi = list(range(n))
    label = semi[:]
    ancestor = [-1] * n

    def evaluate(v: int) -> int:
        # the vertex of least semi on the forest path from v (linked) to
        # just below its root, where each vertex of the path is relinked
        a = ancestor[v]
        if ancestor[a] < 0:
            return label[v]
        path = [v]
        x = a
        while ancestor[ancestor[x]] >= 0:
            path.append(x)
            x = ancestor[x]
        for x in reversed(path):
            a = ancestor[x]
            if semi[label[a]] < semi[label[x]]:
                label[x] = label[a]
            ancestor[x] = ancestor[a]
        return label[v]

    for w in range(n - 1, 0, -1):
        s = semi[w]
        for v in pred[vertex[w]]:
            u = num[v]
            if ancestor[u] >= 0:
                u = evaluate(u)
            if semi[u] < s:
                s = semi[u]
        p = ancestor[w] = parent[w]
        if s == p != 0:
            return False
        semi[w] = s
    return True


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
