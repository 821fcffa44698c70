"""Connectivity predicates: verdicts, witnesses, and the k-level hierarchy."""
import importlib.util
import random
import tracemalloc
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsbgraph import (
    Digraph,
    InstanceSpec,
    TooFewVerticesError,
    Witness,
    compute_2vsb_spanning,
    generate,
    is_k_vsb,
    is_strongly_biconnected,
    is_strongly_connected,
    minimal_k_vsb,
    two_phase_3vsb,
)
import vsbgraph
from vsbgraph import connectivity, extraction
from vsbgraph.connectivity import (
    ARTICULATION_POINT,
    UNREACHABLE_PAIR,
    VERTEX_CUT,
    _articulation_vertices,
    _Table,
    _connectivity_at_least,
    _disjoint_paths,
    _flat_dominators,
    _orientations,
    _search_miss,
    _stays_k_vsb,
    _strong_biconnectivity_witness,
    _vsb_at_least,
)

from graphutil import (
    block_ring,
    complete_bidirected,
    digraphs,
    directed_cycle,
    directed_path,
    near_miss,
)
from oracle import _arc_masks, _component_mask, _sb_bruteforce, oracle_k_vsb


def bowtie() -> Digraph:
    # two directed triangles sharing vertex 2
    return Digraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])


def disconnects(g: Digraph, x: int) -> bool:
    """Deleting x splits the rest of g's undirected view (oracle machinery)."""
    out, inn = _arc_masks(g.n, g.edges())
    rest = ((1 << g.n) - 1) & ~(1 << x)
    if not rest:
        return False
    und = [o | i for o, i in zip(out, inn)]
    return _component_mask(und, rest, (rest & -rest).bit_length() - 1) != rest


def replay_witness(g: Digraph, witness) -> bool:
    """True iff the witness reproduces the reported failure.

    Replays through the brute-force oracle's bitmask machinery, which
    shares no code with the predicates under test.
    """
    out, inn = _arc_masks(g.n, g.edges())
    alive = (1 << g.n) - 1
    if witness.kind == UNREACHABLE_PAIR:
        u, v = witness.vertices
        return not _component_mask(out, alive, u) >> v & 1
    if witness.kind == ARTICULATION_POINT:
        return disconnects(g, witness.vertices[0])
    if witness.kind == VERTEX_CUT:
        for v in witness.vertices:
            alive &= ~(1 << v)
        return not _sb_bruteforce(out, inn, alive)
    return False


class TestStronglyConnected:
    def test_cycle(self):
        assert is_strongly_connected(directed_cycle(3)).verdict

    def test_path_fails_with_valid_witness(self):
        g = directed_path(3)
        report = is_strongly_connected(g)
        assert not report.verdict
        assert report.witness.kind == UNREACHABLE_PAIR
        assert replay_witness(g, report.witness)

    def test_complete(self):
        assert is_strongly_connected(complete_bidirected(4)).verdict

    def test_single_vertex(self):
        assert is_strongly_connected(Digraph(1)).verdict


def cut_vertices(g: Digraph, root: int = 0, blocked=()) -> set[int]:
    return _articulation_vertices(g.n, g._out, g._in, root, blocked)


def first_miss(g: Digraph, root: int, blocked=()) -> int | None:
    return _search_miss(g.n, g._out, root, blocked)


class TestReachability:
    """The directed search behind every unreachable-pair witness."""

    def test_path_forward(self):
        assert first_miss(directed_path(3), 0) is None

    def test_path_sink(self):
        assert first_miss(directed_path(3), 2) == 0
        assert first_miss(directed_path(3), 2, blocked=(0, 1)) is None

    def test_cycle(self):
        assert first_miss(directed_cycle(3), 1) is None


class TestArticulationPoints:
    """The lowpoint pass behind every articulation-point witness."""

    def test_path_middle(self):
        assert cut_vertices(directed_path(3)) == {1}

    def test_cycle_has_none(self):
        assert cut_vertices(directed_cycle(4)) == set()

    def test_bowtie_shared_vertex(self):
        assert cut_vertices(bowtie()) == {2}
        assert cut_vertices(bowtie(), root=2) == {2}

    def test_two_vertices_none(self):
        assert cut_vertices(Digraph(2, [(0, 1)])) == set()

    def test_disconnected_components(self):
        # paths 0-1-2 and 3-4-5: the pass sees only the root's component
        g = Digraph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        assert cut_vertices(g, root=0) == {1}
        assert cut_vertices(g, root=3) == {4}
        assert cut_vertices(g, root=3, blocked=(5,)) == set()


class TestStronglyBiconnected:
    def test_directed_c4(self):
        assert is_strongly_biconnected(directed_cycle(4)).verdict

    def test_bowtie_articulation(self):
        report = is_strongly_biconnected(bowtie())
        assert not report.verdict
        assert report.witness.kind == ARTICULATION_POINT
        assert report.witness.vertices == (2,)

    def test_path_not_strongly_connected(self):
        report = is_strongly_biconnected(directed_path(3))
        assert not report.verdict
        assert report.witness.kind == UNREACHABLE_PAIR

    def test_single_vertex_convention(self):
        assert is_strongly_biconnected(Digraph(1)).verdict

    def test_two_vertex_conventions(self):
        assert is_strongly_biconnected(Digraph(2, [(0, 1), (1, 0)])).verdict
        assert not is_strongly_biconnected(Digraph(2, [(0, 1)])).verdict
        assert not is_strongly_biconnected(Digraph(2)).verdict

    @given(digraphs(min_n=1, max_n=6))
    def test_definition_equivalence(self, g):
        expected = is_strongly_connected(g).verdict and not any(
            disconnects(g, x) for x in range(g.n)
        )
        assert is_strongly_biconnected(g).verdict == expected


class TestSmallResiduals:
    """The general search alone yields the small-graph conventions."""

    def test_one_and_two_survivor_witnesses(self):
        # every digraph with n <= 4 and every blocked set leaving 1 or 2
        # vertices: one survivor passes; survivors u < v fail on the first
        # missing arc, (u, v) before (v, u), and pass when both are present
        checked = 0
        for n in range(1, 5):
            arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
            for mask in range(1 << len(arcs)):
                g = Digraph(n, [a for i, a in enumerate(arcs) if mask >> i & 1])
                for survivors in (1, 2):
                    for kept in combinations(range(n), survivors):
                        blocked = tuple(w for w in range(n) if w not in kept)
                        expected = None
                        if survivors == 2:
                            u, v = kept
                            for a, b in ((u, v), (v, u)):
                                if b not in g._out[a]:
                                    expected = Witness(UNREACHABLE_PAIR, (a, b))
                                    break
                        assert _strong_biconnectivity_witness(g, blocked) == expected
                        checked += 1
        assert checked == 1 + 4 * 3 + 64 * 6 + 4096 * 10


class TestKVsb:
    def test_k4(self):
        assert is_k_vsb(complete_bidirected(4), 3).verdict

    def test_k4_minus_arc_witness(self):
        g = complete_bidirected(4)
        g.remove_edge(0, 1)
        report = is_k_vsb(g, 3)
        assert not report.verdict
        assert report.witness.kind == VERTEX_CUT
        assert report.witness.vertices == (2, 3)

    def test_c5_not_2vsb(self):
        report = is_k_vsb(directed_cycle(5), 2)
        assert not report.verdict
        assert replay_witness(directed_cycle(5), report.witness)

    def test_too_few_vertices(self):
        with pytest.raises(TooFewVerticesError):
            is_k_vsb(directed_cycle(3), 3)

    def test_k_validated(self):
        with pytest.raises(ValueError):
            is_k_vsb(complete_bidirected(5), 4)

    def test_witness_is_minimal_size_and_lex_first(self):
        # C5 is strongly biconnected, so the scan reaches the singletons
        # and every one of them fails; lex order picks {0}
        report = is_k_vsb(directed_cycle(5), 3)
        assert not report.verdict
        assert report.witness.vertices == (0,)

    @given(digraphs(min_n=4, max_n=6))
    def test_hierarchy(self, g):
        if is_k_vsb(g, 3).verdict:
            assert is_k_vsb(g, 2).verdict
        if is_k_vsb(g, 2).verdict:
            assert is_strongly_biconnected(g).verdict

    @given(digraphs(min_n=4, max_n=6))
    def test_degree_lower_bound(self, g):
        if is_k_vsb(g, 3).verdict:
            for v in range(g.n):
                assert len(g._in[v]) >= 3
                assert len(g._out[v]) >= 3

    @given(digraphs(min_n=4, max_n=6))
    def test_false_witnesses_replay(self, g):
        for k in (1, 2, 3):
            report = is_k_vsb(g, k) if k > 1 else is_strongly_biconnected(g)
            if not report.verdict:
                assert replay_witness(g, report.witness)


def reaches(n, adj, src, dst, blocked) -> bool:
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


def enumerated_stays_k_vsb(g: Digraph, k: int, u: int, v: int) -> bool:
    """The enumeration form of the local test, kept as its reference:
    given that g plus the arc (u, v) is k-vsb, check every deletion set
    that keeps u and v with one search from u for v, plus a lowpoint pass
    when the arc (v, u) is absent (the only residuals that lost the arc;
    the reverse arc keeps their undirected view)."""
    n, out = g.n, g._out
    undirected_kept = u in out[v]
    others = [w for w in range(n) if w != u and w != v]
    for size in range(k):
        for subset in combinations(others, size):
            if not reaches(n, out, u, v, subset):
                return False
            if not undirected_kept and _articulation_vertices(
                n, out, g._in, u, subset
            ):
                return False
    return True


def reference_sweep(g, k, candidates, protected=frozenset(), seen=None):
    """The greedy sweep in its defining form, on a k-vsb g: each
    unprotected candidate goes when the enumeration reference says the
    graph stays k-vsb without it.  Returns the removals in order; seen
    collects (k, verdict, reverse arc present) of every test."""
    work = g.copy()
    removed = []
    for u, v in candidates:
        if (u, v) in protected:
            continue
        work.remove_edge(u, v)
        stays = enumerated_stays_k_vsb(work, k, u, v)
        if seen is not None:
            seen.add((k, stays, u in work._out[v]))
        if stays:
            removed.append((u, v))
        else:
            work.restore_edge(u, v)
    return removed


def assert_sweeps_match_reference(g, order, seed, seen) -> int:
    """minimal_k_vsb at every k g passes, and the backbone and two-phase
    when g is 3-vsb, remove what reference sweeps remove (the backbone
    inside the shortest 2-vsb prefix, found by bisection with is_k_vsb).
    Returns how many of these runs fell back to local tests."""
    candidates = extraction._ordered_candidates(g.edges(), order, seed)
    fallbacks = 0
    for k in (1, 2, 3):
        if g.n <= k or not is_k_vsb(g, k).verdict:
            continue
        result = minimal_k_vsb(g, k, order, seed)
        assert list(result.removed) == reference_sweep(g, k, candidates, seen=seen)
        fallbacks += result.stats.flow_tests > 0
    if g.n <= 3 or not is_k_vsb(g, 3).verdict:
        return fallbacks
    lo, hi = 0, g.m  # the prefix of length hi is 2-vsb, that of length lo not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if is_k_vsb(Digraph(g.n, candidates[:mid]), 2).verdict:
            hi = mid
        else:
            lo = mid
    prefix = candidates[:hi]
    dropped = reference_sweep(Digraph(g.n, prefix), 2, prefix, seen=seen)
    kept = frozenset(prefix) - frozenset(dropped)
    backbone = compute_2vsb_spanning(g, order, seed)
    assert list(backbone.removed) == [e for e in candidates if e not in kept]
    result = two_phase_3vsb(g, order, seed)
    assert result.protected == tuple(e for e in g.edges() if e in kept)
    assert list(result.removed) == reference_sweep(g, 3, candidates, kept, seen)
    fallbacks += backbone.stats.flow_tests > 0
    fallbacks += result.stats.flow_tests > backbone.stats.flow_tests
    return fallbacks


def check_local_tests(monkeypatch) -> list:
    """Make every local test the extractors run assert agreement with the
    enumeration reference; the returned list collects their verdicts."""
    checked = []

    def checked_stays_k_vsb(g, k, u, v):
        local = _stays_k_vsb(g, k, u, v)
        assert local == enumerated_stays_k_vsb(g, k, u, v), (g.edges(), k, u, v)
        checked.append(local)
        return local

    monkeypatch.setattr(extraction, "_stays_k_vsb", checked_stays_k_vsb)
    return checked


class TestLocalRemovability:
    """The sweep's per-candidate test agrees with the full predicate, the
    oracle and the enumeration reference."""

    def test_agrees_with_full_test_and_oracle(self):
        # every arc of sampled k-vsb digraphs, n=4..9 and k=1..3; the oracle
        # is consulted up to n=7, where it is still cheap
        rng = random.Random(4)
        seen = set()
        for n in range(4, 10):
            arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
            for _ in range(12):
                p = rng.uniform(0.45, 0.95)
                g = Digraph(n, [a for a in arcs if rng.random() < p])
                for k in range(1, min(n - 1, 3) + 1):
                    if not is_k_vsb(g, k).verdict:
                        continue
                    for u, v in g.edges():
                        g.remove_edge(u, v)
                        local = _stays_k_vsb(g, k, u, v)
                        assert local == is_k_vsb(g, k).verdict, (g.edges(), k, u, v)
                        if n <= 7:
                            assert local == oracle_k_vsb(g, k), (g.edges(), k, u, v)
                        seen.add((k, local, u in g._out[v]))
                        g.restore_edge(u, v)
        # both verdicts, with and without the reverse arc, at every k
        assert seen == {
            (k, local, rev)
            for k in (1, 2, 3)
            for local in (True, False)
            for rev in (True, False)
        }

    # k-vsb graphs with an arc (u, v) whose reverse is absent: removing it
    # keeps every residual strongly connected, but one residual gains an
    # articulation point, so only the lowpoint pass can reject it
    ARTICULATION_ONLY = [
        (1, 5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (0, 3)], 0, 3),
        (2, 5, [(0, 1), (0, 2), (0, 3), (1, 0), (1, 2), (1, 3), (1, 4),
                (2, 0), (2, 4), (3, 0), (3, 1), (4, 0), (4, 2), (4, 3)], 1, 2),
        (3, 6, [(0, 2), (0, 3), (0, 4), (0, 5), (1, 0), (1, 3), (1, 5),
                (2, 0), (2, 1), (2, 3), (2, 4), (2, 5), (3, 0), (3, 1),
                (3, 2), (3, 4), (3, 5), (4, 0), (4, 2), (4, 3), (4, 5),
                (5, 0), (5, 1), (5, 2), (5, 3)], 4, 5),
    ]

    @pytest.mark.parametrize("k,n,edges,u,v", ARTICULATION_ONLY)
    def test_articulation_point_without_reverse_arc(self, k, n, edges, u, v):
        g = Digraph(n, edges)
        assert is_k_vsb(g, k).verdict and u not in g._out[v]
        g.remove_edge(u, v)
        others = [w for w in range(n) if w not in (u, v)]
        for size in range(k):
            for subset in combinations(others, size):
                assert first_miss(g, u, subset) is None
                assert _search_miss(n, g._in, u, subset) is None
        report = is_k_vsb(g, k)
        assert not report.verdict
        assert cut_vertices(g, u, report.witness.vertices)
        assert not _stays_k_vsb(g, k, u, v)

    def test_two_survivors_need_both_arcs(self):
        # at n = k+1 the residual that keeps only u and v has lost (u, v)
        for k in (1, 2, 3):
            g = complete_bidirected(k + 1)
            g.remove_edge(0, 1)
            assert not _stays_k_vsb(g, k, 0, 1)
            assert not is_k_vsb(g, k).verdict

    def test_agrees_with_enumeration_on_sweeps(self, monkeypatch):
        # every extractor on generated instances, in input and shuffled
        # order, removes exactly what the reference sweep removes; the
        # reference tests every candidate by enumeration
        checked = check_local_tests(monkeypatch)
        seen = set()
        for n in (10, 16, 20):
            g = generate(InstanceSpec(n, seed=1)).graph
            for order, seed in (("input", None), ("shuffle", n)):
                assert_sweeps_match_reference(g, order, seed, seen)
        assert seen == {
            (k, local, rev)
            for k in (1, 2, 3)
            for local in (True, False)
            for rev in (True, False)
        }
        assert checked  # some fallback ran, and its local tests agreed

    def test_fallback_sweeps_match_reference(self, monkeypatch):
        # small dense random digraphs, whose degree-only results often fail,
        # and the block ring, where they fail at k=3 in input order: the
        # fallback's removals and local tests agree with the reference
        checked = check_local_tests(monkeypatch)
        rng = random.Random(11)
        fallbacks = 0
        for n in range(5, 9):
            arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
            for _ in range(15):
                p = rng.uniform(0.6, 0.95)
                g = Digraph(n, [a for a in arcs if rng.random() < p])
                fallbacks += assert_sweeps_match_reference(g, "shuffle", n, set())
        assert fallbacks >= 20
        assert assert_sweeps_match_reference(block_ring(3), "input", None, set()) >= 3
        assert checked

    def test_two_path_counts_per_test(self, monkeypatch):
        # one test is at most two path counts into v with u blocked, the
        # undirected one only without the reverse arc, and no residual
        # check, at n = k+1 too: a fallback to enumeration fails here
        calls = []
        original = connectivity._disjoint_paths

        def counting(reverse, starts, t, need, blocked):
            calls.append((len(reverse), t, need, blocked))
            return original(reverse, starts, t, need, blocked)

        def forbidden(*args):
            raise AssertionError("residual check in a local test")

        monkeypatch.setattr(connectivity, "_disjoint_paths", counting)
        monkeypatch.setattr(connectivity, "_strong_biconnectivity_witness", forbidden)
        monkeypatch.setattr(connectivity, "_articulation_vertices", forbidden)
        seen = set()
        instance = generate(InstanceSpec(10, seed=1)).graph
        for g, k in [(instance, k) for k in (1, 2, 3)] + [
            (complete_bidirected(k + 1), k) for k in (1, 2, 3)
        ]:
            for u, v in g.edges():
                g.remove_edge(u, v)
                calls.clear()
                local = _stays_k_vsb(g, k, u, v)
                assert calls[0] == (1, v, k, (u,))
                if len(calls) == 2:
                    assert calls[1] == (2, v, k + 1, (u,))
                    assert u not in g._out[v]
                else:
                    assert len(calls) == 1
                    assert not local or u in g._out[v]
                seen.add((k, len(calls)))
                g.restore_edge(u, v)
        assert seen == {(k, c) for k in (1, 2, 3) for c in (1, 2)}


def first_failing_set(g: Digraph, k: int, blocked=()) -> tuple[int, ...] | None:
    """The enumeration form of k-vsb on g minus blocked: the first deletion
    set, by size and then lexicographically, that breaks strong
    biconnectivity, or None."""
    others = [w for w in range(g.n) if w not in blocked]
    for size in range(k):
        for subset in combinations(others, size):
            if _strong_biconnectivity_witness(g, tuple(blocked) + subset):
                return subset
    return None


def even_vsb_at_least(g: Digraph, k: int) -> bool:
    """_vsb_at_least(g, k, ()) decided by Even's test on both halves,
    never by dominators."""
    return _connectivity_at_least(g.n, _orientations(g, True), k, ()) and (
        g.n == k + 1
        or _connectivity_at_least(g.n, _orientations(g, False), k + 1, ())
    )


class _Pathless(_Table):
    """A table that keeps no paths, as for items whose paths are long."""

    keep = 0


def fan_cut(g: Digraph, views, starts, t, blocked) -> int:
    """Menger's bound by brute force: the fewest vertices other than t
    whose removal leaves no path from a start to t avoiding the blocked
    vertices, plus one for a start equal to t (a path nobody can cut)."""
    starts = set(starts) - set(blocked)
    if t in starts:
        return 1 + fan_cut(g, views, starts - {t}, t, blocked)
    free = [w for w in range(g.n) if w != t and w not in blocked]
    for size in range(len(free) + 1):
        for cut in combinations(free, size):
            seen = set(blocked) | set(cut)
            stack = [x for x in starts if x not in seen]
            seen.update(stack)
            while stack:
                x = stack.pop()
                for adj in views:
                    for y in adj[x]:
                        if y not in seen:
                            seen.add(y)
                            stack.append(y)
            if t not in seen:
                return size
    raise AssertionError("removing every other vertex always cuts t off")


def search_order(n: int, size: int, prefix: tuple[int, ...] = ()):
    """Every prefix and leaf of the witness search for a set of ``size``
    vertices (connectivity._first_cut), in the order it tests them, none
    skipped."""
    first = prefix[-1] + 1 if prefix else 0
    for x in range(first, n - size + len(prefix) + 1):
        yield prefix + (x,)
        if len(prefix) + 1 < size:
            yield from search_order(n, size, prefix + (x,))


def assert_search_agrees(g: Digraph, k: int, tables) -> int:
    """Run is_k_vsb's size tests on g with ``tables`` as it does, then
    every prefix and leaf test of its witness search on the same tables,
    which the passing size test settled; each verdict must be the
    enumeration's, and each table's index must hold after them
    (assert_index_holds), whether a prefix test indexed it or not.
    Returns the witness size."""
    size = next(
        (s for s in range(k - 1, 0, -1) if _vsb_at_least(g, s, (), tables)), 0
    )
    directed, undirected = tables
    assert directed.settled >= size and undirected.settled >= size + (size > 0)
    for blocked in search_order(g.n, size):
        level = size - len(blocked) + 1
        passes = first_failing_set(g, level, blocked) is None
        assert _vsb_at_least(g, level, blocked, tables) == passes, (
            g.edges(), k, blocked
        )
    for table in tables:
        assert_index_holds(table)
    return size


def assert_visits_sound(g: Digraph, k: int, tables) -> int:
    """Run is_k_vsb's size tests on g with ``tables``, then its witness
    search's prefix and leaf tests in order; before each test, at each
    level K the table has settled, every fan of the residual that
    _Table.fans leaves out must have K disjoint paths there, counted
    afresh.  Returns the number of fans left out."""
    size = next(
        (s for s in range(k - 1, 0, -1) if _vsb_at_least(g, s, (), tables)), 0
    )
    skipped = 0
    for blocked in search_order(g.n, size):
        level = size - len(blocked) + 1
        survivors = [v for v in range(g.n) if v not in blocked]
        for directed, table in zip((True, False), tables):
            K = level + (not directed)
            if K > table.settled or len(survivors) <= K:
                continue
            orientations = connectivity._orientations(g, directed)
            visited = table.fans(survivors[K], blocked, len(orientations))
            for t in survivors[K:]:
                for side, (_, reverse) in enumerate(orientations):
                    if (t, side, ()) in visited:
                        continue
                    skipped += 1
                    paths = _disjoint_paths(reverse, range(t), t, K, blocked)
                    assert paths >= K, (g.edges(), blocked, K, t, side)
        _vsb_at_least(g, level, blocked, tables)
    return skipped


def recorded_tables(g: Digraph, k: int, base=_Table):
    """is_k_vsb(g, k) with tables of class ``base``, and those tables."""
    tables = []

    class Recording(base):
        def __init__(self):
            super().__init__()
            tables.append(self)

    with mock.patch.object(connectivity, "_Table", Recording):
        return is_k_vsb(g, k), tables


def assert_index_holds(table: _Table) -> None:
    """Before the first _Table.fans call, or since settled last rose,
    nothing is listed; from then on every fan counted at most settled
    with kept paths is listed under each vertex of them, every such fan
    whose paths were dropped is loose, and no pair is listed.  A fan
    counted above settled holds a spare path and may be unlisted."""
    if table.on is None:
        assert not table.loose
        return
    listed = {v: set(fans) for v, fans in table.on.items()}
    for item, (count, _, paths) in table.counts.items():
        if item[2] or count > table.settled:
            continue  # a pair, or a fan with a spare path
        if paths is None:
            assert item in table.loose, item
        else:
            assert all(item in listed.get(v, ()) for v in paths), item
    for fans in (table.loose, *listed.values()):
        assert all(own == () for _, _, own in fans)


def counted_is_k_vsb(monkeypatch, g: Digraph, k: int):
    """is_k_vsb(g, k), with the number of _disjoint_paths calls and of
    _Table.count visits it made."""
    calls, visits = [], []
    disjoint_paths, count = connectivity._disjoint_paths, _Table.count

    def counting_paths(*args):
        calls.append(args)
        return disjoint_paths(*args)

    def counting_visits(table, *args):
        visits.append(args)
        return count(table, *args)

    monkeypatch.setattr(connectivity, "_disjoint_paths", counting_paths)
    monkeypatch.setattr(_Table, "count", counting_visits)
    return is_k_vsb(g, k), len(calls), len(visits)


def load_bench_compare():
    """tools/bench_compare.py as a module, for the instances it builds."""
    spec = importlib.util.spec_from_file_location(
        "bench_compare", Path(__file__).resolve().parents[1] / "tools" / "bench_compare.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def own_counter():
    """A stand-in for connectivity._Own that records each instance it
    makes, one per count that sets up augmenting searches, and that
    record."""
    made = []

    class CountedOwn(connectivity._Own):
        def __init__(self):
            super().__init__()
            made.append(self)

    return CountedOwn, made


def held_paths(reverse, starts, t, blocked, pred) -> int:
    """The number of paths into t that pred holds (plus one for a start
    equal to t), after checking that they run along the view from
    distinct unblocked starts and share no vertex but t."""
    succ = {x: v for v, x in pred.items() if x != connectivity._SOURCE}
    heads = [v for v, x in pred.items() if x == connectivity._SOURCE]
    # every vertex has one predecessor, and none is the predecessor of two
    assert len(succ) + len(heads) == len(pred)
    assert t not in pred and not set(pred) & set(blocked)
    walked = 0
    for v in heads:
        assert v in starts
        while True:
            walked += 1
            assert walked <= len(pred)
            nxt = succ.get(v, t)
            assert any(v in adj[nxt] for adj in reverse)
            if nxt == t:
                break
            v = nxt
    assert walked == len(pred)
    return len(heads) + (t in starts)


def dequeue_time_paths(reverse, starts, t, need, blocked, pred=None) -> int:
    """_disjoint_paths with the augmenting search it had before it stopped
    at the first start it reaches: this one queues exits as well as
    entries, and tests a start only when it dequeues the exit before it.
    The reference for the paths that the early stop must find.  The free
    passes before the searches are _disjoint_paths's: the direct arcs,
    then the two-arc paths."""
    source = connectivity._SOURCE
    if pred is None:
        pred = {}
    succ = {}
    count = 1 if t in starts else 0
    for adj in reverse:
        for y in adj[t]:
            if count >= need:
                return count
            if y in starts and y not in pred and y not in blocked:
                pred[y] = source
                succ[y] = t
                count += 1
    for adj in reverse:
        for y in adj[t]:
            if count >= need:
                return count
            if y in pred or y in blocked:
                continue
            s = next((s for before in reverse for s in before[y]
                      if s in starts and s != t
                      and s not in pred and s not in blocked), None)
            if s is not None:
                pred[s], pred[y] = source, s
                succ[s], succ[y] = y, t
                count += 1
    sink = 2 * t
    while count < need:
        after = {sink: sink}
        queue = [sink]
        found = -1
        for node in queue:
            v = node >> 1
            if node & 1:
                p = 2 * succ[v] if v in pred else node - 1
                if p in after:
                    continue
                after[p] = node
                u = p >> 1
                if u in starts and pred.get(u) != source:
                    found = p
                    break
                queue.append(p)
                continue
            if v in pred and node + 1 not in after:
                after[node + 1] = node
                queue.append(node + 1)
            for adj in reverse:
                for y in adj[v]:
                    p = 2 * y + 1
                    if p not in after and y not in blocked:
                        after[p] = node
                        queue.append(p)
        if found == -1:
            return count
        added, removed = [], []
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
        pred[found >> 1] = source
        count += 1
    return count


class TestDisjointPaths:
    """The unit-vertex-capacity path count equals Menger's cut bound."""

    def test_same_paths_as_dequeue_time_search(self):
        # stopping each augmenting search at the first start it reaches
        # changes its work, not its paths: every count equals the
        # dequeue-time search's and leaves pred the same, item for item
        # and in order; fans and pairs in each view, with random blocked
        # vertices
        rng = random.Random(15)
        calls = searched = sink_reached = 0
        for _ in range(150):
            n = rng.randint(3, 12)
            p = rng.uniform(0.15, 0.8)
            arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
            g = Digraph(n, [arc for arc in arcs if rng.random() < p])
            for view, reverse in (
                ((g._out,), (g._in,)),
                ((g._in,), (g._out,)),
                ((g._out, g._in), (g._out, g._in)),
            ):
                t = rng.randrange(n)
                others = [w for w in range(n) if w != t]
                a = rng.choice(others)
                blocked = tuple(rng.sample(others, rng.randint(0, 2)))
                # a fan, and a pair whose starts are a's out-neighbours, t
                # among them when the arc (a, t) exists
                pair = set().union(*(adj[a] for adj in view))
                fan_and_pair = (
                    (range(t), blocked),
                    (pair, tuple(set(blocked) - {a}) + (a,)),
                )
                for starts, avoid in fan_and_pair:
                    ends = set().union(*(adj[t] for adj in reverse))
                    direct = (t in starts) + sum(
                        y in starts and y not in avoid for y in ends
                    )
                    for need in (1, 2, 3, 4):
                        new, old = {}, {}
                        got = _disjoint_paths(reverse, starts, t, need, avoid, new)
                        want = dequeue_time_paths(reverse, starts, t, need, avoid, old)
                        assert (got, list(new.items())) == (want, list(old.items()))
                        calls += 1
                        searched += got > direct
                        sink_reached += t in starts and got > 1
        assert calls == 3600 and searched > 100 and sink_reached > 100

    def test_same_paths_on_detours(self):
        # random graphs rarely make a search walk back along a path over
        # more than one vertex, which is when an entry is reached through
        # its vertex's own exit; these do: start 0 has the shortest path
        # 0 -> 1 -> ... -> L -> t, each other start reaches a vertex i of
        # it over more than i arcs, and detours lead from vertices i < L
        # to t over at least as many arcs as the path takes from i
        rng = random.Random(3)
        for _ in range(600):
            L = rng.randint(2, 5)
            last = t = L + 1
            arcs = [(i, i + 1) for i in range(L + 1)]
            starts = [0]
            hooks = [(rng.randint(1, L), True) for _ in range(rng.randint(1, 3))]
            hooks += [(rng.randint(0, L - 1), False) for _ in range(rng.randint(1, 3))]
            for i, is_start in hooks:
                last += 1
                if is_start:
                    starts.append(last)
                    hops = rng.randint(i + 1, i + 2)
                else:
                    arcs.append((i, last))
                    hops = rng.randint(L - i, L - i + 2)
                arcs += [(last + h, last + h + 1) for h in range(hops - 1)]
                last += hops - 1
                arcs.append((last, i) if is_start else (last, t))
            n = last + 1
            noise = rng.randint(0, 3)
            arcs += [(rng.randrange(n), rng.randrange(n)) for _ in range(noise)]
            g = Digraph(n, sorted({(u, v) for u, v in arcs if u != v}))
            for need in (2, 3, 4):
                new, old = {}, {}
                got = _disjoint_paths((g._in,), starts, t, need, (), new)
                want = dequeue_time_paths((g._in,), starts, t, need, (), old)
                assert (got, list(new.items())) == (want, list(old.items())), (
                    g.edges(), starts, t, need
                )

    def test_matches_brute_force_cut(self):
        rng = random.Random(11)
        searched = 0
        for _ in range(300):
            n = rng.randint(3, 7)
            arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
            p = rng.uniform(0.2, 0.7)
            g = Digraph(n, [a for a in arcs if rng.random() < p])
            t = rng.randrange(n)
            others = [w for w in range(n) if w != t]
            blocked = tuple(rng.sample(others, rng.randint(0, 1)))
            starts = rng.sample(range(n), rng.randint(1, n))
            for views, reverse in (
                ((g._out,), (g._in,)),
                ((g._in,), (g._out,)),
                ((g._out, g._in), (g._out, g._in)),
            ):
                cut = fan_cut(g, views, starts, t, blocked)
                for need in (1, 2, 3, 4):
                    got = _disjoint_paths(reverse, starts, t, need, blocked)
                    assert got == min(need, cut), (g.edges(), starts, t, blocked)
                direct = sum(
                    1 for x in set(starts) - set(blocked)
                    if x == t or any(t in adj[x] for adj in views)
                )
                searched += cut > direct
        # the augmenting searches, not the direct arcs, decide many counts
        assert searched > 100

    def test_two_arc_paths_keep_the_count(self):
        # a call takes paths s -> y -> t after the direct arcs and before
        # any augmenting search, with a pred dict or without; its count
        # equals Menger's bound either way: random
        # digraphs, the three views, fans and pairs, blocked vertices and
        # needs 1-5.  Of the counts that reach their cap beyond the direct
        # arcs, the two-arc paths alone reach it in a large share, with no
        # search set up (no _Own made).  Two fixed graphs make such counts
        # whatever the draws: in the bidirected K(3,3) every start on t's
        # side reaches t over two arcs only, and in the bidirected 6-cycle
        # the far starts need a search
        CountedOwn, searches = own_counter()
        tally = {"open": 0, "decided": 0}

        @settings(max_examples=150, deadline=None)
        @given(digraphs(min_n=2, max_n=7), st.data())
        def check(g, data):
            shift = data.draw(st.integers(1, g.n - 1))
            drawn = data.draw(st.lists(st.integers(0, g.n - 1), max_size=2))
            for t in range(g.n):
                a = (t + shift) % g.n
                blocked = tuple({b for b in drawn if b != t})
                check_at(g, t, a, blocked)

        def check_at(g, t, a, blocked):
            for view, reverse in (
                ((g._out,), (g._in,)),
                ((g._in,), (g._out,)),
                ((g._out, g._in), (g._out, g._in)),
            ):
                # a fan, and a pair whose starts are a's out-neighbours, t
                # among them when the arc (a, t) exists
                pair = set().union(*(adj[a] for adj in view))
                for starts, avoid in (
                    (range(t), blocked),
                    (pair, tuple(set(blocked) - {a}) + (a,)),
                ):
                    cut = fan_cut(g, view, starts, t, avoid)
                    direct = (t in starts) + len({
                        y for adj in reverse for y in adj[t]
                        if y in starts and y not in avoid
                    })
                    for need in range(1, 6):
                        searches.clear()
                        got = _disjoint_paths(reverse, starts, t, need, avoid)
                        searched = bool(searches)
                        kept = _disjoint_paths(reverse, starts, t, need, avoid, {})
                        assert got == kept == min(need, cut), (
                            g.edges(), starts, t, need, avoid
                        )
                        if direct < need <= cut:
                            tally["open"] += 1
                            tally["decided"] += not searched

        k33 = [(u, v) for u in range(3) for v in range(3, 6)]
        ring = [(i, (i + 1) % 6) for i in range(6)]
        with mock.patch.object(connectivity, "_Own", CountedOwn):
            check()
            for arcs in (k33, ring):
                g = Digraph(6, arcs + [(v, u) for u, v in arcs])
                for t in range(g.n):
                    for a in range(g.n):
                        if a != t:
                            check_at(g, t, a, ())
        assert tally["open"] >= 50, tally
        assert tally["decided"] >= 0.6 * tally["open"], tally

    def test_table_counts_match_brute_force_cut(self):
        # every count _Table.count makes on g agrees with Menger's bound
        # (fan_cut): fresh counts, recounts at a higher level, which never
        # fall below the count they replace, and counts of g itself
        # (nothing blocked), which take a spare path from the free
        # passes.  Below its cap K+|P| a count is the bound; at its cap it
        # is at most the bound, and beyond it by one path at most and only
        # with nothing blocked.  The kept paths are disjoint paths of the item.  A count sets up
        # an augmenting search (one _Own) exactly when the same count
        # without a spare path does, and one that takes a spare path sets
        # up none, so a spare path never comes from a search.  Random
        # digraphs, pairs and fans in the three views, needs 1-5, with
        # and without blocked vertices, in either order
        CountedOwn, searches = own_counter()
        tally = {"spare": 0, "recounted": 0, "blocked": 0}

        def check_count(g, table, item, view, reverse, starts, K, blocked):
            t, _, own = item
            found = table.counts.get(item)
            searches.clear()
            count, cut = table.count(item, reverse, starts, K, blocked)
            spent = len(searches)
            if table.counts.get(item) is found:
                return  # decided from the count it had
            count, capped, paths = table.counts[item]
            need = min(K + len(blocked), len(starts))
            bound = fan_cut(g, view, starts, t, own)
            assert count <= bound, item
            assert count >= min(need, bound), item
            assert found is None or count >= found[0], item
            assert count <= need + (not blocked), item
            assert count <= need or not spent, item
            assert capped == (need <= count < len(starts)), item
            if paths is not None:
                assert held_paths(reverse, starts, t, own, paths) == count
            assert cut == connectivity._cut(paths, blocked)
            searches.clear()
            assert _disjoint_paths(reverse, starts, t, need, own, {}) == min(
                need, bound)
            assert spent == len(searches), item
            tally["spare"] += count > need
            tally["recounted"] += found is not None
            tally["blocked"] += bool(blocked)

        def check_graph(g, pick_a, pick_blocked, steps):
            # the fan and the pair into each t of each orientation of g:
            # pick_a(t) is the pair's vertex a < t, pick_blocked(others)
            # the blocked set, and each item gets a table that counts at
            # the levels and blocked sets that steps(blocked) lists
            for directed in (True, False):
                orientations = connectivity._orientations(g, directed)
                for side, (view, reverse) in enumerate(orientations):
                    for t in range(1, g.n):
                        a = pick_a(t)
                        others = [w for w in range(g.n) if w not in (a, t)]
                        blocked = pick_blocked(others) if others else ()
                        pair = set().union(*(adj[a] for adj in view))
                        for item, starts in (
                            ((t, side, ()), range(t)),
                            ((t, side, (a,)), pair),
                        ):
                            table = _Table()
                            for K, P in steps(blocked):
                                check_count(g, table, item, view, reverse,
                                            starts, K, P)

        @settings(max_examples=120, deadline=None)
        @given(digraphs(min_n=2, max_n=7), st.data())
        def check(g, data):
            def steps(blocked):
                for K in sorted(data.draw(st.lists(
                        st.integers(1, 5), min_size=1, max_size=3))):
                    for P in data.draw(st.permutations([(), blocked])):
                        yield K, P

            check_graph(
                g,
                lambda t: data.draw(st.integers(0, t - 1)),
                lambda others: tuple(data.draw(st.lists(
                    st.sampled_from(others), max_size=2, unique=True))),
                steps,
            )

        with mock.patch.object(connectivity, "_Own", CountedOwn):
            check()
            # fixed graphs make every tallied case occur whatever the
            # draws: in a complete bidirected graph a count of g has spare
            # direct arcs, and the levels 1-5 ask for more paths in turn
            for n in (5, 6, 7):
                check_graph(
                    complete_bidirected(n),
                    lambda t: t - 1,
                    lambda others: tuple(others[:2]),
                    lambda blocked: [
                        (K, P) for K in range(1, 6) for P in ((), blocked)
                    ],
                )
        assert min(tally.values()) >= 50, tally
        # small random fans rarely need a search with more paths left; here
        # both paths into 2 run over three arcs, so the count of g searches
        # for one path and stops there, capped, without a spare
        g = Digraph(7, [(0, 3), (3, 4), (4, 2), (1, 5), (5, 6), (6, 2)])
        table = _Table()
        assert table.count((2, 0, ()), (g._in,), range(2), 1, ()) == (1, 0)
        assert table.counts[2, 0, ()][:2] == (1, True)

    def test_augmenting_path_reroutes_a_path(self):
        # starts 0 and 1, t = 4: 1 can only go through 2, so when the
        # first search sends 0 through 2 the second must reroute it via 3
        g = Digraph(5, [(0, 2), (2, 4), (1, 2), (0, 3), (3, 4)])
        assert _disjoint_paths((g._in,), [0, 1], 4, 4, ()) == 2
        assert _disjoint_paths((g._in,), [0, 1], 4, 4, (3,)) == 1

    def test_augmenting_path_frees_a_vertex(self):
        # starts 0 and 4, t = 3: the shortest path 0-1-2-3 goes first; 4
        # reaches t only through 2 (via 5 and 6), so the second search must
        # take 2 over and free 1 altogether, sending 0 along 7-8-9
        g = Digraph(10, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 2),
                         (0, 7), (7, 8), (8, 9), (9, 3)])
        assert _disjoint_paths((g._in,), [0, 4], 3, 4, ()) == 2


class TestMengerVerdict:
    """The Menger-form verdict and its witness search agree with the
    enumeration of every deletion set."""

    def test_agrees_with_enumeration(self):
        # k=1..3 at n=8..12 over a range of densities, with blocked sets of
        # size 0-2 as the witness search uses them; every false verdict
        # reports the enumeration's witness
        rng = random.Random(8)
        seen = set()
        for n in range(8, 13):
            arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
            for _ in range(30):
                p = rng.uniform(0.3, 0.95)
                g = Digraph(n, [a for a in arcs if rng.random() < p])
                for k in (1, 2, 3):
                    expected = first_failing_set(g, k)
                    report = is_k_vsb(g, k)
                    assert report.verdict == (expected is None), (g.edges(), k)
                    if expected is not None:
                        assert report.witness == Witness(VERTEX_CUT, expected)
                    seen.add((k, -1 if expected is None else len(expected)))
                    for size in (1, 2):
                        blocked = tuple(sorted(rng.sample(range(n), size)))
                        assert _vsb_at_least(g, k, blocked) == (
                            first_failing_set(g, k, blocked) is None
                        ), (g.edges(), k, blocked)
        assert seen == {(k, s) for k in (1, 2, 3) for s in range(-1, k)}
        # residuals with exactly k+1 survivors, where the undirected bound
        # does not apply
        verdicts = set()
        for n in range(5, 9):
            arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
            for _ in range(30):
                p = rng.uniform(0.7, 1.0)
                g = Digraph(n, [a for a in arcs if rng.random() < p])
                for k in (1, 2, 3):
                    blocked = tuple(sorted(rng.sample(range(n), n - k - 1)))
                    verdict = _vsb_at_least(g, k, blocked)
                    assert verdict == (
                        first_failing_set(g, k, blocked) is None
                    ), (g.edges(), k, blocked)
                    verdicts.add((k, verdict))
        assert verdicts == {(k, v) for k in (1, 2, 3) for v in (True, False)}

    def test_exhaustive_at_n_equals_k_plus_one(self):
        # every digraph on k+1 vertices: verdict and witness are the
        # enumeration's
        checked = 0
        for k in (1, 2, 3):
            n = k + 1
            arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
            for mask in range(1 << len(arcs)):
                g = Digraph(n, [a for i, a in enumerate(arcs) if mask >> i & 1])
                expected = first_failing_set(g, k)
                report = is_k_vsb(g, k)
                assert report.verdict == (expected is None), (g.edges(), k)
                if expected is not None:
                    assert report.witness == Witness(VERTEX_CUT, expected)
                checked += 1
        assert checked == 4 + 64 + 4096

    @settings(max_examples=150, deadline=None)
    @given(digraphs(min_n=4, max_n=9))
    def test_witness_matches_oracle(self, g):
        # the witness of a false verdict is the first set, by size and
        # then lexicographically, whose deletion the brute-force oracle
        # finds not strongly biconnected; also on the near-miss of the
        # last vertex, whose size-2 witness comes late in the order
        graphs = [g]
        if len(g._in[g.n - 1]) >= 2:
            graphs.append(near_miss(g, g.n - 1))
        for h in graphs:
            out, inn = _arc_masks(h.n, h.edges())
            everyone = (1 << h.n) - 1
            for k in range(1, min(3, h.n - 1) + 1):
                first = next((
                    cut
                    for size in range(k)
                    for cut in combinations(range(h.n), size)
                    if not _sb_bruteforce(
                        out, inn, everyone & ~sum(1 << v for v in cut))
                ), None)
                report = is_k_vsb(h, k)
                assert report.witness == (
                    None if first is None else Witness(VERTEX_CUT, first)
                ), (h.edges(), k)

    @pytest.mark.parametrize("n", [8, 11])
    def test_late_size_two_witness(self, n):
        # the last vertex keeps only its in-arcs from n-3 and n-2, so every
        # pair before (n-3, n-2) passes and the pruned search must reach it
        g = complete_bidirected(n)
        for x in range(n - 3):
            g.remove_edge(x, n - 1)
        report = is_k_vsb(g, 3)
        assert report.witness == Witness(VERTEX_CUT, (n - 3, n - 2))
        assert first_failing_set(g, 3) == (n - 3, n - 2)
        assert is_k_vsb(g, 2).verdict

    def test_shared_counts_agree_with_enumeration(self):
        # a false verdict counts each of g's items once (_Table) and each
        # later test recounts only items whose paths its blocked vertices
        # cut; every such test, at each level K with up to k-K blocked
        # vertices, agrees with the enumeration, and so does the witness,
        # also where the table kept no paths (as for long ones).  Half
        # the graphs are near-misses of vertex 0, whose size-2 witness
        # comes late in the order
        rng = random.Random(12)
        seen = set()
        late = 0
        for n in range(8, 13):
            arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
            for trial in range(16):
                p = rng.uniform(0.3, 0.95)
                g = Digraph(n, [a for a in arcs if rng.random() < p])
                if trial % 2 and len(g._in[0]) >= 2:
                    g = near_miss(g, 0)
                for k in (1, 2, 3):
                    expected = first_failing_set(g, k)
                    report = is_k_vsb(g, k)
                    assert report.verdict == (expected is None), (g.edges(), k)
                    if expected is None:
                        continue
                    assert report.witness == Witness(VERTEX_CUT, expected)
                    seen.add((k, len(expected)))
                    late += len(expected) == 2 and expected[0] >= n // 2
                    both = [(table(), table()) for table in (_Table, _Pathless)]
                    for K in range(1, k + 1):
                        for size in range(k - K + 1):
                            for blocked in combinations(range(n), size):
                                passes = first_failing_set(g, K, blocked) is None
                                for tables in both:
                                    assert (
                                        _vsb_at_least(g, K, blocked, tables) == passes
                                    ), (g.edges(), k, K, blocked)
                    # the same tests in the witness search's order, where a
                    # settled table visits only the counts a prefix can cut
                    for table in (_Table, _Pathless):
                        size = assert_search_agrees(g, k, (table(), table()))
                        assert size == len(expected)
        assert seen == {(k, s) for k in (1, 2, 3) for s in range(k)}
        assert late >= 10
        # the K6-block ring is 3-vsb, so its size tests settle at level 2;
        # cut off a vertex of it, and its witness has size 2
        ring = block_ring(3)
        for g, size in ((ring, 2), (near_miss(ring, 0), 2)):
            for table in (_Table, _Pathless):
                assert assert_search_agrees(g, 3, (table(), table())) == size

    @given(digraphs(min_n=3, max_n=7))
    def test_table_index_after_false_verdict(self, g):
        # after a false verdict, each table lists its fans as
        # assert_index_holds says, whether it kept their paths or not, also
        # on the near-miss of the last vertex, whose fans the witness search
        # must visit.  The fans are indexed at the first _Table.fans call,
        # which only a prefix or leaf test makes; a table that none made
        # lists nothing yet, and indexing it then lists every fan
        graphs = [g]
        if len(g._in[g.n - 1]) >= 2:
            graphs.append(near_miss(g, g.n - 1))
        for h in graphs:
            for k in range(1, min(3, h.n - 1) + 1):
                for base in (_Table, _Pathless):
                    report, tables = recorded_tables(h, k, base)
                    assert len(tables) == 2 * (not report.verdict)
                    for table in tables:
                        assert_index_holds(table)
                        table.fans(h.n, (), 1)
                        assert_index_holds(table)

    def test_visit_list_leaves_out_only_passing_fans(self):
        # Even's test with a settled table visits only the fans
        # _Table.fans lists; every fan it leaves out must pass on the
        # residual, which a check of verdicts alone would miss where a
        # skipped fan happens to pass.  Half the graphs are near-misses of
        # a late vertex, whose fans the witness search must visit
        rng = random.Random(15)
        skipped = 0
        graphs = [block_ring(3), near_miss(block_ring(3), 15)]
        for n in range(8, 13):
            arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
            for trial in range(4):
                p = rng.uniform(0.5, 0.95)
                g = Digraph(n, [a for a in arcs if rng.random() < p])
                v = rng.randrange(n // 2, n)
                if trial % 2 and len(g._in[v]) >= 2:
                    g = near_miss(g, v)
                graphs.append(g)
        for g in graphs:
            skipped += assert_visits_sound(g, 3, (_Table(), _Table()))
        assert skipped > 1000

    def test_index_follows_a_rising_settled(self):
        # an index made at settled = s leaves out the fans counted at s+1;
        # once a passing test raises settled to s+1, one deleted vertex
        # can cut such a fan below the level, so the index is made again.
        # A level-1 pass, an index, a level-2 pass, then level-2 tests
        # with one vertex blocked, each checked against the enumeration
        rng = random.Random(26)
        graphs = [near_miss(complete_bidirected(8), 7), block_ring(3)]
        while len(graphs) < 8:
            n = rng.randrange(7, 11)
            g = Digraph(n, [(u, v) for u in range(n) for v in range(n)
                            if u != v and rng.random() < 0.7])
            v = rng.randrange(n // 2, n)
            if len(g._in[v]) >= 2:
                g = near_miss(g, v)
                if first_failing_set(g, 2) is None:
                    graphs.append(g)
        failing = 0
        for g in graphs:
            for base in (_Table, _Pathless):
                tables = (base(), base())
                assert _vsb_at_least(g, 1, (), tables)
                for table, sides in zip(tables, (2, 1)):
                    table.fans(g.n, (), sides)
                    assert table.on is not None
                assert _vsb_at_least(g, 2, (), tables)
                assert [table.settled for table in tables] == [2, 3]
                for x in range(g.n):
                    passes = first_failing_set(g, 2, (x,)) is None
                    assert _vsb_at_least(g, 2, (x,), tables) == passes, (
                        g.edges(), x)
                    failing += not passes
                for table in tables:
                    assert_index_holds(table)
        assert failing >= 10

    def test_tests_beyond_the_spare_path_visit_every_fan(self, monkeypatch):
        # a spare path covers one blocked vertex beyond the settled level
        # s; a test at level K <= s that asks g for K+|P| > s+1 paths walks
        # every fan of the residual through the table, as a test above s
        # does, while one at K+|P| = s+1 visits only the fans it can cut:
        # none here, since every fan of the complete graph has a spare path
        n = 8
        g = complete_bidirected(n)
        tables = (_Table(), _Table())
        assert _vsb_at_least(g, 2, (), tables)
        assert [table.settled for table in tables] == [2, 3]
        visits = []
        count = _Table.count

        def recording(table, item, *args):
            if not item[2]:
                visits.append((tables.index(table), item))
            return count(table, item, *args)

        monkeypatch.setattr(_Table, "count", recording)
        for K, blocked, walks in (
            (1, (0, 1), False),
            (1, (0, 1, 2), True),
            (2, (0, 1), True),
            (1, (3, 5, 6, 7), True),
        ):
            visits.clear()
            assert first_failing_set(g, K, blocked) is None
            assert _vsb_at_least(g, K, blocked, tables)
            survivors = [v for v in range(n) if v not in blocked]
            every = {
                (0, (t, side, ())) for t in survivors[K:] for side in (0, 1)
            } | {(1, (t, 0, ())) for t in survivors[K + 1:]}
            assert set(visits) == (every if walks else set()), (K, blocked)

    def test_prefix_tests_visit_no_spare_fan(self, monkeypatch):
        # no prefix or leaf test of the witness search visits a fan whose
        # count on g is above settled: it asks K+|P| <= settled+1 paths of
        # g, and its blocked vertices cut at most |P| of them.  On the
        # perfbench check near-miss, 93 of the directed table's 96 fans
        # and 46 of the undirected table's 47 hold such a spare path
        tool = load_bench_compare()
        count = _Table.count
        visited = []

        def recording(table, item, reverse, starts, K, blocked):
            if blocked and not item[2]:
                known = table.counts.get(item, (0,))[0]
                visited.append(known <= table.settled)
            return count(table, item, reverse, starts, K, blocked)

        monkeypatch.setattr(_Table, "count", recording)
        for g, cut in (
            (tool.build("check_n50_near_miss", vsbgraph), (12, 13)),
            (near_miss(generate(InstanceSpec(50, 800, 1)).graph, 7), (45, 48)),
            (near_miss(generate(InstanceSpec(100, seed=1)).graph, 7), (78, 87)),
        ):
            visited.clear()
            assert is_k_vsb(g, 3).witness == Witness(VERTEX_CUT, cut)
            assert visited and all(visited), cut

    def test_near_miss_counts_once(self, monkeypatch):
        # the n=50 near-miss of tests/test_cli.py: with one full Even's test
        # per prefix and leaf, is_k_vsb(near, 3) made 7,143 path counts;
        # walking the whole shared table in each test, it made 327 and
        # visited the table 6,981 times.  The indexed table visited it 876
        # times.  With the two-arc paths in the table's counts and a spare
        # path on g, it made 183 counts and 885 visits; leaving the fans
        # with a spare path out of the index, it makes 183 and 396.  Both
        # numbers are exact, since a search that found other paths would
        # keep other paths and visit or recount other items
        near = near_miss(generate(InstanceSpec(50, 800, 1)).graph, 7)
        report, calls, visits = counted_is_k_vsb(monkeypatch, near, 3)
        assert report.witness == Witness(VERTEX_CUT, (45, 48))
        assert (calls, visits) == (183, 396)

    def test_true_verdict_counts(self, monkeypatch):
        # the true verdict of the perfbench check instance: Even's test at
        # k=3 with no table, 152 path counts
        g = generate(InstanceSpec(50, 800, 100000)).graph
        report, calls, visits = counted_is_k_vsb(monkeypatch, g, 3)
        assert report.verdict and (calls, visits) == (152, 0)

    def test_late_witness_at_n100(self, monkeypatch):
        # recorded with one full Even's test per prefix and leaf, which
        # took about 0.4 s; vertex 7 keeps its in-arcs from 78 and 87.  A
        # walk over the whole shared table made 628 path counts and 25,662
        # table visits, and the indexed table 628 and 1,786.  With the
        # two-arc paths in the table's counts and a spare path on g, it
        # made 334 counts and 1,817 visits, and with the fans that hold a
        # spare path left out of the index it makes exactly 334 and 742
        near = near_miss(generate(InstanceSpec(100, seed=1)).graph, 7)
        report, calls, visits = counted_is_k_vsb(monkeypatch, near, 3)
        assert report.witness == Witness(VERTEX_CUT, (78, 87))
        assert (calls, visits) == (334, 742)

    @pytest.mark.parametrize("n, cut", [(200, (171, 187)), (400, (378, 390))])
    def test_late_witness_at_scale(self, n, cut):
        # recorded with one full Even's test per prefix and leaf (2.8 s and
        # 15 s), where the indexed table saves the most
        near = near_miss(generate(InstanceSpec(n, seed=1)).graph, 7)
        assert is_k_vsb(near, 3).witness == Witness(VERTEX_CUT, cut)

    def test_tables_keep_memory_linear(self):
        # each fan into t of the reversed directed cycle runs t+1, ..., 0,
        # and every undirected fan runs the long way round: keeping those
        # paths took 1.8 MB at n=200 (about 1.5 n^2 entries); the counts
        # alone take O(n)
        n = 200
        g = directed_cycle(n)
        tracemalloc.start()
        try:
            report = is_k_vsb(g, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.witness == Witness(VERTEX_CUT, (0,))
        assert peak < 1000 * n

    def test_size_tests_count_as_without_table(self, monkeypatch):
        # the tests that find the witness's size set up no more augmenting
        # searches (one _Own each) than they do without a table: they count
        # each item only as far as they need it, a spare path on g comes
        # from the free passes alone, and they stop at their first failing
        # item; counting to a fixed cap instead walked every fan of the
        # bidirected path to its end, O(n^2) in all
        CountedOwn, searches = own_counter()
        first_cut = connectivity._first_cut
        sized = []

        def marking(g, size, prefix, tables):
            # the searches made before the witness search began
            if not prefix:
                sized.append(len(searches))
            return first_cut(g, size, prefix, tables)

        n = 300
        arcs = [(i, i + 1) for i in range(n - 1)]
        bidirected_path = Digraph(n, arcs + [(j, i) for i, j in arcs])
        # 2-vsb, witness {0, 1}: the size tests pass at levels 1 and 2
        square = Digraph(n, [(i, (i + d) % n) for i in range(n) for d in (1, 2)])
        monkeypatch.setattr(connectivity, "_Own", CountedOwn)
        monkeypatch.setattr(connectivity, "_first_cut", marking)
        for g, k, levels, cut in (
            (bidirected_path, 1, (1,), ()),
            (bidirected_path, 3, (3, 2, 1), ()),
            (directed_path(9), 2, (2, 1), ()),
            (square, 3, (3, 2), (0, 1)),
        ):
            searches.clear()
            for K in levels:
                even_vsb_at_least(g, K)
            alone = len(searches)
            searches.clear()
            sized.clear()
            assert is_k_vsb(g, k).witness == Witness(VERTEX_CUT, cut)
            assert sized[0] <= alone, (k, sized, alone)

    def test_true_verdict_checks_no_residual(self, monkeypatch):
        # a verdict, true or false, is decided by path counts alone, and so
        # is the witness of a false one
        calls = []
        original = connectivity._strong_biconnectivity_witness

        def counting(g, blocked):
            calls.append(blocked)
            return original(g, blocked)

        monkeypatch.setattr(connectivity, "_strong_biconnectivity_witness", counting)
        for k in (1, 2, 3):
            for n in (k + 2, 9):
                assert is_k_vsb(complete_bidirected(n), k).verdict
        assert is_k_vsb(directed_cycle(5), 1).verdict
        assert calls == []
        assert not is_k_vsb(directed_cycle(5), 2).verdict
        assert calls == []

    def test_no_residual_check_at_any_size(self, monkeypatch):
        def forbidden(g, blocked):
            raise AssertionError("residual check in is_k_vsb")

        # complete bidirected graphs, and copies whose last vertex keeps
        # only its in-arcs from the k-1 vertices before it, so the witness
        # is those k-1 vertices
        cases = []
        for k in (1, 2, 3):
            for n in (k + 1, k + 2, 9):
                cases.append((complete_bidirected(n), k, None))
                g = complete_bidirected(n)
                for x in range(n - k):
                    g.remove_edge(x, n - 1)
                expected = first_failing_set(g, k)
                assert expected == tuple(range(n - k, n - 1))
                cases.append((g, k, expected))
        monkeypatch.setattr(connectivity, "_strong_biconnectivity_witness", forbidden)
        for g, k, expected in cases:
            report = is_k_vsb(g, k)
            if expected is None:
                assert report.verdict
            else:
                assert report.witness == Witness(VERTEX_CUT, expected)

    def test_n_equals_k_plus_one_is_complete_bidirected(self):
        # the complete bidirected graph on k+1 vertices is k-vsb although
        # its undirected connectivity is only k, so the undirected bound
        # is skipped there; without any one arc it is not k-vsb
        for k in (1, 2, 3):
            g = complete_bidirected(k + 1)
            assert is_k_vsb(g, k).verdict
            assert _vsb_at_least(g, k, ())
            for u, v in g.edges():
                h = complete_bidirected(k + 1)
                h.remove_edge(u, v)
                report = is_k_vsb(h, k)
                assert report.witness == Witness(VERTEX_CUT, first_failing_set(h, k))


def square_cycle(n: int) -> Digraph:
    """The directed square of a cycle: arcs i -> i+1 and i -> i+2 mod n."""
    return Digraph(n, [(i, (i + d) % n) for i in range(n) for d in (1, 2)])


def bidirected(arcs) -> list[tuple[int, int]]:
    return [*arcs, *((v, u) for u, v in arcs)]


class TestDominatorRoute:
    """Verdict-only level-2 tests of sparse graphs decide their directed
    half with dominator trees, and agree with Even's test."""

    @staticmethod
    def routed_directed_half(g: Digraph) -> tuple[bool, bool]:
        """_vsb_at_least(g, 2, ()) with Even's test replaced by one that
        passes, and whether the dominators decided the directed half; if
        they did, the verdict is theirs."""
        views = []

        def passing(n, orientations, *args):
            views.append(len(orientations))
            return True

        with mock.patch.object(connectivity, "_connectivity_at_least", passing):
            verdict = _vsb_at_least(g, 2, ())
        # Even's test has two orientations on the directed view, one on
        # the undirected
        assert views in ([], [1], [2], [2, 1]), views
        return verdict, 2 not in views

    def assert_agrees(self, g: Digraph) -> bool:
        """Route, directed half and verdict on g against Even's test and
        the oracle; returns Even's directed half."""
        directed, routed = self.routed_directed_half(g)
        assert routed == (g.m <= 3 * g.n), (g.edges(), routed)
        even = _connectivity_at_least(g.n, _orientations(g, True), 2, ())
        assert directed == even or not routed, g.edges()
        verdict = _vsb_at_least(g, 2, ())
        assert verdict == even_vsb_at_least(g, 2), g.edges()
        assert verdict == oracle_k_vsb(g, 2), g.edges()
        return even

    @settings(max_examples=200, deadline=None)
    @given(digraphs(min_n=3, max_n=9))
    def test_agrees_with_even_and_oracle(self, g):
        self.assert_agrees(g)

    def test_fixed_graphs(self):
        # coverage that does not depend on the hypothesis seed: each case
        # is (graph, directed half of level 2), on both sides of the
        # density gate
        triangles = Digraph(5, bidirected(
            [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)]))
        cases = [
            # both dominator trees are flat, but 0 separates the triangles
            (triangles, False),
            (complete_bidirected(3), True),
            # the tree along the arcs is flat and g-0 is strongly
            # connected, but every path into 0 runs through 3
            (Digraph(4, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3), (3, 0),
                         (3, 1), (3, 2)]), False),
            (directed_cycle(8), False),
            (directed_path(9), False),
            (Digraph(8, bidirected([(i, (i + 1) % 8) for i in range(8)])), True),
            (square_cycle(8), True),
            # m = 3n, on the gate; then m = 4n and above: Even's test decides
            (complete_bidirected(4), True),
            (complete_bidirected(5), True),
            (complete_bidirected(8), True),
            # 7 keeps one in-arc
            (Digraph(8, [(u, v) for u, v in complete_bidirected(8).edges()
                         if v != 7 or u == 6]), False),
        ]
        assert _flat_dominators(5, triangles._out, triangles._in)
        assert _flat_dominators(5, triangles._in, triangles._out)
        for g, directed in cases:
            assert self.assert_agrees(g) == directed, g.edges()

    @settings(max_examples=200, deadline=None)
    @given(digraphs(min_n=1, max_n=9))
    def test_flat_dominators_by_deletion(self, g):
        # 0 is the immediate dominator of every other vertex exactly when
        # every vertex is reached from 0, also after deleting any vertex
        # but 0, along the arcs and along their reverses
        for succ, pred in ((g._out, g._in), (g._in, g._out)):
            flat = all(
                _search_miss(g.n, succ, 0, blocked) is None
                for blocked in [(), *((v,) for v in range(1, g.n))]
            )
            assert _flat_dominators(g.n, succ, pred) == flat, g.edges()

    def test_sparse_level_two_searches_no_directed_view(self, monkeypatch):
        # a guard on counts, not time: on sparse graphs a verdict-only
        # level-2 test counts no path along one orientation of the arcs,
        # while on generated n=100 (m = 16n) Even's test still does
        n = 300
        arcs = [(i, i + 1) for i in range(n - 1)]
        views = []
        disjoint_paths = connectivity._disjoint_paths

        def counting(reverse, *args):
            views.append(len(reverse))
            return disjoint_paths(reverse, *args)

        monkeypatch.setattr(connectivity, "_disjoint_paths", counting)
        for g, verdict in (
            (Digraph(n, bidirected(arcs)), False),
            (square_cycle(n), True),
            (generate(InstanceSpec(100, seed=1)).graph, True),
        ):
            views.clear()
            assert _vsb_at_least(g, 2, ()) == verdict
            assert (1 in views) == (g.m > 3 * g.n), (g.m, views.count(1))


class TestFlatDominatorRule:
    """_flat_dominators calls a tree flat exactly when no vertex has its
    tree parent p != 0 as its semidominator."""

    def test_fixed_graphs(self):
        # checked against deleting each vertex and searching, so that the
        # rule's coverage does not rest on the hypothesis seed; the notes
        # on each case follow the preorder of its depth-first search,
        # which visits the highest successor first
        square = square_cycle(12)
        cases = [
            # flat along the arcs: the tree path is 0, 2, 4, 3, and the
            # semidominator of 3 is 2, neither 0 nor its parent 4
            (Digraph(5, [(0, 2), (2, 4), (4, 3), (2, 3), (0, 1), (1, 4)]), True),
            # not flat: only 10 reaches 11, which lies 7 arcs down the
            # tree path 0, 2, 4, 6, 7, 9, 10, 11 and is the only vertex
            # whose parent is its semidominator
            (Digraph(12, [e for e in square.edges() if e != (9, 11)]), False),
            # with that arc back, flat again
            (square, True),
        ]
        for g, flat in cases:
            assert _flat_dominators(g.n, g._out, g._in) == flat, g.edges()
            for succ, pred in ((g._out, g._in), (g._in, g._out)):
                reached = all(
                    _search_miss(g.n, succ, 0, blocked) is None
                    for blocked in [(), *((v,) for v in range(1, g.n))]
                )
                assert _flat_dominators(g.n, succ, pred) == reached, g.edges()
