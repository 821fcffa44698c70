"""The count walk (``extraction._walk``) against the walk on a graph copy
(``reference_walk``): same removals in the same order, same kept edges,
same local tests; and the count rule against the rule on adjacency sets."""
import random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from vsbgraph import (
    Digraph,
    InstanceSpec,
    NotKVsbError,
    compute_2vsb_spanning,
    generate,
    minimal_k_vsb,
    two_phase_3vsb,
)
from vsbgraph import extraction
from vsbgraph.connectivity import _slacks

from graphutil import block_ring, complete_bidirected, digraphs
from reference_walk import below_bound, below_degree_bound, reference_walk
from test_extraction import OUTPUT_DIGESTS, gate_length, named_graph

ORDERS = (("input", None), ("shuffle", 5))


def bidirected(n: int, arcs: list[tuple[int, int]]) -> Digraph:
    return Digraph(n, sorted({a for u, v in arcs for a in ((u, v), (v, u))}))


def walks(g: Digraph, order: str, seed: int | None):
    """(k, candidates, protected, graph walked) for each walk an extractor
    makes on g at the levels g.n allows: minimal's, the backbone's on its
    degree-gated prefix (candidates None: the prefix's own edges), and
    two-phase's k=3 walk around that backbone."""
    candidates = extraction._ordered_candidates(g.edges(), order, seed)
    for k in (1, 2, 3):
        if g.n > k:
            yield k, candidates, frozenset(), g
    if g.n > 3:
        length = gate_length(g.n, candidates)
        if length is not None:
            yield 2, None, frozenset(), Digraph(g.n, candidates[:length])
            # the protected set is the backbone when there is one, else
            # every third candidate, so the k=3 walk still skips some
            try:
                backbone = compute_2vsb_spanning(g, order, seed).subgraph.edges()
            except NotKVsbError:
                backbone = candidates[::3]
            yield 3, candidates, frozenset(backbone), g


def digest_graphs():
    names = dict.fromkeys(row[0] for row in OUTPUT_DIGESTS)
    return [(name, named_graph(name)) for name in names]


def bench_graphs():
    return [
        (f"{n},seed={seed}", generate(InstanceSpec(n, seed=seed)).graph)
        for n in (10, 20, 30)
        for seed in range(1, 11)
    ]


def bidirected_graphs():
    cycle = [(i, (i + 1) % 8) for i in range(8)]
    square = cycle + [(i, (i + 2) % 8) for i in range(8)]
    return [
        ("K5", complete_bidirected(5)),
        ("K7", complete_bidirected(7)),
        ("block_ring(3)", block_ring(3)),
        ("bidirected square cycle", bidirected(8, square)),
        # antiparallel pairs on half the arcs of a generated instance
        ("half of 12,96,2", bidirected(12, named_graph("12,96,2").edges()[::2])),
    ]


def short_graphs():
    """Inputs with some vertex below the 3-vsb degree bound."""
    g = generate(InstanceSpec(12, seed=3)).graph
    # vertex 0 keeps one in-arc, vertex 5 no out-arc
    first = min(g.in_neighbors(0))
    trimmed = [(u, v) for u, v in g.edges() if u != 5 and (v != 0 or u == first)]
    cycle = [(i, (i + 1) % 6) for i in range(6)]
    # bidirected K5 on 1..5, and vertex 0 with one arc each way
    k5 = [(u, v) for u in range(1, 6) for v in range(1, 6) if u != v]
    return [
        ("trimmed 12,seed=3", Digraph(12, trimmed)),
        ("directed cycle and chords", Digraph(6, cycle + [(0, 3), (3, 0), (1, 4)])),
        ("K5 and a pendant", Digraph(6, k5 + [(0, 1), (2, 0)])),
    ]


def assert_walks_agree(g: Digraph, k: int, candidates, protected) -> int:
    """The count walk and the reference make the same removals and keep
    the same edges, degree-only and with local tests; g is left as is.
    The count walk gets the candidates that may go, those g holds outside
    protected (None stays None: g's own edges), the reference all of them
    and protected.  Returns the number of removals."""
    before = g.edges()
    if candidates is None:
        may_go, candidates = None, before
    else:
        may_go = [e for e in candidates if e in g._edges and e not in protected]
    kept, removed, tests = extraction._walk(g._edges, k, may_go, _slacks(g, k))
    work, expected, _ = reference_walk(g, k, candidates, protected, False)
    assert list(removed) == expected
    assert kept.edges() == work.edges()
    assert tests == 0
    kept, removed, tests = extraction._walk(
        g._edges, k, may_go, _slacks(g, k), g.copy()
    )
    work, expected, flow_tests = reference_walk(g, k, candidates, protected, True)
    assert (list(removed), tests) == (expected, flow_tests)
    assert kept.edges() == work.edges()
    assert g.edges() == before
    return len(expected)


@pytest.mark.parametrize("family", [digest_graphs, bench_graphs, bidirected_graphs])
def test_count_walk_agrees_with_reference(family):
    removals = 0
    for name, g in family():
        for order, seed in ORDERS:
            for k, candidates, protected, h in walks(g, order, seed):
                removals += assert_walks_agree(h, k, candidates, protected)
    assert removals > 0


def test_count_walk_agrees_below_the_bound():
    # a vertex below the bound stays there, so its arcs are degree keeps,
    # while the walk goes on elsewhere
    removals = 0
    for name, g in short_graphs():
        assert any(below_bound(g, 3)), name
        for order, seed in ORDERS:
            candidates = extraction._ordered_candidates(g.edges(), order, seed)
            for k in (1, 2, 3):
                if any(below_bound(g, k)):
                    removals += assert_walks_agree(g, k, candidates, frozenset())
    assert removals > 0


@given(
    digraphs(min_n=2, max_n=7),
    st.integers(1, 3),
    st.integers(0, 2**32),
    st.floats(0, 1),
)
def test_count_rule_matches_rule_on_graph(g, k, seed, p):
    # random removal sequences: the local test is replaced by a seeded coin
    # per arc.  Wherever the count walk sends a candidate to it, the graph
    # without the arc has both ends at or above the bound, by the counts
    # (connectivity._slacks) as by the adjacency sets; every candidate it
    # keeps without asking is kept by the reference walk too
    if g.n <= k:
        return
    calls = []

    def coin(h, k, u, v):
        assert not below_degree_bound(h, u, k) and not below_degree_bound(h, v, k)
        assert below_bound(h, k) == [below_degree_bound(h, x, k) for x in range(h.n)]
        calls.append((u, v))
        return random.Random(f"{seed},{u},{v}").random() < p

    candidates = extraction._ordered_candidates(g.edges(), "shuffle", seed)
    with mock.patch.object(extraction, "_stays_k_vsb", coin):
        kept, removed, tests = extraction._walk(
            g._edges, k, candidates, _slacks(g, k), g.copy()
        )
    asked = list(calls)
    work, expected, flow_tests = reference_walk(
        g, k, candidates, frozenset(), True, coin
    )
    assert (list(removed), tests) == (expected, flow_tests)
    assert asked == calls[len(asked):]
    assert kept.edges() == work.edges()
    assert below_bound(kept, k) == [below_degree_bound(work, x, k) for x in range(g.n)]


@pytest.mark.parametrize(
    "name,order,seed", [("10,80,1", "input", None), ("K6", "shuffle", 5)]
)
def test_two_phase_walks_the_backbone_removals(monkeypatch, name, order, seed):
    # two-phase's k=3 walk gets exactly the edges outside its backbone, in
    # candidate order: no protected arc.  Both backbones fall back, and
    # on K6 shuffle-5 the probes grow the prefix before the second walk
    g = named_graph(name)
    backbone = compute_2vsb_spanning(g, order, seed)
    walked, walk = [], extraction._walk

    def recording(h, k, candidates, *rest):
        walked.append((k, None if candidates is None else list(candidates)))
        return walk(h, k, candidates, *rest)

    monkeypatch.setattr(extraction, "_walk", recording)
    two_phase_3vsb(g, order, seed)
    at_3 = [candidates for k, candidates in walked if k == 3]
    assert at_3 == [list(backbone.removed)]
    assert len(walked) == 3


class TestSubgraph:
    def cases(self):
        g = generate(InstanceSpec(10, seed=2)).graph
        return [
            minimal_k_vsb(g, 3),
            minimal_k_vsb(block_ring(3), 3),  # the fallback's walk
            compute_2vsb_spanning(g),
            two_phase_3vsb(g, "shuffle", 5),
        ]

    def test_holds_only_the_kept_edges(self):
        # the output graph is built from the kept edges alone
        for result in self.cases():
            assert result.removed
            for u, v in result.removed:
                assert v not in result.subgraph._out[u]

    def test_clean_sweeps_remove_and_restore_nothing(self, monkeypatch):
        # a sweep whose degree-only result passes never edits a Digraph
        calls = []
        for name in ("remove_edge", "restore_edge"):
            monkeypatch.setattr(
                Digraph, name, lambda *args, name=name: calls.append(name)
            )
        g = generate(InstanceSpec(16, 128, 100003)).graph
        results = [minimal_k_vsb(g, 3), two_phase_3vsb(g)]
        assert [r.stats.full_tests for r in results] == [1, 2]
        assert [r.stats.flow_tests for r in results] == [0, 0]
        assert calls == []

    def test_clean_backbone_runs_on_counts(self, monkeypatch):
        # a backbone whose degree-only result passes gates and walks on
        # counts: it adds no arc to a Digraph and builds only its output
        g = generate(InstanceSpec(16, 128, 100003)).graph
        calls = []

        def counted(name, method):
            def wrapper(*args):
                calls.append(name)
                return method(*args)

            return wrapper

        for name in ("__init__", "add_edge"):
            monkeypatch.setattr(Digraph, name, counted(name, getattr(Digraph, name)))
        result = compute_2vsb_spanning(g)
        assert (result.stats.full_tests, result.stats.flow_tests) == (1, 0)
        assert calls == ["__init__"]
