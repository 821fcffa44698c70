"""Sparse spanning-subgraph extraction by greedy single-edge deletion.

Both strategies run the same greedy sweep over a k-vertex strongly
biconnected input: walk the candidate edges once, drop each edge whose
removal keeps the graph k-vsb, and skip the edges marked *protected*.

* :func:`minimal_k_vsb` sweeps every edge with nothing protected.  The
  result is minimal: no remaining edge can be removed without breaking
  the property.
* :func:`two_phase_3vsb` first extracts a 2-vsb spanning backbone whose
  edges become protected, then sweeps at k=3.  The result is not
  guaranteed minimal (protected edges are never tried).

The sweep is optimistic.  It first walks the candidates with the degree
rule alone: an edge goes unless its removal puts an endpoint below the
k-vsb degree bound (``connectivity._slacks``), which shows a graph is
not k-vsb.  One verdict-only full test of the result D follows.
If D is k-vsb, it is exactly the greedy sweep's output, with the same
removals in the same order.  By induction over the candidates, both
walks hold the same graph W when they reach an edge e: a degree keep is
a keep in both, and otherwise W-e contains D on the same vertices, so
W-e is k-vsb (k-vsb is monotone under adding arcs) and the greedy sweep
drops e too.  D is a subgraph of the input, so the input is k-vsb as
well and no precondition test is needed.  On generated instances every
edge the greedy sweep keeps is a degree keep, so D nearly always passes
and a sweep costs one degree walk plus one full test.

The walk edits no graph.  It keeps integers: each vertex's slack above
the bound in out-degree, in-degree and distinct neighbours, and the set
of arcs removed so far.  Removing (u, v) lowers u's out-slack and v's
in-slack, and the neighbour slacks of both only when (v, u) is absent
from the work graph (absent from the input, or removed already); so
each candidate is decided in O(1), and the output graph is built once,
from the kept edges in input order.  A vertex below the bound at the
start stays there, so its arcs are degree keeps.  On the perfbench
``thin`` instances (n=16, m=128) the walk takes 0.15 ms of minimal's
0.91 ms, and at n=1,000 (m=17,842) 25 of 143 ms, where it took 151 of
279 ms when it removed and restored each candidate on a copy of the
input (``tools/bench_sweep.py``, ``BENCH_degree_walk.json``).

If D fails, the sweep falls back to the greedy sweep itself, from the
first candidate (the first candidate where the two walks part is not
known).  The precondition runs first: a full :func:`is_k_vsb` test, whose
witness :class:`NotKVsbError` carries when the input is not k-vsb.  Each
candidate is then decided by the same walk, on counts, and only past the
degree bound by the local removability test ``connectivity._stays_k_vsb``,
on a copy of the input that loses the arcs that go: the graph was k-vsb
before the removal, so it stays k-vsb exactly when k disjoint paths
still lead from one end of the edge to the other (k+1 in the undirected
view when the reverse arc is absent), at most two disjoint-path counts.
A full recheck of the output ends the fallback.  All of these run on the
same disjoint-path primitive, so the test suite checks the sweep against
an enumeration of deletion sets and the brute-force oracle instead.

Two-phase is still slower than minimal: its backbone costs a degree walk
over a prefix of the candidates and a full k=2 test, while the k=3 work
the backbone saves is only part of one degree walk.  In
``BENCH_degree_walk.json`` its median over the ``thin`` instances is 2.1
times minimal's, and it takes 1.7 to 1.9 times as long at n = 100, 400
and 1,000.

Runs never share mutable state; distinct extractions may proceed
concurrently.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .connectivity import (
    _check_level,
    _degree_gated,
    _slacks,
    _stays_k_vsb,
    _vsb_at_least,
    is_k_vsb,
)
from .digraph import Digraph
from .errors import NotKVsbError

Edge = tuple[int, int]


@dataclass(frozen=True)
class ExtractionStats:
    """edges_in/out plus the run's cost drivers.

    ``full_tests`` counts the full k-vsb tests the run made: the check of
    each sweep's degree-only result and, when that fails, the fallback's
    precondition (for the backbone, its input test and prefix probes) and
    its recheck.  ``flow_tests`` counts the fallback's local removability
    tests; every other candidate was decided by the degree bound alone.
    ``tests_performed`` is their sum.  Two-phase counts include the
    backbone's.  ``elapsed`` is wall time in seconds on a monotonic clock.
    """

    edges_in: int
    edges_out: int
    full_tests: int
    flow_tests: int
    elapsed: float

    @property
    def tests_performed(self) -> int:
        return self.full_tests + self.flow_tests


@dataclass(frozen=True, eq=False)
class ExtractionResult:
    """An extraction's output.

    ``subgraph`` is a new graph holding exactly the kept edges, in the
    input's edge order (the backbone's in candidate order); it keeps no
    slot for a removed edge, so ``subgraph.restore_edge`` of one raises
    :class:`EdgeAbsentError`.  ``removed`` lists the removed edges in
    candidate order and ``protected`` the protected ones in input order.
    """

    subgraph: Digraph
    removed: tuple[Edge, ...]
    protected: tuple[Edge, ...]
    stats: ExtractionStats


def _ordered_candidates(
    edges: list[Edge], order: str, seed: int | None
) -> list[Edge]:
    if order == "input":
        return edges
    if order == "shuffle":
        if seed is None:
            raise ValueError("order='shuffle' requires a seed")
        rng = np.random.default_rng(seed)
        return [edges[i] for i in rng.permutation(len(edges))]
    raise ValueError(f"unknown edge order policy: {order!r}")


def _require_k_vsb(g: Digraph, k: int) -> int:
    """Raise :class:`NotKVsbError` unless g is k-vsb; return the number
    of full tests made, 1."""
    report = is_k_vsb(g, k)
    if not report.verdict:
        raise NotKVsbError(k, report.witness)
    return 1


def _walk(
    g: Digraph,
    k: int,
    candidates: list[Edge],
    protected: frozenset[Edge],
    local: Digraph | None = None,
) -> tuple[Digraph, tuple[Edge, ...], int]:
    """One greedy pass over g's degree counts, skipping the protected
    candidates and those g lacks; g is not changed.  A candidate goes
    unless its removal puts an end below the degree bound
    (``connectivity._slacks``) or, given ``local``, a copy of the k-vsb
    graph g, fails the local test ``_stays_k_vsb`` there; ``local`` loses
    the arcs that go.

    Returns g's kept edges as a new graph in g's edge order, the removed
    edges in candidate order and the number of local tests made.
    """
    n, arcs = g.n, g._edges
    out, inn, nbrs = _slacks(g, k)
    # no removal takes a slack below 0; a vertex below the bound stays
    # there, and out- and in-slacks of 0 make all its arcs degree keeps
    for x in [x for x, s in enumerate(zip(out, inn, nbrs)) if min(s) < 0]:
        out[x] = inn[x] = 0
    removed: dict[Edge, None] = {}
    tests = 0
    for e in candidates:
        u, v = e
        if not (out[u] and inn[v] and arcs.get(e)) or e in protected:
            continue
        # the neighbour slacks fall unless the reverse arc stays
        lone = (v, u) in removed or not arcs.get((v, u))
        if lone and not (nbrs[u] and nbrs[v]):
            continue
        if local is not None:
            tests += 1
            local.remove_edge(u, v)
            if not _stays_k_vsb(local, k, u, v):
                local.restore_edge(u, v)
                continue
        out[u], inn[v] = out[u] - 1, inn[v] - 1
        nbrs[u], nbrs[v] = nbrs[u] - lone, nbrs[v] - lone
        removed[e] = None
    kept = Digraph(n, [e for e in g.edges() if e not in removed])
    return kept, tuple(removed), tests


def _sweep(
    g: Digraph,
    k: int,
    candidates: list[Edge],
    protected: frozenset[Edge],
    start: float,
    precondition: Callable[[], int] | None = None,
    full_tests: int = 0,
    flow_tests: int = 0,
) -> ExtractionResult:
    """The greedy deletion sweep every extractor runs (module docstring).

    The degree-only walk and its check come first; if the check fails,
    the fallback runs ``precondition`` and then the local-test walk and
    its recheck.  ``precondition`` raises :class:`NotKVsbError` unless g
    is k-vsb and returns the number of full tests it made; by default it
    is ``is_k_vsb(g, k)``.  The backbone's precondition also grows g,
    which is a prefix of its input, to the shortest 2-vsb prefix
    (:func:`compute_2vsb_spanning`).  ``removed`` keeps candidate order,
    ``protected`` input-edge order.  ``start`` is the caller's
    ``time.perf_counter()`` reading and ``full_tests``/``flow_tests`` its
    counts so far; the stats include them.
    """
    work, removed, _ = _walk(g, k, candidates, protected)
    full_tests += 1
    if not _vsb_at_least(work, k, ()):
        full_tests += precondition() if precondition else _require_k_vsb(g, k)
        work, removed, local_tests = _walk(g, k, candidates, protected, g.copy())
        flow_tests += local_tests
        full_tests += 1
        if not _vsb_at_least(work, k, ()):
            raise RuntimeError(
                f"internal error: extraction output failed the {k}-vsb recheck"
            )
    stats = ExtractionStats(
        g.m, work.m, full_tests, flow_tests, time.perf_counter() - start
    )
    in_order = tuple(e for e in g.edges() if e in protected)
    return ExtractionResult(work, removed, in_order, stats)


def minimal_k_vsb(
    g: Digraph, k: int = 3, order: str = "input", seed: int | None = None
) -> ExtractionResult:
    """Minimal k-vsb spanning subgraph by one greedy deletion sweep.

    Candidate edges are visited in input-sequence order by default, or
    in a seeded shuffle (greedy output depends on visit order).  Raises
    :class:`NotKVsbError` when the input is not k-vsb to begin with.
    """
    start = time.perf_counter()
    _check_level(g, k)
    candidates = _ordered_candidates(g.edges(), order, seed)
    return _sweep(g, k, candidates, frozenset(), start)


def compute_2vsb_spanning(
    g: Digraph, order: str = "input", seed: int | None = None
) -> ExtractionResult:
    """2-vsb spanning subgraph, used as the protected backbone of
    :func:`two_phase_3vsb`.

    Any spanning 2-vsb subgraph satisfies the backbone contract; this
    one is also minimal (no single edge of it can be dropped).  Strong
    biconnectivity is monotone under edge addition, so the greedy
    deletion sweep runs only inside the shortest 2-vsb prefix of the
    candidate order.  No shorter prefix than the shortest one that meets
    the 2-vsb degree bound (``connectivity._degree_gated``) can pass, and
    the sweep starts there: a degree-only result that passes its check
    shows that prefix 2-vsb, so it is the shortest one.  Otherwise the
    fallback's precondition tests the whole input once, raising its
    witness as :class:`NotKVsbError` if it is not 2-vsb, and then probes
    that prefix and one more edge at a time until one is 2-vsb.
    """
    start = time.perf_counter()
    _check_level(g, 2)
    edges = _ordered_candidates(g.edges(), order, seed)
    prefix = Digraph(g.n)
    gate = _degree_gated(prefix, edges, 2)
    if next(gate, None) is None:  # not even the input meets the bound: raises
        _require_k_vsb(g, 2)

    def shortest_2vsb_prefix() -> int:
        tests = _require_k_vsb(g, 2) + 1
        while not _vsb_at_least(prefix, 2, ()):
            next(gate)
            tests += 1
        return tests

    inner = _sweep(prefix, 2, edges, frozenset(), start, shortest_2vsb_prefix)
    # the sweep removed from the prefix; every later candidate goes too
    removed = inner.removed + tuple(edges[prefix.m :])
    stats = replace(inner.stats, edges_in=g.m)
    return replace(inner, removed=removed, stats=stats)


def two_phase_3vsb(
    g: Digraph, order: str = "input", seed: int | None = None
) -> ExtractionResult:
    """3-vsb spanning subgraph via a protected 2-vsb backbone.

    Phase one computes the backbone; phase two greedily deletes only the
    edges outside it at k=3.  The returned ``protected`` edges are the
    backbone in input-edge order and are always contained in the output.
    The stats include the backbone run's tests.  Raises
    :class:`NotKVsbError` with the 3-vsb witness when the input is not
    3-vsb, also when the backbone finds it is not even 2-vsb.
    """
    start = time.perf_counter()
    _check_level(g, 3)
    try:
        backbone = compute_2vsb_spanning(g, order, seed)
    except NotKVsbError:  # not 2-vsb, so not 3-vsb either
        _require_k_vsb(g, 3)
        raise
    protected = frozenset(backbone.subgraph.edges())
    candidates = _ordered_candidates(g.edges(), order, seed)
    counts = backbone.stats
    return _sweep(
        g, 3, candidates, protected, start, None,
        counts.full_tests, counts.flow_tests,
    )
