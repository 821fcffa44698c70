"""Sparse spanning-subgraph extraction by greedy single-edge deletion.

Both strategies run the same greedy sweep over a k-vertex strongly
biconnected input: walk the candidate edges once and drop each edge
whose removal keeps the graph k-vsb.  Each caller hands the sweep
exactly the edges that may go, in the order to try them.

* :func:`minimal_k_vsb` sweeps every edge.  The result is minimal: no
  remaining edge can be removed without breaking the property.
* :func:`two_phase_3vsb` first extracts a 2-vsb spanning backbone, whose
  edges are protected, then sweeps at k=3 the edges outside it: the
  backbone's ``removed``, which holds every non-backbone edge in
  candidate order.  The result is not guaranteed minimal (protected
  edges are never tried).

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
start stays there, so its arcs are degree keeps.  The walk is a small
share of a sweep's time and most of the rest is the full test of D
(``tools/bench_compare.py sweep`` times both).

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
No full test of the output follows.  By induction over the candidates
the work graph stays k-vsb: the precondition shows it k-vsb at the
start, a keep leaves it as it was, and an edge goes only when the local
test shows the graph without it k-vsb.  The local and the full tests run
on the same disjoint-path primitive, so the test suite checks the sweep
against an enumeration of deletion sets and the brute-force oracle
instead, and tests its fallback outputs with :func:`is_k_vsb`.

Two-phase is still slower than minimal: its backbone costs a degree gate
and a degree walk over a prefix of the candidates and a full k=2 test,
while the k=3 work the backbone saves is only part of one degree walk.
The backbone's gate and walk run on integers too: the gate raises the
empty graph's slacks arc by arc while the arcs it reads are recorded,
the walk starts from the slacks the gate ends with and reads the reverse
arcs from that record, and the only graph a clean backbone builds is its
degree-only result D2.  D2 has about 2.2n arcs, so the directed half of
its test runs on semidominators (``connectivity._vsb_at_least``).

Runs never share mutable state; distinct extractions may proceed
concurrently.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Collection, Iterable, Sequence

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
from .generator import _rng

Edge = tuple[int, int]


@dataclass(frozen=True)
class ExtractionStats:
    """edges_in/out plus the run's cost drivers.

    ``full_tests`` counts the full k-vsb tests the run made: the check of
    each sweep's degree-only result and, when that fails, the fallback's
    precondition (for the backbone, its input test and prefix probes).
    ``flow_tests`` counts the fallback's local removability tests; every
    other candidate was decided by the degree bound alone.
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
    input's edge order (the backbone's in candidate order).  ``removed``
    lists the removed edges in candidate order and ``protected`` the
    protected ones in input order.
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
        rng = _rng(seed)
        return [edges[i] for i in rng.permutation(len(edges)).tolist()]
    raise ValueError(f"unknown edge order policy: {order!r}")


def _require_k_vsb(g: Digraph, k: int) -> int:
    """Raise :class:`NotKVsbError` unless g is k-vsb; return the number
    of full tests made, 1."""
    report = is_k_vsb(g, k)
    if not report.verdict:
        raise NotKVsbError(k, report.witness)
    return 1


def _input_test(g: Digraph, k: int) -> Callable[[], tuple[int, Digraph]]:
    """The precondition of a :func:`_sweep` over g as it stands: it tests
    g by :func:`_require_k_vsb` and returns that count and g."""
    return lambda: (_require_k_vsb(g, k), g)


def _walk(
    arcs: Collection[Edge],
    k: int,
    candidates: Iterable[Edge] | None,
    slacks: list[list[int]],
    local: Digraph | None = None,
) -> tuple[Digraph, tuple[Edge, ...], int]:
    """One greedy pass over a graph's degree counts through ``candidates``,
    distinct arcs of the graph that may all go (None: every arc, in
    order).  The graph is given by ``arcs``, its arcs in order (a dict's
    keys), which the walk leaves as they are, and ``slacks``, its slacks
    above the degree bound (``connectivity._slacks``), which the walk
    lowers in place.  A candidate goes unless its removal puts an end
    below the bound or, given ``local``, a copy of the graph, which is
    then k-vsb, fails the local test ``_stays_k_vsb`` there; ``local``
    loses the arcs that go.

    Returns the kept arcs as a new graph in the order of ``arcs``, the
    removed edges in candidate order and the number of local tests made.
    """
    out, inn, nbrs = slacks
    # no removal takes a slack below 0; a vertex below the bound stays
    # there, and out- and in-slacks of 0 make all its arcs degree keeps
    if min(map(min, slacks)) < 0:
        for x in [x for x, s in enumerate(zip(out, inn, nbrs)) if min(s) < 0]:
            out[x] = inn[x] = 0
    removed: dict[Edge, None] = {}
    tests = 0
    for e in arcs if candidates is None else candidates:
        u, v = e
        if not (out[u] and inn[v]):
            continue
        # the neighbour slacks fall unless the reverse arc stays
        lone = (v, u) not in arcs or (v, u) in removed
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
    kept = Digraph(len(out), [e for e in arcs if e not in removed])
    return kept, tuple(removed), tests


def _sweep(
    arcs: Collection[Edge],
    slacks: list[list[int]],
    k: int,
    candidates: Sequence[Edge] | None,
    start: float,
    precondition: Callable[[], tuple[int, Digraph]],
    full_tests: int = 0,
    flow_tests: int = 0,
) -> ExtractionResult:
    """The greedy deletion sweep every extractor runs (module docstring).

    The degree-only walk and its check come first, on the graph of
    ``arcs`` and ``slacks`` (:func:`_walk`).  If the check fails, the
    fallback runs ``precondition``, which raises :class:`NotKVsbError`
    unless the graph is k-vsb and returns the number of full tests it
    made and the graph as a :class:`Digraph`, and then the local-test
    walk on that graph, whose output is k-vsb by induction.  The
    backbone's precondition also grows the graph, which is a prefix of
    its input, to the shortest 2-vsb prefix (:func:`compute_2vsb_spanning`).
    Both walks go through ``candidates``, the arcs that may go, or, when
    None, through every arc of the graph they walk; ``edges_in`` counts
    the arcs of the graph walked last.
    ``removed`` keeps candidate order and ``protected`` is empty.
    ``start`` is the caller's ``time.perf_counter()`` reading and
    ``full_tests``/``flow_tests`` its counts so far; the stats include
    them.
    """
    work, removed, _ = _walk(arcs, k, candidates, slacks)
    full_tests += 1
    if not _vsb_at_least(work, k, ()):
        tests, g = precondition()
        full_tests += tests
        arcs, slacks = g._edges, _slacks(g, k)
        work, removed, local_tests = _walk(arcs, k, candidates, slacks, g.copy())
        flow_tests += local_tests
    stats = ExtractionStats(
        len(arcs), work.m, full_tests, flow_tests, time.perf_counter() - start
    )
    return ExtractionResult(work, removed, (), stats)


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
    return _sweep(g._edges, _slacks(g, k), k, candidates, start, _input_test(g, k))


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
    the sweep starts there.  The gate reads the candidates on counts,
    from the empty graph's slacks, into a record of the prefix's arcs;
    the degree-only walk goes through that record from the slacks the
    gate ends with, so a clean run builds no graph but its output.  A
    degree-only result that passes its check shows that prefix 2-vsb, so
    it is the shortest one.  Otherwise the fallback's precondition tests
    the whole input once, raising its witness as :class:`NotKVsbError` if
    it is not 2-vsb, and then builds that prefix as a graph and probes it
    and one more edge at a time until one is 2-vsb; the local walk goes
    through the prefix so grown.  An input that never meets the bound
    fails the check as well (the walk then goes through all of it), and
    the precondition raises.  ``removed`` is every edge outside the
    backbone, in candidate order.
    """
    start = time.perf_counter()
    _check_level(g, 2)
    edges = _ordered_candidates(g.edges(), order, seed)
    # the empty graph's slacks (connectivity._slacks), which the gate raises
    slacks = [[-2] * g.n, [-2] * g.n, [-3 if g.n >= 4 else 0] * g.n]
    # the prefix read so far: setdefault(e, e) records each arc e as map
    # hands it to the gate
    read: dict[Edge, Edge] = {}
    length = next(_degree_gated(slacks, map(read.setdefault, edges, edges), read), None)

    def shortest_2vsb_prefix() -> tuple[int, Digraph]:
        tests, grown = _require_k_vsb(g, 2) + 1, Digraph(g.n, edges[:length])
        while not _vsb_at_least(grown, 2, ()):
            grown.add_edge(*edges[grown.m])
            tests += 1
        return tests, grown

    inner = _sweep(read, slacks, 2, None, start, shortest_2vsb_prefix)
    # the sweep removed from the prefix; every later candidate goes too
    removed = inner.removed + tuple(edges[inner.stats.edges_in :])
    stats = replace(inner.stats, edges_in=g.m)
    return replace(inner, removed=removed, stats=stats)


def two_phase_3vsb(
    g: Digraph, order: str = "input", seed: int | None = None
) -> ExtractionResult:
    """3-vsb spanning subgraph via a protected 2-vsb backbone.

    Phase one computes the backbone; phase two greedily deletes at k=3
    only the edges outside it, the backbone's ``removed``, in that order.
    The returned ``protected`` edges are the backbone in input-edge order
    and are always contained in the output.
    The stats include the backbone run's tests.  Raises
    :class:`NotKVsbError` with the 3-vsb witness when the input is not
    3-vsb.  When the backbone finds it is not even 2-vsb, that witness is
    the backbone's: the smallest failing size, at most 1, is the same at
    both levels, and so is the first failing set of that size.
    """
    start = time.perf_counter()
    _check_level(g, 3)
    try:
        backbone = compute_2vsb_spanning(g, order, seed)
    except NotKVsbError as exc:  # not 2-vsb, so not 3-vsb either
        raise NotKVsbError(3, exc.witness) from None
    counts = backbone.stats.full_tests, backbone.stats.flow_tests
    result = _sweep(
        g._edges, _slacks(g, 3), 3, backbone.removed, start, _input_test(g, 3), *counts
    )
    kept = backbone.subgraph._edges
    return replace(result, protected=tuple(filter(kept.__contains__, g._edges)))
