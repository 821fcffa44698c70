"""Sparse spanning-subgraph extraction by greedy single-edge deletion.

Both strategies run the same greedy sweep over a k-vertex strongly
biconnected input: walk the candidate edges once, drop each edge whose
removal keeps the graph k-vsb, and skip the edges marked *protected*.

* :func:`minimal_k_vsb` sweeps every edge with nothing protected.  The
  result is minimal: no remaining edge can be removed without breaking
  the property.
* :func:`two_phase_3vsb` first extracts a 2-vsb spanning backbone whose
  edges become protected, then sweeps at k=3.  Fewer expensive k=3
  tests, but the result is not guaranteed minimal (protected edges are
  never tried).

Each candidate test flips the edge's activity mask in a private working
copy (no graph rebuild) and runs the local removability test
``connectivity._stays_k_vsb``: the graph was k-vsb before the removal,
so it stays k-vsb exactly when k disjoint paths still lead from one end
of the edge to the other (k+1 in the undirected view when the reverse
arc is absent), at most two disjoint-path counts.  Its verdict equals a
full k-vsb evaluation; the precondition (for the backbone, its passing
prefix probe) and the final recheck of every sweep are full
:func:`is_k_vsb` calls.  Both run on the same disjoint-path primitive,
so the recheck is no independent check of the local test; the test
suite compares the local test with an enumeration of deletion sets and
with the brute-force oracle instead.
Runs never share mutable state; distinct extractions may proceed
concurrently.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .connectivity import _degree_gated, _stays_k_vsb, is_k_vsb
from .digraph import Digraph
from .errors import NotKVsbError

Edge = tuple[int, int]


@dataclass(frozen=True)
class ExtractionStats:
    """edges_in/out plus the run's cost drivers.

    ``tests_performed`` counts every k-vsb test the run made: the full
    precondition check, one local removability test per candidate edge,
    and the full final verification.  The backbone makes no precondition
    check; it counts one full test per prefix probe instead, plus one
    full test of its input when the first probe fails;
    ``elapsed`` is wall time in seconds on a monotonic clock.
    """

    edges_in: int
    edges_out: int
    tests_performed: int
    elapsed: float


@dataclass(frozen=True, eq=False)
class ExtractionResult:
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


def _require_k_vsb(g: Digraph, k: int) -> None:
    report = is_k_vsb(g, k)
    if not report.verdict:
        raise NotKVsbError(k, report.witness)


def _sweep(
    g: Digraph,
    k: int,
    candidates: list[Edge],
    protected: frozenset[Edge],
    tests: int,
    start: float,
) -> ExtractionResult:
    """The greedy deletion sweep every extractor runs, then one recheck.

    ``removed`` keeps candidate order, ``protected`` input-edge order.
    ``tests`` and ``start`` are the caller's k-vsb test count and
    ``time.perf_counter()`` reading so far; the stats include both.
    """
    work = g.copy()
    removed: list[Edge] = []
    for u, v in candidates:
        if (u, v) in protected:
            continue
        work.remove_edge(u, v)
        tests += 1
        if _stays_k_vsb(work, k, u, v):
            removed.append((u, v))
        else:
            work.restore_edge(u, v)
    tests += 1
    if not is_k_vsb(work, k).verdict:
        raise RuntimeError(
            f"internal error: extraction output failed the {k}-vsb recheck"
        )
    stats = ExtractionStats(g.m, work.m, tests, time.perf_counter() - start)
    in_order = tuple(e for e in g.edges() if e in protected)
    return ExtractionResult(work, tuple(removed), in_order, stats)


def minimal_k_vsb(
    g: Digraph, k: int = 3, order: str = "input", seed: int | None = None
) -> ExtractionResult:
    """Minimal k-vsb spanning subgraph by one greedy deletion sweep.

    Candidate edges are visited in input-sequence order by default, or
    in a seeded shuffle (greedy output depends on visit order).  Raises
    :class:`NotKVsbError` when the input is not k-vsb to begin with.
    """
    start = time.perf_counter()
    _require_k_vsb(g, k)
    candidates = _ordered_candidates(g.edges(), order, seed)
    return _sweep(g, k, candidates, frozenset(), 1, start)


def compute_2vsb_spanning(
    g: Digraph, order: str = "input", seed: int | None = None
) -> ExtractionResult:
    """2-vsb spanning subgraph, used as the protected backbone of
    :func:`two_phase_3vsb`.

    Any spanning 2-vsb subgraph satisfies the backbone contract; this
    one is also minimal (no single edge of it can be dropped).  Strong
    biconnectivity is monotone under edge addition, so the greedy
    deletion sweep runs only inside the shortest 2-vsb prefix of the
    candidate order.  A linear scan finds it, probing first the shortest
    prefix that meets the 2-vsb degree bound (``connectivity._degree_gated``;
    no shorter prefix can pass, and that one usually does), then one more
    edge per probe.  There is no precondition test up front: only when
    the first probe fails, or the degree bound is never met, is the whole
    input tested once, and if it is not 2-vsb that test's witness is
    raised as :class:`NotKVsbError`.  Only direct calls reach that path,
    since :func:`two_phase_3vsb` has shown its input 3-vsb.
    """
    start = time.perf_counter()
    edges = _ordered_candidates(g.edges(), order, seed)
    prefix = Digraph(g.n)
    tests = 0
    for _ in _degree_gated(prefix, edges, 2):
        tests += 1
        if is_k_vsb(prefix, 2).verdict:
            break
        if tests == 1:  # the first probe failed: is any prefix 2-vsb?
            tests += 1
            _require_k_vsb(g, 2)
    else:  # not even the whole input met the degree bound: this raises
        _require_k_vsb(g, 2)
    # the passing probe stands in for the sweep's precondition test
    inner = _sweep(prefix, 2, prefix.edges(), frozenset(), tests, start)
    kept = set(inner.subgraph.edges())
    return replace(
        inner,
        removed=tuple(e for e in edges if e not in kept),
        stats=replace(inner.stats, edges_in=g.m),
    )


def two_phase_3vsb(
    g: Digraph, order: str = "input", seed: int | None = None
) -> ExtractionResult:
    """3-vsb spanning subgraph via a protected 2-vsb backbone.

    Phase one computes the backbone; phase two greedily deletes only the
    edges outside it, testing k=3 after each removal.  The returned
    ``protected`` edges are the backbone in input-edge order and are
    always contained in the output.  ``tests_performed`` includes the
    backbone run's own tests.
    """
    start = time.perf_counter()
    _require_k_vsb(g, 3)
    backbone = compute_2vsb_spanning(g, order, seed)
    protected = frozenset(backbone.subgraph.edges())
    candidates = _ordered_candidates(g.edges(), order, seed)
    return _sweep(
        g, 3, candidates, protected, 1 + backbone.stats.tests_performed, start
    )
