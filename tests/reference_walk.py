"""The greedy walk as the sweep ran it on a copy of the graph, before it
decided degree keeps on counts: a reference for ``extraction._walk``.

Each candidate is removed from the copy, the degree rule is read off the
copy's adjacency sets (:func:`below_degree_bound`, stated here apart from
``connectivity._slacks``), and a kept candidate is restored.  The tests
check that the count walk makes the same removals in the same order,
keeps the same edges and makes the same local tests, and that the count
rule (:func:`below_bound`) agrees with :func:`below_degree_bound`.
"""
from __future__ import annotations

from vsbgraph.connectivity import _slacks, _stays_k_vsb
from vsbgraph.digraph import Digraph

Edge = tuple[int, int]


def below_bound(g: Digraph, k: int) -> list[bool]:
    """For each vertex of g, whether the count rule the package states,
    ``connectivity._slacks``, puts it below the k-vsb degree bound."""
    return [min(s) < 0 for s in zip(*_slacks(g, k))]


def below_degree_bound(g: Digraph, v: int, k: int) -> bool:
    """True when v's degrees alone show that g (with n > k) is not k-vsb:
    in- or out-degree below k, or, when n >= k+2, fewer than k+1
    distinct neighbours."""
    out = g._out[v]
    inn = g._in[v]
    if len(out) < k or len(inn) < k:
        return True
    return g.n >= k + 2 and len(out | inn) < k + 1


def reference_walk(
    g: Digraph,
    k: int,
    candidates: list[Edge],
    protected: frozenset[Edge],
    local: bool,
    stays=_stays_k_vsb,
) -> tuple[Digraph, list[Edge], int]:
    """One greedy pass over a copy of g, skipping the protected candidates
    and those g lacks.  A candidate goes unless its removal puts an end
    below the degree bound or, when ``local``, fails ``stays``.

    Returns the copy's edges as a new graph in g's edge order (the copy
    itself holds each restored candidate last), the removed edges in
    candidate order and the number of local tests made.
    """
    work = g.copy()
    removed: list[Edge] = []
    flow_tests = 0
    for u, v in candidates:
        if (u, v) in protected or v not in g._out[u]:
            continue
        work.remove_edge(u, v)
        keep = below_degree_bound(work, u, k) or below_degree_bound(work, v, k)
        if local and not keep:
            flow_tests += 1
            keep = not stays(work, k, u, v)
        if keep:
            work.restore_edge(u, v)
        else:
            removed.append((u, v))
    kept = Digraph(g.n, [(u, v) for u, v in g.edges() if v in work._out[u]])
    return kept, removed, flow_tests
