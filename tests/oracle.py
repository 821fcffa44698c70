"""Brute-force reference predicates for testing the fast module.

Deliberately different machinery from :mod:`vsbgraph.connectivity`:
strong connectivity is decided by full transitive closure (Warshall over
vertex bitmasks) and articulation points by counting undirected
components after each single-vertex removal, so agreement between the
two modules is meaningful evidence rather than a tautology.  Hard size
guards keep the exponential enumeration out of trouble.
"""
from __future__ import annotations

from itertools import combinations

from vsbgraph.digraph import Digraph
from vsbgraph.errors import TooFewVerticesError, TooLargeError

_MAX_SC = 12
_MAX_KVSB = 10
_MAX_MINIMAL_EDGES = 400


def _arc_masks(n: int, edges: list[tuple[int, int]]) -> tuple[list[int], list[int]]:
    out = [0] * n
    inn = [0] * n
    for u, v in edges:
        out[u] |= 1 << v
        inn[v] |= 1 << u
    return out, inn


def _bits(mask: int) -> list[int]:
    result = []
    while mask:
        low = mask & -mask
        result.append(low.bit_length() - 1)
        mask ^= low
    return result


def _closure_all_reach(out: list[int], verts: list[int], alive: int) -> bool:
    reach = {v: ((out[v] & alive) | (1 << v)) for v in verts}
    for w in verts:
        rw = reach[w]
        bit = 1 << w
        for v in verts:
            if reach[v] & bit:
                reach[v] |= rw
    return all(reach[v] == alive for v in verts)


def _component_mask(und: dict[int, int], members: int, start: int) -> int:
    comp = 1 << start
    while True:
        grown = comp
        rest = comp
        while rest:
            low = rest & -rest
            rest ^= low
            grown |= und[low.bit_length() - 1] & members
        if grown == comp:
            return comp
        comp = grown


def _sb_bruteforce(out: list[int], inn: list[int], alive: int) -> bool:
    verts = _bits(alive)
    if len(verts) == 1:
        return True
    if len(verts) == 2:
        u, v = verts
        return bool(out[u] >> v & 1) and bool(out[v] >> u & 1)
    if not _closure_all_reach(out, verts, alive):
        return False
    und = {v: (out[v] | inn[v]) & alive for v in verts}
    for r in verts:
        members = alive & ~(1 << r)
        start = (members & -members).bit_length() - 1
        if _component_mask(und, members, start) != members:
            return False
    return True


def oracle_strongly_connected(g: Digraph) -> bool:
    """Strong connectivity by transitive closure; n <= 12."""
    if g.n < 1:
        raise TooFewVerticesError("empty graph")
    if g.n > _MAX_SC:
        raise TooLargeError(f"oracle limited to {_MAX_SC} vertices, got {g.n}")
    if g.n == 1:
        return True
    out, _ = _arc_masks(g.n, g.edges())
    alive = (1 << g.n) - 1
    return _closure_all_reach(out, list(range(g.n)), alive)


def oracle_k_vsb(g: Digraph, k: int) -> bool:
    """Literal enumeration of every deletion set of size < k; n <= 10."""
    if k not in (1, 2, 3):
        raise ValueError(f"k must be 1, 2 or 3, got {k}")
    if g.n < 1:
        raise TooFewVerticesError("empty graph")
    if g.n > _MAX_KVSB:
        raise TooLargeError(f"oracle limited to {_MAX_KVSB} vertices, got {g.n}")
    out, inn = _arc_masks(g.n, g.edges())
    return _k_vsb_masks(out, inn, g.n, k)


def _k_vsb_masks(out: list[int], inn: list[int], n: int, k: int) -> bool:
    full = (1 << n) - 1
    for size in range(k):
        for subset in combinations(range(n), size):
            alive = full
            for v in subset:
                alive &= ~(1 << v)
            if not _sb_bruteforce(out, inn, alive):
                return False
    return True


def oracle_is_minimal(g: Digraph, k: int) -> bool:
    """True iff no single active edge can be dropped while staying k-vsb.

    Requires a k-vsb input; guarded at n <= 10 and m <= 400 (the k-vsb
    oracle's own vertex guard is the binding one).
    """
    if g.n > _MAX_KVSB:
        raise TooLargeError(f"oracle limited to {_MAX_KVSB} vertices, got {g.n}")
    if g.m > _MAX_MINIMAL_EDGES:
        raise TooLargeError(
            f"oracle limited to {_MAX_MINIMAL_EDGES} edges, got {g.m}"
        )
    edges = g.edges()
    out, inn = _arc_masks(g.n, edges)
    if not _k_vsb_masks(out, inn, g.n, k):
        raise ValueError(f"input graph is not {k}-vertex strongly biconnected")
    for u, v in edges:
        out[u] &= ~(1 << v)
        inn[v] &= ~(1 << u)
        still = _k_vsb_masks(out, inn, g.n, k)
        out[u] |= 1 << v
        inn[v] |= 1 << u
        if still:
            return False
    return True
