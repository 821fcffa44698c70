"""Shared graph builders and hypothesis strategies for the test suite."""
from __future__ import annotations

from hypothesis import strategies as st

from vsbgraph import Digraph

ALL_ARCS_4 = [(u, v) for u in range(4) for v in range(4) if u != v]


def complete_bidirected(n: int) -> Digraph:
    return Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])


def directed_cycle(n: int) -> Digraph:
    return Digraph(n, [(i, (i + 1) % n) for i in range(n)])


def directed_path(n: int) -> Digraph:
    return Digraph(n, [(i, i + 1) for i in range(n - 1)])


def near_miss(g: Digraph, v: int) -> Digraph:
    """A copy of g in which v keeps its two highest in-neighbours and
    loses its other in-arcs; deleting those two cuts v off."""
    a, b = sorted(g.in_neighbors(v))[-2:]
    return Digraph(g.n, [(x, y) for x, y in g.edges() if y != v or x in (a, b)])


@st.composite
def digraphs(draw, min_n: int = 1, max_n: int = 6) -> Digraph:
    n = draw(st.integers(min_n, max_n))
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
    if not arcs:
        return Digraph(n)
    edges = draw(st.lists(st.sampled_from(arcs), unique=True))
    return Digraph(n, edges)


def block_ring(blocks: int) -> Digraph:
    """A ring of bidirected K6 blocks, arcs in ascending order: vertices
    3, 4, 5 of block b are joined by antiparallel arc pairs to vertices
    0, 1, 2 of block b+1 (mod blocks).

    It is 3-vsb.  From three blocks on, a greedy 3-vsb sweep in this order
    keeps arcs that the degree bound does not decide, so the extractors'
    degree-only result fails its check and their fallback runs."""
    n = 6 * blocks
    arcs = [
        (6 * b + i, 6 * b + j)
        for b in range(blocks)
        for i in range(6)
        for j in range(6)
        if i != j
    ]
    for b in range(blocks):
        for i in range(3):
            x, y = 6 * b + 3 + i, (6 * b + 6 + i) % n
            arcs += [(x, y), (y, x)]
    return Digraph(n, sorted(arcs))
