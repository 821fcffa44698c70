"""Output checks the benchmark makes outside its timed region.

Each check returns a list of problems; an empty list means the output
is correct.  The residual-graph code here is the benchmark's own and
shares nothing with ``vsbgraph.connectivity``: it replays a witness by
plain searches, so a defect in the library's lowpoint DFS cannot hide a
wrong verdict.
"""
from __future__ import annotations

import hashlib
import re
from typing import Any, Iterable

_CUT_LINE = re.compile(r"false: deleting \{([0-9, ]+)\} breaks strong biconnectivity\n")
_SELF_LINE = "false: graph itself is not strongly biconnected\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _reaches_all(adj: dict[int, set[int]], skip: int | None = None) -> bool:
    nodes = [v for v in adj if v != skip]
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        for y in adj[stack.pop()]:
            if y != skip and y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(nodes)


def strongly_biconnected_without(
    n: int, edges: Iterable[tuple[int, int]], deleted: Iterable[int]
) -> bool:
    """Is the digraph minus ``deleted`` strongly biconnected?

    Strongly connected, and no single vertex disconnects the underlying
    undirected graph.  One vertex counts as strongly biconnected; two
    need both arcs between them (the conventions of ``vsbgraph``).
    """
    gone = set(deleted)
    alive = [v for v in range(n) if v not in gone]
    out: dict[int, set[int]] = {v: set() for v in alive}
    inn: dict[int, set[int]] = {v: set() for v in alive}
    und: dict[int, set[int]] = {v: set() for v in alive}
    for u, v in edges:
        if u in out and v in out:
            out[u].add(v)
            inn[v].add(u)
            und[u].add(v)
            und[v].add(u)
    if len(alive) <= 1:
        return True
    if len(alive) == 2:
        u, v = alive
        return v in out[u] and u in out[v]
    if not (_reaches_all(out) and _reaches_all(inn)):
        return False
    return all(_reaches_all(und, skip=x) for x in alive)


def spanning_subgraph(g: Any, sub: Any, k: int, is_k_vsb: Any) -> list[str]:
    """``sub`` spans ``g``, uses only its edges, has in- and out-degree
    at least k everywhere and is k-vsb by ``is_k_vsb``."""
    problems = []
    if sub.n != g.n:
        problems.append(f"output has {sub.n} vertices, input {g.n}")
        return problems
    edges = sub.edges()
    if not set(edges) <= set(g.edges()):
        problems.append("output has an edge the input lacks")
    indeg = [0] * g.n
    outdeg = [0] * g.n
    for u, v in edges:
        outdeg[u] += 1
        indeg[v] += 1
    if min(indeg) < k or min(outdeg) < k:
        problems.append(f"output has a vertex of in- or out-degree below {k}")
    if not is_k_vsb(sub, k).verdict:
        problems.append(f"output is not {k}-vsb")
    return problems


def extraction(g: Any, result: Any, is_k_vsb: Any, two_phase: bool) -> list[str]:
    problems = spanning_subgraph(g, result.subgraph, 3, is_k_vsb)
    stats = result.stats
    if (stats.edges_in, stats.edges_out) != (g.m, result.subgraph.m):
        problems.append("stats edge counts disagree with the graphs")
    kept = set(result.subgraph.edges())
    if two_phase and not set(result.protected) <= kept:
        problems.append("output drops a protected edge")
    if not two_phase and len(result.protected):
        problems.append("minimal extraction reports protected edges")
    return problems


def check_pass(code: int, text: str) -> list[str]:
    if (code, text) != (0, "true\n"):
        return [f"check on a 3-vsb instance gave exit {code}: {text!r}"]
    return []


def check_fail(code: int, text: str, n: int, edges: list[tuple[int, int]]) -> list[str]:
    """A false verdict whose witness, replayed here, really breaks the graph."""
    if code != 1:
        return [f"check on a near-miss instance gave exit {code}: {text!r}"]
    if text == _SELF_LINE:
        cut: tuple[int, ...] = ()
    else:
        match = _CUT_LINE.fullmatch(text)
        if match is None:
            return [f"unreadable witness line {text!r}"]
        cut = tuple(int(part) for part in match.group(1).split(", "))
    if len(cut) > 2:
        return [f"witness {cut} is larger than k-1 = 2"]
    if strongly_biconnected_without(n, edges, cut):
        return [f"witness {cut} does not break strong biconnectivity"]
    return []
