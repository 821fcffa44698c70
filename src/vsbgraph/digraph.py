"""Directed-graph value type with deletion-friendly edge bookkeeping.

Vertices are the dense integers ``0..n-1``.  Edges form an ordered
sequence; insertion order is significant (the greedy extraction
algorithms iterate edges in it) and is preserved by serialization.
The sequence records every arc ever inserted, each with an activity
flag; it only grows.  Removing an edge clears its flag instead of
rebuilding adjacency, and restoring it goes through ``add_edge``, which
sets the flag again, so a remove/restore pair costs O(degree) and a
restored edge reappears at its original position.

A :class:`Digraph` may be shared read-only across threads; the mutating
methods (``add_edge``, ``remove_edge``, ``restore_edge``) require
exclusive access.  There is no internal locking.
"""
from __future__ import annotations

import re
from typing import Iterable

from .errors import (
    DuplicateEdgeError,
    EdgeAbsentError,
    EdgeListSyntaxError,
    OutOfRangeError,
    SelfLoopError,
    TooLargeError,
)

_EDGE_LINE = re.compile(r"(\d+) (\d+)")

# Largest header n parse_edge_list accepts: a Digraph allocates two sets
# per vertex up front, so a short header could otherwise demand gigabytes.
MAX_VERTICES = 100_000

# Longest decimal field parse_edge_list converts: int() on a longer string
# costs time quadratic in its length, and CPython refuses past 4,300 digits.
MAX_FIELD_DIGITS = 18


class Digraph:
    """Simple directed graph: no self-loops, no parallel arcs."""

    __slots__ = ("n", "_edges", "_out", "_in", "_m")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        self.n = n
        # every arc ever inserted, in insertion order, mapped to whether it
        # is active; reassigning a key keeps its position
        self._edges: dict[tuple[int, int], bool] = {}
        self._out: list[set[int]] = [set() for _ in range(n)]
        self._in: list[set[int]] = [set() for _ in range(n)]
        self._m = 0
        for u, v in edges:
            self.add_edge(u, v)

    @property
    def m(self) -> int:
        """Number of active edges."""
        return self._m

    def edges(self) -> list[tuple[int, int]]:
        """Active edges in sequence order."""
        return [e for e, alive in self._edges.items() if alive]

    def has_edge(self, u: int, v: int) -> bool:
        return self._edges.get((u, v), False)

    def out_neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return frozenset(self._out[v])

    def in_neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return frozenset(self._in[v])

    def out_degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._out[v])

    def in_degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._in[v])

    def add_edge(self, u: int, v: int) -> None:
        """Insert the arc (u, v).

        A brand-new pair is appended to the edge sequence; a pair that
        was removed earlier is reactivated at its original position.
        """
        if not (0 <= u < self.n and 0 <= v < self.n):
            self._check_vertex(u)
            self._check_vertex(v)
        if u == v:
            raise SelfLoopError(f"self-loop ({u}, {v}) not allowed")
        if self._edges.get((u, v)):
            raise DuplicateEdgeError(f"edge ({u}, {v}) already present")
        self._edges[(u, v)] = True
        self._out[u].add(v)
        self._in[v].add(u)
        self._m += 1

    def remove_edge(self, u: int, v: int) -> None:
        """Deactivate the arc (u, v); its slot is kept for restoration."""
        if not self._edges.get((u, v)):
            raise EdgeAbsentError(f"edge ({u}, {v}) not present")
        self._edges[(u, v)] = False
        self._out[u].discard(v)
        self._in[v].discard(u)
        self._m -= 1

    def restore_edge(self, u: int, v: int) -> None:
        """Reactivate a previously removed arc at its original position;
        an arc that is already active raises :class:`DuplicateEdgeError`."""
        if (u, v) not in self._edges:
            raise EdgeAbsentError(f"edge ({u}, {v}) was never present")
        self.add_edge(u, v)

    def copy(self) -> Digraph:
        """Independent copy holding only the active edges."""
        return Digraph(self.n, self.edges())

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise OutOfRangeError(f"vertex {v} outside [0, {self.n})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self.edges() == other.edges()

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self._m})"


def parse_edge_list(text: str) -> Digraph:
    """Parse edge-list text: header ``n m`` then m lines ``u v``.

    Lines starting with ``#`` are comments and may appear anywhere.
    Input must be ASCII; vertex ids are 0-based decimals separated by a
    single space.  A field longer than :data:`MAX_FIELD_DIGITS` digits,
    or a header ``n`` above :data:`MAX_VERTICES`, raises
    :class:`TooLargeError` before any graph is built.
    """
    if not text.isascii():
        raise EdgeListSyntaxError("edge-list text must be ASCII")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    data: list[tuple[int, str]] = [
        (i, line)
        for i, line in enumerate(lines, start=1)
        if not line.startswith("#")
    ]
    if not data:
        raise EdgeListSyntaxError("missing 'n m' header line")
    lineno, header = data[0]
    match = _EDGE_LINE.fullmatch(header)
    if match is None:
        raise EdgeListSyntaxError(f"line {lineno}: expected 'n m', got {header!r}")
    n, m = _fields(match, lineno)
    if n > MAX_VERTICES:
        raise TooLargeError(f"{n} vertices exceed the limit of {MAX_VERTICES}")
    body = data[1:]
    if len(body) != m:
        raise EdgeListSyntaxError(
            f"header declares {m} edges but {len(body)} edge lines found"
        )
    edges = []
    for lineno, line in body:
        match = _EDGE_LINE.fullmatch(line)
        if match is None:
            raise EdgeListSyntaxError(
                f"line {lineno}: expected 'u v', got {line!r}"
            )
        edges.append(_fields(match, lineno))
    return Digraph(n, edges)


def _fields(match: re.Match[str], lineno: int) -> tuple[int, int]:
    a, b = match.groups()
    if len(a) > MAX_FIELD_DIGITS or len(b) > MAX_FIELD_DIGITS:
        raise TooLargeError(
            f"line {lineno}: number longer than {MAX_FIELD_DIGITS} digits"
        )
    return int(a), int(b)


def serialize_edge_list(g: Digraph) -> str:
    """Canonical edge-list text; ``parse_edge_list`` inverts it exactly."""
    out = [f"{g.n} {g.m}\n"]
    out.extend(f"{u} {v}\n" for u, v in g.edges())
    return "".join(out)
