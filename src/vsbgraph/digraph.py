"""Directed-graph value type.

Vertices are the dense integers ``0..n-1``.  Edges form an ordered
sequence; insertion order is significant (the greedy extraction
algorithms iterate edges in it) and is preserved by serialization.
The sequence holds exactly the arcs present, each with its out- and
in-adjacency entry.  Adding an arc appends it and removing one deletes
it, both in O(1); an arc added again, or put back with ``restore_edge``,
goes to the end of the sequence.

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

_COMMENT = re.compile(r"^#.*\n?", re.MULTILINE)
# a whole edge list with its comment lines dropped, when every line is
# well formed: the header, then the arc lines, the final newline optional.
# The arc lines are matched possessively (Python 3.11): only a newline may
# follow them, so giving one back never helps, and a text that fails is
# rejected without a step back per line.
_FIELD = rf"\d{{1,{MAX_FIELD_DIGITS}}}"
_EDGE_LIST = re.compile(rf"({_FIELD}) ({_FIELD})((?:\n{_FIELD} {_FIELD})*+)\n?")


class Digraph:
    """Simple directed graph: no self-loops, no parallel arcs."""

    __slots__ = ("n", "_edges", "_out", "_in")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        self.n = n
        out: list[set[int]] = [set() for _ in range(n)]
        inn: list[set[int]] = [set() for _ in range(n)]
        # built in bulk and then checked as a whole; edges is read once
        arcs = list(edges)
        # the arcs as tuples, which the rebuild reads too: tuple() uses up
        # an arc given as an iterator, and extend keeps the arcs converted
        # before one that fails
        pairs: list[tuple[int, int]] = []
        try:
            pairs.extend(map(tuple, arcs))
            # the arcs present, in insertion order
            present = dict.fromkeys(pairs)
            for u, v in present:
                out[u].add(v)
                inn[v].add(u)
            # no repeated arc, no self-loop and no negative id, which
            # indexes a real set from the end (every id is in some set)
            clean = (
                len(present) == len(arcs)
                and not any(map(set.__contains__, out, range(n)))
                and min(set().union(*out, *inn), default=0) >= 0
            )
        except (TypeError, ValueError, IndexError):
            # an arc that is no pair of ints, or an id >= n
            clean = False
        if clean:
            self._edges: dict[tuple[int, int], None] = present
            self._out, self._in = out, inn
            return
        # arc by arc, so that the first bad arc raises its error
        self._edges = {}
        self._out = [set() for _ in range(n)]
        self._in = [set() for _ in range(n)]
        for u, v in pairs + arcs[len(pairs) :]:
            self.add_edge(u, v)

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self._edges)

    def edges(self) -> list[tuple[int, int]]:
        """Edges in sequence order."""
        return list(self._edges)

    def in_neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return frozenset(self._in[v])

    def add_edge(self, u: int, v: int) -> None:
        """Append the arc (u, v) to the edge sequence."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            self._check_vertex(u)
            self._check_vertex(v)
        if u == v:
            raise SelfLoopError(f"self-loop ({u}, {v}) not allowed")
        if (u, v) in self._edges:
            raise DuplicateEdgeError(f"edge ({u}, {v}) already present")
        self._edges[(u, v)] = None
        self._out[u].add(v)
        self._in[v].add(u)

    def remove_edge(self, u: int, v: int) -> None:
        """Delete the arc (u, v) from the edge sequence."""
        if (u, v) not in self._edges:
            raise EdgeAbsentError(f"edge ({u}, {v}) not present")
        del self._edges[(u, v)]
        self._out[u].discard(v)
        self._in[v].discard(u)

    def restore_edge(self, u: int, v: int) -> None:
        """Undo ``remove_edge(u, v)``: re-add the arc, at the end of the
        edge sequence (:meth:`add_edge`)."""
        self.add_edge(u, v)

    def copy(self) -> Digraph:
        """Independent copy: same edge sequence, no shared set."""
        g = Digraph.__new__(Digraph)
        g.n = self.n
        g._edges = self._edges.copy()
        g._out = [set(s) for s in self._out]
        g._in = [set(s) for s in self._in]
        return g

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise OutOfRangeError(f"vertex {v} outside [0, {self.n})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self.edges() == other.edges()

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.m})"


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
    match = _EDGE_LIST.fullmatch(_COMMENT.sub("", text) if "#" in text else text)
    if match is None:
        _raise_line_error(text)
    n, m, body = match.groups()
    _check_sizes(int(n), int(m), body.count("\n"))
    fields = body.split()
    # ids repeat, so each distinct field is converted once
    value = {field: int(field) for field in set(fields)}
    numbers = map(value.__getitem__, fields)
    return Digraph(int(n), zip(numbers, numbers))


def _raise_line_error(text: str) -> None:
    """Raise the error for text that ``_EDGE_LIST`` rejects once its
    comment lines are dropped: the first failing check, line by line,
    with line numbers that count the comment lines."""
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
    _check_sizes(*_fields(match, lineno), len(data) - 1)
    for lineno, line in data[1:]:
        match = _EDGE_LINE.fullmatch(line)
        if match is None:
            raise EdgeListSyntaxError(
                f"line {lineno}: expected 'u v', got {line!r}"
            )
        _fields(match, lineno)


def _check_sizes(n: int, m: int, arc_lines: int) -> None:
    if n > MAX_VERTICES:
        raise TooLargeError(f"{n} vertices exceed the limit of {MAX_VERTICES}")
    if arc_lines != m:
        raise EdgeListSyntaxError(
            f"header declares {m} edges but {arc_lines} edge lines found"
        )


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
