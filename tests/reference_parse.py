"""The edge-list parser as it read every file line by line, before the
whole-text match: a reference for ``digraph.parse_edge_list``.

The graph is built one ``add_edge`` call per arc (``reference_build``),
as ``Digraph`` built it then: a reference for ``Digraph(n, arcs)``.  The
tests check that both parsers return the same graph, or raise the same
exception class with the same message, on the same text.
The size limits are read from ``vsbgraph.digraph`` at each call, so a
test that patches them patches both parsers.
"""
from __future__ import annotations

import re

from vsbgraph import digraph
from vsbgraph.digraph import Digraph
from vsbgraph.errors import EdgeListSyntaxError, TooLargeError

_EDGE_LINE = re.compile(r"(\d+) (\d+)")


def reference_parse(text: str) -> Digraph:
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
    if n > digraph.MAX_VERTICES:
        raise TooLargeError(
            f"{n} vertices exceed the limit of {digraph.MAX_VERTICES}"
        )
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
    return reference_build(n, edges)


def reference_build(n: int, arcs) -> Digraph:
    """A graph on n vertices with the arcs added one by one."""
    g = Digraph(n)
    for u, v in arcs:
        g.add_edge(u, v)
    return g


def _fields(match: re.Match[str], lineno: int) -> tuple[int, int]:
    a, b = match.groups()
    limit = digraph.MAX_FIELD_DIGITS
    if len(a) > limit or len(b) > limit:
        raise TooLargeError(f"line {lineno}: number longer than {limit} digits")
    return int(a), int(b)
