"""Random 3-vsb benchmark instances with deterministic seeding.

Construction recipe: sample a fixed number of distinct arcs uniformly
(default 8n, capped at all n(n-1) arcs, which binds at n <= 9), then
insert further uniformly random absent arcs one at a time and stop at
the first graph that is 3-vertex strongly biconnected.
While some vertex has in- or out-degree below 3, or undirected degree
below 4, the graph cannot be 3-vsb, so the full 3-vsb test runs only
once every vertex meets that degree bound; the instance is the same as
if it ran after every insertion (``connectivity._degree_gated``, which
keeps the degree counts while each drawn arc joins the work graph as the
gate reads it; the extraction backbone runs the same gate over a record
of arcs instead of a graph).  Randomness comes from numpy's PCG64
generator, so a spec (n, initial edge count, 64-bit seed) pins the
instance exactly.

Arcs are addressed through the bijection between [0, n(n-1)) and
ordered pairs (u, v), v skipping u; sampling without replacement, of
the initial arcs and of the grown ones, is a lazy partial Fisher-Yates
shuffle of that index space, which is uniform and needs no rejection
loop at high densities.  The shuffle runs over a virtual pool that
stores only the entries its swaps displaced, so no list of n(n-1)
indices is built: growth shuffles the ranks of the absent indices and
maps rank p to the p-th absent index by bisection over the present
ones.  Its swap targets are drawn with one ``rng.integers`` call per
batch of items, and give the same instance as one call per item.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Iterator

from .connectivity import _degree_gated, _slacks, is_k_vsb
from .digraph import Digraph
from .errors import (
    SaturatedError,
    TooFewVerticesError,
    TooLargeError,
    TooManyEdgesError,
)

if TYPE_CHECKING:
    import numpy as np

# Largest n an InstanceSpec accepts: a dense spec still builds a graph of
# up to n(n-1) arcs, about a million at this limit.
MAX_VERTICES = 1_000
# Most swap targets one numpy call draws: bounds the memory of a batch.
_MAX_BATCH = 4096
# Growth's first batch: growth cannot know how many arcs it will add, so
# its batches start small and double, up to _MAX_BATCH.
_GROWTH_BATCH = 64


@dataclass(frozen=True)
class InstanceSpec:
    """Generator parameters; ``initial_edges`` defaults to min(8n, n(n-1)).

    ``n`` must lie in [4, :data:`MAX_VERTICES`]; above the limit
    :class:`TooLargeError` is raised before anything is allocated.  A
    negative ``seed`` raises :class:`ValueError` (numpy seeds are
    non-negative).  The default density is capped at the complete
    digraph, so every n from 4 up has a default instance.
    """

    n: int
    initial_edges: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 4:
            raise TooFewVerticesError(
                f"instances need at least 4 vertices, got {self.n}"
            )
        if self.n > MAX_VERTICES:
            raise TooLargeError(
                f"{self.n} vertices exceed the generator limit of {MAX_VERTICES}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.initial_edges is None:
            object.__setattr__(
                self, "initial_edges", min(8 * self.n, self.n * (self.n - 1))
            )
        if not 0 <= self.initial_edges <= self.n * (self.n - 1):
            raise TooManyEdgesError(
                f"{self.initial_edges} edges impossible on {self.n} vertices "
                f"(max {self.n * (self.n - 1)})"
            )


@dataclass(frozen=True, eq=False)
class GeneratedInstance:
    spec: InstanceSpec
    graph: Digraph
    edges_added_in_growth: int


def _arc_pair(index: int, n: int) -> tuple[int, int]:
    u, r = divmod(index, n - 1)
    return u, r if r < u else r + 1


def _rng(seed: int) -> np.random.Generator:
    """numpy's PCG64 generator seeded with ``seed``.  numpy is imported
    here, at the first draw, so that importing the package (and every
    CLI command that draws nothing) does not load it."""
    import numpy as np

    return np.random.default_rng(seed)


def _draw(size: int, rng: np.random.Generator, batch: int) -> Iterator[int]:
    """The numbers in [0, size) in uniformly random order, drawn lazily: a
    partial Fisher-Yates shuffle of a virtual pool whose position p holds p
    until a swap moves another number there (``displaced``).

    The swap targets come from one ``rng.integers`` call per batch: the
    first ``batch`` of them, each later batch twice as large, up to
    ``_MAX_BATCH``.  A call with the array of lower bounds i, i+1, ...
    draws the same numbers as one ``rng.integers(i, size)`` call per item
    (numpy makes the same bounded draw per element on both paths), so
    the order depends only on the seed, not on the batch sizes; draws
    past the last item the caller takes change nothing, since every
    generator belongs to one call.
    """
    import numpy as np

    displaced: dict[int, int] = {}
    i, batch = 0, min(max(batch, 1), _MAX_BATCH)
    while i < size:
        for j in rng.integers(np.arange(i, min(size, i + batch)), size).tolist():
            here = displaced.pop(i, i)
            if j != i:
                here, displaced[j] = displaced.get(j, j), here
            yield here
            i += 1
        batch = min(2 * batch, _MAX_BATCH)


def random_digraph(spec: InstanceSpec) -> Digraph:
    """Uniform simple digraph with exactly ``spec.initial_edges`` arcs."""
    n, count = spec.n, spec.initial_edges
    picks = islice(_draw(n * (n - 1), _rng(spec.seed), count), count)
    return Digraph(n, [_arc_pair(i, n) for i in picks])


def grow_until_3vsb(g: Digraph, seed: int) -> GeneratedInstance:
    """Add uniformly random absent arcs until the graph is 3-vsb.

    The input is not modified; growth stops at the first graph that
    passes (a graph that already passes gains nothing).  The full 3-vsb
    test runs only when every vertex has in- and out-degree >= 3 and, at
    n >= 5, at least 4 distinct neighbours; before that it would fail,
    so skipping it changes no instance.  Terminates before the arc
    space is exhausted because the complete bidirected graph on n >= 4
    vertices is 3-vsb; running out anyway raises :class:`SaturatedError`.
    """
    spec = InstanceSpec(g.n, g.m, seed)
    work = g.copy()
    n = work.n
    # gaps[j] is the number of absent arc indices below the j-th present
    # one (in index order, the inverse of _arc_pair), so the p-th absent
    # index is p plus the number of gaps at most p
    gaps: list[int] = []
    for u, out in enumerate(work._out):
        for v in sorted(out):
            gaps.append(u * (n - 1) + (v if v < u else v - 1) - len(gaps))
    drawn = _draw(n * (n - 1) - len(gaps), _rng(seed), _GROWTH_BATCH)

    def grown() -> Iterator[tuple[int, int]]:
        # each drawn arc joins the work graph as the gate reads it
        for p in drawn:
            u, v = _arc_pair(p + bisect_right(gaps, p), n)
            work.add_edge(u, v)
            yield u, v

    for added in _degree_gated(_slacks(work, 3), grown(), work._edges):
        if is_k_vsb(work, 3).verdict:
            return GeneratedInstance(spec, work, added)
    raise SaturatedError("graph became complete without passing the 3-vsb test")


def generate(spec: InstanceSpec) -> GeneratedInstance:
    """Full pipeline: sample ``spec.initial_edges`` arcs, then grow to 3-vsb."""
    return grow_until_3vsb(random_digraph(spec), spec.seed)
