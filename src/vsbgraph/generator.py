"""Random 3-vsb benchmark instances with deterministic seeding.

Construction recipe: sample a fixed number of distinct arcs uniformly
(default 8n, capped at all n(n-1) arcs, which binds at n <= 9), then
insert further uniformly random absent arcs one at a time and stop at
the first graph that is 3-vertex strongly biconnected.
While some vertex has in- or out-degree below 3, or undirected degree
below 4, the graph cannot be 3-vsb, so the full 3-vsb test runs only
once every vertex meets that degree bound; the instance is the same as
if it ran after every insertion (``connectivity._degree_gated``, the
extraction backbone's gate too).  Randomness comes from numpy's PCG64
generator, so a spec (n, initial edge count, 64-bit seed) pins the
instance exactly.

Arcs are addressed through the bijection between [0, n(n-1)) and
ordered pairs (u, v), v skipping u; sampling without replacement, of
the initial arcs and of the grown ones, is a lazy partial Fisher-Yates
shuffle of that index space, which is uniform and needs no rejection
loop at high densities.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Iterator

from .connectivity import _degree_gated, is_k_vsb
from .digraph import Digraph
from .errors import (
    SaturatedError,
    TooFewVerticesError,
    TooLargeError,
    TooManyEdgesError,
)

if TYPE_CHECKING:
    import numpy as np

# Largest n an InstanceSpec accepts: sampling and growth each build a
# list of all n(n-1) arc indices, about a million entries at this limit.
MAX_VERTICES = 1_000


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


def _draw(pool: list[int], rng: np.random.Generator) -> Iterator[int]:
    """Items of pool in uniformly random order, drawn lazily: a partial
    Fisher-Yates shuffle that makes one ``rng.integers`` call per item."""
    for i in range(len(pool)):
        j = int(rng.integers(i, len(pool)))
        pool[i], pool[j] = pool[j], pool[i]
        yield pool[i]


def random_digraph(spec: InstanceSpec) -> Digraph:
    """Uniform simple digraph with exactly ``spec.initial_edges`` arcs."""
    rng = _rng(spec.seed)
    n = spec.n
    picks = islice(_draw(list(range(n * (n - 1))), rng), spec.initial_edges)
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
    # the inverse of _arc_pair marks the present arcs' indices
    present = bytearray(n * (n - 1))
    for u, v in work.edges():
        present[u * (n - 1) + (v if v < u else v - 1)] = 1
    absent = [i for i, here in enumerate(present) if not here]
    arcs = (_arc_pair(i, n) for i in _draw(absent, _rng(seed)))
    for added in _degree_gated(work, arcs, 3):
        if is_k_vsb(work, 3).verdict:
            return GeneratedInstance(spec, work, added)
    raise SaturatedError("graph became complete without passing the 3-vsb test")


def generate(spec: InstanceSpec) -> GeneratedInstance:
    """Full pipeline: sample ``spec.initial_edges`` arcs, then grow to 3-vsb."""
    return grow_until_3vsb(random_digraph(spec), spec.seed)
