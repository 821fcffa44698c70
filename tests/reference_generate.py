"""The generator as it shuffled real lists of arc indices, one
``rng.integers`` call per item: a reference for ``generator._draw``,
``random_digraph`` and ``grow_until_3vsb``.

Sampling shuffled a list of all n(n-1) arc indices, and growth a list of
the absent ones, built from a mask of the present ones.  The tests check
that the virtual pool with batched draws yields the same items in the
same order, so both generators build the same instances.
"""
from __future__ import annotations

from itertools import islice
from typing import Iterator

import numpy as np

from vsbgraph.connectivity import _degree_gated, is_k_vsb
from vsbgraph.digraph import Digraph
from vsbgraph.errors import SaturatedError
from vsbgraph.generator import GeneratedInstance, InstanceSpec, _arc_pair, _rng


def reference_draw(pool: list[int], rng: np.random.Generator) -> Iterator[int]:
    for i in range(len(pool)):
        j = int(rng.integers(i, len(pool)))
        pool[i], pool[j] = pool[j], pool[i]
        yield pool[i]


def reference_random_digraph(spec: InstanceSpec) -> Digraph:
    rng = _rng(spec.seed)
    n = spec.n
    picks = islice(reference_draw(list(range(n * (n - 1))), rng), spec.initial_edges)
    return Digraph(n, [_arc_pair(i, n) for i in picks])


def reference_grow_until_3vsb(g: Digraph, seed: int) -> GeneratedInstance:
    spec = InstanceSpec(g.n, g.m, seed)
    work = g.copy()
    n = work.n
    present = bytearray(n * (n - 1))
    for u, v in work.edges():
        present[u * (n - 1) + (v if v < u else v - 1)] = 1
    absent = [i for i, here in enumerate(present) if not here]
    arcs = (_arc_pair(i, n) for i in reference_draw(absent, _rng(seed)))
    for added in _degree_gated(work, arcs, 3):
        if is_k_vsb(work, 3).verdict:
            return GeneratedInstance(spec, work, added)
    raise SaturatedError("graph became complete without passing the 3-vsb test")
