"""Reference computation that tracks the machine's speed during a run.

On a shared machine the CPU time of the same work drifts by up to a
factor of two within seconds (measured on a 2-core VM: one fixed
``is_k_vsb`` call took 6.6-12.3 ms over a minute, while its ratio to
this reference stayed within 12.5-14.3).  ``sample()`` times a fixed
computation written here and independent of vsbgraph.  An operation's
CPU time divided by the mean of the samples taken around it, times
``NOMINAL_S``, is its CPU time on a machine where one sample takes
``NOMINAL_S`` seconds.

The reference must never change: a new graph or loop would rescale
every calibrated number.
"""
from __future__ import annotations

import gc
import random
import time

NOMINAL_S = 0.005
CALLS = 10
_N = 24


def _undirected_graph() -> list[set[int]]:
    rng = random.Random(12345)
    arcs: set[tuple[int, int]] = set()
    while len(arcs) < 8 * _N:
        u, v = rng.randrange(_N), rng.randrange(_N)
        if u != v:
            arcs.add((u, v))
    adj: list[set[int]] = [set() for _ in range(_N)]
    for u, v in arcs:
        adj[u].add(v)
        adj[v].add(u)
    return adj


_ADJ = _undirected_graph()


def _work() -> int:
    """For every vertex, one search of the graph with that vertex removed."""
    reached = 0
    for skip in range(_N):
        start = 1 if skip == 0 else 0
        seen = bytearray(_N)
        seen[start] = seen[skip] = 1
        stack = [start]
        while stack:
            for y in _ADJ[stack.pop()]:
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
        reached += sum(seen)
    return reached


def sample() -> float:
    """CPU seconds of ``CALLS`` reference computations, collector paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time()
        for _ in range(CALLS):
            _work()
        return time.process_time() - t0
    finally:
        if was_enabled:
            gc.enable()
