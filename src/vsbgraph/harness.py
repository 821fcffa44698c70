"""Experiment harness: generate instances, run both extractors, tabulate.

Each row of an experiment is one generated instance (size n, seed) on
which both extraction strategies run from identical inputs.  Timing
uses a monotonic high-resolution CPU clock (process time) around the
extraction call only, excluding generation and any verification done by
callers; CPU time keeps per-row comparisons stable under scheduler
noise, and the algorithms are single-threaded so it tracks wall time.
Times are reported in milliseconds and are the only non-reproducible
columns.  Rows run sequentially by default ("one core" comparability);
opt-in process parallelism distributes whole rows, never the inside of
an algorithm, and output keeps plan order regardless of completion
order.  Every row's instance spec is built and checked once, when the
plan is built, so a row raises only on an internal error, which
propagates.
"""
from __future__ import annotations

import csv
import gc
import io
import os
import time
from dataclasses import dataclass, fields

from .digraph import Digraph
from .errors import GraphError
from .extraction import ExtractionResult, minimal_k_vsb, two_phase_3vsb
from .generator import InstanceSpec, generate

# Largest number of rows a plan accepts: the plan builds and keeps every
# row's instance spec up front, about 136 bytes each.
MAX_ROWS = 10_000

_MD_HEADER = (
    "| Input (V, E) | Algorithm 1 Time | Algorithm 1 Edges "
    "| Algorithm 2 Time | Algorithm 2 Edges |"
)


@dataclass(frozen=True)
class ExperimentRow:
    """One instance: input size plus per-algorithm time and edge count.

    Algorithm 1 is the full greedy minimal extraction, algorithm 2 the
    two-phase variant with a protected backbone.
    """

    n: int
    m_input: int
    seed: int
    algo1_time_ms: float
    algo1_edges: int
    algo2_time_ms: float
    algo2_edges: int

    def __post_init__(self) -> None:
        for count in (self.algo1_edges, self.algo2_edges):
            if count > self.m_input:
                raise ValueError("output edge count exceeds input edge count")
            if count < 3 * self.n:
                raise ValueError("output edge count below the 3n degree bound")


@dataclass(frozen=True)
class ExperimentPlan:
    """Sizes to run, seeds per size (1..seeds_per_size), m0 = multiplier*n
    (None, the default: :class:`InstanceSpec`'s min(8n, n(n-1))).  A size
    that makes no valid spec, or more than :data:`MAX_ROWS` rows, raises
    :class:`ValueError` before any row runs."""

    sizes: tuple[int, ...]
    seeds_per_size: int = 3
    multiplier: int | None = None

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("plan needs at least one instance size")
        if self.seeds_per_size < 1:
            raise ValueError("seeds_per_size must be at least 1")
        rows = len(self.sizes) * self.seeds_per_size
        if rows > MAX_ROWS:
            raise ValueError(f"{rows} rows exceed the limit of {MAX_ROWS}")
        if self.multiplier is not None and self.multiplier < 1:
            raise ValueError("multiplier must be at least 1")
        try:
            specs = self._specs()
        except GraphError as exc:
            raise ValueError(str(exc)) from None
        # kept for run_experiment; not a field, so eq, hash and repr ignore it
        object.__setattr__(self, "_checked_specs", specs)

    def _specs(self) -> list[InstanceSpec]:
        """One instance spec per row, in plan order."""
        mult = self.multiplier
        return [
            InstanceSpec(n, None if mult is None else mult * n, seed)
            for n in self.sizes
            for seed in range(1, self.seeds_per_size + 1)
        ]


def _timed_extractions(
    g: Digraph,
) -> tuple[ExtractionResult, float, ExtractionResult, float]:
    """Both extractors on g; per-call CPU milliseconds, GC paused (as timeit
    does).  Nothing here builds reference cycles, so refcounting reclaims
    the working copies even while collection is off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time()
        full = minimal_k_vsb(g, 3)
        t1 = time.process_time()
        two_phase = two_phase_3vsb(g)
        t2 = time.process_time()
    finally:
        if was_enabled:
            gc.enable()
    return full, (t1 - t0) * 1e3, two_phase, (t2 - t1) * 1e3


def _run_row(spec: InstanceSpec) -> ExperimentRow:
    g = generate(spec).graph
    full, full_ms, two_phase, two_phase_ms = _timed_extractions(g)
    return ExperimentRow(
        n=spec.n,
        m_input=g.m,
        seed=spec.seed,
        algo1_time_ms=full_ms,
        algo1_edges=full.subgraph.m,
        algo2_time_ms=two_phase_ms,
        algo2_edges=two_phase.subgraph.m,
    )


def _pool_size(workers: int, tasks: int) -> int:
    """Processes for a run of ``tasks`` rows: at most the rows and the
    CPUs; one or fewer means the rows run in the calling process."""
    return min(workers, tasks, os.cpu_count() or 1)


def run_experiment(plan: ExperimentPlan, workers: int = 1) -> list[ExperimentRow]:
    """Run every (size, seed) cell and return the rows in plan order."""
    tasks = plan._checked_specs
    workers = _pool_size(workers, len(tasks))
    if workers <= 1:
        return [_run_row(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_row, tasks))


def format_duration(ms: float) -> str:
    """Human-readable duration, e.g. 73000 ms -> '1 m 13 s' and
    2.18 ms -> '2.180 ms'; whole seconds round half up."""
    if round(ms, 3) < 1000:
        return f"{ms:.3f} ms"
    total = int((ms + 500) // 1000)
    hours, rest = divmod(total, 3600)
    minutes, seconds = divmod(rest, 60)
    parts = []
    if hours:
        parts.append(f"{hours} h")
    if minutes or hours:
        parts.append(f"{minutes} m")
    parts.append(f"{seconds} s")
    return " ".join(parts)


def emit_table(rows: list[ExperimentRow], fmt: str = "csv") -> str:
    """Render rows as CSV (machine columns) or a markdown table."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        columns = [f.name for f in fields(ExperimentRow)]
        writer.writerow(columns)
        for r in rows:
            writer.writerow(
                f"{getattr(r, c):.3f}" if c.endswith("_ms") else getattr(r, c)
                for c in columns
            )
        return buf.getvalue()
    if fmt == "md":
        lines = [_MD_HEADER, "|---|---|---|---|---|"]
        for r in rows:
            lines.append(
                f"| ({r.n}, {r.m_input}) "
                f"| {format_duration(r.algo1_time_ms)} | {r.algo1_edges} "
                f"| {format_duration(r.algo2_time_ms)} | {r.algo2_edges} |"
            )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown output format: {fmt!r}")
