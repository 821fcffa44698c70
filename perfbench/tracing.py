"""Span tracer for the benchmark's traced runs.

The tracer measures vsbgraph from outside: it replaces public names in
the namespace of the module that calls them (``extraction.is_k_vsb``,
``generator.random_digraph``, ...) and two ``Digraph`` methods with
wrappers that record a span per call.  A span holds its name, start and
end in process CPU nanoseconds, the index of the span that was open when
it started (its parent), the benchmark unit it belongs to, and an
optional note taken from the call's result.  Spans stay in memory until
the run ends.  Leaving the ``with`` block puts every original name back.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable

IS_K_VSB = "connectivity.is_k_vsb"
MINIMAL = "extraction.minimal"
TWO_PHASE = "extraction.two_phase"
BACKBONE = "extraction.backbone"
RANDOM_DIGRAPH = "generator.random_digraph"
GROW = "generator.grow"
GENERATE = "generator.generate"
PARSE = "digraph.parse"
REMOVE_RESTORE = ("digraph.remove_edge", "digraph.restore_edge")
CLI = "cli.check"


@dataclass
class Span:
    name: str
    parent: int | None
    unit: int
    start: int = 0
    end: int = 0
    note: Any = None


class Tracer:
    """Records spans for every call of the names it wraps."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.unit = 0
        self._open: list[int] = []
        self._patches: list[tuple[object, str, Any]] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        note: Callable[[Any], Any] | None = None,
    ) -> None:
        original = getattr(owner, attr)
        spans = self.spans
        open_spans = self._open
        clock = time.process_time_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = Span(name, open_spans[-1] if open_spans else None, self.unit)
            open_spans.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = clock()
                open_spans.pop()
            if note is not None:
                span.note = note(result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def __enter__(self) -> Tracer:
        return self

    def __exit__(self, *exc: object) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> None:
    """Wrap every name the per-layer metrics need.

    ``extraction``, ``generator`` and ``cli`` each import ``is_k_vsb`` by
    name, so it is wrapped in each of them.
    """
    from vsbgraph import cli, extraction, generator
    from vsbgraph.digraph import Digraph

    verdict = lambda report: report.verdict  # noqa: E731
    for module in (extraction, generator, cli):
        tracer.wrap(module, "is_k_vsb", IS_K_VSB, verdict)
    tracer.wrap(Digraph, "remove_edge", REMOVE_RESTORE[0])
    tracer.wrap(Digraph, "restore_edge", REMOVE_RESTORE[1])
    tracer.wrap(cli, "parse_edge_list", PARSE)
    tracer.wrap(cli, "main", CLI)
    tracer.wrap(extraction, "minimal_k_vsb", MINIMAL)
    tracer.wrap(extraction, "compute_2vsb_spanning", BACKBONE)
    tracer.wrap(extraction, "two_phase_3vsb", TWO_PHASE)
    tracer.wrap(generator, "random_digraph", RANDOM_DIGRAPH)
    tracer.wrap(generator, "grow_until_3vsb", GROW)
    tracer.wrap(generator, "generate", GENERATE)


def span_cost_ns(calls: int = 20000) -> float:
    """CPU nanoseconds one wrapped call adds, measured on a no-op."""
    target = SimpleNamespace(f=lambda: None)

    def loop() -> int:
        f = target.f
        t0 = time.process_time_ns()
        for _ in range(calls):
            f()
        return time.process_time_ns() - t0

    plain = min(loop() for _ in range(3))
    with Tracer() as tracer:
        tracer.wrap(target, "f", "noop")
        traced = min(loop() for _ in range(3))
    return max(traced - plain, 0) / calls


class _Analysis:
    def __init__(self, spans: list[Span], units: int) -> None:
        self.spans = spans
        self.units = range(units)
        child = [0] * len(spans)
        for s in spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        self.self_ns = [s.end - s.start - c for s, c in zip(spans, child)]

    def ancestors(self, i: int) -> list[str]:
        names = []
        parent = self.spans[i].parent
        while parent is not None:
            names.append(self.spans[parent].name)
            parent = self.spans[parent].parent
        return names

    def top(self, i: int) -> str:
        chain = self.ancestors(i)
        return chain[-1] if chain else self.spans[i].name

    def count(self, select: Callable[[int], bool]) -> int:
        """Matching spans in unit 0, which depends only on the seed."""
        return sum(
            1 for i, s in enumerate(self.spans) if s.unit == 0 and select(i)
        )

    def self_ms(self, select: Callable[[int], bool]) -> float:
        """Median over units of the matching spans' summed self time."""
        per_unit = {u: 0 for u in self.units}
        for i, s in enumerate(self.spans):
            if s.unit in per_unit and select(i):
                per_unit[s.unit] += self.self_ns[i]
        return statistics.median(per_unit.values()) / 1e6

    def call_ms(self, name: str, note: Any) -> float:
        """Median duration of one call, over the whole run."""
        durations = [
            s.end - s.start
            for s in self.spans
            if s.unit >= 0 and s.name == name and s.note == note
        ]
        return statistics.median(durations) / 1e6 if durations else 0.0


def layer_metrics(spans: list[Span], units: int, cost_ns: float) -> dict[str, float]:
    """Per-layer numbers from a traced run of ``units`` complete units.

    Counts come from unit 0; ``self_ms`` values are medians over units of
    the layer's self time in one unit (span time minus child spans).
    """
    a = _Analysis(spans, units)
    name = lambda i: spans[i].name  # noqa: E731

    def named(*names: str) -> Callable[[int], bool]:
        return lambda i: name(i) in names

    def in_span(outer: str, inner: str) -> Callable[[int], bool]:
        return lambda i: name(i) == inner and outer in a.ancestors(i)

    def under_top(top: str, inner: str) -> Callable[[int], bool]:
        return lambda i: name(i) == inner and a.top(i) == top

    checks = a.count(named(IS_K_VSB))
    passes = a.count(lambda i: name(i) == IS_K_VSB and spans[i].note is True)
    per_unit_spans = [0] * units
    per_unit_cpu = [0] * units
    for i, s in enumerate(spans):
        if 0 <= s.unit < units:
            per_unit_spans[s.unit] += 1
            if s.parent is None:
                per_unit_cpu[s.unit] += s.end - s.start
    overhead = statistics.median(
        cost_ns * k / cpu if cpu else 0.0
        for k, cpu in zip(per_unit_spans, per_unit_cpu)
    )
    return {
        "digraph.remove_restore.calls": a.count(named(*REMOVE_RESTORE)),
        "digraph.remove_restore.self_ms": a.self_ms(named(*REMOVE_RESTORE)),
        "digraph.parse.self_ms": a.self_ms(named(PARSE)),
        "connectivity.is_k_vsb.calls": checks,
        "connectivity.is_k_vsb.self_ms": a.self_ms(named(IS_K_VSB)),
        "connectivity.is_k_vsb.pass_frac": passes / checks if checks else 0.0,
        "connectivity.is_k_vsb.pass_ms": a.call_ms(IS_K_VSB, True),
        "connectivity.is_k_vsb.fail_ms": a.call_ms(IS_K_VSB, False),
        "extraction.minimal.tests": a.count(under_top(MINIMAL, IS_K_VSB)),
        "extraction.minimal.self_ms": a.self_ms(
            lambda i: name(i) == MINIMAL and spans[i].parent is None
        ),
        "extraction.two_phase.tests": a.count(under_top(TWO_PHASE, IS_K_VSB)),
        "extraction.two_phase.self_ms": a.self_ms(named(TWO_PHASE)),
        "extraction.backbone.tests": a.count(in_span(BACKBONE, IS_K_VSB)),
        "extraction.backbone.self_ms": a.self_ms(
            lambda i: name(i) == BACKBONE or in_span(BACKBONE, MINIMAL)(i)
        ),
        "generator.random_digraph.self_ms": a.self_ms(named(RANDOM_DIGRAPH)),
        "generator.grow.self_ms": a.self_ms(named(GROW)),
        "generator.grow.tests": a.count(in_span(GROW, IS_K_VSB)),
        "cli.check.self_ms": a.self_ms(named(CLI)),
        "trace.overhead_frac": overhead,
    }


def span_records(spans: list[Span]) -> list[dict[str, Any]]:
    return [
        {
            "id": i,
            "name": s.name,
            "parent": s.parent,
            "unit": s.unit,
            "start_ns": s.start,
            "end_ns": s.end,
            **({"note": s.note} if s.note is not None else {}),
        }
        for i, s in enumerate(spans)
    ]
