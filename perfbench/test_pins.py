"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench -q

The counter tests run one traced unit of each workload twice, about a
minute in all.
"""
from __future__ import annotations

import json

import pytest

import checks
import pins
import run
import tracing


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_counters_repeat_and_match_pins(workload: str) -> None:
    first = pins.counters(workload, pins.DEFAULT_SEED)
    second = pins.counters(workload, pins.DEFAULT_SEED)
    assert first == second
    assert first == run.load_pins()["counters"][workload]


def test_instance_digests_match_pins() -> None:
    assert pins.instance_pins(pins.DEFAULT_SEED) == run.load_pins()["instances"]


def test_residual_check_replays_witnesses() -> None:
    cycle = [(0, 1), (1, 2), (2, 3), (3, 0)]
    both_ways = cycle + [(v, u) for u, v in cycle]
    # A directed 4-cycle is strongly connected and its undirected view
    # has no cut vertex; deleting one vertex leaves a directed path.  The
    # bidirected 4-cycle minus a vertex is a path with a cut vertex.
    assert checks.strongly_biconnected_without(4, cycle, ())
    assert not checks.strongly_biconnected_without(4, cycle, (0,))
    assert not checks.strongly_biconnected_without(4, both_ways, (0,))
    assert not checks.strongly_biconnected_without(4, both_ways, (0, 2))
    assert checks.strongly_biconnected_without(4, both_ways, (0, 1))
    bowtie = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]
    assert not checks.strongly_biconnected_without(5, bowtie, ())


def test_check_fail_rejects_a_false_witness() -> None:
    both_ways = [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2), (2, 3), (3, 2)]
    good = "false: deleting {2} breaks strong biconnectivity\n"
    bad = "false: deleting {3} breaks strong biconnectivity\n"
    assert checks.check_fail(1, good, 4, both_ways) == []
    assert checks.check_fail(1, bad, 4, both_ways) != []
    assert checks.check_fail(0, "true\n", 4, both_ways) != []


def test_tracer_restores_wrapped_names() -> None:
    run.import_vsbgraph()
    from vsbgraph import cli, extraction, generator
    from vsbgraph.digraph import Digraph

    owners = (extraction, generator, cli, Digraph)
    before = [dict(vars(owner)) for owner in owners]
    with tracing.Tracer() as tracer:
        tracing.install(tracer)
        assert extraction.is_k_vsb is not before[0]["is_k_vsb"]
    assert [dict(vars(owner)) for owner in owners] == before


def test_per_layer_names_match_benchmark_json() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS


def test_thin_counters_are_the_extraction_stats() -> None:
    lib = run.import_vsbgraph()
    thin = run.Thin(lib, pins.DEFAULT_SEED, run.load_pins(), run.ROOT)
    _, g, problems = thin.inputs(0)
    assert problems == []
    pinned = run.load_pins()["counters"]["thin"]
    minimal = lib.minimal_k_vsb(g, 3)
    two_phase = lib.two_phase_3vsb(g)
    assert minimal.stats.tests_performed == pinned["extraction.minimal.tests"]
    assert two_phase.stats.tests_performed == pinned["extraction.two_phase.tests"]
    assert minimal.stats.edges_out == pinned["extraction.minimal.edges_per_n"] * g.n
    assert two_phase.stats.edges_out == pinned["extraction.two_phase.edges_per_n"] * g.n
    assert len(two_phase.protected) == pinned["extraction.backbone.edges"]
