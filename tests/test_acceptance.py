"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines as they happen.
"""
import itertools
import warnings
from dataclasses import dataclass

import pytest

from vsbgraph import (
    Digraph,
    ExtractionResult,
    InstanceSpec,
    generate,
    is_k_vsb,
    is_strongly_biconnected,
    is_strongly_connected,
    minimal_k_vsb,
    parse_edge_list,
    random_digraph,
    serialize_edge_list,
)
from vsbgraph.cli import main
from vsbgraph.harness import _timed_extractions

from graphutil import ALL_ARCS_4
from oracle import oracle_is_minimal, oracle_k_vsb, oracle_strongly_connected

BENCH_SIZES = (10, 20, 30)
SEEDS_PER_SIZE = 10


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"\n[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{criterion} failed: {detail}"


def _predicates_agree(g: Digraph) -> bool:
    if is_strongly_connected(g).verdict != oracle_strongly_connected(g):
        return False
    if is_strongly_biconnected(g).verdict != oracle_k_vsb(g, 1):
        return False
    for k in (1, 2, 3):
        if g.n <= k:
            continue
        if is_k_vsb(g, k).verdict != oracle_k_vsb(g, k):
            return False
    return True


@dataclass
class BenchCase:
    n: int
    seed: int
    graph: Digraph
    minimal: ExtractionResult
    two_phase: ExtractionResult
    minimal_ms: float
    two_phase_ms: float


@pytest.fixture(scope="session")
def bench_cases() -> list[BenchCase]:
    cases = []
    for n in BENCH_SIZES:
        for seed in range(1, SEEDS_PER_SIZE + 1):
            g = generate(InstanceSpec(n, seed=seed)).graph
            full, full_ms, two_phase, two_phase_ms = _timed_extractions(g)
            cases.append(
                BenchCase(n, seed, g, full, two_phase, full_ms, two_phase_ms)
            )
    return cases


def test_ac1_oracle_equivalence_exhaustive():
    """All 4096 digraphs on 4 vertices agree with the brute-force oracles."""
    disagreements = 0
    for mask in range(1 << 12):
        edges = [arc for i, arc in enumerate(ALL_ARCS_4) if mask >> i & 1]
        if not _predicates_agree(Digraph(4, edges)):
            disagreements += 1
    _report("criterion 1 (exhaustive oracle equivalence, n=4)",
            disagreements == 0, f"disagreements={disagreements}/4096")


def test_ac2_oracle_equivalence_sampled():
    """>= 1000 seeded random digraphs per n in {5,6,7}, four densities."""
    disagreements = 0
    total = 0
    for n in (5, 6, 7):
        densities = (n, 2 * n, 4 * n, n * (n - 1) // 2)
        for m, seed in itertools.product(densities, range(250)):
            g = random_digraph(InstanceSpec(n, m, seed))
            total += 1
            if not _predicates_agree(g):
                disagreements += 1
    _report("criterion 2 (sampled oracle equivalence, n=5..7)",
            disagreements == 0, f"disagreements={disagreements}/{total}")


def test_ac3_minimality_of_greedy_outputs():
    """Greedy full-sweep outputs are minimal per the brute-force oracle."""
    failures = []
    # 8n exceeds the n(n-1) arc space at n=8, so that size runs at 4n
    for n, m0 in ((8, 32), (10, 80)):
        for seed in range(1, 11):
            g = generate(InstanceSpec(n, m0, seed)).graph
            result = minimal_k_vsb(g, 3)
            if not oracle_is_minimal(result.subgraph, 3):
                failures.append((n, seed))
    _report("criterion 3 (oracle minimality on 20 instances, n=8/10)",
            not failures, f"failures={failures}")


def test_ac4_soundness_and_spanning(bench_cases):
    """Both outputs are 3-vsb spanning edge-subsets; backbone is contained."""
    violations = []
    for case in bench_cases:
        input_edges = set(case.graph.edges())
        for label, result in (("minimal", case.minimal),
                              ("two-phase", case.two_phase)):
            if result.subgraph.n != case.n:
                violations.append((case.n, case.seed, label, "vertex set"))
            if not set(result.subgraph.edges()) <= input_edges:
                violations.append((case.n, case.seed, label, "edge subset"))
            if not is_k_vsb(result.subgraph, 3).verdict:
                violations.append((case.n, case.seed, label, "not 3-vsb"))
        if not all(v in case.two_phase.subgraph._out[u]
                   for u, v in case.two_phase.protected):
            violations.append((case.n, case.seed, "two-phase", "protected lost"))
    _report(f"criterion 4 (soundness+spanning on {len(bench_cases)} instances)",
            not violations, f"violations={violations}")


def test_ac5_edge_count_bounds(bench_cases):
    """3n <= m_out <= 10n always; m_out < 4n in the mean, warn per outlier."""
    hard_violations = []
    for case in bench_cases:
        for label, result in (("minimal", case.minimal),
                              ("two-phase", case.two_phase)):
            m_out = result.subgraph.m
            if not 3 * case.n <= m_out <= 10 * case.n:
                hard_violations.append((case.n, case.seed, label, m_out))
            if m_out >= 4 * case.n:
                warnings.warn(
                    f"{label} output has {m_out} >= 4n edges "
                    f"(n={case.n}, seed={case.seed})"
                )
    mean_violations = []
    for n in BENCH_SIZES:
        sub = [c for c in bench_cases if c.n == n]
        for label, pick in (("minimal", lambda c: c.minimal),
                            ("two-phase", lambda c: c.two_phase)):
            mean = sum(pick(c).subgraph.m for c in sub) / len(sub)
            if not 3 * n <= mean < 4 * n:
                mean_violations.append((n, label, mean))
    _report("criterion 5 (edge-count bounds)",
            not hard_violations and not mean_violations,
            f"hard={hard_violations} mean={mean_violations}")


def test_ac6_trend_reproduction(bench_cases):
    """Edge-count means ordered per size; two-phase faster in >= 80% of rows."""
    mean_failures = []
    for n in BENCH_SIZES:
        sub = [c for c in bench_cases if c.n == n]
        mean1 = sum(c.minimal.subgraph.m for c in sub) / len(sub)
        mean2 = sum(c.two_phase.subgraph.m for c in sub) / len(sub)
        if mean1 > mean2:
            mean_failures.append((n, mean1, mean2))
    wins = sum(1 for c in bench_cases if c.two_phase_ms < c.minimal_ms)
    ok = not mean_failures and wins >= 0.8 * len(bench_cases)
    _report("criterion 6 (trend reproduction)", ok,
            f"mean_failures={mean_failures} "
            f"two_phase_faster={wins}/{len(bench_cases)}")


def test_ac7_desk_scale_performance(tmp_path):
    """bench completes: full sweep under 10 min at n=30, under 30 s at n=10."""
    timings = {}
    for n, budget_ms in ((30, 600_000), (10, 30_000)):
        out = tmp_path / f"bench{n}.csv"
        code = main(["bench", "--sizes", str(n), "--seeds-per-size", "1",
                     "--out", str(out)])
        assert code == 0
        row = out.read_text(encoding="ascii").splitlines()[1].split(",")
        timings[n] = (float(row[3]), budget_ms)
    ok = all(ms < budget for ms, budget in timings.values())
    _report("criterion 7 (desk-scale performance)", ok,
            " ".join(f"n={n}: {ms:.0f}ms (budget {b}ms)"
                     for n, (ms, b) in timings.items()))


def test_ac8_determinism(tmp_path):
    """Identical seeds give byte-identical artifacts, time columns aside."""
    problems = []

    gen_files = []
    for tag in ("a", "b"):
        path = tmp_path / f"gen-{tag}.txt"
        assert main(["gen", "--n", "10", "--seed", "5", "--out", str(path)]) == 0
        gen_files.append(path.read_bytes())
    if gen_files[0] != gen_files[1]:
        problems.append("generated instances differ")

    src = tmp_path / "gen-a.txt"
    min_files = []
    for tag in ("a", "b"):
        path = tmp_path / f"min-{tag}.txt"
        assert main(["minimize", "--in", str(src), "--algo", "minimal",
                     "--out", str(path)]) == 0
        min_files.append(path.read_bytes())
    if min_files[0] != min_files[1]:
        problems.append("minimized outputs differ")

    csv_rows = []
    for tag in ("a", "b"):
        path = tmp_path / f"bench-{tag}.csv"
        assert main(["bench", "--sizes", "10", "--seeds-per-size", "2",
                     "--out", str(path)]) == 0
        rows = []
        for line in path.read_text(encoding="ascii").splitlines()[1:]:
            parts = line.split(",")
            parts[3] = parts[5] = "_"  # time columns excluded
            rows.append(",".join(parts))
        csv_rows.append(rows)
    if csv_rows[0] != csv_rows[1]:
        problems.append("csv rows differ beyond time columns")

    _report("criterion 8 (determinism)", not problems, f"problems={problems}")


def test_ac9_round_trip():
    """parse(serialize(g)) == g for 100 seeded random digraphs."""
    failures = 0
    for seed in range(100):
        n = 4 + seed % 9
        m = min(2 * n + seed % 17, n * (n - 1))
        g = random_digraph(InstanceSpec(n, m, seed))
        if parse_edge_list(serialize_edge_list(g)) != g:
            failures += 1
    _report("criterion 9 (serialization round trip)",
            failures == 0, f"failures={failures}/100")
