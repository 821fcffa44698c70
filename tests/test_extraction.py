"""Greedy extraction: minimality, subset chains, determinism, error paths."""
import hashlib
import random

import pytest

from vsbgraph import (
    Digraph,
    InstanceSpec,
    NotKVsbError,
    compute_2vsb_spanning,
    generate,
    is_k_vsb,
    minimal_k_vsb,
    serialize_edge_list,
    two_phase_3vsb,
)

from vsbgraph import extraction
from vsbgraph.cli import main
from vsbgraph.connectivity import (
    _degree_gated,
    _stays_k_vsb,
    _vsb_at_least,
)

from graphutil import block_ring, complete_bidirected, directed_cycle
from oracle import oracle_is_minimal, oracle_k_vsb
from reference_walk import below_bound

# input-order run on bidirected K5, verified minimal by the brute-force
# oracle below; frozen to pin the deterministic edge-order policy
K5_MINIMAL_EDGES = [
    (0, 2), (0, 3), (0, 4), (1, 0), (1, 3), (1, 4), (2, 1), (2, 3),
    (2, 4), (3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2), (4, 3),
]


def bidirected_c4() -> Digraph:
    return Digraph(4, [(i, (i + 1) % 4) for i in range(4)]
                   + [((i + 1) % 4, i) for i in range(4)])


class TestMinimalKVsb:
    def test_k4_retains_all_arcs(self):
        g = complete_bidirected(4)
        result = minimal_k_vsb(g, 3)
        assert result.subgraph == g
        assert len(result.removed) == 0
        # exhaustive post-check: no single arc is removable
        for u, v in g.edges():
            probe = g.copy()
            probe.remove_edge(u, v)
            assert not oracle_k_vsb(probe, 3)

    def test_k5_proper_minimal_subgraph(self):
        result = minimal_k_vsb(complete_bidirected(5), 3)
        assert 15 <= result.subgraph.m < 20
        assert result.subgraph.edges() == K5_MINIMAL_EDGES
        assert oracle_is_minimal(result.subgraph, 3)

    def test_fixed_point(self):
        first = minimal_k_vsb(complete_bidirected(5), 3)
        second = minimal_k_vsb(first.subgraph, 3)
        assert len(second.removed) == 0
        assert second.subgraph == first.subgraph

    def test_rejects_non_kvsb_input(self):
        with pytest.raises(NotKVsbError) as info:
            minimal_k_vsb(directed_cycle(5), 3)
        assert info.value.k == 3
        assert info.value.witness is not None

    def test_stats_accounting(self):
        g = complete_bidirected(4)
        result = minimal_k_vsb(g, 3)
        assert result.stats.edges_in == 12
        assert result.stats.edges_out == 12
        # every removal puts an end below the degree bound; the one full
        # test checks the degree-only result, and no local test runs
        assert (result.stats.full_tests, result.stats.flow_tests) == (1, 0)
        assert result.stats.tests_performed == 1
        assert result.stats.elapsed > 0

    def test_input_graph_untouched(self):
        g = complete_bidirected(5)
        minimal_k_vsb(g, 3)
        assert g.m == 20

    def test_shuffle_requires_seed(self):
        with pytest.raises(ValueError):
            minimal_k_vsb(complete_bidirected(4), 3, order="shuffle")

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            minimal_k_vsb(complete_bidirected(4), 3, order="random")

    def test_shuffle_is_seed_deterministic(self):
        g = complete_bidirected(5)
        a = minimal_k_vsb(g, 3, order="shuffle", seed=7)
        b = minimal_k_vsb(g, 3, order="shuffle", seed=7)
        assert a.subgraph == b.subgraph
        assert tuple(a.removed) == tuple(b.removed)

    def test_output_degree_bound(self):
        result = minimal_k_vsb(generate(InstanceSpec(12, seed=4)).graph, 3)
        sub = result.subgraph
        assert all(len(sub._in[v]) >= 3 for v in range(sub.n))
        assert all(len(sub._out[v]) >= 3 for v in range(sub.n))
        assert sub.m >= 3 * sub.n


class TestBackbone2Vsb:
    def test_k4_backbone(self):
        result = compute_2vsb_spanning(complete_bidirected(4))
        assert result.subgraph.m >= 8
        assert is_k_vsb(result.subgraph, 2).verdict

    def test_bidirected_c4_rejected(self):
        with pytest.raises(NotKVsbError) as info:
            compute_2vsb_spanning(bidirected_c4())
        assert info.value.k == 2

    def test_output_degrees(self):
        result = compute_2vsb_spanning(complete_bidirected(5))
        for v in range(5):
            assert len(result.subgraph._in[v]) >= 2
            assert len(result.subgraph._out[v]) >= 2

    def test_prefix_search_starts_at_degree_bound(self, monkeypatch):
        # the sweep starts inside the shortest prefix that meets the degree
        # bound; here its degree-only result fails, so the fallback tests
        # the input and probes that prefix (which passes) before its local
        # tests, and no full test of the output follows
        g = generate(InstanceSpec(10, seed=1)).graph
        length = next(_degree_gated(Digraph(g.n), g.edges(), 2))
        calls = count_full_tests(monkeypatch)
        result = compute_2vsb_spanning(g)
        assert result.stats.edges_in == 80
        assert calls[1:] == [(2, 80), (2, length)]
        assert calls[0][1] < length == 40
        assert (result.stats.full_tests, result.stats.flow_tests) == (3, 21)
        assert is_k_vsb(result.subgraph, 2).verdict
        # bidirected K5: the degree-only result passes, one full test
        calls.clear()
        result = compute_2vsb_spanning(complete_bidirected(5))
        assert calls == [(2, result.subgraph.m)]
        assert (result.stats.full_tests, result.stats.flow_tests) == (1, 0)

    @pytest.mark.parametrize("order,seed", [("input", None), ("shuffle", 3)])
    def test_no_passing_prefix_rejected(self, order, seed):
        # two bidirected K4 sharing vertex 3: every vertex meets the 2-vsb
        # degree bound, so the gate opens, but deleting nothing already
        # leaves 3 as an articulation point; the witness is the full test's
        k4 = [(u, v) for u in range(4) for v in range(4) if u != v]
        g = Digraph(7, k4 + [(u + 3, v + 3) for u, v in k4])
        assert next(_degree_gated(Digraph(7), g.edges(), 2)) < g.m
        with pytest.raises(NotKVsbError) as info:
            compute_2vsb_spanning(g, order, seed)
        assert info.value.k == 2
        assert info.value.witness == is_k_vsb(g, 2).witness

    def test_failing_first_probe_tests_input_once(self, monkeypatch):
        # two bidirected K10 sharing vertex 9: the degree-only result fails,
        # and the fallback's one full test of the input ends the run with
        # its witness, instead of probing longer prefixes up to the input
        k10 = [(u, v) for u in range(10) for v in range(10) if u != v]
        g = Digraph(19, k10 + [(u + 9, v + 9) for u, v in k10])
        calls = count_full_tests(monkeypatch)
        with pytest.raises(NotKVsbError) as info:
            compute_2vsb_spanning(g, "shuffle", 1)
        assert len(calls) == 2 and calls[1] == (2, 180)
        assert info.value.witness == is_k_vsb(g, 2).witness

    def test_input_test_bounds_the_probes(self, monkeypatch):
        # two bidirected K6 sharing vertex 5 meet the 2-vsb degree bound,
        # and the gate opens at 39 of the 60 arcs: the check of the
        # degree-only result and the input test end the run, where probing
        # prefixes up to the input would make 22 more full tests
        g = two_k6_sharing_a_vertex()
        calls = count_full_tests(monkeypatch)
        with pytest.raises(NotKVsbError) as info:
            compute_2vsb_spanning(g, "shuffle", 1)
        assert info.value.k == 2
        assert calls == [(2, 24), (2, 60)]


class TestTwoPhase3Vsb:
    def test_k4_retains_all_arcs(self):
        g = complete_bidirected(4)
        result = two_phase_3vsb(g)
        assert result.subgraph == g

    def test_protected_edges_survive(self):
        result = two_phase_3vsb(complete_bidirected(5))
        assert set(result.protected) <= set(result.subgraph.edges())

    def test_subset_chain(self):
        g = generate(InstanceSpec(10, seed=1)).graph
        result = two_phase_3vsb(g)
        protected = set(result.protected)
        subgraph_edges = set(result.subgraph.edges())
        input_edges = set(g.edges())
        assert protected <= subgraph_edges <= input_edges
        backbone = Digraph(g.n, list(result.protected))
        assert is_k_vsb(backbone, 2).verdict

    def test_generated_instance_output(self):
        g = generate(InstanceSpec(10, seed=1)).graph
        result = two_phase_3vsb(g)
        assert is_k_vsb(result.subgraph, 3).verdict
        assert 3 * 10 <= result.subgraph.m < 4 * 10

    def test_removed_and_protected_disjoint(self):
        g = generate(InstanceSpec(10, seed=2)).graph
        result = two_phase_3vsb(g)
        assert not (set(result.removed) & set(result.protected))
        assert set(result.subgraph.edges()) == set(g.edges()) - set(result.removed)

    def test_rejects_non_3vsb_input(self):
        with pytest.raises(NotKVsbError):
            two_phase_3vsb(bidirected_c4())

    def test_deterministic(self):
        g = generate(InstanceSpec(10, seed=3)).graph
        a = two_phase_3vsb(g)
        b = two_phase_3vsb(g)
        assert a.subgraph == b.subgraph
        assert tuple(a.protected) == tuple(b.protected)


class TestFullTestCount:
    @pytest.mark.parametrize("name,order,seed,probes", [
        ("10,80,1", "input", None, 1),
        ("K6", "shuffle", 5, 3),
    ])
    def test_two_phase_full_tests(self, monkeypatch, name, order, seed, probes):
        # every full test goes through extraction.is_k_vsb or
        # extraction._vsb_at_least, and the backbone through
        # extraction.compute_2vsb_spanning.  Here the backbone's degree-only
        # result fails, so its fallback tests the input and probes prefixes
        # (the first at the degree bound, then one more edge each) before
        # its local tests, and no full test of its output follows; the k=3
        # degree-only result passes its one check, so the 3-vsb
        # precondition never runs
        g = named_graph(name)
        calls = count_full_tests(monkeypatch, degree_checked=True)
        backbones, local = [], []

        def counting_backbone(*args):
            backbones.append(args)
            return compute_2vsb_spanning(*args)

        def counting_stays_k_vsb(h, k, u, v):
            local.append(k)
            return _stays_k_vsb(h, k, u, v)

        monkeypatch.setattr(extraction, "compute_2vsb_spanning", counting_backbone)
        monkeypatch.setattr(extraction, "_stays_k_vsb", counting_stays_k_vsb)
        result = two_phase_3vsb(g, order, seed)
        candidates = extraction._ordered_candidates(g.edges(), order, seed)
        length = next(_degree_gated(Digraph(g.n), candidates, 2))
        assert len(backbones) == 1
        assert calls[0][0] == 2 and calls[0][1] < length
        assert calls[1:] == (
            [(2, g.m)]
            + [(2, m) for m in range(length, length + probes)]
            + [(3, result.subgraph.m)]
        )
        assert result.stats.full_tests == len(calls)
        assert local and set(local) == {2}
        assert result.stats.flow_tests == len(local)
        assert result.stats.tests_performed == len(calls) + len(local)
        assert is_k_vsb(result.subgraph, 3).verdict
        assert is_k_vsb(Digraph(g.n, result.protected), 2).verdict

    def test_two_phase_rejection_makes_one_false_verdict(self, monkeypatch):
        # the backbone's input test names the witness, which is the same set
        # at k=3: two-phase re-raises it without a test of its own
        g = two_k6_sharing_a_vertex()
        verdicts = []

        def counting_is_k_vsb(h, k):
            verdicts.append(k)
            return is_k_vsb(h, k)

        monkeypatch.setattr(extraction, "is_k_vsb", counting_is_k_vsb)
        with pytest.raises(NotKVsbError) as info:
            two_phase_3vsb(g)
        assert verdicts == [2]
        assert info.value.k == 3
        assert info.value.witness == is_k_vsb(g, 3).witness


class TestOptimisticSweep:
    def test_fallback_runs_on_block_ring(self, monkeypatch):
        # the degree-only result of the ring fails its check, so the sweep
        # tests the input with is_k_vsb and makes local tests from the first
        # candidate; no full test of its output follows.  Two-phase's
        # backbone falls back (its check, the input test and one passing
        # probe), and its k=3 degree-only result passes.
        calls = count_full_tests(monkeypatch)
        for blocks, flow, two_phase_flow in [(3, 51, 63), (20, 357, 454)]:
            g = block_ring(blocks)
            calls.clear()
            result = minimal_k_vsb(g, 3)
            assert calls[0][0] == 3 and calls[0][1] < g.m
            assert calls[1:] == [(3, g.m)]
            assert (result.stats.full_tests, result.stats.flow_tests) == (2, flow)
            assert is_k_vsb(result.subgraph, 3).verdict
            result = two_phase_3vsb(g)
            assert (result.stats.full_tests, result.stats.flow_tests) == (
                4, two_phase_flow)
            assert is_k_vsb(result.subgraph, 3).verdict
            assert is_k_vsb(Digraph(g.n, result.protected), 2).verdict

    # k-vsb graphs whose degree-only walk in input order stays k-vsb up to
    # the last arc, which it then drops although the graph needs it
    LAST_ARC_NEEDED = [
        (2, 6, [(0, 1), (0, 2), (0, 4), (1, 0), (1, 4), (2, 0), (2, 1), (2, 3),
                (2, 5), (3, 1), (3, 4), (3, 5), (4, 1), (4, 2), (4, 3), (5, 0),
                (5, 2), (5, 3), (5, 4)]),
        (3, 6, [(0, 1), (0, 2), (0, 4), (0, 5), (1, 0), (1, 2), (1, 3), (1, 4),
                (1, 5), (2, 0), (2, 1), (2, 3), (2, 4), (2, 5), (3, 0), (3, 2),
                (3, 4), (3, 5), (4, 0), (4, 1), (4, 2), (4, 3), (4, 5), (5, 0),
                (5, 2), (5, 3), (5, 4)]),
    ]

    @pytest.mark.parametrize("k,n,edges", LAST_ARC_NEEDED)
    def test_check_follows_the_last_candidate(self, k, n, edges):
        g = Digraph(n, edges)
        result = minimal_k_vsb(g, k)
        assert result.stats.full_tests == 2 and result.stats.flow_tests > 0
        assert edges[-1] not in result.removed
        assert is_k_vsb(result.subgraph, k).verdict
        assert oracle_is_minimal(result.subgraph, k)

    def test_rejections_carry_the_full_test_witness(self):
        # inputs that are not k-vsb raise NotKVsbError(k) with is_k_vsb's
        # witness, whether the degree bound already fails or only the
        # fallback's precondition finds out; two-phase reports k=3 also
        # when its backbone finds the input is not even 2-vsb
        rng = random.Random(7)
        graphs = []
        for n in range(4, 9):
            arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
            for _ in range(25):
                p = rng.uniform(0.3, 0.95)
                graphs.append(Digraph(n, [a for a in arcs if rng.random() < p]))
        # two bidirected K5 sharing two vertices: above every degree bound,
        # but not 3-vsb
        k5 = {(u, v) for u in range(5) for v in range(5) if u != v}
        graphs.append(Digraph(8, sorted(k5 | {(u + 3, v + 3) for u, v in k5})))
        raised = set()
        for g in graphs:
            runs = [(k, lambda k=k: minimal_k_vsb(g, k, "shuffle", g.n))
                    for k in (1, 2, 3)]
            runs += [(2, lambda: compute_2vsb_spanning(g)),
                     (3, lambda: two_phase_3vsb(g, "shuffle", g.n))]
            for k, run in runs:
                report = is_k_vsb(g, k)
                if report.verdict:
                    run()
                    continue
                with pytest.raises(NotKVsbError) as info:
                    run()
                assert info.value.k == k
                assert info.value.witness == report.witness
                short = any(below_bound(g, k))
                raised.add((k, short))
        assert raised == {(k, short) for k in (1, 2, 3) for short in (True, False)}


class TestSoundnessReplay:
    def test_both_algorithms_on_generated_instances(self):
        for seed in (1, 2):
            g = generate(InstanceSpec(10, seed=seed)).graph
            for result in (minimal_k_vsb(g, 3), two_phase_3vsb(g)):
                assert result.subgraph.n == g.n
                assert is_k_vsb(result.subgraph, 3).verdict
                assert set(result.subgraph.edges()) <= set(g.edges())


def count_full_tests(monkeypatch, degree_checked=False) -> list[tuple[int, int]]:
    """Record (k, edges) of every full test the extractors make, verdict
    only (extraction._vsb_at_least) or with a witness (extraction.is_k_vsb);
    with degree_checked, assert that no tested graph is below the degree
    bound."""
    calls = []

    def record(h, k):
        if degree_checked:
            assert not any(below_bound(h, k))
        calls.append((k, h.m))

    def counting_is_k_vsb(h, k):
        record(h, k)
        return is_k_vsb(h, k)

    def counting_vsb_at_least(h, k, blocked):
        record(h, k)
        return _vsb_at_least(h, k, blocked)

    monkeypatch.setattr(extraction, "is_k_vsb", counting_is_k_vsb)
    monkeypatch.setattr(extraction, "_vsb_at_least", counting_vsb_at_least)
    return calls


def two_k6_sharing_a_vertex() -> Digraph:
    """Two bidirected K6 sharing vertex 5 (n=11, m=60): above the 2-vsb
    degree bound, but 5 is an articulation point."""
    k6 = [(u, v) for u in range(6) for v in range(6) if u != v]
    return Digraph(11, k6 + [(u + 5, v + 5) for u, v in k6])


def named_graph(name: str) -> Digraph:
    if name == "K6":
        return complete_bidirected(6)
    n, m0, seed = map(int, name.split(","))
    return generate(InstanceSpec(n, m0, seed)).graph


def output_digest(result) -> str:
    h = hashlib.sha256(serialize_edge_list(result.subgraph).encode("ascii"))
    h.update(repr(tuple(result.removed)).encode("ascii"))
    h.update(repr(tuple(result.protected)).encode("ascii"))
    return h.hexdigest()


# SHA-256 of (subgraph, removed, protected), recorded from the sweep that
# ran a full is_k_vsb per candidate; the optimistic sweep and its fallback
# must reproduce every output byte for byte.  The first count is the
# tests_performed of that per-candidate sweep, which the optimistic sweep
# must undercut; it and the digest name the case.  The last two counts
# are the run's full_tests and flow_tests.  A sweep whose degree-only
# result passes makes one full test and no local test; a minimal fallback
# makes two (the check and the precondition) plus one local test per
# candidate the degree bound does not decide.  Two-phase counts include
# the backbone's, whose fallback tests its input and probes prefixes
# instead of a precondition (10,80,1 input: 3 full tests, K6 shuffle-5: 5).
OUTPUT_DIGESTS = [
    ("K6", "minimal-1", "input", None, 32, "e89573df4abc577399708e164718bf854af3e1f570a01a0df62d24424952a34b", 1, 0),
    ("K6", "minimal-2", "shuffle", 5, 32, "48ac0952834cf3962d58e55e8059c9efcdf4c7b0a0eb48d00e801706343419a5", 1, 0),
    ("K6", "minimal-3", "input", None, 32, "7e7f5aab066b27e9cd5fafbb51c38950d40cc7328bec4d0af10969d123f3c506", 1, 0),
    ("K6", "two-phase", "shuffle", 5, 44, "1e8f251bd82b97170c5acb23181df6d940cdd7b246d44ac7f275ff578bd6b8d9", 6, 7),
    ("10,80,1", "minimal-1", "shuffle", 5, 82, "ae12b8770ca46381559c6898edd928a24c16f9ce99db18f2840542f87e0e0aa1", 2, 70),
    ("10,80,1", "minimal-2", "input", None, 82, "02a058dd8295802f7bbfc74c9a87506ef00df855c0d83b002cdb589680d9c817", 1, 0),
    ("10,80,1", "minimal-3", "input", None, 82, "82a4b3e5ee8c99ce1c3e61ed7d51dbbb3b8781259740095ba1d0f6f37e15c242", 1, 0),
    ("10,80,1", "minimal-3", "shuffle", 5, 82, "d24cda7e04943b7c9c43f56f553236afaf567ca20ce5a495d84022ff2bfad2e5", 1, 0),
    ("10,80,1", "two-phase", "input", None, 104, "273073add43590a1b91779e0c0b4575dde709c2fae9f16efbd57a2b58e966c42", 4, 21),
    ("12,96,2", "minimal-2", "shuffle", 5, 98, "33869bc65a4c75753c4943485ab7d9cf532924c6845ca7e3a4752c33a60ead7f", 1, 0),
    ("12,96,2", "minimal-3", "input", None, 98, "1e8b3473c05b269c66327d7f1b36a472649e3fefbe636c3eda53308736700e06", 2, 59),
    ("12,96,2", "two-phase", "shuffle", 5, 122, "0d1c4eaea1f0b56a59d43000673aaa989c84796398ff89866aa0a6c6af900cc4", 2, 0),
    ("12,48,3", "minimal-2", "input", None, 58, "bc850e2f4fa7ab32c1decac08b4a4e7558af9c2c565c3772f5fd64deeb8743fc", 2, 31),
    ("12,48,3", "minimal-3", "shuffle", 5, 58, "d42d39e6f47fd0b96b80541155f7256b055206ce6e9541de6b7591c5cc096a6d", 1, 0),
    ("12,48,3", "two-phase", "input", None, 75, "b8c13f469976e6b450e556dec50044db9f4a88ae1af49b9e0384c8220c337ec1", 2, 0),
    ("14,112,4", "minimal-2", "shuffle", 5, 114, "dbe680d682db81ec6e5fb02c1c5d8916678c29e66bb36f16eb15733594ce0bc1", 2, 83),
    ("14,112,4", "minimal-3", "input", None, 114, "1aff59322aa9e4f3e5fdbaf6a97b38c9edc6f96989b87ddc2e0cdd8f5852121f", 1, 0),
    ("14,112,4", "two-phase", "shuffle", 5, 150, "f45ffe1573057d6336ae99ee84bd9aaaa3ab091b2f653e0f519e194b138d3761", 2, 0),
]


@pytest.mark.parametrize(
    "name,algo,order,seed,per_candidate,digest,full,flow",
    OUTPUT_DIGESTS,
    ids=["-".join(map(str, row[:6])) for row in OUTPUT_DIGESTS],
)
def test_output_digest(name, algo, order, seed, per_candidate, digest, full, flow,
                       tmp_path, capsys):
    g = named_graph(name)
    if algo == "two-phase":
        result = two_phase_3vsb(g, order, seed)
    else:
        result = minimal_k_vsb(g, int(algo[-1]), order, seed)
    assert (result.stats.full_tests, result.stats.flow_tests) == (full, flow)
    assert result.stats.tests_performed == full + flow
    assert result.stats.tests_performed < per_candidate
    assert output_digest(result) == digest
    if algo in ("minimal-3", "two-phase"):
        # `minimize` writes the same subgraph and reports the same counts
        src, out = tmp_path / "in.txt", tmp_path / "out.txt"
        src.write_text(serialize_edge_list(g), encoding="ascii")
        args = ["minimize", "--in", str(src), "--out", str(out), "--order", order,
                "--algo", "minimal" if algo == "minimal-3" else algo]
        assert main(args + ([] if seed is None else ["--seed", str(seed)])) == 0
        assert out.read_text(encoding="ascii") == serialize_edge_list(result.subgraph)
        assert capsys.readouterr().out.startswith(
            f"edges_in={g.m} edges_out={result.subgraph.m} "
            f"tests_performed={full + flow} full_tests={full} flow_tests={flow} ")
