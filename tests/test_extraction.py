"""Greedy extraction: minimality, subset chains, determinism, error paths."""
import hashlib

import pytest

from vsbgraph import (
    Digraph,
    InstanceSpec,
    NotKVsbError,
    compute_2vsb_spanning,
    generate,
    is_k_vsb,
    minimal_k_vsb,
    oracle_is_minimal,
    oracle_k_vsb,
    serialize_edge_list,
    two_phase_3vsb,
)

from vsbgraph import extraction
from vsbgraph.connectivity import _below_degree_bound, _degree_gated

from graphutil import complete_bidirected, directed_cycle

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
        # precondition + one per edge + final verification
        assert result.stats.tests_performed == 14
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
        assert all(sub.in_degree(v) >= 3 for v in range(sub.n))
        assert all(sub.out_degree(v) >= 3 for v in range(sub.n))
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
            assert result.subgraph.in_degree(v) >= 2
            assert result.subgraph.out_degree(v) >= 2

    def test_prefix_search_starts_at_degree_bound(self):
        # one probe of the shortest prefix that meets the degree bound, one
        # local test per prefix edge and the final recheck; neither the
        # input nor the prefix is tested on its own
        g = generate(InstanceSpec(10, seed=1)).graph
        length = next(_degree_gated(Digraph(g.n), g.edges(), 2))
        result = compute_2vsb_spanning(g)
        assert result.stats.edges_in == 80
        assert result.stats.tests_performed == 1 + length + 1 == 42
        assert compute_2vsb_spanning(complete_bidirected(5)).stats.tests_performed == 20

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
        # two bidirected K10 sharing vertex 9: the first probe fails, and the
        # one full test of the input that follows ends the run with its
        # witness, instead of probing longer prefixes up to the whole input
        k10 = [(u, v) for u in range(10) for v in range(10) if u != v]
        g = Digraph(19, k10 + [(u + 9, v + 9) for u, v in k10])
        calls = []

        def counting_is_k_vsb(h, k):
            calls.append((k, h.m))
            return is_k_vsb(h, k)

        monkeypatch.setattr(extraction, "is_k_vsb", counting_is_k_vsb)
        with pytest.raises(NotKVsbError) as info:
            compute_2vsb_spanning(g, "shuffle", 1)
        assert len(calls) == 2 and calls[1] == (2, 180)
        assert info.value.witness == is_k_vsb(g, 2).witness


class TestTwoPhase3Vsb:
    def test_k4_retains_all_arcs(self):
        g = complete_bidirected(4)
        result = two_phase_3vsb(g)
        assert result.subgraph == g

    def test_protected_edges_survive(self):
        result = two_phase_3vsb(complete_bidirected(5))
        for edge in result.protected:
            assert result.subgraph.has_edge(*edge)

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
        # the benchmark's per-layer counters see the full tests made through
        # extraction.is_k_vsb and the backbone through
        # extraction.compute_2vsb_spanning: the 3-vsb precondition, the
        # backbone's prefix probes (the first at the degree bound, then one
        # more edge each), its input test after a failing first probe and
        # the two rechecks, nothing else
        g = named_graph(name)
        calls, backbones = [], []

        def counting_is_k_vsb(h, k):
            assert not any(_below_degree_bound(h, v, k) for v in range(h.n))
            calls.append((k, h.m))
            return is_k_vsb(h, k)

        def counting_backbone(*args):
            backbones.append(args)
            return compute_2vsb_spanning(*args)

        monkeypatch.setattr(extraction, "is_k_vsb", counting_is_k_vsb)
        monkeypatch.setattr(extraction, "compute_2vsb_spanning", counting_backbone)
        result = two_phase_3vsb(g, order, seed)
        candidates = extraction._ordered_candidates(g.edges(), order, seed)
        length = next(_degree_gated(Digraph(g.n), candidates, 2))
        prefix = length + probes - 1
        assert len(backbones) == 1
        probe_calls = [(2, m) for m in range(length, prefix + 1)]
        if probes > 1:  # a failing first probe is followed by one input test
            probe_calls.insert(1, (2, g.m))
        assert calls == (
            [(3, g.m)]
            + probe_calls
            + [(2, len(result.protected)), (3, result.subgraph.m)]
        )
        # every other test is a local one: each prefix edge in the backbone
        # sweep and each unprotected edge in the k=3 sweep
        local = prefix + g.m - len(result.protected)
        assert result.stats.tests_performed == len(calls) + local


class TestSoundnessReplay:
    def test_both_algorithms_on_generated_instances(self):
        for seed in (1, 2):
            g = generate(InstanceSpec(10, seed=seed)).graph
            for result in (minimal_k_vsb(g, 3), two_phase_3vsb(g)):
                assert result.subgraph.n == g.n
                assert is_k_vsb(result.subgraph, 3).verdict
                assert set(result.subgraph.edges()) <= set(g.edges())


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
# ran a full is_k_vsb per candidate; the local removability test must
# reproduce every output byte for byte.  tests_performed is the recorded
# count for minimal.  For two-phase it is the 3-vsb precondition plus the
# backbone's count (its prefix probes, one local test per prefix edge and
# its recheck) plus the k=3 sweep's local tests and recheck; the backbone
# makes no precondition test of its own, but tests its whole input once
# when its first probe fails (K6 two-phase shuffle-5: 43 -> 44).
OUTPUT_DIGESTS = [
    ("K6", "minimal-1", "input", None, 32, "e89573df4abc577399708e164718bf854af3e1f570a01a0df62d24424952a34b"),
    ("K6", "minimal-2", "shuffle", 5, 32, "48ac0952834cf3962d58e55e8059c9efcdf4c7b0a0eb48d00e801706343419a5"),
    ("K6", "minimal-3", "input", None, 32, "7e7f5aab066b27e9cd5fafbb51c38950d40cc7328bec4d0af10969d123f3c506"),
    ("K6", "two-phase", "shuffle", 5, 44, "1e8f251bd82b97170c5acb23181df6d940cdd7b246d44ac7f275ff578bd6b8d9"),
    ("10,80,1", "minimal-1", "shuffle", 5, 82, "ae12b8770ca46381559c6898edd928a24c16f9ce99db18f2840542f87e0e0aa1"),
    ("10,80,1", "minimal-2", "input", None, 82, "02a058dd8295802f7bbfc74c9a87506ef00df855c0d83b002cdb589680d9c817"),
    ("10,80,1", "minimal-3", "input", None, 82, "82a4b3e5ee8c99ce1c3e61ed7d51dbbb3b8781259740095ba1d0f6f37e15c242"),
    ("10,80,1", "minimal-3", "shuffle", 5, 82, "d24cda7e04943b7c9c43f56f553236afaf567ca20ce5a495d84022ff2bfad2e5"),
    ("10,80,1", "two-phase", "input", None, 104, "273073add43590a1b91779e0c0b4575dde709c2fae9f16efbd57a2b58e966c42"),
    ("12,96,2", "minimal-2", "shuffle", 5, 98, "33869bc65a4c75753c4943485ab7d9cf532924c6845ca7e3a4752c33a60ead7f"),
    ("12,96,2", "minimal-3", "input", None, 98, "1e8b3473c05b269c66327d7f1b36a472649e3fefbe636c3eda53308736700e06"),
    ("12,96,2", "two-phase", "shuffle", 5, 122, "0d1c4eaea1f0b56a59d43000673aaa989c84796398ff89866aa0a6c6af900cc4"),
    ("12,48,3", "minimal-2", "input", None, 58, "bc850e2f4fa7ab32c1decac08b4a4e7558af9c2c565c3772f5fd64deeb8743fc"),
    ("12,48,3", "minimal-3", "shuffle", 5, 58, "d42d39e6f47fd0b96b80541155f7256b055206ce6e9541de6b7591c5cc096a6d"),
    ("12,48,3", "two-phase", "input", None, 75, "b8c13f469976e6b450e556dec50044db9f4a88ae1af49b9e0384c8220c337ec1"),
    ("14,112,4", "minimal-2", "shuffle", 5, 114, "dbe680d682db81ec6e5fb02c1c5d8916678c29e66bb36f16eb15733594ce0bc1"),
    ("14,112,4", "minimal-3", "input", None, 114, "1aff59322aa9e4f3e5fdbaf6a97b38c9edc6f96989b87ddc2e0cdd8f5852121f"),
    ("14,112,4", "two-phase", "shuffle", 5, 150, "f45ffe1573057d6336ae99ee84bd9aaaa3ab091b2f653e0f519e194b138d3761"),
]


@pytest.mark.parametrize("name,algo,order,seed,tests,digest", OUTPUT_DIGESTS)
def test_output_digest(name, algo, order, seed, tests, digest):
    g = named_graph(name)
    if algo == "two-phase":
        result = two_phase_3vsb(g, order, seed)
    else:
        result = minimal_k_vsb(g, int(algo[-1]), order, seed)
    assert result.stats.tests_performed == tests
    assert output_digest(result) == digest
