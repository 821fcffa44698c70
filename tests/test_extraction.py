"""Greedy extraction: minimality, subset chains, determinism, error paths."""
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
    two_phase_3vsb,
)

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


class TestSoundnessReplay:
    def test_both_algorithms_on_generated_instances(self):
        for seed in (1, 2):
            g = generate(InstanceSpec(10, seed=seed)).graph
            for result in (minimal_k_vsb(g, 3), two_phase_3vsb(g)):
                assert result.subgraph.n == g.n
                assert is_k_vsb(result.subgraph, 3).verdict
                assert set(result.subgraph.edges()) <= set(g.edges())
