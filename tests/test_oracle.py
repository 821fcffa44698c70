"""Brute-force reference predicates: guards and known-answer cases."""
import pytest

from vsbgraph import (
    Digraph,
    TooLargeError,
)

from graphutil import complete_bidirected, directed_cycle
from oracle import oracle_is_minimal, oracle_k_vsb, oracle_strongly_connected


class TestOracleStronglyConnected:
    def test_cycle(self):
        assert oracle_strongly_connected(directed_cycle(3))

    def test_disjoint_bidirected_edges(self):
        g = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        assert not oracle_strongly_connected(g)

    def test_sink_vertex(self):
        g = complete_bidirected(4)
        for v in (0, 1, 2):
            g.remove_edge(3, v)
        assert not oracle_strongly_connected(g)

    def test_size_guard(self):
        with pytest.raises(TooLargeError):
            oracle_strongly_connected(directed_cycle(13))


class TestOracleKVsb:
    def test_k4(self):
        assert oracle_k_vsb(complete_bidirected(4), 3)

    def test_k5_minus_one_arc(self):
        g = complete_bidirected(5)
        g.remove_edge(0, 1)
        assert oracle_k_vsb(g, 3)

    def test_c5_fails_at_single_deletion(self):
        assert not oracle_k_vsb(directed_cycle(5), 3)

    def test_size_guard(self):
        with pytest.raises(TooLargeError):
            oracle_k_vsb(directed_cycle(11), 3)


class TestOracleIsMinimal:
    def test_k4_is_minimal(self):
        assert oracle_is_minimal(complete_bidirected(4), 3)

    def test_k5_is_not_minimal(self):
        assert not oracle_is_minimal(complete_bidirected(5), 3)

    def test_rejects_non_kvsb_input(self):
        with pytest.raises(ValueError):
            oracle_is_minimal(directed_cycle(5), 3)

    def test_size_guard(self):
        with pytest.raises(TooLargeError):
            oracle_is_minimal(complete_bidirected(11), 3)
