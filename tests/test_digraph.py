"""Digraph value type, edge bookkeeping, and the edge-list format."""
import pytest
from hypothesis import given

from vsbgraph import (
    Digraph,
    DuplicateEdgeError,
    EdgeAbsentError,
    EdgeListSyntaxError,
    OutOfRangeError,
    SelfLoopError,
    TooLargeError,
    digraph,
    parse_edge_list,
    serialize_edge_list,
)

from graphutil import digraphs

C3_EDGES = [(0, 1), (1, 2), (2, 0)]


class TestBuild:
    def test_c3(self):
        g = Digraph(3, C3_EDGES)
        assert g.n == 3
        assert g.m == 3
        assert g.edges() == C3_EDGES

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            Digraph(2, [(0, 0)])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            Digraph(4, [(0, 1), (0, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfRangeError):
            Digraph(3, [(0, 3)])

    def test_adjacency_matches_edges(self):
        g = Digraph(3, C3_EDGES)
        assert g.out_neighbors(0) == {1}
        assert g.in_neighbors(0) == {2}
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)


class TestRemoveRestore:
    def test_remove(self):
        g = Digraph(3, C3_EDGES)
        g.remove_edge(0, 1)
        assert g.m == 2
        assert g.edges() == [(1, 2), (2, 0)]

    def test_remove_absent(self):
        g = Digraph(3, C3_EDGES)
        with pytest.raises(EdgeAbsentError):
            g.remove_edge(1, 0)

    def test_remove_then_re_add_restores_edge_set(self):
        g = Digraph(3, C3_EDGES)
        g.remove_edge(0, 1)
        g.add_edge(0, 1)
        assert set(g.edges()) == set(C3_EDGES)

    def test_restore_keeps_position(self):
        g = Digraph(3, C3_EDGES)
        g.remove_edge(1, 2)
        g.restore_edge(1, 2)
        assert g.edges() == C3_EDGES

    def test_re_add_keeps_position(self):
        g = Digraph(3, C3_EDGES)
        g.remove_edge(0, 1)
        g.add_edge(0, 1)
        assert g.edges() == C3_EDGES

    def test_restore_never_present_fails(self):
        g = Digraph(3, C3_EDGES)
        with pytest.raises(EdgeAbsentError):
            g.restore_edge(1, 0)

    def test_restore_active_edge_fails(self):
        g = Digraph(3, C3_EDGES)
        with pytest.raises(DuplicateEdgeError):
            g.restore_edge(0, 1)

    @given(digraphs(min_n=2))
    def test_remove_drops_exactly_one(self, g):
        edges = g.edges()
        if not edges:
            return
        u, v = edges[0]
        before = g.m
        g.remove_edge(u, v)
        assert g.m == before - 1
        assert (u, v) not in g.edges()


class TestEdgeListFormat:
    def test_parse_c3(self):
        assert parse_edge_list("3 3\n0 1\n1 2\n2 0\n") == Digraph(3, C3_EDGES)

    def test_serialize_c3(self):
        assert serialize_edge_list(Digraph(3, C3_EDGES)) == "3 3\n0 1\n1 2\n2 0\n"

    def test_out_of_range_index(self):
        with pytest.raises(OutOfRangeError):
            parse_edge_list("3 1\n0 3\n")

    def test_comments_skipped(self):
        text = "# generated instance\n3 3\n0 1\n# middle\n1 2\n2 0\n"
        assert parse_edge_list(text) == Digraph(3, C3_EDGES)

    def test_malformed_header(self):
        with pytest.raises(EdgeListSyntaxError):
            parse_edge_list("3\n")

    def test_malformed_edge_line(self):
        with pytest.raises(EdgeListSyntaxError):
            parse_edge_list("2 1\n0  1\n")

    def test_wrong_edge_count(self):
        with pytest.raises(EdgeListSyntaxError):
            parse_edge_list("3 2\n0 1\n")

    def test_non_ascii_rejected(self):
        with pytest.raises(EdgeListSyntaxError):
            parse_edge_list("3 1\n0 ١\n")

    @given(digraphs())
    def test_round_trip(self, g):
        assert parse_edge_list(serialize_edge_list(g)) == g

    def test_vertex_limit(self, monkeypatch):
        # a small limit keeps a regression from allocating a huge graph
        monkeypatch.setattr(digraph, "MAX_VERTICES", 3)
        assert parse_edge_list("3 0\n") == Digraph(3)
        with pytest.raises(TooLargeError):
            parse_edge_list("4 0\n")

    def test_field_digit_limit(self):
        # int() of a 5,000-digit field would raise ValueError, not a GraphError
        digits = "1" * (digraph.MAX_FIELD_DIGITS + 1)
        assert parse_edge_list("2 1\n00000000000000001 0\n") == Digraph(2, [(1, 0)])
        with pytest.raises(TooLargeError, match="line 1"):
            parse_edge_list(f"{'1' * 5000} 0\n")
        with pytest.raises(TooLargeError, match="line 1"):
            parse_edge_list(f"3 {digits}\n")
        with pytest.raises(TooLargeError, match="line 3"):
            parse_edge_list(f"3 2\n0 1\n{digits} 2\n")

    def test_serialize_after_parse_is_identity(self):
        text = "4 2\n0 1\n3 2\n"
        assert serialize_edge_list(parse_edge_list(text)) == text
