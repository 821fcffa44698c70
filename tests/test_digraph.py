"""Digraph value type, edge bookkeeping, and the edge-list format."""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from reference_parse import reference_build, reference_parse

C3_EDGES = [(0, 1), (1, 2), (2, 0)]


@st.composite
def arc_lists(draw):
    """(n, arcs): mostly arcs of n vertices, some of them repeated; the
    rest may hold ids outside [0, n), self-loops, and arcs that are
    lists or have one or three ids."""
    n = draw(st.integers(0, 6))
    ids = st.integers(-8, 8)
    if n:
        ids = st.one_of(st.integers(0, n - 1), ids)
    arc = st.one_of(
        st.tuples(ids, ids),
        st.lists(ids, min_size=2, max_size=2),
        st.tuples(ids),
        st.tuples(ids, ids, ids),
    )
    good = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(good), unique=True)) if good else []
    if draw(st.booleans()):
        arcs.insert(draw(st.integers(0, len(arcs))), draw(arc))
    if arcs and draw(st.booleans()):
        arcs.append(draw(st.sampled_from(arcs)))
    return n, arcs


class TestBuild:
    def test_c3(self):
        g = Digraph(3, C3_EDGES)
        assert g.n == 3
        assert g.m == 3
        assert g.edges() == C3_EDGES

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Digraph(-1)

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            Digraph(2, [(0, 0)])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            Digraph(4, [(0, 1), (0, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfRangeError):
            Digraph(3, [(0, 3)])

    @pytest.mark.parametrize("edges,error,message", [
        ([(0, 1), (0, 1), (0, 9)], DuplicateEdgeError, "edge (0, 1) already present"),
        ([(0, 9), (0, 1), (0, 1)], OutOfRangeError, "vertex 9 outside [0, 4)"),
        ([(0, 1), (2, 2), (0, 1)], SelfLoopError, "self-loop (2, 2) not allowed"),
        # the bulk pass uses up an arc given as an iterator, and the
        # arc-by-arc rebuild reads the arcs it converted
        ([iter((0, 1)), (1, 1)], SelfLoopError, "self-loop (1, 1) not allowed"),
        ([iter((0, 1)), iter((0, 1))], DuplicateEdgeError, "edge (0, 1) already present"),
        ([iter((0, 1)), 5], TypeError, "cannot unpack non-iterable int object"),
    ])
    def test_first_bad_arc_decides_the_error(self, edges, error, message):
        with pytest.raises(error) as caught:
            Digraph(4, edges)
        assert str(caught.value) == message

    def test_arcs_read_once(self):
        class Arcs:
            reads = 0

            def __iter__(self):
                Arcs.reads += 1
                return iter(C3_EDGES)

        assert Digraph(3, Arcs()).edges() == C3_EDGES
        assert Arcs.reads == 1
        g = Digraph(3, (e for e in C3_EDGES))
        assert (g.m, g.edges()) == (3, C3_EDGES)

    def test_arcs_given_as_lists(self):
        g = Digraph(3, [[0, 1], [1, 2]])
        assert g.edges() == [(0, 1), (1, 2)] and g.m == 2

    def test_adjacency_matches_edges(self):
        g = Digraph(3, C3_EDGES)
        assert g._out == [{1}, {2}, {0}]
        assert g._in == [{2}, {0}, {1}]
        assert g.in_neighbors(0) == {2}

    @settings(max_examples=500)
    @example((3, [(0, 1), (-1, 0)]))  # -1 indexes vertex 2's sets
    @example((3, [(0, 1), (1, -3)]))  # -3 indexes vertex 0's sets
    @example((3, [(0, 1), (2, 3), (1, 1)]))
    @example((3, [(0, 1), [0, 1]]))
    @example((3, [[1, 2], (2, 2), [0, 1, 2]]))
    @example((3, [(0, 1), [0]]))
    @example((0, []))
    @given(arc_lists())
    def test_same_outcome_as_arc_by_arc_build(self, case):
        # the bulk build gives the graph that add_edge gives arc by arc,
        # or the error of its first bad arc: ids below 0 (which index a
        # real set from the end) or at least n, self-loops, repeated
        # arcs, arcs given as lists or of the wrong length, and the arcs
        # read from a one-shot iterator
        n, arcs = case
        assert outcome(lambda arcs: Digraph(n, iter(arcs)), arcs) == outcome(
            lambda arcs: reference_build(n, arcs), arcs)


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

    def test_restore_active_edge_fails(self):
        g = Digraph(3, C3_EDGES)
        with pytest.raises(DuplicateEdgeError):
            g.restore_edge(0, 1)

    def test_copy_holds_only_active_arcs_and_shares_no_set(self):
        g = Digraph(3, C3_EDGES)
        g.remove_edge(1, 2)
        h = g.copy()
        assert (h.n, h.m, h.edges()) == (3, 2, [(0, 1), (2, 0)])
        assert (h._out, h._in) == (g._out, g._in)
        assert not any(a is b for a, b in zip(h._out + h._in, g._out + g._in))
        h.add_edge(1, 2)
        assert g.edges() == [(0, 1), (2, 0)] and g._out[1] == set()

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

    def test_matches_list_model(self):
        # random add/restore/remove/copy sequences against a plain list of
        # the arcs present: after each step the edge sequence, m and both
        # adjacency lists agree with the list, and so does the error a
        # step raises; an arc added again goes last.  Each copy carries on
        # the sequence, and the graph it was copied from must not change.
        # Every outcome occurs often enough to be checked
        tally = dict.fromkeys(["removed", "re-added", "copied", "absent",
                               "duplicate", "self-loop", "out of range"], 0)

        @settings(max_examples=300, deadline=None)
        @given(st.integers(1, 4), st.data())
        def check(n, data):
            g = Digraph(n)
            model: list[tuple[int, int]] = []
            gone: set[tuple[int, int]] = set()
            frozen: list[tuple[Digraph, list[tuple[int, int]]]] = []
            ids = st.integers(-1, n)
            for _ in range(data.draw(st.integers(0, 40))):
                op = data.draw(st.sampled_from(["add", "restore", "remove", "copy"]))
                # often an arc the graph holds or held, so that removals
                # and re-adds succeed
                arcs = st.tuples(ids, ids)
                if model or gone:
                    arcs = st.one_of(arcs, st.sampled_from(model + sorted(gone)))
                u, v = data.draw(arcs)
                if op == "copy":
                    h = g.copy()
                    assert not any(
                        a is b for a, b in zip(h._out + h._in, g._out + g._in)
                    )
                    frozen.append((g, list(model)))
                    g = h
                    tally["copied"] += 1
                elif op == "remove":
                    if (u, v) in model:
                        g.remove_edge(u, v)
                        model.remove((u, v))
                        gone.add((u, v))
                        tally["removed"] += 1
                    else:
                        with pytest.raises(EdgeAbsentError):
                            g.remove_edge(u, v)
                        tally["absent"] += 1
                else:
                    step = g.add_edge if op == "add" else g.restore_edge
                    error = None
                    if not (0 <= u < n and 0 <= v < n):
                        error, outcome = OutOfRangeError, "out of range"
                    elif u == v:
                        error, outcome = SelfLoopError, "self-loop"
                    elif (u, v) in model:
                        error, outcome = DuplicateEdgeError, "duplicate"
                    if error is None:
                        step(u, v)
                        model.append((u, v))
                        assert g.edges()[-1] == (u, v)
                        tally["re-added"] += (u, v) in gone
                    else:
                        with pytest.raises(error):
                            step(u, v)
                        tally[outcome] += 1
                assert (g.edges(), g.m) == (model, len(model))
                assert g._out == [{y for x, y in model if x == w} for w in range(n)]
                assert g._in == [{x for x, y in model if y == w} for w in range(n)]
            for h, arcs in frozen:
                built = Digraph(n, arcs)
                assert h == built and (h._out, h._in) == (built._out, built._in)

        check()
        assert min(tally.values()) >= 50, tally


# odd fields and separators, drawn into a noisy text: leading zeros, 18
# and 19 digits, doubled spaces and tabs
ODD_FIELDS = st.sampled_from(["00", "03", "0001", "1" * 18, "0" * 17 + "1",
                              "1" * 19, "0" * 18 + "2"])
ODD_SEPARATORS = st.sampled_from(["  ", "\t"])
EXTRA_LINES = st.sampled_from(["# comment", "#", "#1 2", "# x\r", "", "\r"])


@st.composite
def edge_list_texts(draw) -> str:
    """Edge-list text: a header whose arc count may be off by one, arcs
    that may repeat, loop or leave the range, comment lines anywhere and
    an optional final newline; a noisy text also gets odd fields and
    separators, blank lines, and a line that ends in a carriage return
    or a ``#`` after its fields."""
    noisy = draw(st.booleans())
    fields = st.one_of(st.integers(0, 4).map(str), ODD_FIELDS) if noisy else (
        st.integers(0, 4).map(str))
    separators = st.one_of(st.just(" "), ODD_SEPARATORS) if noisy else st.just(" ")
    arcs = draw(st.lists(st.tuples(fields, separators, fields), max_size=8))
    lines = [f"{u}{sep}{v}" for u, sep, v in arcs]
    m = max(0, len(lines) + draw(st.sampled_from([0, 0, 0, 0, 1, -1])))
    n = draw(st.one_of(st.integers(3, 7).map(str), fields))
    lines.insert(0, f"{n}{draw(separators)}{m}")
    extra = EXTRA_LINES if noisy else st.just("# comment")
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(extra))
    if noisy and draw(st.booleans()):
        lines[draw(st.integers(0, len(lines) - 1))] += draw(
            st.sampled_from(["\r", "#", " # note"]))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@st.composite
def commented_serializations(draw) -> str:
    """A valid edge list with comment lines inserted, the last one
    possibly unterminated."""
    lines = serialize_edge_list(draw(digraphs(min_n=0))).split("\n")
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), "# note")
    return "\n".join(lines)


def outcome(parse, text: str):
    """The parsed graph's size, arcs and adjacency, or the error raised."""
    try:
        g = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return g.n, g.m, g.edges(), g._out, g._in


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

    @settings(max_examples=500)
    @example("2 1\n0 1#", False)  # a '#' after the fields is no comment
    @example("2 1\n# last, unterminated", False)
    @example("2 1\r\n0 1\r\n", False)
    @given(st.one_of(edge_list_texts(), commented_serializations(),
                     st.text("019 #\n\r\t\u0661", max_size=30)),
           st.booleans())
    def test_same_outcome_as_line_walk(self, text, small_limit):
        with pytest.MonkeyPatch.context() as patch:
            if small_limit:
                patch.setattr(digraph, "MAX_VERTICES", 5)
            assert outcome(parse_edge_list, text) == outcome(reference_parse, text)

    def test_serialize_after_parse_is_identity(self):
        text = "4 2\n0 1\n3 2\n"
        assert serialize_edge_list(parse_edge_list(text)) == text
