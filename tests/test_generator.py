"""Instance generation: uniform sampling, seeded determinism, growth."""
import hashlib
import random
import tracemalloc
from itertools import islice
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsbgraph import (
    Digraph,
    InstanceSpec,
    TooFewVerticesError,
    TooLargeError,
    TooManyEdgesError,
    generate,
    generator,
    grow_until_3vsb,
    is_k_vsb,
    random_digraph,
    serialize_edge_list,
)
from vsbgraph.cli import main
from vsbgraph.connectivity import _degree_gated

from graphutil import complete_bidirected
from oracle import oracle_k_vsb
from reference_generate import (
    reference_draw,
    reference_grow_until_3vsb,
    reference_random_digraph,
)
from reference_walk import below_bound, below_degree_bound


class TestInstanceSpec:
    def test_default_initial_edges(self):
        assert InstanceSpec(10, seed=1).initial_edges == 80

    def test_default_capped_at_complete_graph(self):
        # min(8n, n(n-1)): every arc up to n=9, where the two meet
        assert [InstanceSpec(n, seed=1).initial_edges for n in range(4, 11)] == [
            12, 20, 30, 42, 56, 72, 80
        ]

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            InstanceSpec(10, seed=-1)
        with pytest.raises(ValueError, match="non-negative"):
            grow_until_3vsb(complete_bidirected(4), seed=-1)

    def test_too_few_vertices(self):
        with pytest.raises(TooFewVerticesError):
            InstanceSpec(3, seed=1)

    def test_too_many_edges(self):
        # 8n exceeds the n(n-1) arc space at n=8
        with pytest.raises(TooManyEdgesError):
            InstanceSpec(8, 64, seed=1)

    def test_vertex_limit(self, monkeypatch):
        # a small limit stands in for 1,000, above which a dense spec would
        # build too many of the n(n-1) arcs
        monkeypatch.setattr(generator, "MAX_VERTICES", 9)
        assert InstanceSpec(9, seed=1).n == 9
        with pytest.raises(TooLargeError):
            InstanceSpec(10, seed=1)
        with pytest.raises(TooLargeError):
            grow_until_3vsb(Digraph(10), seed=1)


class TestRandomDigraph:
    def test_size_profile(self):
        g = random_digraph(InstanceSpec(10, 80, seed=1))
        assert g.n == 10
        assert g.m == 80
        assert all(u != v for u, v in g.edges())
        assert len(set(g.edges())) == 80

    def test_full_sampling_is_complete_graph(self):
        g = random_digraph(InstanceSpec(4, 12, seed=99))
        assert set(g.edges()) == set(complete_bidirected(4).edges())

    def test_seeded_determinism(self):
        spec = InstanceSpec(10, 40, seed=7)
        assert random_digraph(spec).edges() == random_digraph(spec).edges()

    def test_different_seeds_differ(self):
        a = random_digraph(InstanceSpec(10, 40, seed=1))
        b = random_digraph(InstanceSpec(10, 40, seed=2))
        assert a.edges() != b.edges()


class TestGrowth:
    def test_already_3vsb_adds_nothing(self):
        instance = grow_until_3vsb(complete_bidirected(4), seed=5)
        assert instance.edges_added_in_growth == 0
        assert instance.graph == complete_bidirected(4)

    def test_grown_instance_passes_replay(self):
        instance = grow_until_3vsb(random_digraph(InstanceSpec(10, 40, seed=3)), seed=3)
        assert is_k_vsb(instance.graph, 3).verdict
        assert instance.edges_added_in_growth > 0

    def test_empty_start_terminates(self):
        instance = grow_until_3vsb(Digraph(4), seed=11)
        assert instance.graph.m <= 12
        assert is_k_vsb(instance.graph, 3).verdict

    def test_input_not_mutated(self):
        g = Digraph(4)
        grow_until_3vsb(g, seed=11)
        assert g.m == 0

    def test_edge_accounting(self):
        g = random_digraph(InstanceSpec(10, 40, seed=3))
        instance = grow_until_3vsb(g, seed=3)
        assert instance.graph.m == g.m + instance.edges_added_in_growth
        assert instance.spec.initial_edges == g.m

    def test_too_few_vertices(self):
        with pytest.raises(TooFewVerticesError):
            grow_until_3vsb(Digraph(3, [(0, 1)]), seed=1)


class TestGenerate:
    def test_deterministic(self):
        spec = InstanceSpec(10, seed=42)
        a = generate(spec)
        b = generate(spec)
        assert a.graph == b.graph
        assert a.edges_added_in_growth == b.edges_added_in_growth

    def test_matches_composition_of_parts(self):
        spec = InstanceSpec(10, 40, seed=6)
        whole = generate(spec)
        parts = grow_until_3vsb(random_digraph(spec), spec.seed)
        assert whole.graph == parts.graph

    def test_instance_is_3vsb(self):
        assert is_k_vsb(generate(InstanceSpec(12, seed=0)).graph, 3).verdict

    def test_growth_exercised_at_half_density(self):
        # at the default 8n density small instances usually pass outright,
        # so the growth loop is exercised at 4n instead
        grown = [
            generate(InstanceSpec(10, 40, seed=s)).edges_added_in_growth
            for s in range(100)
        ]
        assert all(g >= 0 for g in grown)
        assert sum(grown) > 0
        final = [40 + g for g in grown]
        assert all(m >= 40 for m in final)

    def test_default_density_final_count_never_shrinks(self):
        for seed in range(20):
            instance = generate(InstanceSpec(10, seed=seed))
            assert instance.graph.m >= 80
            assert is_k_vsb(instance.graph, 3).verdict


# SHA-256 of serialize_edge_list(graph) and the growth count, recorded
# from the generator that ran the full 3-vsb test after every insertion
# (the n=100 row: from the degree-gated loop with the enumeration form of
# is_k_vsb; the n=1,000 row: from the shuffle of real index lists with one
# draw per item); the degree-gated loop on the Menger-form verdict must
# reproduce them byte for byte.
INSTANCE_DIGESTS = [
    (12, 48, 100001, 28, "5ae9465dbb3bc24171e2c660d93939e2dafe8d150740d2438654748d05edb762"),
    (12, 48, 100002, 25, "878d4308c89c3050ab298079aa5379aa7342b8952afc0187f534a2bc39060e5f"),
    (12, 48, 100003, 8, "3f46112a35279aa448732a2f64e90287665535f0b069a7cf0d06174ef0644378"),
    (12, 48, 100004, 27, "5fc1834f6b8f0060c101029024481996b3ee212953b181d9568646c117ee8807"),
    (12, 48, 100005, 25, "8f7ffcd535109e72604e7fb0de3cfbee9115c711440d756fceb7770ea3767639"),
    (20, 40, 1, 153, "39c942caa70b6050c25c4d07d6c740959c9ed2b1dd9a984cb15295ae3b1983da"),
    (20, 40, 2, 123, "d6803f8dd4f63b1ca23fc038601cb4e9dbcdacaf89393dc07b5794481b92fab6"),
    (20, 40, 3, 135, "6de208e8d22468ccc7c79605834e022173f8d90d0bc1d3d8d7864eef0e683b66"),
    (30, 120, 1, 122, "05f9f90f3960065138d726d6cdef4e651c70786b6c70a89fa2b320f10a4cbc9b"),
    (30, 120, 2, 81, "6b6249018d8616364492afee8d6f585d22d81fa35060e3ff2f63b6204c6981f9"),
    (10, 0, 1, 48, "261779c6b6532c81bec9269ef9e9192c79780093a413dd75ff5d32d0ac527cef"),
    (12, 0, 5, 71, "d99cdc24723a61039187b913b02ee664e6da067de6934bf40f219e45557cf13c"),
    (100, 800, 1, 800, "0929c7a3c6e42fe31413a81f403c866a3ce73ed7954d0ea069680948e40265d4"),
    (1000, 8000, 1, 9842, "06372be3a2653272d97bd4bff223d91ea187d8d91504e2a43f6648f65666c211"),
]


@pytest.mark.parametrize("n,m0,seed,grown,digest", INSTANCE_DIGESTS)
def test_instance_digest(n, m0, seed, grown, digest, tmp_path, capsys):
    instance = generate(InstanceSpec(n, m0, seed))
    text = serialize_edge_list(instance.graph).encode("ascii")
    assert instance.edges_added_in_growth == grown
    assert hashlib.sha256(text).hexdigest() == digest
    # `gen` writes the same bytes (every m0 here is a multiple of n)
    out = tmp_path / "gen.txt"
    assert main(["gen", "--n", str(n), "--seed", str(seed),
                 "--mult", str(m0 // n), "--out", str(out)]) == 0
    assert out.read_bytes() == text
    assert capsys.readouterr().out == (
        f"n={n} m0={m0} grown={grown} m={instance.graph.m}\n")


def batch_ends(first: int, size: int) -> list[int]:
    """Where _draw's batches end in a pool of ``size``, as its docstring
    states them: ``first`` items, then twice as many each time, up to
    generator._MAX_BATCH."""
    batch, ends = min(max(first, 1), generator._MAX_BATCH), [0]
    while ends[-1] < size:
        ends.append(min(size, ends[-1] + batch))
        batch = min(2 * batch, generator._MAX_BATCH)
    return ends


class TestVirtualPool:
    """The virtual pool with batched draws against the shuffle of real
    lists with one draw per item (tests/reference_generate.py).  Small
    batch caps put many batch boundaries inside small pools."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 3000), st.integers(0, 300), st.sampled_from([1, 2, 3, 7, 4096]),
           st.integers(0, 2**63 - 1), st.data())
    def test_draw_matches_reference(self, size, first, cap, seed, data):
        with patch.object(generator, "_MAX_BATCH", cap):
            ends = batch_ends(first, size)
            # a draw count at or next to a batch boundary, or all of them
            count = data.draw(st.one_of(
                st.sampled_from(ends).flatmap(lambda end: st.sampled_from(
                    [c for c in (end - 1, end, end + 1) if 0 <= c <= size])),
                st.just(size)))
            drawn = list(islice(generator._draw(size, generator._rng(seed), first), count))
        expected = list(islice(reference_draw(list(range(size)), generator._rng(seed)), count))
        assert drawn == expected

    @settings(max_examples=150, deadline=None)
    @given(st.integers(4, 40).flatmap(lambda n: st.tuples(
               st.just(n), st.integers(0, n * (n - 1)))),
           st.integers(0, 2**63 - 1), st.sampled_from([1, 3, 64, 4096]))
    def test_instances_match_reference(self, n_m0, seed, cap):
        spec = InstanceSpec(*n_m0, seed)
        with patch.object(generator, "_MAX_BATCH", cap):
            sample = random_digraph(spec)
            grown = grow_until_3vsb(sample, seed)
        expected = reference_random_digraph(spec)
        assert sample.edges() == expected.edges()
        reference = reference_grow_until_3vsb(expected, seed)
        assert grown.graph.edges() == reference.graph.edges()
        assert grown.edges_added_in_growth == reference.edges_added_in_growth

    def test_generate_peak_memory(self):
        # a list of all n(n-1) arc indices alone takes about 36 MB at n=1,000
        generate(InstanceSpec(12, 48, 1))  # numpy's import is not counted
        tracemalloc.start()
        try:
            generate(InstanceSpec(1000, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20


class TestDegreeGate:
    def test_sound_against_oracle(self):
        # every sampled graph with a vertex below the bound fails the oracle,
        # and for each k some k-vsb graph sits exactly on the bound (in- or
        # out-degree k, and undirected degree k+1), so a looser bound fails
        rng = random.Random(2024)
        tight = set()
        for n in range(4, 9):
            arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
            for _ in range(80):
                p = rng.uniform(0.3, 1.0)
                g = Digraph(n, [a for a in arcs if rng.random() < p])
                for k in range(1, min(n - 1, 3) + 1):
                    below = any(below_bound(g, k))
                    if not oracle_k_vsb(g, k):
                        continue
                    assert not below, (g.edges(), k)
                    if min(min(len(g._in[v]), len(g._out[v])) for v in range(n)) == k:
                        tight.add((k, "directed"))
                    if n >= k + 2 and min(
                        len(g._in[v] | g._out[v]) for v in range(n)
                    ) == k + 1:
                        tight.add((k, "undirected"))
        assert tight == {(k, kind) for k in (1, 2, 3) for kind in ("directed", "undirected")}

    def test_undirected_degree(self):
        # vertex 0 keeps in- and out-degree 3 but has only 3 neighbours: below
        # the bound at n=5, while at n = k+1 = 4 the complete graph is 3-vsb
        g = complete_bidirected(5)
        g.remove_edge(0, 4)
        g.remove_edge(4, 0)
        assert below_bound(g, 3) == [True, False, False, False, True]
        k4 = complete_bidirected(4)
        assert not any(below_bound(k4, 3))

    def test_gate_yields_from_shortest_bounded_prefix(self):
        # the first yield is the shortest prefix with no vertex below the
        # bound (0 when the start graph meets it), then one per later arc
        rng = random.Random(7)
        assert list(_degree_gated(complete_bidirected(4), [], 3)) == [0]
        for n in range(4, 8):
            arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
            for k in (1, 2, 3):
                for _ in range(5):
                    rng.shuffle(arcs)
                    first = next(
                        length for length in range(len(arcs) + 1)
                        if not any(
                            below_degree_bound(Digraph(n, arcs[:length]), v, k)
                            for v in range(n)
                        )
                    )
                    g = Digraph(n)
                    assert list(_degree_gated(g, arcs, k)) == list(
                        range(first, len(arcs) + 1)
                    )
                    assert g.edges() == arcs
                    start = Digraph(n, arcs[:first])
                    gated = _degree_gated(start, arcs[first:], k)
                    assert next(gated) == 0
                    assert start.m == first

    @pytest.mark.parametrize("spec", [InstanceSpec(12, 48, 100001), InstanceSpec(20, 40, 1)])
    def test_full_test_runs_only_above_bound(self, monkeypatch, spec):
        calls = []

        def counting_is_k_vsb(g, k):
            assert not any(below_bound(g, 3))
            calls.append(g.m)
            return is_k_vsb(g, k)

        monkeypatch.setattr(generator, "is_k_vsb", counting_is_k_vsb)
        instance = generate(spec)
        assert instance.edges_added_in_growth > 0
        assert calls == [instance.graph.m]

    def test_already_3vsb_tested_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            generator, "is_k_vsb", lambda g, k: calls.append(g.m) or is_k_vsb(g, k)
        )
        grow_until_3vsb(complete_bidirected(5), seed=1)
        assert calls == [20]
