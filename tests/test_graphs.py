import io
from itertools import chain

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiolab.corpus import corpus, toprec_corpus
from radiolab.errors import (
    Disconnected,
    DuplicateEdge,
    IndexOutOfRange,
    InvalidParams,
    NotPerfectEvenSquare,
    SelfLoop,
)
from radiolab.graphs import (
    bfs_layers,
    build_graph,
    diameter,
    gen_cycle,
    gen_grid,
    gen_lb_family,
    gen_lb_general,
    gen_pair_gadget,
    gen_path,
    gen_random_connected,
    gen_star,
    gen_tree,
    read_edge_list,
    write_edge_list,
)
from oracles import connected_atlas, lb_family_from_edges, lb_general_from_edges


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


class TestBuildGraph:
    def test_single_edge(self):
        g = build_graph(2, [(0, 1)])
        assert g.max_degree() == 1 and diameter(g) == 1

    def test_path3(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert g.max_degree() == 2 and diameter(g) == 2

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            build_graph(4, [(0, 1), (0, 1)])
        with pytest.raises(DuplicateEdge):
            build_graph(4, [(0, 1), (1, 0)])

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            build_graph(2, [(1, 1)])

    def test_bad_index(self):
        with pytest.raises(IndexOutOfRange):
            build_graph(2, [(0, 2)])

    def test_negative_size(self):
        with pytest.raises(InvalidParams):
            build_graph(-1, [])


class TestBfsLayers:
    def test_path_end(self):
        la = bfs_layers(gen_path(4), 0)
        assert la.layer == (0, 1, 2, 3) and la.depth == 3

    def test_star_center(self):
        la = bfs_layers(gen_star(5), 0)
        assert la.layer == (0, 1, 1, 1, 1) and la.depth == 1

    def test_cycle4_against_nx(self):
        g = gen_cycle(4)
        la = bfs_layers(g, 0)
        dist = nx.single_source_shortest_path_length(to_nx(g), 0)
        assert la.layer == tuple(dist[v] for v in range(4))
        assert la.layer == (0, 1, 2, 1) and la.depth == 2

    def test_disconnected(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(Disconnected):
            bfs_layers(g, 0)

    @pytest.mark.parametrize(
        "edges,n",
        [([(0, 1), (1, 2), (3, 4), (4, 5)], 6), ([(0, 1), (1, 2), (0, 2)], 4)],
        ids=["two-components", "isolated-last-node"],
    )
    def test_disconnected_from_every_root(self, edges, n):
        g = build_graph(n, edges)
        for root in range(n):
            with pytest.raises(Disconnected):
                bfs_layers(g, root)

    def test_single_node(self):
        la = bfs_layers(build_graph(1, []), 0)
        assert la.layer == (0,) and la.depth == 0
        assert diameter(build_graph(1, [])) == 0

    @pytest.mark.parametrize("root", [-1, 4])
    def test_root_out_of_range(self, root):
        with pytest.raises(IndexOutOfRange):
            bfs_layers(gen_path(4), root)

    def test_by_layer_buckets_in_index_order(self):
        """On the size and toprec corpora, G_16..G_144 and every connected
        atlas graph, from the first and the last node: the buckets partition
        range(n), and bucket i holds the nodes of layer i in index order.
        They are built once and take no part in equality."""
        graphs = dict(corpus())
        graphs.update(toprec_corpus())
        graphs.update((f"G_{n}", gen_lb_family(n)[0]) for n in (16, 36, 64, 100, 144))
        graphs.update(connected_atlas())
        for gid, g in graphs.items():
            for root in {0, g.n - 1}:
                la = bfs_layers(g, root)
                buckets = la.by_layer
                assert len(buckets) == la.depth + 1, gid
                assert sorted(chain.from_iterable(buckets)) == list(range(g.n)), gid
                for i, bucket in enumerate(buckets):
                    assert list(bucket) == [v for v in range(g.n) if la.layer[v] == i], gid
                assert la.by_layer is buckets and la == bfs_layers(g, root), gid


class TestDiameter:
    def test_small_cases(self):
        k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert diameter(k4) == 1
        assert diameter(gen_path(5)) == 4
        assert diameter(gen_cycle(6)) == 3

    @given(st.integers(2, 40), st.floats(0, 1), st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_matches_networkx(self, n, p, seed):
        g = gen_random_connected(n, p, seed)
        assert diameter(g) == nx.diameter(to_nx(g))


class TestRandomConnected:
    def test_single_node(self):
        assert gen_random_connected(1, 0.5, 0).n == 1

    def test_p_zero_is_tree(self):
        g = gen_random_connected(5, 0.0, 7)
        assert g.m() == 4
        bfs_layers(g, 0)  # raises Disconnected otherwise

    def test_p_one_is_complete(self):
        g = gen_random_connected(5, 1.0, 1)
        assert g.m() == 10

    def test_deterministic(self):
        a = gen_random_connected(30, 0.2, 42)
        b = gen_random_connected(30, 0.2, 42)
        assert a.edges() == b.edges()

    @given(st.integers(1, 60), st.floats(0, 1), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_always_connected(self, n, p, seed):
        bfs_layers(gen_random_connected(n, p, seed), 0)  # raises Disconnected otherwise

    @given(st.integers(1, 80), st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_tree_generator(self, n, seed):
        g = gen_tree(n, seed)
        assert g.m() == n - 1
        bfs_layers(g, 0)  # raises Disconnected otherwise


def lb_component(k):
    """The first component of G_{k^2} as a graph of its own: the edges
    `gen_lb_family` puts inside each of its components."""
    g, desc = gen_lb_family(k * k)
    assert desc.components[0] == list(range(k))
    return build_graph(k, [(u, v) for u, v in g.edges() if v < k])


class TestLBComponent:
    def test_k2(self):
        g = lb_component(2)
        assert g.edges() == [(0, 1)]

    def test_k6_degrees(self):
        g = lb_component(6)
        assert g.m() == 6
        assert [g.degree(v) for v in range(3)] == [1, 2, 3]
        assert [g.degree(v) for v in range(3, 6)] == [3, 2, 1]

    def test_k4_edges(self):
        g = lb_component(4)
        assert set(g.edges()) == {(0, 2), (1, 2), (1, 3)}
        assert len({g.degree(v) for v in range(4)}) == 2

    def test_odd_rejected(self):
        """A component size must be even and at least 2."""
        with pytest.raises(NotPerfectEvenSquare):
            gen_lb_family(5 * 5)
        with pytest.raises(NotPerfectEvenSquare):
            gen_lb_family(0)

    @pytest.mark.parametrize("k", [2, 4, 6, 8, 10, 12])
    def test_distinct_degree_count(self, k):
        g = lb_component(k)
        assert len({g.degree(v) for v in range(k)}) == k // 2


class TestLBFamily:
    def test_n4_is_k4(self):
        g, desc = gen_lb_family(4)
        assert g.n == 4 and g.m() == 6
        assert len(desc.components) == 2

    def test_n36_counts(self):
        g, desc = gen_lb_family(36)
        assert g.n == 36 and g.m() == 576
        assert len(desc.components) == 6
        assert all(len(c) == 6 for c in desc.components)

    def test_rejects_non_square(self):
        with pytest.raises(NotPerfectEvenSquare):
            gen_lb_family(10)
        with pytest.raises(NotPerfectEvenSquare):
            gen_lb_family(9)  # odd sqrt

    @pytest.mark.parametrize("n", [4, 16, 36, 64])
    def test_degree_structure(self, n):
        g, desc = gen_lb_family(n)
        root = int(n**0.5)
        bfs_layers(g, 0)  # raises Disconnected otherwise
        for comp in desc.components:
            incomp = {
                v: sum(1 for w in g.adj[v] if w in set(comp)) for v in comp
            }
            assert len(set(incomp.values())) == root // 2
            for v in comp:
                assert g.degree(v) == incomp[v] + (n - root)


class TestLBGeneral:
    def test_delta4_n8(self):
        g, desc = gen_lb_general(4, 8)
        assert g.n == 10 and len(desc.components) == 2
        assert desc.specials == [4, 9]

    def test_delta16_n64(self):
        g, desc = gen_lb_general(16, 64)
        assert g.n == 68 and len(desc.specials) == 4
        ring = [e for e in g.edges() if e[0] in desc.specials and e[1] in desc.specials]
        assert len(ring) == 4

    def test_removing_specials_leaves_gk_copies(self):
        g, desc = gen_lb_general(4, 12)
        copies = -(-12 // 4)
        assert len(desc.components) == copies
        h = to_nx(g)
        h.remove_nodes_from(desc.specials)
        comps = list(nx.connected_components(h))
        assert len(comps) == copies
        gk = to_nx(gen_lb_family(4)[0])
        for comp in comps:
            assert nx.is_isomorphic(h.subgraph(comp), gk)

    def test_invalid_params(self):
        from radiolab.errors import InvalidParams

        with pytest.raises(InvalidParams):
            gen_lb_general(5, 5)


class TestLBEquivalence:
    """The generators write adjacency rows directly; they must equal the
    edge-by-edge construction, and survive every `build_graph` check."""

    @staticmethod
    def check(got, ref):
        (g, desc), (h, ref_desc) = got, ref
        assert g.n == h.n and g.adj == h.adj
        assert desc.components == ref_desc.components
        assert desc.specials == ref_desc.specials
        assert build_graph(g.n, g.edges()).adj == g.adj

    @pytest.mark.parametrize("n", [4, 16, 36, 64, 144, 576, 784])
    def test_family(self, n):
        self.check(gen_lb_family(n), lb_family_from_edges(n))

    @pytest.mark.parametrize("delta,n", [(4, 8), (4, 12), (16, 64), (9, 40), (36, 100)])
    def test_general(self, delta, n):
        self.check(gen_lb_general(delta, n), lb_general_from_edges(delta, n))


GENERATED = [
    ("path-7", gen_path(7)),
    ("cycle-9", gen_cycle(9)),
    ("star-6", gen_star(6)),
    ("grid-4x5", gen_grid(4, 5)),
    ("tree-40", gen_tree(40, 3)),
    ("gnp-30", gen_random_connected(30, 0.3, 5)),
    ("G_36", gen_lb_family(36)[0]),
    ("G_144", gen_lb_family(144)[0]),
    ("H_4_12", gen_lb_general(4, 12)[0]),
    ("H_9_40", gen_lb_general(9, 40)[0]),
    ("H_16_64", gen_lb_general(16, 64)[0]),
    ("P_5", gen_pair_gadget(5)),
    ("P_4-tail-6", gen_pair_gadget(4, tail=6)),
]


@pytest.mark.parametrize("name,g", GENERATED, ids=[name for name, _ in GENERATED])
def test_generator_rows_strictly_increasing(name, g):
    """`Graph` takes its rows as given, so every generator must hand them
    over sorted and without repeats."""
    assert len(g.adj) == g.n
    for row in g.adj:
        assert all(a < b for a, b in zip(row, row[1:])), name


class TestFormats:
    def test_edge_list_round_trip(self):
        g = gen_random_connected(12, 0.3, 5)
        buf = io.StringIO()
        write_edge_list(g, buf)
        buf.seek(0)
        assert read_edge_list(buf).edges() == g.edges()

    def test_edge_list_canonical(self):
        g = gen_path(3)
        buf = io.StringIO()
        write_edge_list(g, buf)
        assert buf.getvalue() == "3 2\n0 1\n1 2\n"

    @pytest.mark.parametrize("text", [
        "-1 0\n",  # negative n
        "3 x\n",  # non-integer header token
        "3 2\n0 1\n1 2.0\n",  # non-integer edge token
        "3 1\n0 1\n1 2\n",  # a line after the m edges
        "3 2\n0 1\n",  # fewer edge lines than m
        "3 2\n0 +1\n1 2\n",  # a signed token
        "11 1\n0 1_0\n",  # a digit separator
        "3 2\n0 1\n1 \uff12\n",  # a fullwidth digit
        "2 1\n0\u30001\n",  # an ideographic space
    ])
    def test_edge_list_rejects_malformed(self, text):
        with pytest.raises(InvalidParams):
            read_edge_list(io.StringIO(text))

    def test_edge_list_allows_trailing_blank_lines(self):
        assert read_edge_list(io.StringIO("3 2\n0 1\n1 2\n\n  \n")).m() == 2


class TestGridGenerator:
    def test_grid_shape(self):
        g = gen_grid(3, 4)
        assert g.n == 12 and g.m() == 3 * 3 + 2 * 4
        assert diameter(g) == 5


class TestPairGadget:
    @pytest.mark.parametrize("k", [1, 2, 5, 8])
    def test_shape(self, k):
        """s, the a_i, their private leaves p_i and one b_ij per pair: the
        same graph as built from its definition in networkx."""
        g = gen_pair_gadget(k)
        h = nx.Graph()
        h.add_edges_from(("s", ("a", i)) for i in range(k))
        h.add_edges_from((("a", i), ("p", i)) for i in range(k))
        for i in range(k):
            for j in range(i + 1, k):
                h.add_edges_from([(("a", i), ("b", i, j)), (("a", j), ("b", i, j))])
        assert g.n == 1 + 2 * k + k * (k - 1) // 2
        assert nx.is_isomorphic(to_nx(g), h)
        assert tuple(g.adj[0]) == tuple(range(1, k + 1))
        assert diameter(g) == (4 if k > 1 else 2)

    def test_tail_hangs_on_p1(self):
        k, tail = 4, 5
        g, base = gen_pair_gadget(k, tail), gen_pair_gadget(k)
        assert g.n == base.n + tail
        assert set(base.edges()) < set(g.edges())
        added = set(g.edges()) - set(base.edges())
        assert added == {(k + 1, base.n)} | {(u, u + 1) for u in range(base.n, g.n - 1)}

    @pytest.mark.parametrize("k,tail", [(0, 0), (-1, 0), (3, -1)])
    def test_invalid(self, k, tail):
        with pytest.raises(InvalidParams):
            gen_pair_gadget(k, tail)
