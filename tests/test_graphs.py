import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minorforge.coloring import ListAssignment, is_l_colorable
from minorforge.graphs import (
    BipartiteGraph,
    Graph,
    _max_vertex_disjoint_paths,
    bipartite_union_complement,
    color_by_degeneracy,
    complement,
    complete_bipartite_graph,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    degeneracy,
    edges_between,
    empty_graph,
    find_clique,
    induced_subgraph,
    is_clique,
    is_connected_subset,
    mask_of,
    max_degree,
    min_degree,
    nonempty_submasks,
    path_graph,
    relabel_rows,
    turan_threshold_exceeded,
    vertex_connectivity,
)

from .conftest import petersen_graph, random_graph, random_graph_corpus
from .oracles import are_isomorphic, brute_vertex_connectivity


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph.from_edges(n, picks)


class TestGraphInvariants:
    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_asymmetric_rows(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 5)])


class TestComplement:
    def test_complete_becomes_empty(self):
        assert complement(complete_graph(3)) == empty_graph(3)

    def test_c5_self_complementary(self):
        assert are_isomorphic(complement(cycle_graph(5)), cycle_graph(5))

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=10))
    def test_involution(self, G):
        assert complement(complement(G)) == G


class TestBipartiteUnionComplement:
    def test_complete_bipartite_becomes_two_cliques(self):
        B = BipartiteGraph.from_edges(3, 3, [(a, b) for a in range(3) for b in range(3)])
        G = bipartite_union_complement(B, 0b111, 0b111)
        assert G.edge_count() == 3 + 3  # two disjoint triangles
        assert edges_between(G, 0b000111, 0b111000) == 0

    def test_empty_bipartite_becomes_complete(self):
        B = BipartiteGraph.from_edges(2, 3, [])
        assert bipartite_union_complement(B, 0b11, 0b111) == complete_graph(5)

    def test_single_cross_edge_disappears(self):
        B = BipartiteGraph.from_edges(1, 1, [(0, 0)])
        assert bipartite_union_complement(B, 1, 1) == empty_graph(2)

    def test_subset_out_of_range(self):
        B = BipartiteGraph.from_edges(2, 2, [])
        with pytest.raises(ValueError):
            bipartite_union_complement(B, 0b100, 0b11)


class TestInducedSubgraph:
    def test_k5_to_k3(self):
        assert induced_subgraph(complete_graph(5), 0b10011) == complete_graph(3)

    def test_identity(self):
        P = petersen_graph()
        assert induced_subgraph(P, P.vertex_mask()) == P

    def test_petersen_outer_cycle(self):
        assert induced_subgraph(petersen_graph(), 0b11111) == cycle_graph(5)


def to_nx(G: Graph):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(G.n))
    g.add_edges_from(G.edges())
    return g


class TestRelabelRows:
    def test_permutation_is_an_isomorphism_and_its_inverse_restores(self):
        import networkx as nx

        rng = random.Random(71)
        for G in random_graph_corpus(71, 150, 9):
            order = list(range(G.n))
            rng.shuffle(order)
            H = Graph(G.n, relabel_rows(G.adj, order))
            # new vertex i is old vertex order[i]
            assert nx.utils.graphs_equal(nx.relabel_nodes(to_nx(H), order.__getitem__), to_nx(G))
            inverse = sorted(range(G.n), key=order.__getitem__)
            assert relabel_rows(H.adj, inverse) == G.adj

    def test_ascending_subset_is_the_induced_subgraph(self):
        import networkx as nx

        rng = random.Random(72)
        for G in random_graph_corpus(72, 150, 9):
            keep = sorted(rng.sample(range(G.n), rng.randint(0, G.n)))
            H = Graph(len(keep), relabel_rows(G.adj, keep))
            expected = nx.convert_node_labels_to_integers(to_nx(G).subgraph(keep), ordering="sorted")
            assert nx.utils.graphs_equal(to_nx(H), expected)


class TestIsConnectedSubset:
    def test_empty_set_is_not_connected(self):
        assert not is_connected_subset(complete_graph(3), 0)
        assert not is_connected_subset(empty_graph(0), 0)

    def test_matches_networkx_on_seeded_subsets(self):
        import networkx as nx

        rng = random.Random(74)
        connected = 0
        for G in random_graph_corpus(74, 200, 12):
            g = to_nx(G)
            for _ in range(10):
                keep = rng.sample(range(G.n), rng.randint(1, G.n))
                expected = nx.is_connected(g.subgraph(keep))
                assert is_connected_subset(G, mask_of(keep)) == expected, (G, keep)
                connected += expected
        assert 300 <= connected <= 1700


class TestDegeneracy:
    def test_complete(self):
        assert degeneracy(complete_graph(5))[0] == 4

    @pytest.mark.parametrize("tree", [path_graph(2), path_graph(6)])
    def test_trees(self, tree):
        assert degeneracy(tree)[0] == 1

    def test_star_tree(self):
        star = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
        assert degeneracy(star)[0] == 1

    def test_petersen(self, petersen):
        assert degeneracy(petersen)[0] == 3

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_order_is_witness(self, G):
        d, order = degeneracy(G)
        assert d <= max_degree(G)
        seen = 0
        for v in order:
            later = G.vertex_mask() & ~seen & ~(1 << v)
            assert (G.adj[v] & later).bit_count() <= d
            seen |= 1 << v

    @settings(max_examples=40, deadline=None)
    @given(graphs())
    def test_removing_first_vertex_never_increases(self, G):
        if G.n == 0:
            return
        d, order = degeneracy(G)
        rest = G.vertex_mask() & ~(1 << order[0])
        assert degeneracy(induced_subgraph(G, rest))[0] <= d


class TestDegreesAndCounts:
    def test_edges_between_complete(self):
        assert edges_between(complete_graph(6), 0b000111, 0b111000) == 9

    def test_edges_between_empty(self):
        assert edges_between(empty_graph(6), 0b000111, 0b111000) == 0

    def test_edges_between_overlap_error(self):
        with pytest.raises(ValueError):
            edges_between(complete_graph(4), 0b0011, 0b0110)

    def test_petersen_degrees(self, petersen):
        assert max_degree(petersen) == 3
        assert min_degree(petersen) == 3


class TestVertexConnectivity:
    def test_complete(self):
        assert vertex_connectivity(complete_graph(5)) == 4

    def test_cycle(self):
        assert vertex_connectivity(cycle_graph(6)) == 2

    def test_petersen(self, petersen):
        assert vertex_connectivity(petersen) == 3
        assert brute_vertex_connectivity(petersen) == 3

    def test_empty_graph_is_error(self):
        with pytest.raises(ValueError):
            vertex_connectivity(empty_graph(0))

    def test_single_vertex(self):
        assert vertex_connectivity(empty_graph(1)) == 0

    def test_disconnected(self):
        assert vertex_connectivity(Graph.from_edges(4, [(0, 1), (2, 3)])) == 0

    def test_agrees_with_brute_force_on_corpus(self):
        import networkx as nx

        # densities 0.15 and 1.0 give disconnected and complete graphs
        corpus = [empty_graph(1), empty_graph(2), complete_graph(2), complete_graph(11), empty_graph(11)]
        corpus += [G for G in random_graph_corpus(seed=101, count=60, max_n=8) if G.n]
        rng = random.Random(131)
        while len(corpus) < 2000:
            corpus.append(random_graph(rng, rng.randint(1, 11), rng.choice([0.15, 0.3, 0.5, 0.7, 0.85, 1.0])))
        kinds = set()
        for G in corpus:
            g = nx.Graph(G.edges())
            g.add_nodes_from(range(G.n))
            kappa = vertex_connectivity(G)
            assert kappa == nx.node_connectivity(g) == brute_vertex_connectivity(G), G.adj
            kinds.add("disconnected" if kappa == 0 and G.n > 1 else "complete" if kappa == G.n - 1 else "other")
        assert kinds == {"disconnected", "complete", "other"}

    def test_augmenting_path_cancels_earlier_flow(self):
        # s=0 reaches t=5 by s-a-d-t, s-b-d-t and s-a-c-t (a=1, b=2, d=3,
        # c=4). The search takes s-a-d-t first, so the second path
        # s-b-d-a-c-t must push back the unit on a-d; without that the
        # count stops at 1 and so does the connectivity.
        G = Graph.from_edges(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 5), (1, 4), (4, 5)])
        assert _max_vertex_disjoint_paths(G, 0, 5, G.n) == 2
        assert vertex_connectivity(G) == 2 == brute_vertex_connectivity(G)

    @settings(max_examples=50, deadline=None)
    @given(graphs())
    def test_at_most_min_degree(self, G):
        if G.n <= 1:
            return
        assert vertex_connectivity(G) <= min_degree(G)


class TestFindClique:
    def test_complete_full(self):
        assert find_clique(complete_graph(5), 5) == 0b11111

    def test_c5_triangle_free(self):
        assert find_clique(cycle_graph(5), 3) is None

    def test_octahedron(self):
        K222 = complete_multipartite_graph(2, 2, 2)
        got = find_clique(K222, 3)
        assert got is not None and is_clique(K222, got)
        assert got == mask_of([0, 2, 4])  # lexicographically least transversal
        assert find_clique(K222, 4) is None

    def test_exhaustive_octahedron(self):
        # cross-check by direct subset enumeration
        from itertools import combinations

        K222 = complete_multipartite_graph(2, 2, 2)
        assert any(is_clique(K222, mask_of(c)) for c in combinations(range(6), 3))
        assert not any(is_clique(K222, mask_of(c)) for c in combinations(range(6), 4))

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            find_clique(complete_graph(3), 0)

    def test_witness_is_the_first_clique_in_lexicographic_order(self):
        from itertools import combinations

        for G in random_graph_corpus(seed=56, count=60, max_n=9):
            for k in range(1, G.n + 1):
                first = next((mask_of(c) for c in combinations(range(G.n), k)
                              if is_clique(G, mask_of(c))), None)
                assert find_clique(G, k) == first

    def test_clique_larger_than_the_recursion_limit(self):
        assert find_clique(complete_graph(1200), 1200) == (1 << 1200) - 1


class TestTuranThreshold:
    def test_k4_with_k3(self):
        assert turan_threshold_exceeded(complete_graph(4), 3)

    def test_c4_boundary_is_strict(self):
        assert not turan_threshold_exceeded(cycle_graph(4), 3)

    def test_threshold_implies_clique(self):
        rng = random.Random(55)
        for G in random_graph_corpus(seed=55, count=80, max_n=9):
            for k in range(2, 6):
                if turan_threshold_exceeded(G, k):
                    S = find_clique(G, k)
                    assert S is not None and is_clique(G, S)


class TestColorByDegeneracy:
    def test_tree_with_two_color_lists(self):
        tree = path_graph(6)
        coloring = color_by_degeneracy(tree, [[0, 1]] * 6)
        assert all(coloring[u] != coloring[v] for u, v in tree.edges())

    def test_complete_graph(self):
        coloring = color_by_degeneracy(complete_graph(4), [[1, 2, 3, 4]] * 4)
        assert sorted(coloring) == [1, 2, 3, 4]

    def test_short_list_is_reported(self):
        with pytest.raises(ValueError, match="degeneracy"):
            color_by_degeneracy(complete_graph(3), [[1, 2, 3], [1, 2], [1, 2, 3]])

    def test_random_instances_always_color(self):
        rng = random.Random(2024)
        for G in random_graph_corpus(seed=2024, count=200, max_n=8):
            d, _ = degeneracy(G)
            lists = [rng.sample(range(2 * (d + 1) + 2), d + 1) for _ in range(G.n)]
            coloring = color_by_degeneracy(G, lists)
            assert all(coloring[u] != coloring[v] for u, v in G.edges())
            assert all(coloring[v] in lists[v] for v in range(G.n))
            # cross-check with the exact solver: the instance is colorable
            assert is_l_colorable(G, ListAssignment.from_lists(lists)) is not None


def test_nonempty_submasks_ascending_and_capped():
    rng = random.Random(61)
    for _ in range(200):
        mask = rng.getrandbits(10)
        limit = rng.randint(0, 11)
        want = [s for s in range(1, mask + 1) if s & mask == s and s.bit_count() <= limit]
        assert nonempty_submasks(mask, limit) == want
