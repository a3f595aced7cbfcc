import random
from itertools import combinations

import pytest

from minorforge import minors
from minorforge.errors import SizeGuardError
from minorforge.graphs import (
    Graph,
    add_isolated_vertices,
    bipartite_union_complement,
    bit_list,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    degeneracy,
    empty_graph,
    induced_subgraph,
    mask_of,
    min_degree,
    path_graph,
    vertex_connectivity,
)
from minorforge.minors import (
    CliqueSumSpec,
    MinorModel,
    _contract_edge,
    _elimination_width,
    _search_model,
    _series_parallel_reduction,
    _spanning_subgraph_iso,
    check_model,
    clique_sum,
    contains_minor,
    contains_minor_contraction_oracle,
    find_induced_pattern_minor,
    find_minimum_minor_support,
    hadwiger_number,
    restrict_model_through_clique,
    verify_model,
)
from minorforge.random_models import sample_bipartite

from .conftest import random_graph
from .oracles import exact_treewidth, reference_minor_free_all_induced, reference_search_model


class TestVerifyModel:
    def test_identity_model(self):
        K5 = complete_graph(5)
        M = MinorModel({v: 1 << v for v in range(5)})
        assert verify_model(K5, K5, M)

    def test_petersen_spoke_pairs(self, petersen):
        M = MinorModel({i: (1 << i) | (1 << (i + 5)) for i in range(5)})
        assert verify_model(petersen, complete_graph(5), M)

    def test_disconnected_branch_set_reason(self):
        # {0, 2} is disconnected in the path 0-1-2
        M = MinorModel({0: 0b101, 1: 0b010})
        reason = check_model(path_graph(3), complete_graph(2), M)
        assert reason is not None and "connectivity" in reason

    def test_overlap_reason(self):
        M = MinorModel({0: 0b011, 1: 0b110})
        reason = check_model(complete_graph(3), complete_graph(2), M)
        assert reason is not None and "disjoint" in reason

    def test_missing_edge_reason(self):
        M = MinorModel({0: 0b01, 1: 0b10})
        reason = check_model(empty_graph(2), complete_graph(2), M)
        assert reason is not None and "edge" in reason

    def test_json_roundtrip(self):
        M = MinorModel({0: 0b011, 2: 0b100})
        assert MinorModel.from_json(M.to_json()) == M


class TestContainsMinor:
    def test_host_too_small(self):
        assert contains_minor(complete_graph(4), complete_graph(5)) is None

    def test_petersen_k5(self, petersen):
        M = contains_minor(petersen, complete_graph(5))
        assert M is not None
        assert verify_model(petersen, complete_graph(5), M)

    def test_petersen_k6(self, petersen):
        assert contains_minor(petersen, complete_graph(6)) is None
        assert not contains_minor_contraction_oracle(
            petersen, complete_graph(6), max_host_order=10
        )

    def test_empty_pattern(self):
        M = contains_minor(empty_graph(0), empty_graph(0))
        assert M is not None and M.branch_sets == {}

    def test_models_always_verify(self):
        rng = random.Random(17)
        for _ in range(150):
            host = random_graph(rng, rng.randint(1, 7), rng.choice([0.3, 0.5, 0.7]))
            pattern = random_graph(rng, rng.randint(1, 5), rng.choice([0.3, 0.5, 0.7]))
            M = contains_minor(host, pattern)
            if M is not None:
                assert verify_model(host, pattern, M)

    def test_transitivity(self):
        rng = random.Random(18)
        for _ in range(120):
            G = random_graph(rng, rng.randint(1, 7), 0.6)
            H = random_graph(rng, rng.randint(1, 5), 0.5)
            F = random_graph(rng, rng.randint(1, 4), 0.5)
            if contains_minor(G, H) is not None and contains_minor(H, F) is not None:
                assert contains_minor(G, F) is not None

    def test_minor_monotone_under_subgraphs(self):
        rng = random.Random(19)
        for _ in range(120):
            G = random_graph(rng, rng.randint(1, 7), 0.6)
            H = random_graph(rng, rng.randint(1, 5), 0.6)
            if contains_minor(G, H) is None or H.edge_count() == 0:
                continue
            u, v = rng.choice(H.edges())
            rows = list(H.adj)
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
            assert contains_minor(G, Graph(H.n, tuple(rows))) is not None


class TestContractionOracle:
    def test_cycle_contracts_to_shorter_cycle(self):
        assert contains_minor_contraction_oracle(cycle_graph(5), cycle_graph(4))

    def test_k33_has_k4(self):
        assert contains_minor_contraction_oracle(complete_bipartite_graph(3, 3), complete_graph(4))

    def test_forest_has_no_cycle_minor(self):
        assert not contains_minor_contraction_oracle(path_graph(6), cycle_graph(3))

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            contains_minor_contraction_oracle(empty_graph(10), complete_graph(2))

    def test_contract_edge_matches_networkx(self):
        import networkx as nx

        rng = random.Random(73)
        for _ in range(150):
            G = random_graph(rng, rng.randint(2, 9), rng.choice([0.3, 0.5, 0.7]))
            g = nx.Graph(G.edges())
            g.add_nodes_from(range(G.n))
            for u, v in G.edges():
                n, adj = _contract_edge(G.n, G.adj, u, v)
                merged = nx.contracted_nodes(g, u, v, self_loops=False)
                # the contraction keeps u's label and closes the gap left by v
                expected = nx.convert_node_labels_to_integers(merged, ordering="sorted")
                assert n == expected.number_of_nodes()
                assert set(Graph(n, adj).edges()) == {tuple(sorted(e)) for e in expected.edges()}

    def test_long_path_spans_itself_without_recursion(self):
        P = path_graph(1200)
        assert _spanning_subgraph_iso(P.n, P.adj, P.n, P.adj)

    def test_degree_precheck_refuses_without_walking(self, monkeypatch):
        # The walk reads each placed vertex's pattern neighbours through
        # ``bits``; both pairs must be refused before the first placement.
        # A path into a path one shorter plus an isolated vertex (one edge
        # short) used to backtrack for 4.5 s at 200 vertices.
        def walk_entered(mask):
            raise AssertionError("the backtracking walk was entered")

        monkeypatch.setattr(minors, "bits", walk_entered)
        P = path_graph(1200)
        host = add_isolated_vertices(path_graph(1199), 1)
        assert not _spanning_subgraph_iso(P.n, P.adj, host.n, host.adj)
        # equal edge counts, but the paw (a triangle with a pendant vertex)
        # has degrees 3, 2, 2, 1 against the 4-cycle's 2, 2, 2, 2
        C4 = cycle_graph(4)
        paw = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        assert not _spanning_subgraph_iso(C4.n, C4.adj, paw.n, paw.adj)

    def test_agreement_with_search(self):
        rng = random.Random(20)
        for _ in range(200):
            host = random_graph(rng, rng.randint(1, 7), rng.choice([0.25, 0.5, 0.75]))
            pattern = random_graph(rng, rng.randint(1, 5), rng.choice([0.25, 0.5, 0.75]))
            assert (contains_minor(host, pattern) is not None) == (
                contains_minor_contraction_oracle(host, pattern)
            )


class TestHadwigerNumber:
    def test_complete(self):
        assert hadwiger_number(complete_graph(6)) == 6

    def test_petersen(self, petersen):
        assert hadwiger_number(petersen) == 5

    def test_cycle(self):
        assert hadwiger_number(cycle_graph(7)) == 3

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            hadwiger_number(empty_graph(13))


class TestCliqueSum:
    def test_two_triangles_on_edge(self):
        spec = CliqueSumSpec.from_mapping(complete_graph(3), complete_graph(3), {0: 0, 1: 1})
        G = clique_sum(spec)
        assert (G.n, G.edge_count()) == (4, 5)  # K4 minus one edge

    def test_empty_gluing_set(self):
        spec = CliqueSumSpec.from_mapping(complete_graph(3), cycle_graph(4), {})
        G = clique_sum(spec)
        assert G.n == 7 and G.edge_count() == 3 + 4
        assert vertex_connectivity(G) == 0

    def test_two_k4_on_triangle(self):
        spec = CliqueSumSpec.from_mapping(complete_graph(4), complete_graph(4), {0: 0, 1: 1, 2: 2})
        G = clique_sum(spec)
        assert (G.n, G.edge_count()) == (5, 9)

    def test_sides_embed_isomorphically(self):
        g1 = cycle_graph(4)
        rows = [0b0110, 0b1001, 0b1001, 0b0110]  # relabeled C4: 0-1-3-2-0
        g2 = Graph(4, (0b0110, 0b1001, 0b1001, 0b0110))
        spec = CliqueSumSpec.from_mapping(g1, g2, {0: 0, 1: 1})
        G = clique_sum(spec)
        assert induced_subgraph(G, 0b001111) == g1
        g2_map = spec.g2_vertex_map()
        lifted = sorted(g2_map[w] for w in range(4))
        sub = induced_subgraph(G, mask_of(lifted))
        assert sub.edge_count() == g2.edge_count()

    def test_no_cross_edges_outside_clique(self):
        spec = CliqueSumSpec.from_mapping(complete_graph(3), complete_graph(3), {0: 0})
        G = clique_sum(spec)
        side1_only = 0b00110  # vertices 1,2
        side2_only = 0b11000  # vertices 3,4
        from minorforge.graphs import edges_between

        assert edges_between(G, side1_only, side2_only) == 0

    def test_non_clique_identification_rejected(self):
        spec = CliqueSumSpec.from_mapping(path_graph(3), complete_graph(3), {0: 0, 2: 1})
        with pytest.raises(ValueError, match="clique"):
            clique_sum(spec)

    def test_non_injective_rejected(self):
        spec = CliqueSumSpec(complete_graph(3), complete_graph(3), ((0, 0), (1, 0)))
        with pytest.raises(ValueError, match="injective"):
            clique_sum(spec)


class TestRestrictModelThroughClique:
    def fixture_union(self):
        # clique-sum along C = {0,1}: side = {0,1,2,3}, far side = {4,5}
        g1 = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3)])
        g2 = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        spec = CliqueSumSpec.from_mapping(g1, g2, {0: 0, 1: 1})
        return clique_sum(spec)

    def test_model_inside_side_unchanged(self):
        union = self.fixture_union()
        M = MinorModel({0: 0b0001, 1: 0b0010})
        out = restrict_model_through_clique(union, 0b0011, 0b001111, M)
        assert out.branch_sets == M.branch_sets

    def test_path_through_far_side_stays_connected(self):
        union = self.fixture_union()
        # path 2-0-4-1-3 enters and leaves the clique through the far vertex 4
        M = MinorModel({0: mask_of([2, 0, 4, 1, 3])})
        out = restrict_model_through_clique(union, 0b0011, 0b001111, M)
        assert out.branch_sets == {0: mask_of([0, 1, 2, 3])}
        assert verify_model(union, complete_graph(1), out)

    def test_far_side_branch_set_dropped(self):
        union = self.fixture_union()
        M = MinorModel({0: 0b0100, 1: mask_of([4, 5])})
        out = restrict_model_through_clique(union, 0b0011, 0b001111, M)
        assert out.branch_sets == {0: 0b0100}

    def test_glue_projection_yields_valid_model(self):
        # a K3 model crossing the cut projects onto the kept side
        union = self.fixture_union()
        M = MinorModel({0: mask_of([0, 4]), 1: 0b0010, 2: 0b0100})
        assert verify_model(union, complete_graph(3), M)
        out = restrict_model_through_clique(union, 0b0011, 0b001111, M)
        assert verify_model(union, complete_graph(3), out)
        assert all(not mask & 0b110000 for mask in out.branch_sets.values())

    def test_crossing_without_clique_contact_rejected(self):
        union = self.fixture_union()
        M = MinorModel({0: mask_of([4, 5])})
        with pytest.raises(ValueError, match="side must contain|far side"):
            restrict_model_through_clique(union, 0b0011, 0b001111 | 0b010000, M)

    def test_side_must_contain_clique(self):
        union = self.fixture_union()
        with pytest.raises(ValueError, match="side must contain"):
            restrict_model_through_clique(union, 0b0011, 0b001101, MinorModel({0: 0b0100}))

    def test_stray_branch_set_key_rejected(self):
        reason = check_model(complete_graph(2), complete_graph(2),
                             MinorModel({0: 0b01, 1: 0b10, 5: 0b11}))
        assert reason is not None and "nonexistent" in reason


class TestMinimumMinorSupport:
    def test_k5_triangle(self):
        X = find_minimum_minor_support(complete_graph(5), complete_graph(3))
        assert X is not None and X.bit_count() == 3

    def test_c6_needs_whole_cycle(self):
        X = find_minimum_minor_support(cycle_graph(6), complete_graph(3))
        assert X == cycle_graph(6).vertex_mask()

    def test_petersen_k4_cross_checked(self, petersen):
        X = find_minimum_minor_support(petersen, complete_graph(4))
        assert X is not None
        # independent route: subset sweep with the contraction oracle
        smallest = None
        for size in range(4, 10):
            for combo in combinations(range(10), size):
                sub = induced_subgraph(petersen, mask_of(combo))
                if contains_minor_contraction_oracle(sub, complete_graph(4)):
                    smallest = size
                    break
            if smallest is not None:
                break
        assert X.bit_count() == smallest == 8

    def test_absent_minor(self):
        assert find_minimum_minor_support(path_graph(4), complete_graph(3)) is None

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            find_minimum_minor_support(empty_graph(11), complete_graph(2))


class TestInducedPatternSweep:
    def test_single_size_equals_every_size(self):
        rng = random.Random(53)
        for _ in range(60):
            host = random_graph(rng, rng.randint(1, 6), rng.choice([0.3, 0.5, 0.8]))
            pattern = random_graph(rng, rng.randint(0, 5), rng.choice([0.3, 0.5, 0.8]))
            for size in range(pattern.n + 2):
                found = find_induced_pattern_minor(host, pattern, size)
                assert (found is None) == reference_minor_free_all_induced(host, pattern, size)
                if found is not None:
                    assert len(found) == size
                    assert contains_minor(host, induced_subgraph(pattern, mask_of(found))) is not None


def sample_minor_free(rng, pattern, max_n):
    while True:
        G = random_graph(rng, rng.randint(2, max_n), rng.choice([0.3, 0.5, 0.7]))
        if contains_minor(G, pattern) is None:
            return G


def glued_minor_free_pair(rng, pattern, kappa_pattern, max_n=8):
    """Two pattern-minor-free graphs glued on a clique smaller than kappa."""
    G1 = sample_minor_free(rng, pattern, max_n)
    G2 = sample_minor_free(rng, pattern, max_n)
    from minorforge.graphs import find_clique

    for size in range(kappa_pattern - 1, -1, -1):
        c1 = find_clique(G1, size) if size else 0
        c2 = find_clique(G2, size) if size else 0
        if size == 0 or (c1 is not None and c2 is not None):
            ident = dict(zip(bit_list(c1 or 0), bit_list(c2 or 0)))
            return clique_sum(CliqueSumSpec.from_mapping(G1, G2, ident))
    raise AssertionError("unreachable: size 0 always works")


class TestGlueClosure:
    @pytest.mark.parametrize(
        "pattern",
        [complete_graph(4), complete_graph(5), complete_bipartite_graph(3, 3)],
        ids=["K4", "K5", "K33"],
    )
    def test_clique_sum_stays_minor_free(self, pattern):
        kappa = vertex_connectivity(pattern)
        rng = random.Random(2718)
        for _ in range(25):
            union = glued_minor_free_pair(rng, pattern, kappa)
            assert contains_minor(union, pattern) is None


# patterns of minimum degree 3, for which contains_minor reduces the host
DEGREE_3_PATTERNS = {
    "K4": complete_graph(4),
    "K5": complete_graph(5),
    "K33": complete_bipartite_graph(3, 3),
    "K5-e": Graph.from_edges(5, [e for e in complete_graph(5).edges() if e != (0, 1)]),
    "W5": Graph.from_edges(6, [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)]),
    "prism": Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                                  (0, 3), (1, 4), (2, 5)]),
}


class TestSeriesParallelFilter:
    def test_reduced_host_is_a_minor_with_minimum_degree_3(self):
        rng = random.Random(61)
        partly_reduced = 0
        for _ in range(400):
            host = random_graph(rng, rng.randint(1, 9), rng.choice([0.25, 0.35, 0.45, 0.55, 0.65]))
            reduced = _series_parallel_reduction(host)
            assert reduced.n == 0 or min_degree(reduced) >= 3
            assert contains_minor_contraction_oracle(host, reduced)
            partly_reduced += 0 < reduced.n < host.n
        assert partly_reduced >= 50

    def test_reduces_to_nothing_exactly_when_k4_minor_free(self):
        import networkx as nx

        atlas = nx.graph_atlas_g()  # every graph of order 0..7
        assert len(atlas) == 1253
        for g in atlas:
            host = Graph.from_edges(g.number_of_nodes(), g.edges())
            assert (_series_parallel_reduction(host).n == 0) == (
                not contains_minor_contraction_oracle(host, complete_graph(4))
            )

    @pytest.mark.parametrize("name", ["K4", "K5", "K33"])
    def test_filtered_verdict_matches_oracle_and_witness_is_the_search(self, name):
        pattern = DEGREE_3_PATTERNS[name]
        rng = random.Random(62)
        # clique sums of two minor-free parts of order <= 5 have order <= 9
        hosts = [glued_minor_free_pair(rng, pattern, vertex_connectivity(pattern), max_n=5)
                 for _ in range(40)]
        hosts += [random_graph(rng, rng.randint(5, 9), rng.choice([0.3, 0.45, 0.6]))
                  for _ in range(60)]
        # hosts that reduce below the pattern's order: a cycle and a tree
        # reduce to nothing, K4 with five subdivided edges reduces to K4, and
        # K4 itself loses no vertex
        subdivided_k4 = Graph.from_edges(9, [(0, 4), (4, 1), (0, 5), (5, 2), (0, 6), (6, 3),
                                             (1, 7), (7, 2), (1, 8), (8, 3), (2, 3)])
        hosts += [cycle_graph(9), path_graph(9), subdivided_k4, complete_graph(4)]
        found = 0
        for host in hosts:
            model = contains_minor(host, pattern)
            assert (model is not None) == contains_minor_contraction_oracle(host, pattern)
            assert model == _search_model(host, pattern)
            found += model is not None
        assert 0 < found < len(hosts)

    def test_low_degree_pattern_skips_the_reduction(self):
        cycle = cycle_graph(12)
        assert _series_parallel_reduction(cycle).n == 0
        model = contains_minor(cycle, complete_graph(3))
        assert model is not None and verify_model(cycle, complete_graph(3), model)


CUBE = Graph.from_edges(8, [(u, u | 1 << i) for u in range(8) for i in range(3) if not u >> i & 1])


class TestEliminationWidthFilter:
    def test_exact_treewidth_oracle_on_known_graphs(self, petersen):
        grid = Graph.from_edges(9, [(r * 3 + c, r * 3 + c + 1) for r in range(3) for c in range(2)]
                                + [(r * 3 + c, r * 3 + c + 3) for r in range(2) for c in range(3)])
        known = [(empty_graph(0), -1), (empty_graph(3), 0), (path_graph(6), 1), (cycle_graph(7), 2),
                 (complete_graph(6), 5), (complete_bipartite_graph(3, 3), 3), (grid, 3),
                 (CUBE, 3), (petersen, 4)]
        for G, tw in known:
            assert exact_treewidth(G) == tw, G

    def test_width_brackets_treewidth(self):
        """degeneracy <= tw <= elimination width, and tw <= k caps the edges
        at kn - k(k+1)/2, the bound that lets contains_minor skip the
        elimination."""
        import networkx as nx

        hosts = [Graph.from_edges(g.number_of_nodes(), g.edges())
                 for g in nx.graph_atlas_g()[1:]]  # every graph of order 1..7
        rng = random.Random(66)
        hosts += [random_graph(rng, rng.randint(8, 10), rng.choice([0.2, 0.35, 0.5, 0.65, 0.8]))
                  for _ in range(300)]
        loose = 0
        for G in hosts:
            tw = exact_treewidth(G)
            width = _elimination_width(G, G.n)
            assert degeneracy(G)[0] <= tw <= width, G
            assert G.edge_count() <= tw * G.n - tw * (tw + 1) // 2, G
            for stop in range(1, width + 1):  # the early stop reports reaching stop
                assert _elimination_width(G, stop) >= stop
            loose += tw < width
        assert loose >= 1  # the heuristic is an upper bound, not the treewidth

    def test_filtered_verdict_matches_oracle_and_witness_is_the_search(self):
        patterns = {"K4": complete_graph(4), "K5": complete_graph(5), "K6": complete_graph(6),
                    "K33": complete_bipartite_graph(3, 3), "W5": DEGREE_3_PATTERNS["W5"],
                    "cube": CUBE}
        rng = random.Random(65)
        hosts = [random_graph(rng, rng.randint(4, 9), rng.choice([0.3, 0.45, 0.6, 0.75]))
                 for _ in range(400)]
        for name, pattern in patterns.items():
            lb = degeneracy(pattern)[0]
            found = filtered = 0
            for host in hosts:
                model = contains_minor(host, pattern)
                assert (model is not None) == contains_minor_contraction_oracle(host, pattern)
                assert model == _search_model(host, pattern)
                found += model is not None
                reduced = _series_parallel_reduction(host)
                filtered += reduced.n >= pattern.n and _elimination_width(reduced, lb) < lb
            assert 0 < found < len(hosts), name
            if lb >= 4:  # a reduced host has minimum degree 3, so width >= 3
                assert filtered >= 40, name

    def test_counting_prune_cuts_connectivity_tests(self, monkeypatch):
        """The prism over C6 is planar and 3-regular: the reduction keeps it
        whole and its elimination width is 4 = degeneracy(K5), so only the
        search answers. Asking only for one free neighbour per placed branch
        set, as the search once did, costs 109,239 connectivity tests here."""
        rim = [(i, (i + 1) % 6) for i in range(6)]
        prism = Graph.from_edges(12, rim + [(u + 6, v + 6) for u, v in rim]
                                 + [(i, i + 6) for i in range(6)])
        assert _series_parallel_reduction(prism) == prism
        assert _elimination_width(prism, 4) == 4
        calls = 0
        original = minors.is_connected_subset

        def counting(G, S):
            nonlocal calls
            calls += 1
            return original(G, S)

        monkeypatch.setattr(minors, "is_connected_subset", counting)
        assert contains_minor(prism, complete_graph(5)) is None
        assert 0 < calls < 75_000


class TestSearchWithoutFilter:
    """The backtracker's exhaustive negative path agrees with the oracle;
    contains_minor answers most negatives of degree-3 patterns before it."""

    def test_degree_3_patterns_against_oracle(self):
        rng = random.Random(64)
        patterns = list(DEGREE_3_PATTERNS.values())
        negatives = 0
        for _ in range(400):
            host = random_graph(rng, rng.randint(4, 9), rng.choice([0.3, 0.45, 0.6, 0.75]))
            pattern = rng.choice(patterns)
            found = _search_model(host, pattern) is not None
            assert found == contains_minor_contraction_oracle(host, pattern)
            negatives += not found
        assert negatives >= 100


class TestLazyWalkMatchesEagerSearch:
    """The lazy candidate walk returns the same first model as the search
    over eagerly built candidate lists, negatives and early positives alike."""

    PATTERNS = [complete_graph(3), complete_graph(4), complete_graph(5), complete_graph(6),
                complete_bipartite_graph(3, 3)]

    def hosts(self, seed: int, count: int) -> list[Graph]:
        rng = random.Random(seed)
        out = []
        for i in range(count):
            if i % 2:
                out.append(random_graph(rng, rng.randint(4, 10), rng.choice([0.2, 0.35, 0.5, 0.7, 0.9])))
            else:  # gadget-like hosts: two cliques joined by a bipartite complement
                a, b = rng.randint(2, 5), rng.randint(2, 5)
                B = sample_bipartite(a, b, rng.choice([0.2, 0.5, 0.8]), seed=rng.randrange(10**6))
                out.append(bipartite_union_complement(B, rng.randrange(1, 1 << a), rng.randrange(1, 1 << b)))
        return out

    def test_same_branch_sets_on_seeded_corpus(self):
        found = pairs = 0
        for host in self.hosts(seed=808, count=600):
            for pattern in self.PATTERNS:
                model = _search_model(host, pattern)
                got = None if model is None else model.branch_sets
                assert got == reference_search_model(host, pattern), (host, pattern)
                pairs += 1
                found += got is not None
        assert pairs == 3000
        assert 600 <= found <= 2400  # both early-exit positives and exhaustive negatives


class TestSupportNeighborBoundExploratory:
    def test_bound_on_minimum_supports(self):
        # every vertex outside a minimum support has few neighbors inside any
        # single branch set; trivially satisfied at this scale, recorded as
        # exploratory because only the searcher's own model is inspected
        rng = random.Random(313)
        checked = 0
        for _ in range(60):
            G = random_graph(rng, rng.randint(4, 8), 0.55)
            F = random_graph(rng, rng.randint(2, 4), 0.7)
            if F.edge_count() == 0:
                continue
            X = find_minimum_minor_support(G, F)
            if X is None or X == G.vertex_mask():
                continue
            sub = induced_subgraph(G, X)
            model = contains_minor(sub, F)
            assert model is not None
            lift = bit_list(X)
            for f, mask in model.branch_sets.items():
                z_in_g = mask_of(lift[v] for v in bit_list(mask))
                for v in bit_list(G.vertex_mask() & ~X):
                    assert (G.adj[v] & z_in_g).bit_count() < 9 * F.n
            checked += 1
        assert checked >= 5
