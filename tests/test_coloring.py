import random
from itertools import combinations
from math import prod

import pytest

from minorforge import coloring
from minorforge.coloring import (
    ListAssignment,
    _add_color,
    _alon_tarsi_certifies,
    _chromatic_layers,
    _independent_sets,
    chromatic_number,
    find_uncolorable_assignment,
    is_k_choosable,
    is_l_colorable,
    is_proper_coloring,
    list_chromatic_number,
    respects_lists,
    verify_choosability_witness,
)
from minorforge.constructions import TwoCliquePartition, adversarial_lists_for_copy
from minorforge.errors import SizeGuardError
from minorforge.graphs import (
    Graph,
    bit_list,
    bits,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    degeneracy,
    empty_graph,
    induced_subgraph,
    mask_of,
    path_graph,
)

from .conftest import random_graph, random_graph_corpus
from .oracles import (
    naive_l_colorable,
    naive_not_k_choosable,
    reference_alon_tarsi_certifies,
    reference_find_uncolorable_assignment,
    reference_is_l_colorable,
)


def lists_of(*colors_per_vertex):
    return ListAssignment.from_lists(colors_per_vertex)


class TestIsLColorable:
    def test_k2_same_singleton(self):
        assert is_l_colorable(complete_graph(2), lists_of({1}, {1})) is None

    def test_path_forced(self):
        got = is_l_colorable(path_graph(3), lists_of({1}, {1, 2}, {1}))
        assert got == (1, 2, 1)

    def test_triangle_two_colors(self):
        assert is_l_colorable(complete_graph(3), ListAssignment.uniform(3, {1, 2})) is None

    def test_returned_colorings_validate(self):
        rng = random.Random(31)
        for G in random_graph_corpus(seed=31, count=120, max_n=7):
            lists = [set(rng.sample(range(6), rng.randint(1, 4))) for _ in range(G.n)]
            L = ListAssignment.from_lists(lists)
            got = is_l_colorable(G, L)
            if got is not None:
                assert is_proper_coloring(G, got)
                assert respects_lists(L, got)

    def test_agrees_with_product_enumeration(self):
        rng = random.Random(77)
        checked = 0
        for G in random_graph_corpus(seed=77, count=120, max_n=6):
            lists = [set(rng.sample(range(5), rng.randint(1, 3))) for _ in range(G.n)]
            if prod(len(s) for s in lists) > 10**6:
                continue
            L = ListAssignment.from_lists(lists)
            assert (is_l_colorable(G, L) is not None) == naive_l_colorable(G, L)
            checked += 1
        assert checked >= 100

    def test_monotone_under_list_growth(self):
        rng = random.Random(99)
        for G in random_graph_corpus(seed=99, count=80, max_n=7):
            if G.n == 0:
                continue
            lists = [set(rng.sample(range(6), rng.randint(1, 3))) for _ in range(G.n)]
            small = ListAssignment.from_lists(lists)
            grown = [set(s) for s in lists]
            grown[rng.randrange(G.n)].add(7)
            big = ListAssignment.from_lists(grown)
            if is_l_colorable(G, small) is not None:
                assert is_l_colorable(G, big) is not None

    def test_long_path_does_not_recurse(self):
        # one stack frame per colored vertex used to overflow the
        # interpreter stack near 1000 vertices
        n = 1500
        got = is_l_colorable(path_graph(n), ListAssignment.uniform(n, range(2)))
        assert got == tuple(v % 2 for v in range(n))

    def test_clique_one_color_short_is_cut(self):
        # the pigeonhole cut decides this at the root; plain backtracking
        # walks about 15! nodes before giving up
        assert is_l_colorable(complete_graph(16), ListAssignment.uniform(16, range(15))) is None
        assert chromatic_number(complete_graph(16)) == 16


def random_two_clique_partition(rng: random.Random) -> TwoCliquePartition:
    """A valid partition on shuffled labels: cliques A and B, each B-vertex
    missing at most ``slack`` of its A-neighbors."""
    a, b = rng.randint(1, 4), rng.randint(1, 5)
    slack = rng.randint(0, a)
    labels = list(range(a + b))
    rng.shuffle(labels)
    A, B = labels[:a], labels[a:]
    edges = list(combinations(A, 2)) + list(combinations(B, 2))
    for y in B:
        missing = rng.sample(A, rng.randint(0, slack))
        edges += [(x, y) for x in A if x not in missing]
    part = TwoCliquePartition(Graph.from_edges(a + b, edges), mask_of(A), mask_of(B), slack)
    part.validate()
    return part


def pinned_instance(part: TwoCliquePartition, rng: random.Random) -> ListAssignment:
    """The verifier's solve for one injective A-coloring: adversarial lists
    with every A-vertex pinned to its color."""
    a_vertices = part.a_vertices()
    coloring_of_a = dict(zip(a_vertices, rng.sample(range(1, part.universe_size() + 1), len(a_vertices))))
    pinned = list(adversarial_lists_for_copy(part, coloring_of_a).lists)
    for a, c in coloring_of_a.items():
        pinned[a] = frozenset({c})
    return ListAssignment(tuple(pinned))


class TestSolverAgainstReference:
    """The pruned, stack-based solver returns exactly the coloring (or None)
    of the plain recursive backtracker kept in tests/oracles.py, so every
    witness and report built on it is unchanged."""

    def test_random_lists(self):
        rng = random.Random(2024)
        for _ in range(3000):
            G = random_graph(rng, rng.randint(0, 10), rng.choice([0.15, 0.3, 0.5, 0.7, 0.85]))
            palette = range(rng.randint(1, 6))
            lists = [rng.sample(palette, rng.randint(0 if rng.random() < 0.02 else 1, len(palette)))
                     for _ in range(G.n)]
            L = ListAssignment.from_lists(lists)
            assert is_l_colorable(G, L) == reference_is_l_colorable(G, L)

    def test_uniform_lists(self):
        rng = random.Random(2025)
        for _ in range(1500):
            G = random_graph(rng, rng.randint(1, 10), rng.choice([0.3, 0.5, 0.7, 0.85]))
            L = ListAssignment.uniform(G.n, range(rng.randint(1, G.n)))
            assert is_l_colorable(G, L) == reference_is_l_colorable(G, L)

    def test_pinned_pasting_instances(self):
        rng = random.Random(2026)
        colorable = 0
        for _ in range(1000):
            part = random_two_clique_partition(rng)
            L = pinned_instance(part, rng)
            assert is_l_colorable(part.graph, L) is None
            assert reference_is_l_colorable(part.graph, L) is None
            # one missing B-edge lets B use the |B|-1 colors A leaves free
            G = part.graph
            if part.b_mask.bit_count() >= 2:
                u, v = rng.sample(part.b_vertices(), 2)
                G = Graph.from_edges(G.n, [e for e in G.edges() if set(e) != {u, v}])
            got = is_l_colorable(G, L)
            assert got == reference_is_l_colorable(G, L)
            colorable += got is not None
        assert colorable > 300


class TestChoosabilityWitness:
    def test_k4_three_lists(self):
        assert verify_choosability_witness(
            complete_graph(4), ListAssignment.uniform(4, {1, 2, 3}), 3
        )

    def test_colorable_lists_refused(self):
        assert not verify_choosability_witness(
            path_graph(3), ListAssignment.uniform(3, {1, 2}), 2
        )

    def test_short_lists_refused(self):
        assert not verify_choosability_witness(
            complete_graph(4), lists_of({1, 2, 3}, {1, 2}, {1, 2, 3}, {1, 2, 3}), 3
        )

    def test_even_cycle_has_no_size2_witness(self):
        # two-colorability of even cycles under every assignment of size 2
        assert find_uncolorable_assignment(cycle_graph(4), 2) is None
        assert find_uncolorable_assignment(cycle_graph(6), 2) is None


class TestListChromaticNumber:
    @pytest.mark.parametrize(
        "G,expected",
        [
            (complete_graph(4), 4),
            (cycle_graph(4), 2),
            (complete_bipartite_graph(3, 3), 3),
            (cycle_graph(5), 3),
            (complete_graph(1), 1),
            (empty_graph(3), 1),
            (path_graph(4), 2),
        ],
    )
    def test_ground_truths(self, G, expected):
        assert list_chromatic_number(G) == expected

    def test_ground_truths_without_shortcuts(self):
        assert list_chromatic_number(complete_graph(4), use_shortcuts=False) == 4
        assert list_chromatic_number(cycle_graph(4), use_shortcuts=False) == 2

    def test_k24_classic_gap(self):
        # chromatic number 2, list chromatic number 3
        K24 = complete_bipartite_graph(2, 4)
        assert chromatic_number(K24) == 2
        assert list_chromatic_number(K24) == 3
        witness = find_uncolorable_assignment(K24, 2)
        assert witness is not None
        assert verify_choosability_witness(K24, witness, 2)

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            list_chromatic_number(empty_graph(9))

    def test_witness_search_size_guard(self, monkeypatch):
        with pytest.raises(SizeGuardError):
            find_uncolorable_assignment(empty_graph(9), 1)
        with pytest.raises(SizeGuardError):
            is_k_choosable(empty_graph(9), 1)
        with pytest.raises(SizeGuardError):
            is_k_choosable(empty_graph(9), 2)  # answered by a theorem, guarded all the same
        monkeypatch.setenv("FORGE_GUARD_OVERRIDE", "2")
        assert find_uncolorable_assignment(empty_graph(9), 1) is None

    def test_no_search_where_the_sandwich_closes(self, monkeypatch):
        # chi = degeneracy + 1 settles chi_l with no witness search
        def no_search(*args, **kwargs):
            raise AssertionError("searched")

        monkeypatch.setattr(coloring, "find_uncolorable_assignment", no_search)
        assert list_chromatic_number(complete_graph(8)) == 8
        assert list_chromatic_number(cycle_graph(7)) == 3
        tree = Graph.from_edges(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (5, 6)])
        assert list_chromatic_number(tree) == 2

    def test_sandwich_on_corpus(self):
        for G in random_graph_corpus(seed=404, count=120, max_n=7):
            chi = chromatic_number(G)
            chi_l = list_chromatic_number(G)
            assert chi <= chi_l <= degeneracy(G)[0] + 1

    def test_witnesses_verify_on_corpus(self):
        for G in random_graph_corpus(seed=405, count=60, max_n=6):
            chi_l = list_chromatic_number(G)
            if chi_l <= 1:
                continue
            witness = find_uncolorable_assignment(G, chi_l - 1)
            assert witness is not None
            assert verify_choosability_witness(G, witness, chi_l - 1)
            assert is_k_choosable(G, chi_l)


class TestChoosabilityAgainstNaiveEnumeration:
    def test_all_four_vertex_graphs(self):
        from minorforge.graphs import Graph

        pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        for selector in range(64):
            G = Graph.from_edges(4, [pairs[i] for i in range(6) if selector >> i & 1])
            for k in (1, 2, 3):
                assert is_k_choosable(G, k) == (not naive_not_k_choosable(G, k))

    def test_random_five_vertex_graphs(self):
        rng = random.Random(8)
        for _ in range(15):
            G = random_graph_corpus(seed=rng.randrange(10**6), count=1, max_n=5, min_n=5)[0]
            for k in (1, 2):
                assert is_k_choosable(G, k) == (not naive_not_k_choosable(G, k))

    def test_classics(self):
        assert naive_not_k_choosable(cycle_graph(5), 2)
        assert not naive_not_k_choosable(complete_bipartite_graph(2, 3), 2)


def atlas_graphs(orders) -> list[Graph]:
    from networkx.generators.atlas import graph_atlas_g

    return [Graph.from_edges(g.number_of_nodes(), list(g.edges()))
            for g in graph_atlas_g() if g.number_of_nodes() in orders]


class TestWitnessSearchAgainstFrozenReference:
    """The support DFS that carries the colorable family returns the very
    assignments of the search that re-solved every node from scratch."""

    def test_every_graph_up_to_order_six_at_every_k(self):
        checked = 0
        for G in atlas_graphs(range(1, 7)):
            for k in range(1, degeneracy(G)[0] + 2):
                for use_shortcuts in (True, False):
                    got = find_uncolorable_assignment(G, k, use_shortcuts=use_shortcuts)
                    want = reference_find_uncolorable_assignment(G, k, use_shortcuts=use_shortcuts)
                    assert got == want, (G, k, use_shortcuts)
                    checked += got is not None
        assert checked > 800  # the witnesses themselves are compared, not only None

    def test_seeded_graphs_of_order_seven_and_eight(self):
        # Above n(k-1) edges no orientation has every out-degree below k, so
        # Alon-Tarsi cannot certify a k-choosable graph and both searches
        # walk the whole support tree: at order 8 that can take minutes
        # (Gr^k~S at k = 3). Those k are left to the order-6 sweep above.
        rng = random.Random(2718)
        witnesses = 0
        for _ in range(300):
            G = random_graph(rng, rng.randint(7, 8), rng.choice([0.3, 0.45, 0.6]))
            for k in range(1, degeneracy(G)[0] + 2):
                if k <= 2 or G.edge_count() <= G.n * (k - 1):
                    got = find_uncolorable_assignment(G, k)
                    assert got == reference_find_uncolorable_assignment(G, k), (G, k)
                    witnesses += got is not None
        assert witnesses > 300


class TestShortcutsAgainstExhaustiveSearch:
    def test_list_chromatic_number_on_every_graph_up_to_order_six(self):
        graphs = atlas_graphs(range(0, 7))
        assert len(graphs) == 209
        for G in graphs:
            assert list_chromatic_number(G) == list_chromatic_number(G, use_shortcuts=False), G

    def test_packed_alon_tarsi_matches_the_tuple_keyed_expansion(self):
        certified = 0
        for G in atlas_graphs(range(1, 7)):
            for k in range(1, G.n + 1):
                got = _alon_tarsi_certifies(G, k)
                assert got == reference_alon_tarsi_certifies(G, k), (G, k)
                certified += got
        assert certified > 300
        # the cliques the skip answers without expanding
        for n in range(2, 9):
            K = complete_graph(n)
            assert not _alon_tarsi_certifies(K, n - 1)
            assert not reference_alon_tarsi_certifies(K, n - 1)


def theta_graph(*lengths: int) -> Graph:
    """Vertices 0 and 1 joined by internally disjoint paths of the given lengths."""
    edges, n = [], 2
    for length in lengths:
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, n))
            prev, n = n, n + 1
        edges.append((prev, 1))
    return Graph.from_edges(n, edges)


def disjoint_union(*parts: Graph) -> Graph:
    edges, n = [], 0
    for H in parts:
        edges += [(u + n, v + n) for u, v in H.edges()]
        n += H.n
    return Graph.from_edges(n, edges)


class TestTwoChoosabilityTheorem:
    """At k = 2, with shortcuts, the Erdős–Rubin–Taylor theorem replaces
    the support search: it must agree with the exhaustive search and leave
    every witness as it was."""

    @staticmethod
    def agrees(G: Graph) -> bool:
        witness = find_uncolorable_assignment(G, 2)
        assert witness == find_uncolorable_assignment(G, 2, use_shortcuts=False), G
        assert is_k_choosable(G, 2) == (witness is None), G
        return witness is None

    def test_every_graph_up_to_order_seven(self):
        graphs = atlas_graphs(range(0, 8))
        assert len(graphs) == 1253
        assert sum(map(self.agrees, graphs)) == 127  # the rest have a witness

    def test_theta_graphs_cycles_and_unions(self, monkeypatch):
        choosable = set()
        for a in range(1, 7):
            for b in range(max(a, 2), 7):
                for c in range(b, 7):
                    if a + b + c - 1 <= 8 and self.agrees(theta_graph(a, b, c)):
                        choosable.add((a, b, c))
        assert choosable == {(2, 2, 2), (2, 2, 4)}
        assert [self.agrees(cycle_graph(n)) for n in range(3, 9)] == [n % 2 == 0 for n in range(3, 9)]
        K23 = complete_bipartite_graph(2, 3)
        monkeypatch.setenv("FORGE_GUARD_OVERRIDE", "2")  # C4 + K2,3 has 9 vertices
        assert self.agrees(disjoint_union(cycle_graph(4), K23))
        monkeypatch.delenv("FORGE_GUARD_OVERRIDE")
        assert not self.agrees(disjoint_union(cycle_graph(4), cycle_graph(3)))
        assert self.agrees(disjoint_union(K23, path_graph(3)))
        # a theta core with pendant trees is 2-choosable; two cycles on a path are not
        pendant = Graph.from_edges(8, list(K23.edges()) + [(0, 5), (5, 6), (2, 7)])
        assert self.agrees(pendant)
        handcuff = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6), (6, 7), (7, 4)])
        assert not self.agrees(handcuff)

    def test_no_search_where_the_theorem_answers(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("searched")

        for G in (complete_bipartite_graph(2, 3), theta_graph(2, 2, 4), cycle_graph(6)):
            monkeypatch.setattr(coloring, "_capped_uncolorable_supports", no_search)
            assert find_uncolorable_assignment(G, 2) is None
            monkeypatch.setattr(coloring, "find_uncolorable_assignment", no_search)
            assert is_k_choosable(G, 2)
            monkeypatch.undo()

    def test_chromatic_number_matches_the_chromatic_layers(self):
        for G in atlas_graphs(range(0, 8)):
            assert chromatic_number(G) == len(_chromatic_layers(G, _independent_sets(G))) - 1, G


class TestKeptSubgraphsAreNotDegenerate:
    def test_every_subgraph_the_sweep_searches_has_degeneracy_at_least_k(self, monkeypatch):
        """The sweep keeps a subgraph only if each of its vertices has at
        least k neighbors in it, so its degeneracy is at least k and a
        degeneracy shortcut inside the sweep could never fire."""
        searched = []
        real = coloring._capped_uncolorable_supports

        def spy(sub, k):
            searched.append((sub, k))
            return real(sub, k)

        monkeypatch.setattr(coloring, "_capped_uncolorable_supports", spy)
        for G in atlas_graphs(range(1, 7)):
            for k in range(1, 5):
                for use_shortcuts in (True, False):
                    find_uncolorable_assignment(G, k, use_shortcuts=use_shortcuts)
        assert len(searched) > 100
        for sub, k in searched:
            assert degeneracy(sub)[0] >= k, (sub, k)


class TestColorableFamily:
    """Bit X of the family is set iff X is colorable from the current lists,
    and the chromatic layers give chi of every induced subgraph."""

    @staticmethod
    def mismatches(H: Graph, supports: list[int], free: dict[int, int]) -> int:
        bad = 0
        F = 1
        lists: list[set[int]] = [set() for _ in range(H.n)]
        for color, S in enumerate(supports):
            F = _add_color(F, [(I, D) for I, D in free.items() if not I & ~S])
            for v in bits(S):
                lists[v].add(color)
            for X in range(1 << H.n):
                L = ListAssignment.from_lists([lists[v] for v in bit_list(X)])
                colorable = is_l_colorable(induced_subgraph(H, X), L) is not None
                bad += (F >> X & 1) != colorable
        layers = _chromatic_layers(H, free)
        for m in range(1 << H.n):
            chi = sum(not layer >> m & 1 for layer in layers)
            bad += chi != chromatic_number(induced_subgraph(H, m))
        return bad

    @staticmethod
    def cases():
        rng = random.Random(1976)
        for H in random_graph_corpus(seed=1976, count=80, max_n=7, min_n=2):
            supports = [rng.randrange(1, 1 << H.n) for _ in range(rng.randint(1, 2 * H.n))]
            yield H, supports

    def test_family_and_layers_match_the_list_solver(self):
        for H, supports in self.cases():
            assert self.mismatches(H, supports, _independent_sets(H)) == 0, (H, supports)

    def test_an_update_without_the_disjointness_mask_is_caught(self):
        bad = 0
        for H, supports in self.cases():
            every = (1 << (1 << H.n)) - 1
            bad += self.mismatches(H, supports, {I: every for I in _independent_sets(H)})
        assert bad > 0


class TestListAssignmentJson:
    def test_roundtrip(self):
        L = lists_of({1, 2}, {3}, {0, 4})
        assert ListAssignment.from_json(L.to_json()) == L

    @pytest.mark.parametrize(
        "text",
        ['{"lists": [[0, 1], [true]]}', '{"lists": [[-1]]}', '{"lists": [0, 1]}', '{"lists": {"0": [1]}}'],
    )
    def test_malformed_lists_are_refused(self, text):
        with pytest.raises(ValueError, match="list of lists of non-negative integers"):
            ListAssignment.from_json(text)
