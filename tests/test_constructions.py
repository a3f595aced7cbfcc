import math
import random
from fractions import Fraction

import pytest

from minorforge.coloring import is_l_colorable
from minorforge.constructions import (
    GadgetResult,
    PastingSpec,
    TwoCliquePartition,
    adversarial_lists_for_copy,
    build_thm_conn_gadget,
    build_thm_random_gadget,
    check_pasting_lower_bound,
    k_fold_pasting,
    materialized_pasting_instance,
    pasting_copy_vertices,
)
from minorforge.errors import SizeGuardError
from minorforge.graphs import (
    Graph,
    bit_list,
    complete_graph,
    cycle_graph,
    edges_between,
    empty_graph,
    induced_subgraph,
    is_clique,
    mask_of,
)
from minorforge.minors import contains_minor

from .oracles import (
    are_isomorphic,
    reference_build_thm_random_gadget,
    reference_check_pasting_lower_bound,
)


class TestKFoldPasting:
    def test_single_copy_is_identity(self):
        F = cycle_graph(4)
        assert k_fold_pasting(PastingSpec(F, 0b0011, 1)) == F

    def test_bowtie(self):
        G = k_fold_pasting(PastingSpec(complete_graph(3), 0b001, 2))
        assert (G.n, G.edge_count()) == (5, 6)

    def test_order_formula(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 5)
            F = complete_graph(n)
            attach = rng.randrange(1 << n)
            K = rng.randint(1, 4)
            spec = PastingSpec(F, attach, K)
            s = attach.bit_count()
            assert k_fold_pasting(spec).n == s + K * (n - s) == spec.materialized_order()

    def test_copies_are_isomorphic_to_base(self):
        F = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
        spec = PastingSpec(F, 0b0101, 3)
        G = k_fold_pasting(spec)
        for copy in range(3):
            placed = pasting_copy_vertices(spec, copy)
            sub = induced_subgraph(G, mask_of(placed))
            assert are_isomorphic(sub, F)

    def test_attachment_clique_transfers(self):
        F = complete_graph(4)
        G = k_fold_pasting(PastingSpec(F, 0b0011, 3))
        assert is_clique(G, 0b0011)

    def test_no_edges_between_copy_blocks(self):
        spec = PastingSpec(complete_graph(3), 0b001, 3)
        G = k_fold_pasting(spec)
        blocks = []
        for copy in range(3):
            placed = pasting_copy_vertices(spec, copy)
            blocks.append(mask_of(placed) & ~0b001)
        for i in range(3):
            for j in range(i + 1, 3):
                assert edges_between(G, blocks[i], blocks[j]) == 0

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            k_fold_pasting(PastingSpec(complete_graph(6), 0, 1000))

    def test_copy_outside_the_pasting_is_an_error(self):
        # the 2-fold pasting of a triangle at one vertex has 5 vertices;
        # copy 5 used to give [0, 11, 12] and copy -3 negative vertices
        spec = PastingSpec(complete_graph(3), 0b1, 2)
        assert pasting_copy_vertices(spec, 1) == [0, 3, 4]
        for copy in (2, 5, -1, -3):
            with pytest.raises(ValueError, match="outside"):
                pasting_copy_vertices(spec, copy)


def two_clique_graph(a, b, missing):
    """Cliques A = 0..a-1 and B = a..a+b-1, complete across except ``missing``
    pairs (A-index, B-index)."""
    edges = [(i, j) for i in range(a) for j in range(i + 1, a)]
    edges += [(a + i, a + j) for i in range(b) for j in range(i + 1, b)]
    edges += [
        (i, a + j) for i in range(a) for j in range(b) if (i, j) not in missing
    ]
    return Graph.from_edges(a + b, edges)


class TestAdversarialLists:
    def test_full_cross_gives_full_universe(self):
        F = two_clique_graph(2, 2, missing=set())
        part = TwoCliquePartition(F, 0b0011, 0b1100, 0)
        L = adversarial_lists_for_copy(part, {0: 1, 1: 2})
        assert all(s == frozenset({1, 2, 3}) for s in L.lists)

    def test_single_a_vertex_rule(self):
        F = two_clique_graph(1, 2, missing={(0, 0), (0, 1)})
        part = TwoCliquePartition(F, 0b001, 0b110, 1)
        L = adversarial_lists_for_copy(part, {0: 2})
        assert L.lists[0] == frozenset({1, 2})
        assert L.lists[1] == L.lists[2] == frozenset({1})

    def test_nonneighbor_color_removed(self):
        # one A-vertex colored 3; only its non-neighbor loses that color
        F = two_clique_graph(1, 3, missing={(0, 1)})
        part = TwoCliquePartition(F, 0b0001, 0b1110, 1)
        L = adversarial_lists_for_copy(part, {0: 3})
        universe = frozenset({1, 2, 3})
        assert L.lists[1] == universe
        assert L.lists[2] == universe - {3}
        assert L.lists[3] == universe

    def test_size_bound(self):
        rng = random.Random(23)
        for _ in range(40):
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            slack = rng.randint(0, a)
            missing = set()
            for j in range(b):
                for i in rng.sample(range(a), rng.randint(0, slack)):
                    missing.add((i, j))
            F = two_clique_graph(a, b, missing)
            part = TwoCliquePartition(F, (1 << a) - 1, ((1 << (a + b)) - 1) ^ ((1 << a) - 1), slack)
            part.validate()
            u = part.universe_size()
            coloring = dict(zip(range(a), rng.sample(range(1, u + 1), min(a, u))))
            if len(coloring) < a:
                continue
            L = adversarial_lists_for_copy(part, coloring)
            assert all(len(s) >= a + b - 1 - slack for s in L.lists)

    def test_color_outside_universe_rejected(self):
        F = two_clique_graph(1, 1, missing=set())
        part = TwoCliquePartition(F, 0b01, 0b10, 0)
        with pytest.raises(ValueError, match="universe"):
            adversarial_lists_for_copy(part, {0: 5})


def all_small_fixtures():
    """Every two-clique shape whose materialized pasting has at most 24
    vertices, over several cross-edge patterns."""
    shapes = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2)]
    fixtures = []
    for a, b in shapes:
        patterns = [set()]
        patterns.append({(0, j) for j in range(b)})  # first A-vertex missing everywhere
        if a >= 2:
            patterns.append({(1, 0)})
        if b >= 2:
            patterns.append({(0, 1)})
        for missing in patterns:
            slack = max(
                (sum(1 for i in range(a) if (i, j) in missing) for j in range(b)),
                default=0,
            )
            F = two_clique_graph(a, b, missing)
            part = TwoCliquePartition(F, (1 << a) - 1, ((1 << (a + b)) - 1) ^ ((1 << a) - 1), slack)
            K = part.universe_size() ** a
            if K * b + a <= 24:
                fixtures.append(part)
    return fixtures


def relaxed_partition(rng, a, b):
    """A = 0..a-1 is a clique and B = a..a+b-1 takes the rest; B's edges,
    the cross edges and the slack are random, so B may fail to be a clique
    and a B-vertex may miss more A-neighbors than the slack allows."""
    n = a + b
    p_b = rng.choice([1.0, 0.7])
    p_cross = rng.choice([0.5, 0.8, 1.0])
    edges = [(i, j) for i in range(a) for j in range(i + 1, a)]
    edges += [(u, v) for u in range(a, n) for v in range(u + 1, n) if rng.random() < p_b]
    edges += [(i, v) for i in range(a) for v in range(a, n) if rng.random() < p_cross]
    F = Graph.from_edges(n, edges)
    return TwoCliquePartition(F, (1 << a) - 1, ((1 << n) - 1) ^ ((1 << a) - 1), rng.randint(0, a))


def invalid_relaxed_fixtures(seed, count, max_order=30):
    """``count`` relaxed partitions that fail ``validate`` only in B or the
    slack, with materialized pastings of at most ``max_order`` vertices."""
    rng = random.Random(seed)
    fixtures = []
    while len(fixtures) < count:
        a, b = rng.randint(1, 3), rng.randint(1, 4)
        if a + (a + b - 1) ** a * b > max_order:
            continue
        part = relaxed_partition(rng, a, b)
        try:
            part.validate()
        except ValueError:
            fixtures.append(part)
    return fixtures


class TestPastingLowerBound:
    def test_triangle_fixture(self):
        part = TwoCliquePartition(complete_graph(3), 0b001, 0b110, 0)
        check = check_pasting_lower_bound(part)
        assert (check.bound, check.copies, check.colorings_checked) == (3, 2, 2)

    def test_matches_materialized_ground_truth_on_all_small_fixtures(self):
        fixtures = all_small_fixtures()
        assert len(fixtures) >= 8
        for part in fixtures:
            check = check_pasting_lower_bound(part)
            pasted, lists = materialized_pasting_instance(part)
            assert pasted.n <= 24
            assert pasted.n == PastingSpec(part.graph, part.a_mask, check.copies).materialized_order()
            assert is_l_colorable(pasted, lists) is None

    def test_materialized_lists_meet_size_bound(self):
        for part in all_small_fixtures():
            _, lists = materialized_pasting_instance(part)
            bound = part.a_mask.bit_count() + part.b_mask.bit_count() - 1 - part.slack
            assert lists.min_size() >= bound

    def test_invariant_violation_is_an_error(self):
        F = empty_graph(3)  # B = {1,2} is not a clique
        part = TwoCliquePartition(F, 0b001, 0b110, 1)
        with pytest.raises(ValueError, match="clique"):
            check_pasting_lower_bound(part)

    def test_relaxed_invariants_expose_the_false_path(self):
        # with the B-clique invariant dropped, an edgeless B anticomplete to A
        # admits an extension, so the permutation loop finds a counterexample
        F = empty_graph(3)
        part = TwoCliquePartition(F, 0b001, 0b110, 1)
        check = reference_check_pasting_lower_bound(part, check_invariants=False)
        assert not check.certified
        assert check.counterexample is not None
        coloring = {int(k): v for k, v in check.counterexample["a_coloring"].items()}
        lists = adversarial_lists_for_copy(part, coloring)
        extension = check.counterexample["extension"]
        assert all(extension[v] in lists.lists[v] for v in range(F.n))

    def test_non_clique_a_is_an_error_even_with_relaxed_invariants(self):
        # the proof needs every proper A-coloring to be injective, which holds
        # only when A is a clique; here the pasting is L-colorable, so a
        # certified bound would be false
        F = Graph.from_edges(3, [(0, 2), (1, 2)])
        part = TwoCliquePartition(F, 0b011, 0b100, 2)
        pasted, lists = materialized_pasting_instance(part, check_invariants=False)
        assert is_l_colorable(pasted, lists) is not None
        with pytest.raises(ValueError, match="A does not induce a clique"):
            check_pasting_lower_bound(part)

    def test_canonical_solve_equals_the_permutation_loop(self):
        # the package answers only partitions that validate, and there it
        # agrees with the permutation loop on every field; every
        # counterexample the loop finds is on a partition the package refuses
        rng = random.Random(37)
        counterexamples = valid = 0
        for _ in range(2000):
            part = relaxed_partition(rng, rng.randint(0, 4), rng.randint(0, 4))
            want = reference_check_pasting_lower_bound(part, check_invariants=False)
            try:
                part.validate()
            except ValueError:
                with pytest.raises(ValueError):
                    check_pasting_lower_bound(part)
                counterexamples += not want.certified
                continue
            got = check_pasting_lower_bound(part)
            assert want.certified and want.counterexample is None
            assert (got.bound, got.copies, got.colorings_checked) == (
                want.bound, want.copies, want.colorings_checked)
            valid += 1
        assert counterexamples >= 200
        assert valid >= 200

    def test_certifies_across_random_valid_fixtures(self):
        # for invariant-satisfying partitions the bound holds by pigeonhole,
        # at every shape: the permutation loop, one solve per injective
        # A-coloring, certifies and agrees on every field wherever it is
        # cheap, and the counts are perm(u, |A|) and u^|A| everywhere
        rng = random.Random(29)
        compared = 0
        for a in range(6):
            for b in range(6):
                u = a + b - 1
                for _ in range(4):
                    slack = rng.randint(0, a)
                    missing = set()
                    for j in range(b):
                        for i in rng.sample(range(a), rng.randint(0, slack)):
                            missing.add((i, j))
                    F = two_clique_graph(a, b, missing)
                    part = TwoCliquePartition(F, (1 << a) - 1, ((1 << (a + b)) - 1) ^ ((1 << a) - 1), slack)
                    got = check_pasting_lower_bound(part)
                    assert got.bound == a + b - slack
                    if a + b == 0:
                        assert (got.copies, got.colorings_checked) == (1, 0)
                    else:
                        assert (got.copies, got.colorings_checked) == (u**a, math.perm(u, a))
                    if got.colorings_checked <= 500:
                        want = reference_check_pasting_lower_bound(part)
                        assert want.certified and want.counterexample is None
                        assert (got.bound, got.copies, got.colorings_checked) == (
                            want.bound, want.copies, want.colorings_checked)
                        compared += 1
        assert compared >= 100


class TestConnGadget:
    def test_example_sizes(self):
        result = build_thm_conn_gadget(complete_graph(6), Fraction(3, 10), seed=42, attempts=500)
        assert result.found
        part = result.partition
        assert part.a_mask.bit_count() == 2  # floor(0.4 * 5)
        assert part.b_mask.bit_count() == 2  # floor(0.4 * 6)

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            build_thm_conn_gadget(complete_graph(6), Fraction(1, 2), seed=1)
        with pytest.raises(ValueError):
            build_thm_conn_gadget(complete_graph(6), Fraction(0), seed=1)

    def test_output_is_minor_free_and_valid(self):
        result = build_thm_conn_gadget(complete_graph(6), Fraction(3, 10), seed=7, attempts=500)
        assert result.found
        F, part = result.graph, result.partition
        assert contains_minor(F, complete_graph(6)) is None
        part.validate()
        assert is_clique(F, part.a_mask) and is_clique(F, part.b_mask)
        # every B-vertex has at most epsilon*n non-neighbors
        for b in bit_list(part.b_mask):
            assert F.n - 1 - F.degree(b) <= Fraction(3, 10) * 6

    def test_low_connectivity_warns(self):
        G = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        with pytest.warns(UserWarning, match="trivial-branch"):
            build_thm_conn_gadget(G, Fraction(2, 5), seed=3, attempts=5)

    def test_budget_exhaustion_reports_not_raises(self):
        result = build_thm_conn_gadget(complete_graph(6), Fraction(3, 10), seed=42, attempts=1)
        assert isinstance(result, GadgetResult)
        assert not result.found and result.attempts_used == 1


class TestRandomGadget:
    def test_part_size_arithmetic(self):
        result = build_thm_random_gadget(complete_graph(5), Fraction(1, 5), None, seed=7, attempts=300)
        assert result.found
        assert result.partition.a_mask.bit_count() == 2  # floor(0.4 * 5)
        assert result.partition.slack == 1  # floor(n/5)

    def test_slack_and_neighbor_bound(self):
        result = build_thm_random_gadget(complete_graph(5), Fraction(1, 5), None, seed=11, attempts=300)
        assert result.found
        part = result.partition
        part.validate()
        need = part.a_mask.bit_count() - part.slack
        for b in bit_list(part.b_mask):
            assert (result.graph.adj[b] & part.a_mask).bit_count() >= need

    def test_p_zero_yields_complete_complement(self):
        from minorforge.graphs import bipartite_union_complement
        from minorforge.random_models import sample_bipartite

        B = sample_bipartite(3, 3, 0, seed=1)
        assert bipartite_union_complement(B, 0b111, 0b111) == complete_graph(6)

    def test_delta_domain(self):
        with pytest.raises(ValueError):
            build_thm_random_gadget(complete_graph(5), Fraction(1, 2), None, seed=1)

    def test_slack_is_capped_at_the_part_size(self):
        # delta = 26/100 at n = 8: side = 1 but floor(delta*n) = 2; a B-vertex
        # misses at most |A| = 1 A-vertex (a slack of 2 failed validation)
        result = build_thm_random_gadget(complete_graph(8), Fraction(26, 100), None, seed=1)
        assert result.found and result.partition.slack == 1
        result.partition.validate()

    def test_infeasible_shape_is_settled_without_sampling(self, monkeypatch):
        # delta = 1/10 at n = 10: s = 1, side = 7, and K_10 minus a matching
        # has a K10 minor, which contains every induced pattern on 9 vertices
        import minorforge.constructions as constructions

        def refused(*args):
            raise AssertionError("sampled")

        monkeypatch.setattr(constructions, "sample_bipartite", refused)
        result = build_thm_random_gadget(complete_graph(10), Fraction(1, 10), Fraction(1, 20), seed=1)
        assert not result.found
        assert result.attempts_used == 0
        assert "K10 minor" in result.infeasible

    def test_matches_the_sampling_builder(self):
        # every shape the proof settles is one where sampling accepts nothing;
        # on every other shape the builder is the sampling loop, attempt for
        # attempt, except that where the reference gave an accepted gadget the
        # slack floor(delta*n) > |A| and failed validation, the slack is |A|
        settled = sampled = capped = 0
        for n in range(2, 11):
            for seed in range(3):
                rng = random.Random(f"{n}:{seed}")
                H = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
                for k in range(1, 34):
                    delta = Fraction(k, 100)
                    if math.floor((1 - 3 * delta) * n) < 1:
                        continue
                    for p in (delta / 2, Fraction(1, 20), Fraction(1, 2)):
                        got = _outcome(build_thm_random_gadget, H, delta, p, seed)
                        ref = _outcome(reference_build_thm_random_gadget, H, delta, p, seed)
                        if isinstance(got, GadgetResult) and got.infeasible:
                            settled += 1
                            assert not ref.found, (n, delta, p, seed)
                        elif isinstance(ref, ValueError) and "slack" in str(ref):
                            capped += 1
                            side = math.floor((1 - 3 * delta) * n)
                            assert got.partition.slack == side < math.floor(delta * n), (n, delta, p, seed)
                            got.partition.validate()
                        else:
                            sampled += 1
                            assert _shape(got) == _shape(ref), (n, delta, p, seed)
        assert settled and sampled and capped

    @pytest.mark.parametrize("s", range(2, 7))
    def test_complete_minus_perfect_matching_has_large_clique_minor(self, s):
        # the lemma behind the s = 1 rule: K_2s minus a perfect matching has
        # a K_floor(3s/2) minor
        matched = {(a, a + s) for a in range(s)}
        F = Graph.from_edges(2 * s, [(u, v) for u in range(2 * s) for v in range(u + 1, 2 * s)
                                     if (u, v) not in matched])
        assert contains_minor(F, complete_graph(3 * s // 2)) is not None


def _outcome(build, H, delta, p, seed):
    """The builder's result at 30 attempts, or the ValueError it raised (in
    the reference, an accepted gadget whose slack floor(delta*n) exceeds |A|
    fails validation)."""
    try:
        return build(H, delta, p, seed, attempts=30)
    except ValueError as exc:
        return exc


def _shape(outcome):
    if isinstance(outcome, ValueError):
        return str(outcome)
    return outcome.graph, outcome.partition, outcome.attempts_used
