import math
import random
from collections import Counter
from dataclasses import asdict
from fractions import Fraction
from itertools import combinations

import pytest
from scipy.stats import chi2

from minorforge.errors import BudgetExceededError
from minorforge.graphs import Graph, complete_graph, empty_graph
from minorforge.random_models import (
    PropertyPParams,
    PropertyQParams,
    check_property_P,
    check_property_Q,
    chernoff_lower,
    chernoff_upper,
    constant_C,
    constant_D,
    m_of,
    propQ_failure_bound,
    property_p_witness_violates,
    property_q_witness_violates,
    q_n_bound,
    sample_bipartite,
    sample_gnm_sequential,
    sample_gnm_uniform,
)

from .conftest import random_graph_corpus
from .oracles import reference_check_property_P, reference_check_property_Q


class TestSampleBipartite:
    def test_p_zero(self):
        assert sample_bipartite(3, 4, 0, seed=1).edge_count() == 0

    def test_p_one(self):
        assert sample_bipartite(3, 4, 1, seed=1).edge_count() == 12

    def test_determinism(self):
        assert sample_bipartite(5, 5, 0.4, seed=9) == sample_bipartite(5, 5, 0.4, seed=9)

    def test_pattern_uniformity_chi_square(self):
        counts = Counter()
        samples = 20000
        for i in range(samples):
            B = sample_bipartite(2, 2, 0.5, seed=i)
            counts[B.rows] += 1
        expected = samples / 16
        stat = sum((counts.get(pattern, 0) - expected) ** 2 / expected
                   for pattern in [(a, b) for a in range(4) for b in range(4)])
        assert stat < chi2.ppf(0.999, 15)

    def test_max_degree_concentration(self):
        # sanity corroboration at n=40, p=0.5: max degree <= 2pn nearly always
        n, p = 40, 0.5
        good = sum(
            1 for i in range(200) if sample_bipartite(n, n, p, seed=10_000 + i).max_degree() <= 2 * p * n
        )
        assert good >= 190


class TestGnmSamplers:
    def test_m_zero(self):
        assert sample_gnm_uniform(5, 0, 3).edge_count() == 0

    def test_m_full(self):
        assert sample_gnm_uniform(5, 10, 3) == complete_graph(5)
        assert sample_gnm_sequential(5, 10, 3) == complete_graph(5)

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            sample_gnm_uniform(4, 7, 1)
        with pytest.raises(ValueError):
            sample_gnm_sequential(4, -1, 1)

    @pytest.mark.parametrize("m", [2, 3])
    def test_uniformity_both_algorithms(self, m):
        outcomes = list(combinations(combinations(range(4), 2), m))
        index = {frozenset(c): i for i, c in enumerate(outcomes)}
        samples = 15000
        threshold = chi2.ppf(0.999, len(outcomes) - 1)
        tallies = {}
        for name, sampler in [("uniform", sample_gnm_uniform), ("sequential", sample_gnm_sequential)]:
            counts = Counter()
            for i in range(samples):
                G = sampler(4, m, seed=i * 2 + (0 if name == "uniform" else 1))
                counts[index[frozenset(tuple(e) for e in G.edges())]] += 1
            expected = samples / len(outcomes)
            stat = sum((counts.get(i, 0) - expected) ** 2 / expected for i in range(len(outcomes)))
            assert stat < threshold, name
            tallies[name] = counts
        # two-sample comparison between the algorithms
        stat = sum(
            (tallies["uniform"].get(i, 0) - tallies["sequential"].get(i, 0)) ** 2
            / (tallies["uniform"].get(i, 0) + tallies["sequential"].get(i, 0))
            for i in range(len(outcomes))
        )
        assert stat < threshold


class TestPropertyQ:
    def test_k6_fails_at_tight_constant(self):
        report = check_property_Q(complete_graph(6), PropertyQParams(Fraction(1, 2), Fraction(101, 100)))
        assert report.verdict == "fails"
        assert report.witness["edges"] == 9
        assert report.witness["threshold"] == 11  # ceil(1.01 * 6 * ln 6)

    def test_k20_holds(self):
        report = check_property_Q(complete_graph(20), PropertyQParams(Fraction(1, 2), Fraction(3, 2)))
        assert report.verdict == "holds"

    def test_k10_holds_at_tight_constant(self):
        # 25 cross edges against ceil(1.01 * 10 * ln 10) = 24
        report = check_property_Q(complete_graph(10), PropertyQParams(Fraction(1, 2), Fraction(101, 100)))
        assert report.verdict == "holds"

    def test_edgeless_fails(self):
        params = PropertyQParams(Fraction(1, 2), Fraction(3, 2))
        report = check_property_Q(empty_graph(6), params)
        assert report.verdict == "fails"
        assert property_q_witness_violates(empty_graph(6), params, report.witness)

    def test_minimal_equals_full_on_corpus(self):
        for G in random_graph_corpus(seed=60, count=40, max_n=8, min_n=2):
            for delta in (Fraction(1, 4), Fraction(1, 2)):
                for D in (Fraction(11, 10), Fraction(3, 2)):
                    params = PropertyQParams(delta, D)
                    a = check_property_Q(G, params, pairs="minimal").verdict
                    b = check_property_Q(G, params, pairs="full").verdict
                    assert a == b

    def test_falsify_finds_witness(self):
        params = PropertyQParams(Fraction(1, 2), Fraction(3, 2))
        report = check_property_Q(empty_graph(6), params, mode="falsify", seed=4, budget=500)
        assert report.verdict == "fails"
        assert property_q_witness_violates(empty_graph(6), params, report.witness)

    def test_falsify_requires_seed(self):
        with pytest.raises(ValueError):
            check_property_Q(empty_graph(6), PropertyQParams(Fraction(1, 2), Fraction(3, 2)), mode="falsify")

    def test_unknown_pairs_value_is_an_error(self):
        params = PropertyQParams(Fraction(1, 2), Fraction(3, 2))
        with pytest.raises(ValueError, match="unknown pairs 'fulll'"):
            check_property_Q(complete_graph(6), params, pairs="fulll")
        with pytest.raises(ValueError, match="unknown pairs 'fulll'"):
            check_property_Q(complete_graph(6), params, "falsify", seed=1, pairs="fulll")


class TestNegativeFalsifyBudget:
    """A falsify budget is a number of trials, so it cannot be negative."""

    def test_property_q(self):
        params = PropertyQParams(Fraction(1, 2), Fraction(3, 2))
        with pytest.raises(ValueError, match="budget must be nonnegative, got -5"):
            check_property_Q(complete_graph(6), params, "falsify", seed=1, budget=-5)
        report = check_property_Q(complete_graph(6), params, "falsify", seed=1, budget=0)
        assert (report.verdict, report.trials) == ("inconclusive", 0)

    def test_property_p(self):
        G = sample_bipartite(4, 4, 0, seed=0)
        params = PropertyPParams(Fraction(1, 2), 1)
        with pytest.raises(ValueError, match="budget must be nonnegative, got -1"):
            check_property_P(G, complete_graph(4), params, "falsify", seed=11, budget=-1)


class TestPropertyP:
    def params(self, delta=Fraction(1, 2), s=1):
        return PropertyPParams(delta, s)

    def test_complete_bipartite_holds(self):
        G = sample_bipartite(4, 4, 1, seed=0)
        report = check_property_P(G, complete_graph(4), self.params())
        assert report.verdict == "holds"

    def test_empty_bipartite_fails_with_witness(self):
        G = sample_bipartite(4, 4, 0, seed=0)
        report = check_property_P(G, complete_graph(4), self.params())
        assert report.verdict == "fails"
        assert property_p_witness_violates(G, complete_graph(4), self.params(), report.witness)

    def test_s_above_edge_count_holds_vacuously(self):
        G = sample_bipartite(4, 4, 0, seed=0)
        report = check_property_P(G, complete_graph(4), self.params(s=100))
        assert report.verdict == "holds"
        assert report.nodes_explored > 0

    def test_minimal_range_variant(self):
        G = sample_bipartite(4, 4, 0, seed=0)
        report = check_property_P(G, complete_graph(4), self.params(), k_l_range="minimal")
        assert report.verdict == "fails"

    def test_full_vs_minimal_flaggable_disagreement(self):
        # compared on tiny instances; any disagreement would be surfaced by
        # the caller, never silently resolved
        for G in [sample_bipartite(3, 3, p, seed=3) for p in (0.0, 0.4, 0.8, 1.0)]:
            for H in random_graph_corpus(seed=61, count=6, max_n=4, min_n=2):
                params = PropertyPParams(Fraction(1, 2), 1)
                full = check_property_P(G, H, params, k_l_range="full").verdict
                minimal = check_property_P(G, H, params, k_l_range="minimal").verdict
                if full == "holds":
                    assert minimal == "holds"  # minimal checks a subset of tuples

    def test_witness_recheck_rejects_corrupted(self):
        G = sample_bipartite(4, 4, 0, seed=0)
        params = self.params()
        report = check_property_P(G, complete_graph(4), params)
        bad = dict(report.witness)
        bad["X"] = [[0], [0]]  # overlap breaks disjointness
        assert not property_p_witness_violates(G, complete_graph(4), params, bad)

    def test_unknown_k_l_range_is_an_error_in_falsify_mode_too(self):
        G = sample_bipartite(4, 4, 0, seed=0)
        with pytest.raises(ValueError, match="unknown k_l_range 'nonsense'"):
            check_property_P(G, complete_graph(4), self.params(), "falsify", seed=1, k_l_range="nonsense")

    def test_budget_exhaustion_is_an_error(self):
        G = sample_bipartite(4, 4, 1, seed=2)  # holds, so the sweep runs long
        with pytest.raises(BudgetExceededError):
            check_property_P(G, complete_graph(4), self.params(), node_budget=5)

    def test_negative_node_budget_is_an_error(self):
        G = sample_bipartite(4, 4, 1, seed=2)
        with pytest.raises(ValueError, match="node_budget must be nonnegative, got -5"):
            check_property_P(G, complete_graph(4), self.params(), node_budget=-5)
        with pytest.raises(BudgetExceededError, match="exceeded 0 nodes"):
            check_property_P(G, complete_graph(4), self.params(), node_budget=0)

    def test_falsify_mode(self):
        G = sample_bipartite(4, 4, 0, seed=0)
        report = check_property_P(G, complete_graph(4), self.params(), mode="falsify", seed=11, budget=3000)
        assert report.verdict == "fails"
        assert property_p_witness_violates(G, complete_graph(4), self.params(), report.witness)
        full = sample_bipartite(4, 4, 1, seed=0)
        report = check_property_P(full, complete_graph(4), self.params(), mode="falsify", seed=11, budget=200)
        assert report.verdict == "inconclusive"
        assert report.trials == 200


def _outcome(check, *args, **kwargs):
    """A checker's report as a dict, or the type and text of what it raised."""
    try:
        return asdict(check(*args, **kwargs))
    except (ValueError, BudgetExceededError) as exc:
        return type(exc).__name__, str(exc)


class TestPairSearchMatchesFrozenCheckers:
    """The shared pair search returns every report, and raises every error,
    exactly as the four hand-written searches it replaced. The one intended
    difference: an unknown size-range name (``pairs`` of Q, ``k_l_range`` of
    P) is a ValueError in every mode, where the old Q read it as "full" and
    the old falsify modes ignored it."""

    def compare(self, seen, kind, check, reference, *args, **kwargs):
        got = _outcome(check, *args, **kwargs)
        assert got == _outcome(reference, *args, **kwargs), (kind, args, kwargs)
        seen[kind, got["verdict"] if isinstance(got, dict) else got[0]] += 1

    def rejects(self, seen, kind, message, check, *args, **kwargs):
        assert _outcome(check, *args, **kwargs) == ("ValueError", message), (kind, args, kwargs)
        seen[kind, "ValueError"] += 1

    def test_property_q_corpus(self):
        seen = Counter()
        for H in random_graph_corpus(seed=900, count=60, max_n=8):
            for delta in (Fraction(1, 5), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
                for D in (Fraction(11, 10), Fraction(3, 2), Fraction(4)):
                    params = PropertyQParams(delta, D)
                    for pairs in ("minimal", "full"):
                        self.compare(seen, f"exact-{pairs}", check_property_Q,
                                     reference_check_property_Q, H, params, pairs=pairs)
                    self.rejects(seen, "exact-other", "unknown pairs 'other'", check_property_Q,
                                 H, params, pairs="other")
                    for seed in (0, 1, 2):
                        self.compare(seen, "falsify", check_property_Q, reference_check_property_Q,
                                     H, params, "falsify", seed=seed, budget=40)
                    self.rejects(seen, "falsify-other", "unknown pairs 'other'", check_property_Q,
                                 H, params, "falsify", seed=0, budget=40, pairs="other")
                    self.compare(seen, "no-seed", check_property_Q, reference_check_property_Q,
                                 H, params, "falsify")
                    self.compare(seen, "bad-mode", check_property_Q, reference_check_property_Q,
                                 H, params, "bogus")
        # below order 10 no pair of sets reaches the threshold, so Q holds
        # only vacuously; near-complete hosts of order 10 and 12 supply pairs
        # with edges == threshold and holds that check every pair
        rng = random.Random(902)
        for n in (10, 12):
            for removed in range(4):
                edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
                H = Graph.from_edges(n, rng.sample(edges, len(edges) - removed))
                for D in (Fraction(101, 100), Fraction(21, 20), Fraction(6, 5)):
                    params = PropertyQParams(Fraction(1, 2), D)
                    for pairs in ("minimal", "full"):
                        self.compare(seen, f"dense-{pairs}", check_property_Q,
                                     reference_check_property_Q, H, params, pairs=pairs)
                    self.compare(seen, "dense-falsify", check_property_Q, reference_check_property_Q,
                                 H, params, "falsify", seed=removed, budget=40)
        assert sum(seen.values()) == 6480 + 72
        for kind in ("exact-minimal", "exact-full", "dense-minimal", "dense-full"):
            assert seen[kind, "holds"] and seen[kind, "fails"]
        assert seen["exact-other", "ValueError"] == seen["falsify-other", "ValueError"] == 720
        assert seen["dense-falsify", "fails"] and seen["dense-falsify", "inconclusive"]
        assert seen["falsify", "fails"] and seen["falsify", "inconclusive"]
        assert seen["no-seed", "ValueError"] == seen["bad-mode", "ValueError"] == 720

    def test_property_p_corpus(self):
        seen = Counter()
        rng = random.Random(77)
        for H in random_graph_corpus(seed=901, count=40, max_n=6):
            for delta in (Fraction(1, 3), Fraction(1, 2)):
                for s in (1, 2, 4):
                    params = PropertyPParams(delta, s)
                    G = sample_bipartite(rng.randint(1, 4), rng.randint(1, 4),
                                         rng.choice([0.0, 0.3, 0.6, 0.9, 1.0]), seed=rng.randrange(1000))
                    for k_l_range in ("minimal", "full", "other"):
                        for node_budget in (20, 400, 5000):
                            self.compare(seen, f"exact-{k_l_range}", check_property_P,
                                         reference_check_property_P, G, H, params,
                                         k_l_range=k_l_range, node_budget=node_budget)
                    for seed in (0, 1, 2):
                        self.compare(seen, "falsify", check_property_P, reference_check_property_P,
                                     G, H, params, "falsify", seed=seed, budget=60)
                    self.rejects(seen, "falsify-other", "unknown k_l_range 'other'", check_property_P,
                                 G, H, params, "falsify", seed=0, budget=60, k_l_range="other")
                    self.compare(seen, "no-seed", check_property_P, reference_check_property_P,
                                 G, H, params, "falsify")
                    self.compare(seen, "bad-mode", check_property_P, reference_check_property_P,
                                 G, H, params, "bogus")
        assert sum(seen.values()) == 3600
        for kind in ("exact-minimal", "exact-full"):
            assert seen[kind, "holds"] and seen[kind, "fails"] and seen[kind, "BudgetExceededError"]
        assert seen["exact-other", "ValueError"] == 720
        assert seen["falsify-other", "ValueError"] == 240
        assert seen["falsify", "fails"] and seen["falsify", "inconclusive"]
        assert seen["no-seed", "ValueError"] == seen["bad-mode", "ValueError"] == 240


class TestBounds:
    def test_chernoff_values(self):
        assert math.isclose(chernoff_upper(30, 1), math.exp(-10), rel_tol=1e-12)
        assert math.isclose(chernoff_lower(8, Fraction(1, 2)), math.exp(-1), rel_tol=1e-12)

    def test_chernoff_monotone_in_mu(self):
        for delta in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            values_u = [chernoff_upper(mu, delta) for mu in (1, 5, 20, 80)]
            values_l = [chernoff_lower(mu, delta) for mu in (1, 5, 20, 80)]
            assert values_u == sorted(values_u, reverse=True)
            assert values_l == sorted(values_l, reverse=True)

    def test_chernoff_past_the_float_range_is_zero(self):
        # delta^2 mu overflows a float; the bound is below the least subnormal
        huge = Fraction("1e400")
        assert chernoff_upper(huge, Fraction(1, 2)) == 0.0
        assert chernoff_lower(huge, Fraction(1, 2)) == 0.0
        # in range, the value is the float formula's, bit for bit
        assert chernoff_upper(30, 1) == math.exp(-10)
        for mu in (2237, 2238, 2239, 1491, 1492, 1493):
            assert chernoff_upper(mu, 1) == math.exp(-float(mu) / 3)
            assert chernoff_lower(mu, 1) == math.exp(-float(mu) / 2)

    def test_chernoff_domain(self):
        with pytest.raises(ValueError):
            chernoff_upper(0, 1)
        with pytest.raises(ValueError):
            chernoff_lower(5, 2)

    def test_bounds_stay_in_unit_interval(self):
        for mu in (1, 10, 200):
            for delta in (Fraction(1, 10), Fraction(1, 2), Fraction(1)):
                assert 0 < chernoff_upper(mu, delta) <= 1
                assert 0 < chernoff_lower(mu, delta) <= 1

    def test_constant_d_example(self):
        assert constant_D(1, Fraction(1, 2)) == Fraction(202, 25)  # 8.08

    def test_constant_c_exact_rational(self):
        for delta in (Fraction(1), Fraction(1, 2)):
            for p in (Fraction(1, 2), Fraction(1, 4)):
                D = constant_D(delta, p)
                assert isinstance(D, Fraction)
                assert constant_C(delta, p) == D * D / (delta * delta)

    def test_constants_overflow_raises(self):
        # 1/delta^2 is not an integer here, so D is a float, and one beyond
        # the float range raises
        with pytest.raises(ValueError, match="constant_D.*overflows"):
            constant_D(Fraction(3, 100), Fraction(3, 200))
        D = constant_D(Fraction(7, 100), Fraction(7, 200))
        assert D > 1e297
        # D*D overflows the float range, so C is the exact rational instead
        C = constant_C(Fraction(7, 100), Fraction(7, 200))
        assert C == Fraction(D) ** 2 / Fraction(7, 100) ** 2
        assert m_of(8, C) == (28, True)
        assert propQ_failure_bound(D, 8) == 0.0

    def test_q_n_exponent_sign(self):
        for delta in (Fraction(1), Fraction(1, 2)):
            for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                threshold = 4 * p ** (-(1 / delta**2))
                # exponent negative iff D is above 4 p^(-1/delta^2)
                assert q_n_bound(delta, p, threshold / 2, 12) == 0.0
                assert q_n_bound(delta, p, threshold, 12) == 0.0
                near = threshold * Fraction(101, 100)
                value = q_n_bound(delta, p, near, 12)
                assert 0 < value < 1
                assert value < q_n_bound(delta, p, near, 24)  # rising in n
                far = q_n_bound(delta, p, threshold * 2, 12)
                assert 0 < far <= 1  # may saturate to 1 in floats

    def test_propq_failure_bound(self):
        assert propQ_failure_bound(2, 6) == 1.0  # union bound exceeds one at tiny n
        small = propQ_failure_bound(3, 30)
        assert 0 < small < 1e-30

    def test_m_of_clamp(self):
        assert m_of(10, 5) == (45, True)  # ceil(115.13) = 116 exceeds 45
        assert m_of(4, Fraction(1, 10)) == (1, False)
        assert m_of(6, Fraction(20**100)) == (15, True)

    def test_m_of_domain(self):
        with pytest.raises(ValueError):
            m_of(1, 5)
