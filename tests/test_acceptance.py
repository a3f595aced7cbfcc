"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output) and enforces the stated runtime cap.
"""

import math
import random
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from scipy.stats import chi2

from minorforge.coloring import chromatic_number, is_l_colorable, list_chromatic_number
from minorforge.constructions import (
    check_pasting_lower_bound,
    materialized_pasting_instance,
)
from minorforge.graphs import (
    color_by_degeneracy,
    complete_bipartite_graph,
    complete_graph,
    degeneracy,
    vertex_connectivity,
)
from minorforge.minors import (
    _search_model,
    contains_minor,
    contains_minor_contraction_oracle,
    verify_model,
)
from minorforge.pipelines import (
    mader_step_check,
    pipeline_conn,
    pipeline_isolated,
    pipeline_random,
    replay_report,
)
from minorforge.random_models import (
    PropertyQParams,
    chernoff_upper,
    check_property_Q,
    constant_C,
    constant_D,
    q_n_bound,
    sample_gnm_sequential,
    sample_gnm_uniform,
)
from minorforge.reports import ExperimentConfig

from .conftest import petersen_graph, random_graph
from .oracles import reference_check_pasting_lower_bound
from .test_constructions import all_small_fixtures, invalid_relaxed_fixtures
from .test_minors import glued_minor_free_pair


@contextmanager
def criterion(number: int, description: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed <= limit_s, f"criterion {number} exceeded {limit_s}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.1f}s)")


def test_criterion_1_dual_minor_oracles_agree():
    with criterion(1, "dual minor oracles agree on 500 random pairs", 300):
        rng = random.Random(104729)
        for _ in range(500):
            host = random_graph(rng, rng.randint(1, 7), rng.choice([0.2, 0.35, 0.5, 0.65, 0.8]))
            pattern = random_graph(rng, rng.randint(1, 5), rng.choice([0.2, 0.35, 0.5, 0.65, 0.8]))
            expected = contains_minor_contraction_oracle(host, pattern)
            assert (contains_minor(host, pattern) is not None) == expected
            # the backtracker alone, without the degree-2 filter in front
            assert (_search_model(host, pattern) is not None) == expected


def test_criterion_2_petersen_fixtures():
    with criterion(2, "Petersen hosts a complete minor on 5 but not 6 vertices", 61):
        petersen = petersen_graph()
        start = time.perf_counter()
        model = contains_minor(petersen, complete_graph(5))
        assert time.perf_counter() - start <= 1.0
        assert model is not None and verify_model(petersen, complete_graph(5), model)
        start = time.perf_counter()
        assert contains_minor(petersen, complete_graph(6)) is None
        assert time.perf_counter() - start <= 60.0
        assert not contains_minor_contraction_oracle(
            petersen, complete_graph(6), max_host_order=10
        )


def test_criterion_3_factored_verifier_matches_materialized():
    with criterion(3, "factored pasting verifier equals materialized ground truth", 120):
        fixtures = all_small_fixtures()
        shapes = {(p.a_mask.bit_count(), p.b_mask.bit_count(), p.slack) for p in fixtures}
        assert (1, 2, 0) in shapes and (2, 2, 1) in shapes
        for part in fixtures:
            check_pasting_lower_bound(part)  # returns only once the bound is proved
            pasted, lists = materialized_pasting_instance(part)
            assert pasted.n <= 24
            assert is_l_colorable(pasted, lists) is None
        # with the invariants off, A a clique but B or the slack invalid, the
        # package refuses the partition; the permutation-loop oracle decides it
        counterexamples = 0
        for part in invalid_relaxed_fixtures(seed=5, count=800):
            check = reference_check_pasting_lower_bound(part, check_invariants=False)
            pasted, lists = materialized_pasting_instance(part, check_invariants=False)
            assert check.certified == (is_l_colorable(pasted, lists) is None)
            counterexamples += not check.certified
        assert counterexamples >= 200


def test_criterion_4_glue_closure_trials():
    with criterion(4, "clique sums of minor-free graphs stay minor-free in 200 trials", 600):
        rng = random.Random(31415)
        patterns = [
            (complete_graph(4), vertex_connectivity(complete_graph(4))),
            (complete_graph(5), vertex_connectivity(complete_graph(5))),
            (complete_bipartite_graph(3, 3), vertex_connectivity(complete_bipartite_graph(3, 3))),
        ]
        for trial in range(200):
            pattern, kappa = patterns[trial % 3]
            union = glued_minor_free_pair(rng, pattern, kappa, max_n=8)
            assert contains_minor(union, pattern) is None
            # the backtracker alone, without the filters in front
            assert _search_model(union, pattern) is None


def test_criterion_5_property_q_reduction_and_arithmetic():
    with criterion(5, "minimal-pair reduction matches full enumeration; arithmetic cases", 300):
        rng = random.Random(2025)
        for _ in range(100):
            G = random_graph(rng, rng.randint(2, 8), rng.choice([0.2, 0.4, 0.6, 0.8]))
            for delta in (Fraction(1, 4), Fraction(1, 2)):
                for D in (Fraction(11, 10), Fraction(3, 2)):
                    params = PropertyQParams(delta, D)
                    assert (
                        check_property_Q(G, params, pairs="minimal").verdict
                        == check_property_Q(G, params, pairs="full").verdict
                    )
        tight = check_property_Q(
            complete_graph(6), PropertyQParams(Fraction(1, 2), Fraction(101, 100))
        )
        assert tight.verdict == "fails" and tight.witness["edges"] == 9
        assert math.ceil(1.01 * 6 * math.log(6)) == 11
        roomy = check_property_Q(complete_graph(20), PropertyQParams(Fraction(1, 2), Fraction(3, 2)))
        assert roomy.verdict == "holds"
        assert math.ceil(1.5 * 20 * math.log(20)) == 90 <= 100


def test_criterion_6_chernoff_and_constants():
    with criterion(6, "bound formulas are exact where promised", 60):
        assert math.isclose(chernoff_upper(30, 1), math.exp(-10), rel_tol=1e-12)
        for delta in (Fraction(1), Fraction(1, 2), Fraction(1, 3)):
            for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                D = constant_D(delta, p)
                C = constant_C(delta, p)
                assert isinstance(D, Fraction) and isinstance(C, Fraction)
                assert C == D * D / (delta * delta)
                threshold = 4 * p ** (-(1 / delta**2))
                assert q_n_bound(delta, p, threshold * Fraction(101, 100), 16) > 0
                assert q_n_bound(delta, p, threshold, 16) == 0.0
                assert q_n_bound(delta, p, threshold / 2, 16) == 0.0


def test_criterion_7_sampler_uniformity():
    with criterion(7, "both fixed-edge-count samplers pass chi-square uniformity", 60):
        outcomes = list(combinations(combinations(range(4), 2), 2))
        index = {frozenset(c): i for i, c in enumerate(outcomes)}
        samples = 15000
        threshold = chi2.ppf(0.999, len(outcomes) - 1)
        tallies = {}
        for name, sampler in [("uniform", sample_gnm_uniform), ("sequential", sample_gnm_sequential)]:
            counts = Counter()
            for i in range(samples):
                G = sampler(4, 2, seed=2 * i + (name == "sequential"))
                counts[index[frozenset(tuple(e) for e in G.edges())]] += 1
            expected = samples / len(outcomes)
            stat = sum((counts.get(i, 0) - expected) ** 2 / expected for i in range(len(outcomes)))
            assert stat < threshold, name
            tallies[name] = counts
        pair_stat = sum(
            (tallies["uniform"].get(i, 0) - tallies["sequential"].get(i, 0)) ** 2
            / max(1, tallies["uniform"].get(i, 0) + tallies["sequential"].get(i, 0))
            for i in range(len(outcomes))
        )
        assert pair_stat < threshold


def test_criterion_8_choosability_ground_truths():
    with criterion(8, "exact list chromatic numbers and the degeneracy sandwich", 600):
        assert list_chromatic_number(complete_graph(4), use_shortcuts=False) == 4
        assert list_chromatic_number(cycle_graph_4(), use_shortcuts=False) == 2
        assert list_chromatic_number(complete_bipartite_graph(3, 3), use_shortcuts=False) == 3
        rng = random.Random(6174)
        for _ in range(300):
            G = random_graph(rng, rng.randint(1, 7), rng.choice([0.2, 0.35, 0.5, 0.65, 0.8]))
            chi = chromatic_number(G)
            chi_l = list_chromatic_number(G)
            assert chi <= chi_l <= degeneracy(G)[0] + 1


def cycle_graph_4():
    from minorforge.graphs import cycle_graph

    return cycle_graph(4)


def test_criterion_9_degeneracy_coloring_totality():
    with criterion(9, "greedy degeneracy coloring succeeds on 500 random instances", 300):
        rng = random.Random(7919)
        for _ in range(500):
            G = random_graph(rng, rng.randint(1, 8), rng.choice([0.2, 0.4, 0.6, 0.8]))
            d, _ = degeneracy(G)
            lists = [rng.sample(range(3 * (d + 1)), d + 1) for _ in range(G.n)]
            coloring = color_by_degeneracy(G, lists)
            assert all(coloring[u] != coloring[v] for u, v in G.edges())
            assert all(coloring[v] in lists[v] for v in range(G.n))


def test_criterion_10_pipelines_end_to_end():
    with criterion(10, "pipelines complete deterministically and replay", 900):
        conn_cfg = ExperimentConfig(seed=42, attempts=500)
        runs = []
        for _ in range(2):
            runs.append(
                (
                    pipeline_conn(complete_graph(6), Fraction(3, 10), conn_cfg).to_dict(),
                    pipeline_random(
                        6,
                        Fraction(4, 5),
                        {"delta": Fraction(1, 10), "p": Fraction(1, 20), "D": Fraction(2)},
                        conn_cfg,
                    ).to_dict(),
                    pipeline_isolated(complete_graph(3), 3, ExperimentConfig(seed=7)).to_dict(),
                    mader_step_check(complete_graph(6)).to_dict(),
                )
            )
        for first, second in zip(runs[0], runs[1]):
            assert first["determinism_hash"] == second["determinism_hash"]
        for report in runs[0]:
            results = replay_report(report)
            assert all(r["ok"] for r in results), report["pipeline"]
        assert runs[0][0]["verdict"] == "completed"
        assert runs[0][1]["verdict"] in {"completed", "gadget-not-found"}
        assert runs[0][2]["verdict"] == "completed"
        assert runs[0][3]["verdict"] == "pass"
