import hashlib
import json
import os
import random
from fractions import Fraction

import pytest
from click.testing import CliRunner

from minorforge import coloring, pipelines, reports
from minorforge.cli import main
from minorforge.constructions import check_pasting_lower_bound
from minorforge.errors import SizeGuardError
from minorforge.graphio import to_graph6
from minorforge.graphs import (
    Graph,
    add_isolated_vertices,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    degeneracy,
    empty_graph,
    path_graph,
)
from minorforge.minors import contains_minor_contraction_oracle
from minorforge.pipelines import (
    REPLAY_OPS,
    _delta_from_epsilon,
    mader_step_check,
    pipeline_conn,
    pipeline_isolated,
    pipeline_random,
    replay_report,
    run_pipeline,
)
from minorforge.reports import (
    ExperimentConfig,
    canonical_json,
    determinism_hash,
    write_run_dir,
)

from .oracles import reference_best_induced_connectivity
from .test_constructions import all_small_fixtures


def small_cfg(seed=42, **kwargs):
    return ExperimentConfig(seed=seed, attempts=500, sample_count=60, **kwargs)


# Two K5 joined by one edge: 10 vertices, vertex connectivity 1.
TWO_JOINED_K5 = Graph.from_edges(
    10, [(u, v) for u in range(10) for v in range(u + 1, 10) if u // 5 == v // 5] + [(4, 5)]
)


class TestPipelineConn:
    def test_k6_main_branch(self):
        report = pipeline_conn(complete_graph(6), Fraction(3, 10), small_cfg())
        assert report.verdict == "completed"
        assert report.certified_bound == 4  # |A|+|B|-realized slack at this seed
        assert report.target_bound == pytest.approx(0.7 * 11)
        step_names = [s.name for s in report.steps]
        assert "gadget" in step_names and "pasting-bound" in step_names
        kappa_step = next(s for s in report.steps if s.name == "connectivity")
        assert kappa_step.detail["kappa"] == 5

    def test_trivial_branch(self):
        report = pipeline_conn(complete_graph(6), Fraction(9, 10), small_cfg())
        assert report.verdict == "completed"
        assert report.certified_bound == 5
        assert any(s.name == "trivial-branch" for s in report.steps)

    def test_trivial_bound_above_the_list_chromatic_guard_is_certified(self):
        # kappa = 1 < n/4: the bound n - 1 = 9 is above the guard of 8, so the
        # line backing it is the clique sandwich, replayed without a search
        report = pipeline_conn(TWO_JOINED_K5, Fraction(1, 4), small_cfg())
        assert report.certified_bound == 9
        line = next(c for c in report.certified if c["replay"]["op"] == "complete_list_chromatic_sandwich")
        assert line["replay"]["expect"] == 9
        assert all(r["ok"] for r in replay_report(report.to_dict()))

    def test_sandwich_replay_checks_its_premise(self):
        op = REPLAY_OPS["complete_list_chromatic_sandwich"]
        assert op({"graph": to_graph6(complete_graph(9))}) == 9
        assert op({"graph": to_graph6(cycle_graph(9))}) is None

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            pipeline_conn(empty_graph(13), Fraction(1, 10), small_cfg())

    def test_seed_required(self):
        with pytest.raises(ValueError, match="seed"):
            pipeline_conn(complete_graph(6), Fraction(3, 10), ExperimentConfig())

    def test_determinism_and_replay(self):
        cfg = small_cfg()
        first = pipeline_conn(complete_graph(6), Fraction(3, 10), cfg).to_dict()
        second = pipeline_conn(complete_graph(6), Fraction(3, 10), cfg).to_dict()
        assert first["determinism_hash"] == second["determinism_hash"]
        results = replay_report(first)
        assert results and all(r["ok"] for r in results)

    def test_replay_catches_tampering(self):
        report = pipeline_conn(complete_graph(6), Fraction(3, 10), small_cfg()).to_dict()
        report["certified"][0]["replay"]["expect"] = 99
        results = replay_report(report)
        assert not all(r["ok"] for r in results)

    def test_non_complete_input(self):
        from minorforge.graphs import complete_multipartite_graph

        report = pipeline_conn(complete_multipartite_graph(2, 2, 2), Fraction(3, 10), small_cfg())
        assert report.verdict in {"completed", "gadget-not-found"}
        if report.verdict == "completed":
            assert all(r["ok"] for r in replay_report(report.to_dict()))


class TestPipelineRandom:
    def overrides(self):
        return {"delta": Fraction(1, 10), "p": Fraction(1, 20), "D": Fraction(2)}

    def test_example_run_completes_with_clamp(self):
        report = pipeline_random(6, Fraction(4, 5), self.overrides(), small_cfg())
        assert any("clamped" in note for note in report.notes)
        # gadget is unbuildable at these overrides: the maximum-degree gate
        # forces an empty sample whose complement is complete
        assert report.verdict == "gadget-not-found"
        assert [s.name for s in report.steps][:3] == ["parameters", "sample-pattern", "property-q"]

    def test_infeasible_shape_is_reported_without_sampling(self):
        # delta = 1/10 at n = 10: every kept sample is a matching, and K14 minus
        # a matching has a K10 minor, which hosts every induced pattern on 9 vertices
        report = pipeline_random(10, Fraction(4, 5), self.overrides(), small_cfg())
        assert report.verdict == "gadget-not-found"
        gadget = next(s for s in report.steps if s.name == "gadget")
        assert gadget.verdict == "not-found"
        assert gadget.detail["attempts"] == 0 and gadget.detail["rejections"] == 0
        reason = gadget.detail["infeasible"]
        assert "a matching" in reason and "K10 minor" in reason
        assert f"{reason}; outcome reported, not raised" in report.notes
        assert not any("attempt budget" in note for note in report.notes)

    def test_derived_parameters_run(self):
        # derived delta grid: epsilon=0.8 -> delta=0.11, and D explodes, so
        # the clamp note appears and the pipeline still completes a report
        report = pipeline_random(5, Fraction(4, 5), None, small_cfg())
        assert report.params["delta"] == Fraction(11, 100)
        assert any("clamped" in note for note in report.notes)

    def test_n1_is_error(self):
        with pytest.raises(ValueError):
            pipeline_random(1, Fraction(4, 5), None, small_cfg())

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            pipeline_random(11, Fraction(4, 5), None, small_cfg())

    def test_determinism_and_replay(self):
        first = pipeline_random(6, Fraction(4, 5), self.overrides(), small_cfg()).to_dict()
        second = pipeline_random(6, Fraction(4, 5), self.overrides(), small_cfg()).to_dict()
        assert first["determinism_hash"] == second["determinism_hash"]
        assert all(r["ok"] for r in replay_report(first))

    def test_buildable_instance_certifies_bound(self):
        # at delta=1/6 the degree gate admits perfect-matching samples whose
        # complement is the octahedron, which hosts no clamped-pattern minor
        report = pipeline_random(
            6, Fraction(4, 5), {"delta": Fraction(1, 6), "p": Fraction(1, 6), "D": Fraction(3, 2)},
            ExperimentConfig(seed=1, attempts=800),
        )
        assert report.verdict == "completed"
        assert report.certified_bound == 5  # |A|+|B| - floor(delta*n) = 3+3-1
        assert all(r["ok"] for r in replay_report(report.to_dict()))

    def test_slack_is_capped_at_the_part_size(self):
        # side = floor(n/10) = 1 but floor(delta*n) = 3: the slack used to be 3,
        # and the run failed with "slack must lie between 0 and |A|"
        overrides = {"delta": Fraction(3, 10), "p": Fraction(1, 20), "D": Fraction(2)}
        report = pipeline_random(10, Fraction(4, 5), overrides, ExperimentConfig(seed=1))
        assert report.verdict == "completed"
        assert report.certified_bound == 1  # |A| + |B| - slack = 1 + 1 - 1
        assert all(r["ok"] for r in replay_report(report.to_dict()))

    def test_derived_defaults_overflow_cleanly(self):
        # at n=8, epsilon=1/2 the derived C is beyond the float range; it is
        # taken as the exact rational D^2/delta^2, and the run writes a report
        # that replays
        report = pipeline_random(8, Fraction(1, 2), None, small_cfg())
        assert report.params["delta"] == Fraction(7, 100)
        assert report.params["C"] == Fraction(report.params["D"]) ** 2 / Fraction(7, 100) ** 2
        assert report.params["m"] == 28  # clamped at the complete graph
        assert report.verdict == "gadget-not-found"
        assert all(r["ok"] for r in replay_report(report.to_dict()))

    def test_delta_grid(self):
        assert _delta_from_epsilon(Fraction(4, 5)) == Fraction(11, 100)
        assert _delta_from_epsilon(Fraction(71, 100)) == Fraction(10, 100)
        with pytest.raises(ValueError):
            _delta_from_epsilon(Fraction(7, 100))


class TestPipelineIsolated:
    def test_k3_plus_3(self):
        report = pipeline_isolated(complete_graph(3), 3, small_cfg(seed=7))
        assert report.verdict == "completed"
        sampling = next(s for s in report.steps if s.name == "sampling")
        assert sampling.verdict == "all-degenerate"
        assert sampling.detail["minor_free"] > 0
        assert sampling.detail["degenerate_ok"] == sampling.detail["minor_free"]
        assert sampling.detail["coloring_ok"] == sampling.detail["minor_free"]
        assert report.certified_bound == 5  # list chromatic number of K5

    def test_k0_flags_present(self):
        report = pipeline_isolated(complete_graph(3), 3, small_cfg(seed=7))
        assert any("k0" in note for note in report.notes)
        assert any("exploratory" in note for note in report.notes)

    def test_single_vertex_base(self):
        report = pipeline_isolated(empty_graph(1), 3, small_cfg(seed=9))
        assert report.verdict == "completed"
        sampling = next(s for s in report.steps if s.name == "sampling")
        # samples with fewer than four vertices avoid the padded pattern and
        # are trivially within the degeneracy bound
        assert sampling.detail["degenerate_ok"] == sampling.detail["minor_free"]

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            pipeline_isolated(complete_graph(3), 7, small_cfg())

    def test_sandwich_line_above_the_list_chromatic_guard(self, monkeypatch):
        # v(H) - 1 = 17 is above the scaled guard of 16: the value used to be
        # left uncertified with a note; now the sandwich line certifies it
        monkeypatch.setenv("FORGE_GUARD_OVERRIDE", "2")
        report = pipeline_isolated(empty_graph(1), 17, ExperimentConfig(seed=1, sample_count=20))
        assert report.certified_bound == 17
        assert not any(c["replay"]["op"] == "list_chromatic_number" for c in report.certified)
        sandwich = [c for c in report.certified if c["replay"]["op"] == "complete_list_chromatic_sandwich"]
        assert len(sandwich) == 1 and sandwich[0]["replay"]["expect"] == 17
        assert all(r["ok"] for r in replay_report(report.to_dict()))
        assert not any("not certified" in note for note in report.notes)

    @pytest.mark.parametrize("setting, message", [
        ({"sample_count": -4}, "sample count must be nonnegative"),
        ({"edge_prob": 1.7}, "edge probability must lie in"),
        ({"edge_prob": -0.1}, "edge probability must lie in"),
        ({"sample_max_vertices": 0}, "largest sampled order must be at least 1"),
    ])
    def test_out_of_range_sampling_settings_are_refused(self, setting, message):
        # -4 samples certified "all 0 ... samples", an edge probability of 1.7
        # sampled complete graphs, and order 0 failed inside randrange; K4 + 5K1
        # has v(H) = 9 > 8, so its samples are settled without a draw
        for order, k in ((3, 3), (4, 5)):
            with pytest.raises(ValueError, match=message):
                pipeline_isolated(complete_graph(order), k, ExperimentConfig(seed=7, **setting))

    @pytest.mark.parametrize("order, k", [(3, 3), (4, 5)])
    def test_sample_count_is_guarded(self, order, k, monkeypatch):
        # 10^8 samples ran for hours; both the sampled and the settled shape refuse
        too_many = 10_001
        with pytest.raises(SizeGuardError, match="sample count"):
            pipeline_isolated(complete_graph(order), k, ExperimentConfig(seed=7, sample_count=too_many))
        monkeypatch.setenv("FORGE_GUARD_OVERRIDE", "2")
        report = pipeline_isolated(complete_graph(order), k, ExperimentConfig(seed=7, sample_count=too_many))
        assert report.verdict == "completed"

    def test_sample_order_is_guarded_not_clamped(self, monkeypatch):
        # a largest sampled order above 8 was silently taken as 8
        with pytest.raises(SizeGuardError, match="largest sampled order"):
            pipeline_isolated(complete_graph(3), 3, ExperimentConfig(seed=7, sample_max_vertices=20))
        monkeypatch.setenv("FORGE_GUARD_OVERRIDE", "2")
        report = pipeline_isolated(complete_graph(3), 3,
                                   ExperimentConfig(seed=7, sample_count=10, sample_max_vertices=16))
        assert report.params["sample_max_vertices"] == 16
        assert all(r["ok"] for r in replay_report(report.to_dict()))

    @pytest.mark.parametrize("order, k, seed, count, max_n, edge_prob", [
        pytest.param(3, 3, 5, 60, 8, 0.5, id="3"),
        pytest.param(4, 3, 5, 60, 8, 0.5, id="4"),
        # v(H) = 9 > max_n: every sample is settled by proof, none is drawn
        pytest.param(4, 5, 5, 60, 8, 0.5, id="K4+5K1"),
        pytest.param(5, 4, 5, 60, 8, 0.5, id="K5+4K1"),
        pytest.param(3, 3, 5, 60, 5, 0.5, id="K3+3K1-max_n5"),
        pytest.param(3, 3, 5, 60, 8, 0.0, id="edge_prob0"),
        pytest.param(4, 3, 5, 60, 8, 1.0, id="edge_prob1"),
        # sample 71 (E}]w, degeneracy 4) is K5-minor-free but not 3-degenerate
        pytest.param(5, 0, 1, 72, 8, 0.7, id="K5-violation"),
    ])
    def test_counts_match_an_independent_sweep(self, order, k, seed, count, max_n, edge_prob):
        # rebuild the sample stream (one randint for the order, then one
        # random() per pair) and decide minor-freeness by the contraction oracle
        H = add_isolated_vertices(complete_graph(order), k)
        rng = random.Random(seed)
        counts = {"minor_free": 0, "degenerate_ok": 0, "coloring_ok": 0}
        violations = []
        for i in range(count):
            n_i = rng.randint(1, max_n)
            sample = Graph.from_edges(
                n_i, [(u, v) for u in range(n_i) for v in range(u + 1, n_i) if rng.random() < edge_prob]
            )
            if contains_minor_contraction_oracle(sample, H):
                continue
            counts["minor_free"] += 1
            d, _ = degeneracy(sample)
            if d <= H.n - 2:
                counts["degenerate_ok"] += 1
                counts["coloring_ok"] += 1
            else:
                violations.append({"index": i, "graph": to_graph6(sample), "degeneracy": d})
        assert counts["minor_free"] > 0
        assert pipelines._isolated_samples(H, seed, count, max_n, edge_prob) == (counts, violations)

    def test_determinism_and_replay(self):
        first = pipeline_isolated(complete_graph(3), 3, small_cfg(seed=7)).to_dict()
        second = pipeline_isolated(complete_graph(3), 3, small_cfg(seed=7)).to_dict()
        assert first["determinism_hash"] == second["determinism_hash"]
        assert all(r["ok"] for r in replay_report(first))


class TestMader:
    def test_k6(self):
        report = mader_step_check(complete_graph(6))
        assert report.verdict == "pass"
        assert report.certified_bound == 5
        assert report.target_bound == 2.0

    def test_edgeless_vacuous(self):
        report = mader_step_check(empty_graph(4))
        assert report.verdict == "pass"
        assert report.target_bound == 0.0

    def test_corpus_never_fails(self):
        from .conftest import random_graph_corpus

        for G in random_graph_corpus(seed=71, count=25, max_n=8, min_n=1):
            if G.n == 0:
                continue
            report = mader_step_check(G)
            assert report.verdict == "pass"

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            mader_step_check(empty_graph(10))

    def test_replay(self):
        report = mader_step_check(path_graph(5)).to_dict()
        assert all(r["ok"] for r in replay_report(report))

    def test_pruned_sweep_matches_unpruned_reference(self):
        corpus = mader_corpus()
        assert len(corpus) >= 300
        for G in corpus:
            assert pipelines._best_induced_connectivity(G) == reference_best_induced_connectivity(G), to_graph6(G)

    def test_reports_match_the_unpruned_sweep_byte_for_byte(self, monkeypatch):
        def report_bytes(G):
            report = mader_step_check(G)
            report.runtime_ms = 0.0
            return canonical_json(report.to_dict())

        corpus = mader_corpus()[::8]
        pruned = [report_bytes(G) for G in corpus]
        monkeypatch.setattr(pipelines, "_best_induced_connectivity", reference_best_induced_connectivity)
        assert pruned == [report_bytes(G) for G in corpus]


def mader_corpus() -> list[Graph]:
    """Seeded graphs of order 1-9 with the shapes that stress the sweep's
    cuts: edgeless, cycles, complete bipartite, complete minus a matching,
    two cliques sharing a cut vertex, then random graphs."""
    from .conftest import random_graph_corpus

    corpus = [empty_graph(n) for n in range(1, 10)]
    corpus += [cycle_graph(n) for n in range(3, 10)]
    corpus += [complete_bipartite_graph(a, b) for a in range(1, 9) for b in range(a, 10 - a)]
    for n in range(2, 10):
        matching = [(2 * i, 2 * i + 1) for i in range(n // 2)]
        corpus.append(Graph.from_edges(n, [e for e in complete_graph(n).edges() if e not in matching]))
    for a in range(2, 9):
        for b in range(2, 11 - a):  # K_a and K_b glued at vertex a-1
            edges = [(u, v) for u in range(a) for v in range(u + 1, a)]
            edges += [(u, v) for u in range(a - 1, a + b - 1) for v in range(u + 1, a + b - 1)]
            corpus.append(Graph.from_edges(a + b - 1, edges))
    return corpus + random_graph_corpus(seed=211, count=300 - len(corpus), max_n=9)


class TestReportsAndConfig:
    def test_certified_lines_schema(self):
        report = pipeline_conn(complete_graph(6), Fraction(3, 10), small_cfg())
        for entry in report.to_dict()["certified"]:
            assert {"claim", "replay", "exhaustive"} <= set(entry)
            assert {"op", "args", "expect"} <= set(entry["replay"])
            assert entry["exhaustive"] or "witness" in entry

    def test_hash_ignores_timing(self):
        report = pipeline_conn(complete_graph(6), Fraction(3, 10), small_cfg())
        data = report.to_dict()
        bumped = dict(data)
        bumped["runtime_ms"] = 1e9
        assert determinism_hash(bumped) == determinism_hash(data)

    def test_canonical_json_floats(self):
        assert canonical_json({"x": 0.1 + 0.2}) == '{"x":0.3}'

    def test_canonical_json_refuses_non_finite(self):
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError):
                canonical_json({"x": bad})

    def test_write_run_dir(self, tmp_path):
        report = mader_step_check(complete_graph(4))
        out = write_run_dir(report, tmp_path / "run")
        assert (out / "report.json").exists()
        csv_text = (out / "summary.csv").read_text().splitlines()
        assert csv_text[0].startswith("pipeline,n,params_hash")
        assert csv_text[1].startswith("mader,4,")
        assert not (out / ".forge-lock").exists()

    def test_failed_write_leaves_no_run_files(self, tmp_path, monkeypatch):
        # a summary row that raised used to leave report.json and an empty
        # summary.csv behind
        report = mader_step_check(complete_graph(4))
        out = tmp_path / "run"
        lock_text = []

        def failing_hash(params):
            lock_text.append((out / ".forge-lock").read_text())
            raise RuntimeError("row failed")

        monkeypatch.setattr(reports, "params_hash", failing_hash)
        with pytest.raises(RuntimeError, match="row failed"):
            write_run_dir(report, out)
        assert lock_text == [f"{os.getpid()}\n"]
        assert list(out.iterdir()) == []

    def test_non_finite_report_is_refused_and_writes_nothing(self, tmp_path):
        report = mader_step_check(complete_graph(4))
        report.target_bound = float("inf")
        with pytest.raises(ValueError, match="JSON compliant"):
            report.to_dict()
        out = tmp_path / "run"
        with pytest.raises(ValueError, match="JSON compliant"):
            write_run_dir(report, out)
        assert not out.exists()

    def test_negative_attempts_are_refused(self):
        # -3 was written into the gadget step as its attempt count
        with pytest.raises(ValueError, match="attempts must be nonnegative"):
            pipeline_conn(complete_graph(6), Fraction(3, 10), ExperimentConfig(seed=42, attempts=-3))
        with pytest.raises(ValueError, match="attempts must be nonnegative"):
            pipeline_random(6, Fraction(4, 5), PRESET_OVERRIDES, ExperimentConfig(seed=1, attempts=-3))

    def test_lockfile_blocks_concurrent_use(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / ".forge-lock").write_text("held\n")
        with pytest.raises(RuntimeError, match="locked"):
            write_run_dir(mader_step_check(complete_graph(4)), out)

    def test_config_json_and_ini(self, tmp_path):
        jpath = tmp_path / "cfg.json"
        jpath.write_text(json.dumps({"pipeline": "mader", "graph": "Bw", "seed": 3, "comment": "x"}))
        with pytest.raises(ValueError, match="comment"):
            ExperimentConfig.from_file(jpath)
        jpath.write_text(json.dumps({"pipeline": "mader", "graph": "Bw", "seed": 3}))
        cfg = ExperimentConfig.from_file(jpath)
        assert (cfg.pipeline, cfg.graph, cfg.seed) == ("mader", "Bw", 3)
        jpath.write_text(json.dumps({"seed": None, "attempts": 3, "edge_prob": 1}))
        cfg = ExperimentConfig.from_file(jpath)
        assert (cfg.seed, cfg.attempts, cfg.edge_prob) == (None, 3, 1)
        ipath = tmp_path / "cfg.ini"
        ipath.write_text("[run]\npipeline = conn\ngraph = Bw\nseed = 11\n\n[params]\nepsilon = 3/10\n")
        cfg = ExperimentConfig.from_file(ipath)
        assert cfg.pipeline == "conn" and cfg.seed == 11
        assert cfg.params["epsilon"] == "3/10"

    def test_config_typos_are_errors(self, tmp_path):
        # the misspelt keys used to be dropped, so the run took the defaults
        # 200 and 300 without a word
        ipath = tmp_path / "typo.ini"
        ipath.write_text("[run]\npipeline = isolated\nattempt = 1\nsampel_count = 4\n")
        with pytest.raises(ValueError, match="attempt, sampel_count"):
            ExperimentConfig.from_file(ipath)
        ipath.write_text("[run]\nattempts = 1\nsample_count = 4\nedge_prob = 0.25\n")
        cfg = ExperimentConfig.from_file(ipath)
        assert (cfg.attempts, cfg.sample_count, cfg.edge_prob) == (1, 4, 0.25)
        ipath.write_text("[run]\nseed = abc\n")
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig.from_file(ipath)

    @pytest.mark.parametrize("key, value", [
        ("attempts", 2.5),  # failed later with TypeError inside range()
        ("seed", 1.9),  # recorded as 1.9 while the sampler used 1
        ("sample_count", True),  # taken as 1 sample
        ("edge_prob", "0.5"),  # a string where JSON has numbers
    ])
    def test_json_config_numbers_are_type_checked(self, tmp_path, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"pipeline": "isolated", "seed": 1, key: value}))
        with pytest.raises(ValueError, match=f"config key {key} "):
            ExperimentConfig.from_file(path)

    def test_replay_records_an_error_per_line(self):
        # a line whose op raises (here a size guard, as under a smaller
        # FORGE_GUARD_OVERRIDE than the run had) fails alone; later lines run
        data = mader_step_check(complete_graph(4)).to_dict()
        guarded = {
            "claim": "list chromatic number of the complete graph on 9 vertices is 9",
            "replay": {"op": "list_chromatic_number", "args": {"graph": to_graph6(complete_graph(9))},
                       "expect": 9},
            "exhaustive": True,
        }
        data["certified"].insert(0, guarded)
        results = replay_report(data)
        assert len(results) == len(data["certified"])
        assert results[0]["ok"] is False
        assert results[0]["error"].startswith("SizeGuardError:")
        assert all(r["ok"] for r in results[1:])

    def test_run_pipeline_dispatch(self, tmp_path):
        cfg = ExperimentConfig(pipeline="mader", graph="Bw")
        report = run_pipeline(cfg)
        assert report.pipeline == "mader"
        with pytest.raises(ValueError, match="unknown pipeline"):
            run_pipeline(ExperimentConfig(pipeline="nope"))

    def test_run_pipeline_names_missing_inputs(self):
        # these used to raise KeyError: 'epsilon' and AttributeError
        with pytest.raises(ValueError, match="needs epsilon"):
            run_pipeline(ExperimentConfig(pipeline="conn", graph="Bw", seed=1))
        with pytest.raises(ValueError, match="needs graph"):
            run_pipeline(ExperimentConfig(pipeline="mader"))
        with pytest.raises(ValueError, match="needs n and epsilon"):
            run_pipeline(ExperimentConfig(pipeline="random", seed=1))
        with pytest.raises(ValueError, match="needs graph and k"):
            run_pipeline(ExperimentConfig(pipeline="isolated", seed=1))

    def test_run_pipeline_names_params_it_does_not_read(self):
        # the misspelt delta was dropped, so the run took the derived 11/100
        params = {"n": 6, "epsilon": "4/5", "delat": "1/6", "p": "1/6", "D": "3/2"}
        with pytest.raises(ValueError, match="does not read params delat"):
            run_pipeline(ExperimentConfig(pipeline="random", seed=1, params=params))
        with pytest.raises(ValueError, match="does not read params delta, graph"):
            run_pipeline(ExperimentConfig(pipeline="conn", graph="Bw", seed=1,
                                          params={"epsilon": "1/4", "delta": "1/6", "graph": "Bw"}))
        with pytest.raises(ValueError, match="does not read params k"):
            run_pipeline(ExperimentConfig(pipeline="mader", graph="Bw", params={"k": 1}))


# The completing preset of pipeline_random: it reaches the pasting-bound step.
PRESET_OVERRIDES = {"delta": Fraction(1, 6), "p": Fraction(1, 6), "D": Fraction(3, 2)}


class TestStepsAndReplayOps:
    def test_complete_list_chromatic_lines_need_no_search(self, monkeypatch):
        calls = []
        original = coloring.list_chromatic_number

        def counted(G, **kwargs):
            calls.append(G.n)
            return original(G, **kwargs)

        monkeypatch.setattr(coloring, "list_chromatic_number", counted)
        monkeypatch.setattr(pipelines, "list_chromatic_number", counted)
        trivial = pipeline_conn(complete_graph(6), Fraction(9, 10), small_cfg())
        isolated = pipeline_isolated(complete_graph(3), 3, small_cfg(seed=7))
        assert calls == []
        for report, m in ((trivial, 5), (isolated, 5)):
            line = next(c for c in report.certified if c["replay"]["op"] == "list_chromatic_number")
            assert line["replay"]["expect"] == m
        # the replay re-derives the line by the exhaustive search, once
        assert all(r["ok"] for r in replay_report(isolated.to_dict()))
        assert calls == [5]

    def test_list_chromatic_replay_searches_exhaustively(self, monkeypatch):
        # the replay must not re-derive chi_l(K_m) = m by the sandwich proof
        # that certified the line, nor by the Alon-Tarsi shortcut
        def refused(*args, **kwargs):
            raise AssertionError("shortcut taken")

        monkeypatch.setattr(coloring, "chromatic_number", refused)
        monkeypatch.setattr(coloring, "_alon_tarsi_certifies", refused)
        for m in range(3, 9):
            assert REPLAY_OPS["list_chromatic_number"]({"graph": to_graph6(complete_graph(m))}) == m

    def test_every_replay_op_is_emitted(self):
        reports = [
            pipeline_conn(complete_graph(6), Fraction(3, 10), small_cfg()),
            pipeline_conn(complete_graph(6), Fraction(9, 10), small_cfg()),
            pipeline_conn(TWO_JOINED_K5, Fraction(1, 4), small_cfg()),
            pipeline_random(6, Fraction(4, 5), PRESET_OVERRIDES, ExperimentConfig(seed=1)),
            pipeline_isolated(complete_graph(3), 3, small_cfg(seed=7)),
            mader_step_check(complete_graph(6)),
        ]
        emitted = {c["replay"]["op"] for report in reports for c in report.certified}
        assert emitted == set(REPLAY_OPS)
        assert all(r["ok"] for report in reports for r in replay_report(report.to_dict()))


README_OVERRIDES = {"delta": Fraction(1, 10), "p": Fraction(1, 20), "D": Fraction(2)}

# Determinism hashes of fixed-seed runs, taken before the list-coloring
# solver gained its pigeonhole cut and explicit stack. A speed-up of the
# solvers must leave every report byte-identical; a deliberate change of
# report content updates these values and says so in CHANGES.md.
PINNED_REPORTS = {
    "conn-K8": (
        lambda: pipeline_conn(complete_graph(8), Fraction(1, 4), ExperimentConfig(seed=7)),
        "e058c54ab602e5e27e3aaa0be6002c8417614cb564d4b3e599a03e14a2404bf9",
    ),
    "conn-K10": (
        lambda: pipeline_conn(complete_graph(10), Fraction(1, 4), ExperimentConfig(seed=7)),
        "7f8db8897263384df67ec9483fc2ac91e38dd54437b7523ae5affa09a493e710",
    ),
    "random-n8": (
        lambda: pipeline_random(8, Fraction(4, 5), README_OVERRIDES, ExperimentConfig(seed=42)),
        "6dcb24c5a333e48898a41fffdb71c56a65fe4a486e6c77c30c4e2824312f5e15",
    ),
    "isolated-K3-k3": (
        lambda: pipeline_isolated(complete_graph(3), 3, ExperimentConfig(seed=7)),
        "b5056da4952b7a4898d145e5cd84d5fb5250326d1ec832ede2c9ae2b209a324c",
    ),
    "conn-K6-trivial": (
        lambda: pipeline_conn(complete_graph(6), Fraction(9, 10), ExperimentConfig(seed=7)),
        "76764dd73e6818beed9849f3812eab6ce1edb8846bb8c6f14558dc2279dfb1e2",
    ),
    "random-n6-preset": (
        lambda: pipeline_random(6, Fraction(4, 5), PRESET_OVERRIDES, ExperimentConfig(seed=1)),
        "5aef0e6e48ca1e78b9e3c4a369b4aa81b9c6da7c526ec26b4f9b95434f36d56f",
    ),
    "mader-K6": (
        lambda: mader_step_check(complete_graph(6)),
        "4ce234103f2dc98e8aff87fc99c6feac537fd70fb11326cde0bc2f0bbe52463d",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_pinned_determinism_hash(name):
    run, expected = PINNED_REPORTS[name]
    data = run().to_dict()
    assert data["determinism_hash"] == expected
    assert all(r["ok"] for r in replay_report(data))


def test_pasting_verification_runs_no_list_coloring_solve(monkeypatch):
    # the pasting bound is proved, not searched: with the list-coloring
    # solver disabled, the verifier, the replay of a pinned run's bound line
    # and the CLI command all still certify
    report = PINNED_REPORTS["conn-K8"][0]().to_dict()
    line = next(c for c in report["certified"] if c["replay"]["op"] == "pasting_bound_certified")
    args = line["replay"]["args"]

    def no_solve(*_):
        raise AssertionError("a list-coloring solve ran")

    monkeypatch.setattr(coloring, "_solve_list_coloring", no_solve)
    for part in all_small_fixtures():
        check_pasting_lower_bound(part)
    assert replay_report({"certified": [line]}) == [{"claim": line["claim"], "ok": True, "got": True}]
    result = CliRunner().invoke(main, [
        "verify-pasting-bound", "--graph", args["graph"], "--part-a", ",".join(map(str, args["a"])),
        "--part-b", ",".join(map(str, args["b"])), "-d", str(args["slack"]),
    ])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["certified"] is True


# sha256 of the report.json and summary.csv bytes of each PINNED_REPORTS run
# with runtime_ms = 0.0, taken while the two files were still serialized
# along separate paths: writing both from one to_dict() changed no byte.
PINNED_RUN_FILES = {
    "conn-K10": ("10a53673d5704c114d56899ec79d7f0cedb51d0d3f3845c476dd5788a7d156ed",
                 "314a5725c86f3f3749bbc0768eebe0a37a7dd765bcdc76693484ef6c926b1257"),
    "conn-K6-trivial": ("f138125f74ed87f061ac5c94046f861a80628c38fe9e6f379fe6d0248fc73390",
                        "23a701704efcf7a1539a5e44049dd001d989d62f8f64cf4c10de1eb3c3ff324f"),
    "conn-K8": ("a38181552202fc85715b287fe665cb8cd50b4bd86c3f180d858857d79fdee171",
                "f47ea0fec20782fa23682e6f61bc5450310f33375e7dacc29d642ddc376fa082"),
    "isolated-K3-k3": ("fcc3b1cb1bc0a4e00cb8021b3a57965330419e2879cdf0ecc7c04839ae0f052c",
                       "cba3e963ede9d6bc5f8cab58cc09fcd9ce12449c9f6d7ef62a2af1edd7cc71dc"),
    "mader-K6": ("9bf21de22151d01cf7051de3870d2825f7ee119f344675970f63f6ea048be5c6",
                 "66ea06da7bcee117d821f3f0fce01e6ce8d26d9cdc63d22999fba51825875033"),
    "random-n6-preset": ("71cea8018c82071a43668f017595c5d814f098ca3f80943b20d90ae5dfb7e121",
                         "77c662ecf39d5afbac096363b489624c47c4c12fd0f3cbe275b4a4bea0bf1136"),
    "random-n8": ("e6b32f18342ee1203818fd7513e4914d10db7ca5bddff93ceeac5791b7a0c07a",
                  "761f82fb2e0f001a0d9ad8dca82d44cc0385df6c853f3401147f0e81c2d7dd15"),
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_pinned_run_files(name, tmp_path):
    report = PINNED_REPORTS[name][0]()
    report.runtime_ms = 0.0
    out = write_run_dir(report, tmp_path / "run")
    files = ("report.json", "summary.csv")
    assert tuple(hashlib.sha256((out / f).read_bytes()).hexdigest() for f in files) == PINNED_RUN_FILES[name]
