import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from minorforge.cli import main
from minorforge.graphio import to_graph6
from minorforge.graphs import BipartiteGraph, complete_graph, empty_graph
from minorforge.random_models import PropertyPParams, PropertyQParams

from .conftest import petersen_graph
from .oracles import reference_check_property_P, reference_check_property_Q

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def runner():
    return CliRunner()


def invoke_json(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


class TestCheckMinor:
    def test_petersen_k5(self, runner, tmp_path):
        host = tmp_path / "petersen.g6"
        host.write_text(to_graph6(petersen_graph()) + "\n")
        pattern = tmp_path / "k5.g6"
        pattern.write_text(to_graph6(complete_graph(5)) + "\n")
        data = invoke_json(runner, ["check-minor", "--host", str(host), "--pattern", str(pattern)])
        assert data["contains"] is True
        assert data["model_verified"] is True
        assert set(data["model"]) == {"0", "1", "2", "3", "4"}

    def test_inline_graph6(self, runner):
        data = invoke_json(runner, ["check-minor", "--host", "Bw", "--pattern", "A_"])
        assert data["contains"] is True


class TestBounds:
    def test_chernoff(self, runner):
        data = invoke_json(runner, ["bounds", "chernoff", "--mu", "30", "--delta", "1"])
        assert data["bound"] == pytest.approx(4.5400e-5, rel=1e-4)

    def test_constants(self, runner):
        data = invoke_json(runner, ["bounds", "constants", "--delta", "1", "-p", "1/2", "-n", "10"])
        assert data["D"] == "202/25"
        assert data["m_clamped"] is True

    def test_constants_when_c_overflows_the_float_range(self, runner):
        # D is a float near 5.4e297, so C = D^2/delta^2 is printed as an exact rational
        data = invoke_json(runner, ["bounds", "constants", "--delta", "7/100", "-p", "7/200", "-n", "8"])
        assert Fraction(data["C"]) > Fraction(10) ** 597
        assert data["m"] == 28 and data["m_clamped"] is True
        assert data["property_q_failure_bound"] == 0.0

    def test_chernoff_past_the_float_range(self, runner):
        data = invoke_json(runner, ["bounds", "chernoff", "--mu", "1e400", "--delta", "1/2"])
        assert data == {"upper_tail": 0.0, "lower_tail": 0.0, "bound": 0.0}

    def test_bad_domain_exits_nonzero(self, runner):
        result = runner.invoke(main, ["bounds", "chernoff", "--mu", "0", "--delta", "1"])
        assert result.exit_code != 0


class TestSample:
    def test_seed_required(self, runner):
        result = runner.invoke(main, ["sample", "gnm", "-n", "5", "-m", "4"])
        assert result.exit_code != 0
        assert "--seed" in result.output

    def test_gnm_deterministic(self, runner):
        a = invoke_json(runner, ["sample", "gnm", "-n", "6", "-m", "7", "--seed", "3"])
        b = invoke_json(runner, ["sample", "gnm", "-n", "6", "-m", "7", "--seed", "3"])
        assert a == b and a["edges"] == 7

    def test_bipartite(self, runner):
        data = invoke_json(runner, ["sample", "bipartite", "-m", "3", "-n", "3", "-p", "1", "--seed", "1"])
        assert data["edges"] == 9


class TestChoosability:
    def test_lists_and_witness(self, runner, tmp_path):
        lists = tmp_path / "lists.json"
        lists.write_text(json.dumps({"lists": [[1, 2, 3]] * 4}))
        data = invoke_json(
            runner,
            ["check-choosability", "--graph", to_graph6(complete_graph(4)),
             "--lists", str(lists), "-k", "3"],
        )
        assert data["colorable"] is False
        assert data["witness_certifies_k_plus_1"] is True

    def test_exact_chi_l(self, runner):
        data = invoke_json(
            runner, ["check-choosability", "--graph", to_graph6(complete_graph(4)), "--exact-chi-l"]
        )
        assert data["list_chromatic_number"] == 4

    def test_malformed_lists_are_errors(self, runner, tmp_path):
        # the first three ended in a KeyError or TypeError traceback, and the
        # fourth printed the color 0.5
        lists = tmp_path / "lists.json"
        for text in ("{}", "[[0,1],[0,1]]", '{"lists": [[0,1],["a"]]}', '{"lists": [[0,1],[0.5]]}'):
            lists.write_text(text)
            result = runner.invoke(main, ["check-choosability", "--graph", to_graph6(complete_graph(2)),
                                          "--lists", str(lists)])
            assert result.exit_code == 1 and isinstance(result.exception, SystemExit), text
            assert result.output.splitlines() == [
                'Error: a list assignment must be a JSON object whose "lists" is a list of lists '
                "of non-negative integers"
            ], text

    def test_nothing_to_do(self, runner):
        result = runner.invoke(main, ["check-choosability", "--graph", "Bw"])
        assert result.exit_code != 0

    def test_k_without_lists_is_a_usage_error(self, runner):
        result = runner.invoke(main, ["check-choosability", "--graph", "Bw", "-k", "5", "--exact-chi-l"])
        assert result.exit_code == 2
        assert "-k certifies a witness and needs --lists" in result.output


class TestProperties:
    def test_property_q(self, runner):
        data = invoke_json(
            runner,
            ["check-property", "q", "--graph", to_graph6(complete_graph(6)),
             "--delta", "1/2", "-d", "101/100"],
        )
        assert data["verdict"] == "fails"

    def test_property_p(self, runner, tmp_path):
        spec = tmp_path / "bip.json"
        spec.write_text(json.dumps({"a_size": 4, "b_size": 4, "edges": []}))
        data = invoke_json(
            runner,
            ["check-property", "p", "--graph", to_graph6(complete_graph(4)),
             "--bipartite", str(spec), "--delta", "1/2", "-s", "1"],
        )
        assert data["verdict"] == "fails"

    def test_property_p_takes_inline_json_longer_than_a_file_name(self, runner):
        edges = [[a, b] for a in range(7) for b in range(7)]
        spec = json.dumps({"a_size": 7, "b_size": 7, "edges": edges})
        assert len(spec) > 255
        data = invoke_json(
            runner,
            ["check-property", "p", "--graph", to_graph6(complete_graph(4)),
             "--bipartite", spec, "--delta", "1/2", "-s", "1"],
        )
        assert data["verdict"] in {"holds", "fails"}

    def test_falsify_needs_seed(self, runner):
        for args in (["q", "--graph", "Bw", "--delta", "1/2", "-d", "3/2"],
                     ["p", "--graph", to_graph6(complete_graph(4)),
                      "--bipartite", json.dumps({"a_size": 4, "b_size": 4, "edges": []}),
                      "--delta", "1/2", "-s", "1"]):
            result = runner.invoke(main, ["check-property", *args, "--mode", "falsify"])
            assert result.exit_code == 2
            assert "falsify mode requires --seed" in result.output

    def test_negative_budget_is_a_usage_error(self, runner):
        for args in (["q", "--graph", "Bw", "--delta", "1/2", "-d", "3/2"],
                     ["p", "--graph", to_graph6(complete_graph(4)),
                      "--bipartite", json.dumps({"a_size": 4, "b_size": 4, "edges": []}),
                      "--delta", "1/2", "-s", "1"]):
            result = runner.invoke(main, ["check-property", *args, "--mode", "falsify",
                                          "--seed", "1", "--budget", "-5"])
            assert result.exit_code == 2
            assert "Invalid value for '--budget'" in result.output

    def test_negative_node_budget_is_a_usage_error(self, runner):
        result = runner.invoke(main, ["check-property", "p", "--graph", to_graph6(complete_graph(4)),
                                      "--bipartite", json.dumps({"a_size": 4, "b_size": 4, "edges": []}),
                                      "--delta", "1/2", "-s", "1", "--node-budget", "-5"])
        assert result.exit_code == 2
        assert "Invalid value for '--node-budget'" in result.output

    def test_falsify_output_with_a_seed(self, runner):
        cases = (
            (["q", "--graph", to_graph6(empty_graph(6)), "--delta", "1/2", "-D", "3/2",
              "--budget", "500", "--seed", "4"],
             reference_check_property_Q(empty_graph(6), PropertyQParams(Fraction(1, 2), Fraction(3, 2)),
                                        "falsify", budget=500, seed=4)),
            (["p", "--graph", to_graph6(complete_graph(4)),
              "--bipartite", json.dumps({"a_size": 4, "b_size": 4, "edges": []}),
              "--delta", "1/2", "-s", "1", "--budget", "3000", "--seed", "11"],
             reference_check_property_P(BipartiteGraph.from_edges(4, 4, []), complete_graph(4),
                                        PropertyPParams(Fraction(1, 2), 1), "falsify", budget=3000, seed=11)),
        )
        for args, expected in cases:
            assert expected.verdict == "fails" and expected.trials > 0
            data = invoke_json(runner, ["check-property", *args, "--mode", "falsify"])
            assert data == {"verdict": expected.verdict, "witness": expected.witness,
                            "nodes_explored": expected.nodes_explored, "trials": expected.trials}


class TestPasting:
    def test_pasting(self, runner):
        data = invoke_json(
            runner, ["pasting", "--graph", to_graph6(complete_graph(3)), "--attach", "0", "-k", "2"]
        )
        assert (data["n"], data["edges"]) == (5, 6)

    def test_verify_bound(self, runner):
        data = invoke_json(
            runner,
            ["verify-pasting-bound", "--graph", to_graph6(complete_graph(3)),
             "--part-a", "0", "--part-b", "1,2", "-d", "0"],
        )
        assert data == {"certified": True, "bound": 3, "copies": 2, "colorings_checked": 2}


class TestPipelines:
    def test_conn_writes_run_dir_and_replays(self, runner, tmp_path):
        out = tmp_path / "run"
        data = invoke_json(
            runner,
            ["pipeline", "conn", "--graph", to_graph6(complete_graph(6)),
             "--epsilon", "3/10", "--seed", "42", "--attempts", "500", "--out", str(out)],
        )
        assert data["verdict"] == "completed"
        assert (out / "report.json").exists() and (out / "summary.csv").exists()
        replayed = invoke_json(runner, ["replay", "--report", str(out / "report.json")])
        assert replayed["all_reproduced"] is True

    def test_conn_without_seed(self, runner):
        result = runner.invoke(
            main, ["pipeline", "conn", "--graph", "Bw", "--epsilon", "1/10"]
        )
        assert result.exit_code != 0

    def test_missing_inputs_are_named(self, runner):
        for args, missing in ((["conn", "--graph", "Bw", "--seed", "1"], "epsilon"),
                              (["random", "--seed", "1"], "n and epsilon"),
                              (["isolated", "--graph", "Bw", "--seed", "1"], "k")):
            result = runner.invoke(main, ["pipeline", *args])
            assert result.exit_code != 0
            assert f"needs {missing}" in result.output

    def test_replay_of_tampered_report_fails(self, runner, tmp_path):
        out = tmp_path / "run"
        invoke_json(
            runner,
            ["pipeline", "mader", "--graph", to_graph6(complete_graph(4)), "--out", str(out)],
        )
        report = json.loads((out / "report.json").read_text())
        report["certified"][0]["replay"]["expect"] = 99
        (out / "report.json").write_text(json.dumps(report))
        result = runner.invoke(main, ["replay", "--report", str(out / "report.json")])
        assert result.exit_code != 0

    def test_mader(self, runner):
        data = invoke_json(runner, ["pipeline", "mader", "--graph", to_graph6(complete_graph(6))])
        assert data["verdict"] == "pass"

    def test_config_file(self, runner, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[run]\npipeline = conn\ngraph = "
            + to_graph6(complete_graph(6))
            + "\nseed = 42\nattempts = 500\n\n[params]\nepsilon = 3/10\n"
        )
        data = invoke_json(runner, ["pipeline", "conn", "--config", str(cfg)])
        assert data["verdict"] == "completed"

    def test_config_file_values_are_not_overwritten_by_flag_defaults(self, runner, tmp_path):
        conn = tmp_path / "conn.ini"
        conn.write_text(
            "[run]\ngraph = " + to_graph6(complete_graph(6))
            + "\nseed = 42\nattempts = 1\n\n[params]\nepsilon = 3/10\n"
        )
        data = invoke_json(runner, ["pipeline", "conn", "--config", str(conn)])
        gadget = next(step for step in data["steps"] if step["name"] == "gadget")
        assert gadget["detail"]["attempts"] == 1
        assert data["verdict"] == "gadget-not-found"
        # a flag that is given still wins over the file
        data = invoke_json(runner, ["pipeline", "conn", "--config", str(conn), "--attempts", "500"])
        assert data["verdict"] == "completed"

        isolated = tmp_path / "isolated.ini"
        isolated.write_text(
            "[run]\ngraph = " + to_graph6(complete_graph(3)) + "\nseed = 7\nsample_count = 5\n"
            "sample_max_vertices = 6\nedge_prob = 0.25\n\n[params]\nk = 3\n"
        )
        data = invoke_json(runner, ["pipeline", "isolated", "--config", str(isolated)])
        summary = next(c for c in data["certified"] if c["replay"]["op"] == "isolated_sampling_summary")
        assert summary["replay"]["args"]["count"] == 5
        assert summary["replay"]["args"]["max_n"] == 6
        assert summary["replay"]["args"]["edge_prob"] == 0.25

    def test_config_params_the_pipeline_does_not_read_are_errors(self, runner, tmp_path):
        cfg = tmp_path / "random.json"
        cfg.write_text(json.dumps({
            "pipeline": "random", "seed": 1,
            "params": {"n": 6, "epsilon": "4/5", "delat": "1/6", "p": "1/6", "D": "3/2"},
        }))
        result = runner.invoke(main, ["pipeline", "random", "--config", str(cfg)])
        assert result.exit_code != 0
        assert "delat" in result.output

    def test_config_numbers_of_the_wrong_type_are_errors(self, runner, tmp_path):
        # a float attempt count used to end in a TypeError traceback
        cfg = tmp_path / "conn.json"
        cfg.write_text(json.dumps({"seed": 1, "attempts": 2.5}))
        result = runner.invoke(main, ["pipeline", "conn", "--graph", "E~~w", "--epsilon", "1/4",
                                      "--config", str(cfg)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert "config key attempts" in result.output

    def test_isolated(self, runner):
        data = invoke_json(
            runner,
            ["pipeline", "isolated", "--graph", to_graph6(complete_graph(3)), "-k", "3",
             "--seed", "7", "--samples", "40"],
        )
        assert data["verdict"] == "completed"

    def test_readme_random_example_completes_and_replays(self, runner, tmp_path):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        line = next(text for text in readme.read_text().splitlines()
                    if text.startswith("forge pipeline random "))
        out = tmp_path / "run"
        data = invoke_json(runner, [*shlex.split(line)[1:], "--out", str(out)])
        assert data["verdict"] == "completed"
        assert len(data["steps"]) == 7 and data["certified_bound"] == 5
        replayed = invoke_json(runner, ["replay", "--report", str(out / "report.json")])
        assert replayed["all_reproduced"] is True
        assert len(replayed["lines"]) == len(data["certified"])
        assert all(line["ok"] for line in replayed["lines"])

    def test_random_derived_defaults_write_a_report(self, runner, tmp_path):
        out = tmp_path / "run"
        data = invoke_json(runner, ["pipeline", "random", "-n", "8", "--epsilon", "1/2", "--seed", "1",
                                    "--out", str(out)])
        assert data["verdict"] == "gadget-not-found"
        replayed = invoke_json(runner, ["replay", "--report", str(out / "report.json")])
        assert replayed["all_reproduced"] is True

    def test_out_of_range_run_settings_are_errors(self, runner):
        # each was accepted: attempts -3 went into the report, -4 samples at
        # edge probability 1.7 certified "all 0 ... samples", order 20 was
        # clamped to 8, and order 0 failed inside randrange
        isolated = ["isolated", "--graph", "Bw", "-k", "3", "--seed", "7"]
        for args, message in (
            (["conn", "--graph", to_graph6(complete_graph(6)), "--epsilon", "3/10", "--seed", "42",
              "--attempts", "-3"], "attempts must be nonnegative"),
            ([*isolated, "--samples", "-4"], "sample count must be nonnegative"),
            ([*isolated, "--edge-prob", "1.7"], "edge probability must lie in [0, 1]"),
            ([*isolated, "--max-n", "20"], "exceeding the size guard of 8"),
            ([*isolated, "--max-n", "0"], "largest sampled order must be at least 1"),
        ):
            result = runner.invoke(main, ["pipeline", *args])
            assert result.exit_code == 1, args
            assert message in result.output, (args, result.output)

    def test_random(self, runner):
        data = invoke_json(
            runner,
            ["pipeline", "random", "-n", "6", "--epsilon", "4/5", "--delta", "1/10",
             "-p", "1/20", "--density", "2", "--seed", "42"],
        )
        assert data["verdict"] == "gadget-not-found"
        assert any("clamped" in note for note in data["notes"])


# The files the README's CLI examples name.
README_FIXTURES = {
    "petersen.g6": to_graph6(petersen_graph()),
    "k5.g6": to_graph6(complete_graph(5)),
    "H.g6": to_graph6(complete_graph(4)),
    "bip.json": json.dumps({"a_size": 4, "b_size": 4, "edges": []}),
    "F.g6": to_graph6(complete_graph(5)),  # fits --part-a "0,1" --part-b "2,3,4" -d 1
    "k6.g6": to_graph6(complete_graph(6)),
    "k3.g6": to_graph6(complete_graph(3)),
}


def test_readme_cli_examples_run(runner, tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("forge ")]
    assert len(lines) == 15
    with runner.isolated_filesystem(temp_dir=tmp_path):
        for name, text in README_FIXTURES.items():
            Path(name).write_text(text + "\n")
        for line in lines:  # in order: the replay reads the conn run's report
            result = runner.invoke(main, shlex.split(line)[1:])
            assert result.exit_code == 0, (line, result.output)


def run_child(*argv: str) -> subprocess.CompletedProcess:
    """A fresh interpreter on argv, importing the package from the source tree."""
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))


def _strip_volatile(obj):
    if isinstance(obj, dict):
        return {k: _strip_volatile(v) for k, v in obj.items() if k not in {"runtime_ms", "output_dir"}}
    if isinstance(obj, list):
        return [_strip_volatile(v) for v in obj]
    return obj


class TestProcess:
    """The CLI as a child process: what it loads, and ``python -m``."""

    def test_commands_load_only_the_modules_they_run(self):
        script = """
import json, sys
import minorforge.cli
loaded = lambda: sorted(m for m in sys.modules if m.startswith("minorforge."))
on_import = loaded()
minorforge.cli.main(["check-minor", "--host", "Bw", "--pattern", "A_"], standalone_mode=False)
print(json.dumps([on_import, loaded()]))
"""
        child = run_child("-c", script)
        assert child.returncode == 0, child.stderr
        on_import, after_check_minor = json.loads(child.stdout.splitlines()[-1])
        assert on_import == ["minorforge.cli", "minorforge.errors", "minorforge.reports"]
        unused = {"pipelines", "constructions", "coloring", "random_models"}
        assert not unused & {name.split(".")[1] for name in after_check_minor}

    def test_python_m_matches_the_in_process_result(self, runner, tmp_path):
        k4, k6 = to_graph6(complete_graph(4)), to_graph6(complete_graph(6))
        conn = ["pipeline", "conn", "--graph", k6, "--epsilon", "3/10", "--seed", "42", "--attempts", "500"]
        commands = [
            (["check-minor", "--host", to_graph6(petersen_graph()), "--pattern", to_graph6(complete_graph(5))],
             None),
            (["check-choosability", "--graph", k4, "--exact-chi-l"], None),
            (["check-property", "q", "--graph", k6, "--delta", "1/2", "-D", "3/2"], None),
            (["bounds", "constants", "--delta", "1/2", "-p", "1/4", "-n", "10"], None),
            (["verify-pasting-bound", "--graph", to_graph6(complete_graph(3)),
              "--part-a", "0", "--part-b", "1,2", "-d", "0"], None),
            ([*conn, "--out", str(tmp_path / "child")], [*conn, "--out", str(tmp_path / "in-process")]),
            (["replay", "--report", str(tmp_path / "child" / "report.json")], None),
        ]
        for argv, in_process_argv in commands:
            child = run_child("-m", "minorforge.cli", *argv)
            assert child.returncode == 0, (argv, child.stderr)
            want = invoke_json(runner, in_process_argv or argv)
            assert _strip_volatile(json.loads(child.stdout)) == _strip_volatile(want), argv
