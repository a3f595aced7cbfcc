"""Self-test of the benchmark itself.

    python3 -m pytest bench/selftest.py -p no:cacheprovider

The file name keeps it out of the repository's default test collection:
it checks the yardstick, not the package.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small(name: str, seed: int, workdir: Path, count: int):
    """The workload with only its first ``count`` operations."""
    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.ops = workload.ops[:count]
    return workload


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name, tmp_path):
    def inputs(seed):
        return [(op.kind, op.input) for op in workloads.WORKLOADS[name](seed, tmp_path).ops]

    first = inputs(3)
    assert inputs(3) == first
    assert inputs(4) != first


def test_benchmark_json_declares_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _, _) in tracing.PER_LAYER.items()
    }
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_layer_map_names_real_metrics_and_workloads():
    notes = (BENCH / "NOTES.md").read_text()
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for name, (_, moves, where) in tracing.PER_LAYER.items():
        assert f"`{name}`" in notes, name
        assert set(moves.split()) <= end_to_end | {"none"}, name
        assert set(where.split()) <= set(workloads.WORKLOADS) | {"all"}, name


def test_printed_metrics_are_the_declared_ones(tmp_path):
    workload = small("choosability", 1, tmp_path, 5)
    metrics, stats = run.end_to_end(workload, 0.01, setup_s=0.5)
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert stats.attempted >= run.MIN_OPS_FOR_P90 and not stats.failures
    assert all(value > 0 for value, _ in metrics.values())

    metrics, stats = run.traced(small("choosability", 1, tmp_path, 5), tmp_path / "trace.jsonl")
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert not stats.failures
    header, *spans = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert json.loads(header)["counters"] and spans


def test_counts_repeat_exactly_for_a_seed(tmp_path):
    def counts():
        metrics, _ = run.traced(small("minor-queries", 2, tmp_path, 12), tmp_path / "trace.jsonl")
        return {k: v for k, (v, unit) in metrics.items() if unit == "count" and not k.startswith("trace.")}

    first = counts()
    assert first["graphs.is_connected_subset.calls"] > 0
    assert counts() == first


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [("outer", 0.0, 10.0, -1, 0), ("inner", 2.0, 5.0, 0, 0), ("inner", 6.0, 7.0, 0, 0)]
    assert tracer.self_times() == {"outer": 6.0, "inner": 4.0}


def test_percentiles_follow_the_order_statistics():
    values = [i / 1000 for i in range(1, 1002)]
    assert run.percentile_ms(values, 50) == pytest.approx(501, abs=0.5)
    assert run.percentile_ms(values, 90) == pytest.approx(901, abs=0.5)
    assert run.percentile_ms([0.002] * 150, 90) == pytest.approx(2)


def test_wrong_or_raising_answers_count_as_failed(tmp_path):
    workload = small("choosability", 1, tmp_path, 4)
    good = workload.ops[0].run
    workload.ops[0].run = lambda: (lambda chi, chi_l, w: (chi, chi_l + 1, w))(*good())
    workload.ops[1].run = lambda: 1 / 0
    stats = run.Stats()
    passes = run.run_passes(workload.ops, 0.01, 1, stats)
    assert len(stats.failures) == 2 * passes
    assert stats.attempted == 4 * passes

    negatives = [op for op in workloads.minor_queries(1, tmp_path).ops if op.kind.startswith("negative")]
    model = workloads.minors.contains_minor(workloads.complete_graph(6), workloads.PATTERNS["K4"])
    assert negatives[0].check(model) is not None


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
