"""minorforge benchmark: one workload, closed loop, answers checked.

    python3 bench/run.py --workload minor-queries --seed 1 --seconds 20 --trace 0

Load model: one client in one process, no threads. The next operation
starts only after the previous one has returned and its answer has been
checked; the ``cli`` workload runs one child process at a time. The
runner repeats whole passes over the workload's operations until about
``--seconds`` of timed work is done.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` a traced run gives the per-layer
metrics instead. Lines before it are a human-readable summary.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
MIN_OPS_FOR_P90 = 100


class Stats:
    """Outcome of timed operations: latencies of the right answers, and
    every failure with its reason."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[tuple[str, str]] = []
        self.timed_s = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies) + len(self.failures)


def run_op(op, stats: Stats, tracer=None, op_id: int = 0, call=None) -> float:
    """Time one call, then check its answer outside the timed region."""
    call = call or op.run
    if tracer is not None:
        tracer.op_id = op_id
        tracer.enabled = True
    start = time.perf_counter()
    try:
        result = call()
        error = None
    except Exception as exc:  # a raising operation is a failed operation
        error = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.enabled = False
    if error is None:
        try:
            error = op.check(result)
        except Exception as exc:  # a check that cannot run counts against the answer
            error = f"check raised {type(exc).__name__}: {exc}"
    stats.timed_s += elapsed
    if error is None:
        stats.latencies.append(elapsed)
    else:
        stats.failures.append((f"{op.kind} {op.input}", error))
    return elapsed


def run_passes(ops, seconds: float, min_passes: int, stats: Stats) -> int:
    """Whole passes: at least ``min_passes`` and MIN_OPS_FOR_P90 operations,
    and as many as the first pass's time says fit into ``seconds``."""
    passes = 0
    planned = min_passes
    while passes < planned:
        pass_s = sum(run_op(op, stats) for op in ops)
        passes += 1
        if passes == 1 and pass_s > 0:
            planned = max(min_passes, round(seconds / pass_s), math.ceil(MIN_OPS_FOR_P90 / len(ops)))
    return passes


def percentile_ms(values: list[float], q: int) -> float:
    """Harrell-Davis estimate of the q-th percentile, in ms.

    It weights every order statistic by a Beta(p(n+1), (1-p)(n+1)) window
    around rank p*n, so the estimate does not hang on the one or two
    operations that happen to sit at that rank. Where the costs near the
    90th percentile are sparse, this halves its run-to-run spread.
    """
    import numpy as np
    from scipy.special import betainc

    ordered = np.sort(np.asarray(values))
    n = len(ordered)
    p = q / 100
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ ordered) * 1000


def median_child_wall(argv: list[str], env: dict | None = None) -> float:
    """Median wall time of SETUP_REPEATS fresh interpreters running argv."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, *argv], check=True, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure_setup(workload: str, seed: int) -> float:
    """Fresh interpreters that import minorforge and generate the workload's inputs."""
    return median_child_wall([str(BENCH / "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)])


def measure_cli_startup() -> float:
    """Fresh interpreters that run a bare ``import minorforge.cli``."""
    return median_child_wall(["-c", "import minorforge.cli"], dict(os.environ, PYTHONPATH=str(ROOT / "src")))


def peak_rss_mb(workload) -> float:
    if workload.child_rss_kb:  # cli: the largest forge child
        return max(workload.child_rss_kb) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def report_failures(stats: Stats) -> None:
    for kind, reason in stats.failures[:20]:
        print(f"FAILED {kind}: {reason}", file=sys.stderr)


END_TO_END_UNITS = {"ops_per_s": "op/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def end_to_end(workload, seconds: float, setup_s: float) -> tuple[dict, Stats]:
    """Untraced closed loop; the end-to-end metrics."""
    stats = Stats()
    passes = run_passes(workload.ops, seconds, workload.min_passes, stats)
    rss_mb = peak_rss_mb(workload)  # before the percentiles import numpy and scipy
    values = {
        "ops_per_s": len(stats.latencies) / stats.timed_s,
        "op_p50_ms": percentile_ms(stats.latencies, 50),
        "op_p90_ms": percentile_ms(stats.latencies, 90),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    print(f"{passes} passes of {len(workload.ops)} operations: {stats.attempted} attempted, "
          f"{len(stats.failures)} failed (failed_frac {len(stats.failures) / stats.attempted:.4f}), "
          f"{len(stats.latencies)} timed in {stats.timed_s:.2f} s")
    if workload.known_defect is not None:
        defect = workload.known_defect()
        print("known defect, pipeline_random with derived default parameters: "
              f"{'raises ' + defect if defect else 'fixed'} (run once, outside the timed loop)")
    return {key: (value, END_TO_END_UNITS[key]) for key, value in values.items()}, stats


def traced(workload, trace_path: Path) -> tuple[dict, Stats]:
    """One untraced pass, then the same pass traced: the per-layer metrics,
    and the tracing overhead as the traced pass's time over the untraced
    one's. For subprocess operations both passes call the same command
    line in this process, after one pass of child processes."""
    from tracing import PER_LAYER, Tracer

    ops = workload.ops
    stats = Stats()
    extra = {}
    calls = [op.run for op in ops]
    if all(op.in_process for op in ops):
        extra["cli.process_s"] = statistics.median(run_op(op, stats) for op in ops)
        extra["cli.startup_s"] = measure_cli_startup()
        calls = [op.in_process for op in ops]
    untraced_s = [run_op(op, stats, call=call) for op, call in zip(ops, calls)]
    if "cli.process_s" in extra:
        extra["cli.inprocess_s"] = statistics.median(untraced_s)
    tracer = Tracer()
    tracer.install()
    try:
        traced_s = [run_op(op, stats, tracer, i, call) for i, (op, call) in enumerate(zip(ops, calls))]
    finally:
        tracer.uninstall()
    tracer.write(trace_path)

    metrics = {"cli.process_s": 0.0, "cli.inprocess_s": 0.0, "cli.startup_s": 0.0}
    metrics.update(tracer.layer_metrics())
    metrics.update(extra)
    defect = workload.known_defect() if workload.known_defect is not None else None
    metrics["pipelines.random.default_params_failed"] = int(defect is not None)
    metrics["trace.ops"] = len(ops)
    metrics["trace.wall_s"] = sum(traced_s)
    metrics["trace.untraced_wall_s"] = sum(untraced_s)
    metrics["trace.overhead_frac"] = sum(traced_s) / sum(untraced_s) - 1
    print(f"traced pass of {len(ops)} operations: {len(tracer.spans)} spans written to {trace_path}; "
          f"{stats.attempted} attempted, {len(stats.failures)} failed")
    return {key: (metrics[key], unit) for key, (unit, _, _) in PER_LAYER.items()}, stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "minorforge" / "__init__.py").is_file():
        print(f"minorforge sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.setup_only:
            workloads.WORKLOADS[args.workload](args.seed, workdir)
            return 0
        setup_s = 0.0 if args.trace else measure_setup(args.workload, args.seed)
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        print(f"workload {args.workload}, seed {args.seed}")
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            metrics, stats = traced(workload, trace_path)
        else:
            metrics, stats = end_to_end(workload, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report_failures(stats)
    for key, (value, unit) in metrics.items():
        print(f"  {key:48s} {value:14.6g} {unit}")
    result = {
        "correct": not stats.failures,
        "attempted": stats.attempted,
        "failed": len(stats.failures),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
