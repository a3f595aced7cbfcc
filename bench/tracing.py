"""Spans and counters recorded around calls into the minorforge layers.

The tracer wraps public functions from outside the program: for every
wrapped function it replaces the name in each ``minorforge`` module that
holds it, so ``minorforge.minors.is_connected_subset`` is wrapped as well
as ``minorforge.graphs.is_connected_subset``. A span is one timed call into
a layer: (name, start, end, parent span, operation id). Spans stay in memory
and are written out once, when the run ends. The hottest ``graphs``
primitives get counters instead of spans, because a timed span per call
would cost more than the call itself.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute) pairs that get a timed span per call. A dotted
# attribute is a method, patched on its class.
SPANNED = [
    ("graphio", "to_graph6"),
    ("graphio", "parse_graph6"),
    ("graphio", "parse_edge_list"),
    ("graphio", "load_graph_text"),
    ("coloring", "is_l_colorable"),
    ("coloring", "find_uncolorable_assignment"),
    ("coloring", "list_chromatic_number"),
    ("coloring", "chromatic_number"),
    ("coloring", "verify_choosability_witness"),
    ("minors", "contains_minor"),
    ("minors", "hadwiger_number"),
    ("minors", "verify_model"),
    ("minors", "contains_minor_contraction_oracle"),
    ("random_models", "sample_bipartite"),
    ("random_models", "sample_gnm_uniform"),
    ("random_models", "sample_gnm_sequential"),
    ("random_models", "check_property_Q"),
    ("random_models", "check_property_P"),
    ("random_models", "constant_C"),
    ("random_models", "constant_D"),
    ("random_models", "m_of"),
    ("constructions", "check_pasting_lower_bound"),
    ("constructions", "build_thm_conn_gadget"),
    ("constructions", "build_thm_random_gadget"),
    ("constructions", "k_fold_pasting"),
    ("pipelines", "pipeline_conn"),
    ("pipelines", "pipeline_random"),
    ("pipelines", "pipeline_isolated"),
    ("pipelines", "mader_step_check"),
    ("pipelines", "replay_report"),
    ("reports", "RunReport.to_dict"),
    ("reports", "write_run_dir"),
    ("reports", "load_report_dict"),
]

# Per-layer metrics: name -> (unit, end-to-end metric it should move,
# workloads where the move should show). The same table is recorded in
# NOTES.md; the self-test checks it against BENCHMARK.json.
PER_LAYER = {
    "minors.contains_minor.calls": ("count", "op_p90_ms ops_per_s", "minor-queries pipelines"),
    "minors.contains_minor.self_s": ("s", "op_p90_ms ops_per_s", "minor-queries pipelines"),
    "minors.contains_minor.found_frac": ("ratio", "op_p90_ms ops_per_s", "minor-queries pipelines"),
    "graphs.is_connected_subset.calls": ("count", "op_p90_ms", "minor-queries"),
    "minors.connected_candidate_frac": ("ratio", "op_p90_ms", "minor-queries"),
    "coloring.find_uncolorable_assignment.calls": ("count", "op_p90_ms ops_per_s", "choosability"),
    "coloring.find_uncolorable_assignment.self_s": ("s", "op_p90_ms ops_per_s", "choosability"),
    "coloring.chromatic_number.calls": ("count", "op_p90_ms ops_per_s", "choosability"),
    "graphs.induced_subgraph.calls": ("count", "op_p90_ms ops_per_s", "choosability"),
    "coloring.is_l_colorable.calls": ("count", "op_p90_ms", "pipelines choosability"),
    "coloring.is_l_colorable.self_s": ("s", "op_p90_ms", "pipelines choosability"),
    "constructions.check_pasting_lower_bound.calls": ("count", "op_p90_ms ops_per_s", "pipelines"),
    "constructions.check_pasting_lower_bound.self_s": ("s", "op_p90_ms ops_per_s", "pipelines"),
    "constructions.colorings_checked": ("count", "op_p90_ms ops_per_s", "pipelines"),
    "constructions.colorings_per_check": ("count/call", "op_p90_ms ops_per_s", "pipelines"),
    "constructions.gadget.attempts": ("count", "op_p50_ms", "pipelines"),
    "constructions.gadget.accept_frac": ("ratio", "op_p50_ms", "pipelines"),
    "random_models.check_property_Q.calls": ("count", "op_p50_ms", "pipelines"),
    "random_models.check_property_Q.nodes_explored": ("count", "op_p50_ms", "pipelines"),
    "random_models.self_s": ("s", "op_p50_ms", "pipelines"),
    "random_models.sample_bipartite.calls": ("count", "op_p50_ms", "pipelines"),
    "pipelines.conn.self_s": ("s", "op_p50_ms", "pipelines cli"),
    "pipelines.random.self_s": ("s", "op_p50_ms", "pipelines cli"),
    "pipelines.isolated.self_s": ("s", "op_p50_ms", "pipelines cli"),
    "pipelines.mader.self_s": ("s", "op_p50_ms", "pipelines cli"),
    "pipelines.replay_report.self_s": ("s", "op_p50_ms", "pipelines cli"),
    "pipelines.replay.lines": ("count", "op_p50_ms", "pipelines cli"),
    "pipelines.random.default_params_failed": ("count", "none", "pipelines"),
    "reports.to_dict.self_s": ("s", "op_p50_ms", "pipelines cli"),
    "reports.write_run_dir.self_s": ("s", "op_p50_ms", "pipelines cli"),
    "reports.bytes_written": ("B", "op_p50_ms", "pipelines cli"),
    "graphio.to_graph6.calls": ("count", "op_p50_ms", "pipelines cli"),
    "graphio.parse_graph6.calls": ("count", "op_p50_ms", "pipelines cli"),
    "graphio.self_s": ("s", "op_p50_ms", "pipelines cli"),
    "cli.process_s": ("s", "op_p50_ms", "cli"),
    "cli.inprocess_s": ("s", "op_p50_ms", "cli"),
    "cli.startup_s": ("s", "setup_s op_p50_ms", "cli"),
    "trace.ops": ("count", "none", "all"),
    "trace.wall_s": ("s", "none", "all"),
    "trace.untraced_wall_s": ("s", "none", "all"),
    "trace.overhead_frac": ("ratio", "none", "all"),
}

# Span name behind each self-time metric that names a single function.
SELF_TIME_SPANS = {
    "minors.contains_minor.self_s": "minors.contains_minor",
    "coloring.find_uncolorable_assignment.self_s": "coloring.find_uncolorable_assignment",
    "coloring.is_l_colorable.self_s": "coloring.is_l_colorable",
    "constructions.check_pasting_lower_bound.self_s": "constructions.check_pasting_lower_bound",
    "pipelines.conn.self_s": "pipelines.pipeline_conn",
    "pipelines.random.self_s": "pipelines.pipeline_random",
    "pipelines.isolated.self_s": "pipelines.pipeline_isolated",
    "pipelines.mader.self_s": "pipelines.mader_step_check",
    "pipelines.replay_report.self_s": "pipelines.replay_report",
    "reports.to_dict.self_s": "reports.to_dict",
    "reports.write_run_dir.self_s": "reports.write_run_dir",
}


def _span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Records spans and counters while ``enabled`` is true.

    The wrappers stay installed between operations; the runner turns
    recording on only around the timed call, so answer checks that call
    the program leave no spans.
    """

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counters: Counter = Counter()
        self.enabled = False
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        for module in {m for m, _ in SPANNED} | {"graphs", "cli"}:
            importlib.import_module(f"minorforge.{module}")
        for module, attr in SPANNED:
            self._patch(module, attr, self._spanned(_span_name(module, attr)))
        self._patch("graphs", "is_connected_subset", self._connected_counter)
        self._patch("graphs", "induced_subgraph", self._plain_counter("graphs.induced_subgraph.calls"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, module: str, attr: str, make_wrapper) -> None:
        owner = sys.modules[f"minorforge.{module}"]
        if "." in attr:
            cls_name, attr = attr.split(".")
            cls = getattr(owner, cls_name)
            original = getattr(cls, attr)
            self._restore.append((cls, attr, original))
            setattr(cls, attr, make_wrapper(original, f"minorforge.{module}"))
            return
        original = getattr(owner, attr)
        for name, mod in list(sys.modules.items()):
            if name.startswith("minorforge") and getattr(mod, attr, None) is original:
                self._restore.append((mod, attr, original))
                setattr(mod, attr, make_wrapper(original, name))

    # -- wrappers -----------------------------------------------------

    def _spanned(self, span: str):
        on_result = _RESULT_COUNTERS.get(span)

        def make(fn, _caller):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                sid = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                self.spans.append(None)
                self._stack.append(sid)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    self._stack.pop()
                    self.spans[sid] = (span, start, end, parent, self.op_id)
                self.counters[span + ".calls"] += 1
                if on_result is not None:
                    on_result(self.counters, result)
                return result

            return wrapper

        return make

    def _plain_counter(self, key: str):
        def make(fn, _caller):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self.enabled:
                    self.counters[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def _connected_counter(self, fn, caller):
        # Candidates tested by the minor search are counted apart, so the
        # share of connected candidates is measured where the search runs.
        from_minors = caller == "minorforge.minors"

        @functools.wraps(fn)
        def wrapper(G, S):
            result = fn(G, S)
            if self.enabled:
                self.counters["graphs.is_connected_subset.calls"] += 1
                if from_minors:
                    self.counters["minors.candidates_tested"] += 1
                    self.counters["minors.candidates_connected"] += result
            return result

        return wrapper

    # -- results ------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus time covered by children."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            name, start, end, parent, _ = span
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child_time[sid]
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({"counters": dict(sorted(self.counters.items()))}) + "\n")
            for sid, (name, start, end, parent, op_id) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, start, end, parent, op_id]) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric that spans and counters can give.

        The runner fills in the ``cli.*`` and ``trace.*`` metrics and
        ``pipelines.random.default_params_failed``.
        """
        c = self.counters
        self_s = self.self_times()
        out: dict[str, float] = {}
        for metric, span in SELF_TIME_SPANS.items():
            out[metric] = self_s.get(span, 0.0)
        for layer in ("random_models", "graphio"):
            out[f"{layer}.self_s"] = sum(t for n, t in self_s.items() if n.startswith(layer + "."))
        for metric, (unit, _, _) in PER_LAYER.items():
            if unit in ("count", "B"):
                out[metric] = c[metric]
        out["minors.contains_minor.found_frac"] = _ratio(c["minors.found"], c["minors.contains_minor.calls"])
        out["minors.connected_candidate_frac"] = _ratio(
            c["minors.candidates_connected"], c["minors.candidates_tested"]
        )
        out["constructions.colorings_per_check"] = _ratio(
            c["constructions.colorings_checked"], c["constructions.check_pasting_lower_bound.calls"]
        )
        out["constructions.gadget.accept_frac"] = _ratio(
            c["constructions.gadgets_found"], c["constructions.gadget.attempts"]
        )
        return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _count_found(counters: Counter, model) -> None:
    counters["minors.found"] += model is not None


def _count_colorings(counters: Counter, check) -> None:
    counters["constructions.colorings_checked"] += check.colorings_checked


def _count_gadget(counters: Counter, result) -> None:
    counters["constructions.gadget.attempts"] += result.attempts_used
    counters["constructions.gadgets_found"] += result.found


def _count_nodes(counters: Counter, report) -> None:
    counters["random_models.check_property_Q.nodes_explored"] += report.nodes_explored


def _count_replay(counters: Counter, results) -> None:
    counters["pipelines.replay.lines"] += len(results)


def _count_bytes(counters: Counter, out_dir) -> None:
    counters["reports.bytes_written"] += sum(p.stat().st_size for p in Path(out_dir).iterdir())


_RESULT_COUNTERS = {
    "minors.contains_minor": _count_found,
    "constructions.check_pasting_lower_bound": _count_colorings,
    "constructions.build_thm_conn_gadget": _count_gadget,
    "constructions.build_thm_random_gadget": _count_gadget,
    "random_models.check_property_Q": _count_nodes,
    "pipelines.replay_report": _count_replay,
    "reports.write_run_dir": _count_bytes,
}
