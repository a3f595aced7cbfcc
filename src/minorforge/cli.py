"""The forge command line: samplers, exact checks, bounds, pastings, and
pipeline runs emitting JSON reports plus CSV summaries.

Each command imports the package modules it runs in its own body, so a
``forge`` process loads (and, without a bytecode cache, compiles) only those.
"""

from __future__ import annotations

import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

import click

from .errors import OPERATION_ERRORS
from .reports import ExperimentConfig, jsonable, load_report_dict, write_run_dir


def _emit(payload) -> None:
    click.echo(json.dumps(jsonable(payload), sort_keys=True, indent=2))


def _vertex_list(text: str) -> list[int]:
    if not text.strip():
        return []
    return [int(part) for part in text.split(",")]


def forge_errors(fn):
    """Convert domain errors into clean nonzero exits."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OPERATION_ERRORS as exc:
            raise click.ClickException(str(exc)) from exc

    return wrapper


@click.group()
def main():
    """Exact desk-scale toolkit for minor-free gadgets and list-coloring bounds."""


# ---------------------------------------------------------------------------
# sampling


@main.group()
def sample():
    """Seeded random graph samplers."""


@sample.command("gnm")
@click.option("-n", type=int, required=True, help="Vertex count")
@click.option("-m", type=int, required=True, help="Edge count")
@click.option("--seed", type=int, required=True, help="Generator seed (mandatory)")
@click.option("--algo", type=click.Choice(["uniform", "sequential"]), default="uniform", show_default=True)
@forge_errors
def sample_gnm_cmd(n, m, seed, algo):
    """Uniform n-vertex graph with exactly m edges."""
    from .graphio import to_graph6
    from .random_models import sample_gnm_sequential, sample_gnm_uniform

    sampler = sample_gnm_sequential if algo == "sequential" else sample_gnm_uniform
    G = sampler(n, m, seed)
    _emit({"graph6": to_graph6(G), "n": G.n, "edges": G.edge_count(), "seed": seed, "algo": algo})


@sample.command("bipartite")
@click.option("-m", type=int, required=True, help="Size of part A")
@click.option("-n", type=int, required=True, help="Size of part B")
@click.option("-p", type=float, required=True, help="Cross-edge probability")
@click.option("--seed", type=int, required=True, help="Generator seed (mandatory)")
@forge_errors
def sample_bipartite_cmd(m, n, p, seed):
    """Bipartite graph with independent cross edges."""
    from .random_models import sample_bipartite

    B = sample_bipartite(m, n, p, seed)
    _emit({
        "a_size": B.a_size,
        "b_size": B.b_size,
        "rows": [sorted(b for b in range(B.b_size) if B.has_edge(a, b)) for a in range(B.a_size)],
        "edges": B.edge_count(),
        "seed": seed,
    })


# ---------------------------------------------------------------------------
# exact checks


@main.command("check-minor")
@click.option("--host", required=True, help="Host graph (graph6, edge list, or path)")
@click.option("--pattern", required=True, help="Pattern graph (graph6, edge list, or path)")
@click.option("--hadwiger", is_flag=True, help="Also report the largest complete minor order")
@forge_errors
def check_minor_cmd(host, pattern, hadwiger):
    """Exact minor containment with a verified branch-set witness."""
    from .graphio import load_graph
    from .minors import contains_minor, hadwiger_number, verify_model

    G, H = load_graph(host), load_graph(pattern)
    model = contains_minor(G, H)
    payload = {"contains": model is not None}
    if model is not None:
        payload["model"] = json.loads(model.to_json())
        payload["model_verified"] = verify_model(G, H, model)
    if hadwiger:
        payload["hadwiger_number"] = hadwiger_number(G)
    _emit(payload)


@main.command("check-choosability")
@click.option("--graph", required=True, help="Graph (graph6, edge list, or path)")
@click.option("--lists", "lists_path", default=None, help="ListAssignment JSON file")
@click.option("-k", type=int, default=None, help="Claimed choosability level to certify against")
@click.option("--exact-chi-l", is_flag=True, help="Compute the exact list chromatic number")
@forge_errors
def check_choosability_cmd(graph, lists_path, k, exact_chi_l):
    """List-colorability of one instance, or the exact list chromatic number."""
    if k is not None and lists_path is None:
        raise click.UsageError("-k certifies a witness and needs --lists")
    from .coloring import ListAssignment, is_l_colorable, list_chromatic_number, verify_choosability_witness
    from .graphio import load_graph

    G = load_graph(graph)
    payload = {}
    if lists_path is not None:
        L = ListAssignment.from_json(Path(lists_path).read_text())
        coloring = is_l_colorable(G, L)
        payload["colorable"] = coloring is not None
        if coloring is not None:
            payload["coloring"] = list(coloring)
        if k is not None:
            payload["witness_certifies_k_plus_1"] = verify_choosability_witness(G, L, k)
            payload["k"] = k
    if exact_chi_l:
        payload["list_chromatic_number"] = list_chromatic_number(G)
    if not payload:
        raise click.UsageError("nothing to do: pass --lists and/or --exact-chi-l")
    _emit(payload)


@main.group("check-property")
def check_property():
    """Exact or falsifying pseudo-random property checks."""


def _emit_property_report(mode: str, seed, check) -> None:
    """Run ``check`` and emit its report; falsify mode needs ``--seed``."""
    if mode == "falsify" and seed is None:
        raise click.UsageError("falsify mode requires --seed")
    report = check()
    _emit({
        "verdict": report.verdict,
        "witness": report.witness,
        "nodes_explored": report.nodes_explored,
        "trials": report.trials,
    })


@check_property.command("q")
@click.option("--graph", required=True, help="Graph to check")
@click.option("--delta", required=True, help="Linear-size fraction (rational, e.g. 1/2)")
@click.option("-D", "-d", "--density", "D", required=True, help="Edge-density constant D > 1")
@click.option("--pairs", type=click.Choice(["minimal", "full"]), default="minimal", show_default=True)
@click.option("--mode", type=click.Choice(["exact", "falsify"]), default="exact", show_default=True)
@click.option("--budget", type=click.IntRange(min=0), default=10000, show_default=True)
@click.option("--seed", type=int, default=None, help="Seed (mandatory for falsify mode)")
@forge_errors
def check_property_q_cmd(graph, delta, D, pairs, mode, budget, seed):
    """Edge spread between all pairs of linear-size disjoint vertex sets."""
    from .graphio import load_graph
    from .random_models import PropertyQParams, check_property_Q

    _emit_property_report(mode, seed, lambda: check_property_Q(
        load_graph(graph), PropertyQParams(Fraction(delta), Fraction(D)), mode,
        pairs=pairs, budget=budget, seed=seed,
    ))


@check_property.command("p")
@click.option("--graph", required=True, help="Pattern graph H")
@click.option("--bipartite", "bip_path", required=True,
              help="Bipartite host as JSON {a_size, b_size, edges: [[a,b],...]} or a path")
@click.option("--delta", required=True, help="Fraction delta (rational)")
@click.option("-s", type=int, required=True, help="Pattern edge threshold")
@click.option("--mode", type=click.Choice(["exact", "falsify"]), default="exact", show_default=True)
@click.option("--k-l-range", type=click.Choice(["full", "minimal"]), default="full", show_default=True)
@click.option("--budget", type=click.IntRange(min=0), default=10000, show_default=True)
@click.option("--node-budget", type=click.IntRange(min=0), default=2_000_000, show_default=True)
@click.option("--seed", type=int, default=None, help="Seed (mandatory for falsify mode)")
@forge_errors
def check_property_p_cmd(graph, bip_path, delta, s, mode, k_l_range, budget, node_budget, seed):
    """Joined-pair property of a bipartite host against a pattern graph."""
    from .graphio import load_graph, read_path_or_text
    from .graphs import BipartiteGraph
    from .random_models import PropertyPParams, check_property_P

    def check():
        H = load_graph(graph)
        spec = json.loads(read_path_or_text(bip_path))
        B = BipartiteGraph.from_edges(spec["a_size"], spec["b_size"],
                                      [tuple(e) for e in spec["edges"]])
        return check_property_P(B, H, PropertyPParams(Fraction(delta), s), mode, k_l_range=k_l_range,
                                node_budget=node_budget, budget=budget, seed=seed)

    _emit_property_report(mode, seed, check)


# ---------------------------------------------------------------------------
# bounds


@main.group()
def bounds():
    """Evaluable probability bounds and constants."""


@bounds.command("chernoff")
@click.option("--mu", required=True, help="Mean of the binomial variable")
@click.option("--delta", required=True, help="Relative deviation in (0, 1]")
@forge_errors
def bounds_chernoff_cmd(mu, delta):
    """Upper and lower tail bounds at relative deviation delta."""
    from .random_models import chernoff_lower, chernoff_upper

    mu_v, delta_v = Fraction(mu), Fraction(delta)
    _emit({
        "upper_tail": chernoff_upper(mu_v, delta_v),
        "lower_tail": chernoff_lower(mu_v, delta_v),
        "bound": chernoff_upper(mu_v, delta_v),
    })


@bounds.command("constants")
@click.option("--delta", required=True, help="Fraction delta (rational)")
@click.option("-p", required=True, help="Edge probability (rational)")
@click.option("-n", type=int, default=None, help="Optional instance size for m and the failure bounds")
@forge_errors
def bounds_constants_cmd(delta, p, n):
    """Derived constants D and C, plus size-dependent bounds when n is given."""
    from .random_models import constant_C, constant_D, m_of, propQ_failure_bound, q_n_bound

    delta_v, p_v = Fraction(delta), Fraction(p)
    D = constant_D(delta_v, p_v)
    C = constant_C(delta_v, p_v)
    payload = {"D": D, "C": C}
    if n is not None:
        m, clamped = m_of(n, C)
        payload.update({
            "m": m,
            "m_clamped": clamped,
            "q_n_bound": q_n_bound(delta_v, p_v, D, n),
            "property_q_failure_bound": propQ_failure_bound(D, n),
        })
    _emit(payload)


# ---------------------------------------------------------------------------
# pasting


@main.command("pasting")
@click.option("--graph", required=True, help="Base graph F")
@click.option("--attach", required=True, help='Attachment vertices, e.g. "0,1"')
@click.option("-K", "-k", "--copies", "copies", type=int, required=True, help="Number of copies")
@forge_errors
def pasting_cmd(graph, attach, copies):
    """Materialize the K-fold pasting of a graph at an attachment set."""
    from .constructions import PastingSpec, k_fold_pasting
    from .graphio import load_graph, to_graph6
    from .graphs import mask_of

    F = load_graph(graph)
    spec = PastingSpec(F, mask_of(_vertex_list(attach)), copies)
    pasted = k_fold_pasting(spec)
    _emit({
        "graph6": to_graph6(pasted),
        "n": pasted.n,
        "edges": pasted.edge_count(),
        "copies": copies,
    })


@main.command("verify-pasting-bound")
@click.option("--graph", required=True, help="Two-clique gadget F")
@click.option("--part-a", required=True, help='Clique A vertices, e.g. "0,1"')
@click.option("--part-b", required=True, help='Clique B vertices, e.g. "2,3,4"')
@click.option("-d", "--slack", "slack", type=int, required=True,
              help="Allowed missing A-neighbors per B-vertex")
@forge_errors
def verify_pasting_bound_cmd(graph, part_a, part_b, slack):
    """Certify the pasting lower bound without materializing the pasting."""
    from .constructions import TwoCliquePartition, check_pasting_lower_bound
    from .graphio import load_graph
    from .graphs import mask_of

    F = load_graph(graph)
    part = TwoCliquePartition(F, mask_of(_vertex_list(part_a)), mask_of(_vertex_list(part_b)), slack)
    check = check_pasting_lower_bound(part)
    _emit({
        "certified": True,
        "bound": check.bound,
        "copies": check.copies,
        "colorings_checked": check.colorings_checked,
    })


# ---------------------------------------------------------------------------
# pipelines


def _run_pipeline(cfg: ExperimentConfig, out) -> None:
    """Run the configured pipeline, write its run directory when ``out`` is
    given, and emit the report."""
    from .pipelines import run_pipeline

    report = run_pipeline(cfg)
    payload = report.to_dict()
    if out is not None:
        write_run_dir(report, out)
        payload["output_dir"] = str(out)
    _emit(payload)


@main.group()
def pipeline():
    """End-to-end desk-scale pipeline runs."""


def _pipeline_config(pipeline: str, config_path, params: dict, **fields) -> ExperimentConfig:
    """The config file's settings, or the ``ExperimentConfig`` defaults, with
    every flag that was given on top; a flag left out is None. The conn and
    random pipelines are randomized, so for them the result must hold a
    seed."""
    cfg = ExperimentConfig.from_file(config_path) if config_path else ExperimentConfig()
    cfg.pipeline = pipeline
    for name, value in fields.items():
        if value is not None:
            setattr(cfg, name, value)
    cfg.params.update({key: value for key, value in params.items() if value is not None})
    if pipeline in ("conn", "random") and cfg.seed is None:
        raise click.UsageError(f"pipeline {pipeline} is randomized and requires --seed")
    return cfg


ATTEMPTS_HELP = f"Gadget sampling attempts [default: {ExperimentConfig.attempts}]"


@pipeline.command("conn")
@click.option("--graph", default=None, help="Graph H (required unless --config provides it)")
@click.option("--epsilon", default=None, help="Rational epsilon in (0, 1)")
@click.option("--seed", type=int, default=None, help="Seed (mandatory unless --config provides it)")
@click.option("--attempts", type=int, default=None, help=ATTEMPTS_HELP)
@click.option("--config", "config_path", default=None, help="Experiment config file (JSON or INI)")
@click.option("--out", default=None, help="Run directory for report.json and summary.csv")
@forge_errors
def pipeline_conn_cmd(graph, epsilon, seed, attempts, config_path, out):
    """Connectivity-driven bound pipeline."""
    cfg = _pipeline_config("conn", config_path, {"epsilon": epsilon},
                           graph=graph, seed=seed, attempts=attempts)
    _run_pipeline(cfg, out or cfg.output_dir)


@pipeline.command("random")
@click.option("-n", type=int, default=None, help="Instance size")
@click.option("--epsilon", default=None, help="Rational epsilon in (0, 2)")
@click.option("--delta", default=None, help="Override the derived delta")
@click.option("-p", default=None, help="Override the edge probability")
@click.option("-D", "--density", "D", default=None, help="Override the constant D")
@click.option("--seed", type=int, default=None, help="Seed (mandatory)")
@click.option("--attempts", type=int, default=None, help=ATTEMPTS_HELP)
@click.option("--config", "config_path", default=None, help="Experiment config file (JSON or INI)")
@click.option("--out", default=None, help="Run directory")
@forge_errors
def pipeline_random_cmd(n, epsilon, delta, p, D, seed, attempts, config_path, out):
    """Sparse pseudo-random bound pipeline."""
    cfg = _pipeline_config("random", config_path,
                           {"n": n, "epsilon": epsilon, "delta": delta, "p": p, "D": D},
                           seed=seed, attempts=attempts)
    _run_pipeline(cfg, out or cfg.output_dir)


@pipeline.command("isolated")
@click.option("--graph", default=None, help="Base graph F")
@click.option("-k", type=int, default=None, help="Number of isolated vertices to add")
@click.option("--config", "config_path", default=None, help="Experiment config file (JSON or INI)")
@click.option("--out", default=None, help="Run directory")
@forge_errors
def pipeline_isolated_cmd(graph, k, config_path, out):
    """Isolated-vertex padding pipeline (deterministic)."""
    cfg = _pipeline_config("isolated", config_path, {"k": k}, graph=graph)
    _run_pipeline(cfg, out or cfg.output_dir)


@pipeline.command("mader")
@click.option("--graph", required=True, help="Graph H")
@click.option("--out", default=None, help="Run directory")
@forge_errors
def pipeline_mader_cmd(graph, out):
    """Average-degree to connected-subgraph search check (deterministic)."""
    _run_pipeline(ExperimentConfig(pipeline="mader", graph=graph), out)


@main.command("replay")
@click.option("--report", "report_path", required=True, help="report.json of a finished run")
@forge_errors
def replay_cmd(report_path):
    """Re-derive every certified line of a saved report."""
    from .pipelines import replay_report

    data = load_report_dict(report_path)
    results = replay_report(data)
    ok = all(r["ok"] for r in results)
    _emit({"all_reproduced": ok, "lines": results})
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
