"""Seeded inputs, operations and answer checks of the four workloads.

A workload is one pass: a list of operations. The graph structures of a
pass come from a fixed corpus (the graph atlas, named graphs, or graphs
drawn with the constant CORPUS_SEED); the ``--seed`` of a run relabels
every graph and draws the seeds the pipelines sample with. Relabelling
changes the search and solver orders, so each seed is a different input,
but the mix of structures, and with it the cost of a pass, stays put: two
labellings of one graph differ by 10-30% in cost, two random graphs of one
class by 100% or more.

The runner repeats whole passes, so percentiles of two runs compare like
with like. Each operation is a call into the public API (or one ``forge``
subprocess) plus a check of its answer that runs outside the timed region.
The program only ever receives the generated graphs and parameters.

Input classes are stated as properties (order, density, edge count), never
tuned per seed. Inputs of the same mechanisms left out of the timed loop
because of run length are listed in NOTES.md.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from minorforge import coloring, graphio, graphs, minors, pipelines, reports
from minorforge.graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
)
from minorforge.reports import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
CORPUS_SEED = 0


@dataclass
class Op:
    """One timed call and the check of its answer.

    ``check`` returns None when the answer is right and a reason otherwise.
    ``input`` names the input, for failure messages and the self-test.
    """

    kind: str
    input: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    # The same call made in this process (cli operations only): the traced
    # run times it, because spans cannot be recorded inside a child.
    in_process: Callable[[], object] | None = None


@dataclass
class Workload:
    ops: list[Op]
    known_defect: Callable[[], str | None] | None = None
    min_passes: int = 1
    child_rss_kb: list[int] = field(default_factory=list)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def relabel(rng: random.Random, G: Graph) -> Graph:
    perm = list(range(G.n))
    rng.shuffle(perm)
    return Graph.from_edges(G.n, [(perm[u], perm[v]) for u, v in G.edges()])


def corpus_and_labels(workload: str, seed: int) -> tuple[random.Random, random.Random]:
    return random.Random(f"{workload}-corpus:{CORPUS_SEED}"), random.Random(f"{workload}:{seed}")


def interleaved(rng: random.Random, groups: list[list]) -> list:
    """The groups in a random order, each kept together and in order.

    The machine's speed drifts over seconds; in a shuffled pass a slow
    spell falls on a mix of input classes instead of on one class, which
    would shift the percentiles.
    """
    rng.shuffle(groups)
    return [item for group in groups for item in group]


def _memo(cache: dict, key, compute: Callable[[], object]):
    if key not in cache:
        cache[key] = compute()
    return cache[key]


# ---------------------------------------------------------------------------
# minor-queries: dominated by minors.contains_minor and its graphs primitives

PATTERNS = {
    "K4": complete_graph(4),
    "K5": complete_graph(5),
    "K3,3": complete_bipartite_graph(3, 3),
}
PATTERN_KAPPA = {"K4": 3, "K5": 4, "K3,3": 3}
# Negative queries per (pattern, union order).
NEGATIVES = {
    "K4": {10: 20, 11: 20, 12: 10},
    "K5": {10: 20, 11: 10, 12: 4},
    "K3,3": {10: 16, 11: 8, 12: 2},
}
PART_ORDERS = range(2, 9)             # each glued part has 2..8 vertices
PART_DENSITIES = (0.3, 0.5, 0.7)
MIXED_PER_ORDER = 6                   # per pattern and host order
MIXED_ORDERS = range(8, 11)           # random hosts of order 8..10
MIXED_DENSITIES = (0.25, 0.3, 0.35, 0.4, 0.45)
HADWIGER_PER_ORDER = 2
HADWIGER_ORDERS = range(8, 11)
HADWIGER_DENSITY = 0.5
ORACLE_MAX_ORDER = 10                 # the contraction oracle checks negatives up to here


def grid_graph(rows: int, cols: int) -> Graph:
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph.from_edges(rows * cols, edges)


def prism_graph(n: int) -> Graph:
    edges = [(i, (i + 1) % n) for i in range(n)] + [(n + i, n + (i + 1) % n) for i in range(n)]
    return Graph.from_edges(2 * n, edges + [(i, n + i) for i in range(n)])


def petersen_graph() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, edges + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def wagner_graph() -> Graph:
    return Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)])


# Named hosts, kept in their usual labelling. The planar ones have no K5
# and no K3,3 minor (Wagner's theorem), so their searches are exhaustive
# negatives with a known answer.
PLANAR_NEGATIVES = [
    (grid_graph(3, 4), "K5"), (prism_graph(6), "K5"), (prism_graph(5), "K3,3"),
    (cycle_graph(12), "K3,3"), (grid_graph(3, 3), "K3,3"),
]
NAMED_MIXED = [
    (petersen_graph(), "K6", complete_graph(6)),
    (petersen_graph(), "K5", complete_graph(5)),
    (petersen_graph(), "K3,3", complete_bipartite_graph(3, 3)),
    (wagner_graph(), "K5", complete_graph(5)),
    (wagner_graph(), "K3,3", complete_bipartite_graph(3, 3)),
]


def _minor_free_part(rng: random.Random, pattern: Graph, n: int) -> Graph:
    # Minor-freeness of a part is decided by the independent contraction
    # oracle, so "minor-free by construction" does not lean on the search
    # under test.
    while True:
        G = random_graph(rng, n, rng.choice(PART_DENSITIES))
        if not minors.contains_minor_contraction_oracle(G, pattern):
            return G


def glued_minor_free_union(rng: random.Random, name: str, order: int) -> Graph:
    """Clique sum of two pattern-minor-free graphs of order 2..8, glued on
    a clique smaller than the pattern's connectivity, with the given order.

    Such a sum is pattern-minor-free (the glue-closure lemma), which is the
    expected answer of every negative query.
    """
    pattern = PATTERNS[name]
    while True:
        G1 = _minor_free_part(rng, pattern, rng.choice(PART_ORDERS))
        size = next(s for s in range(min(PATTERN_KAPPA[name] - 1, G1.n), -1, -1)
                    if s == 0 or graphs.find_clique(G1, s) is not None)
        n2 = order - G1.n + size
        if n2 not in PART_ORDERS or n2 < size:
            continue
        G2 = _minor_free_part(rng, pattern, n2)
        c2 = graphs.find_clique(G2, size) if size else 0
        if c2 is None:
            continue
        c1 = graphs.find_clique(G1, size) if size else 0
        ident = dict(zip(graphs.bit_list(c1), graphs.bit_list(c2)))
        return minors.clique_sum(minors.CliqueSumSpec.from_mapping(G1, G2, ident))


def minor_queries(seed: int, workdir: Path) -> Workload:
    corpus, labels = corpus_and_labels("minor-queries", seed)
    oracle: dict = {}
    ops: list[Op] = []

    def query(kind: str, host: Graph, pattern_name: str, pattern: Graph, check) -> None:
        ops.append(Op(kind, f"{graphio.to_graph6(host)} {pattern_name}",
                      lambda: minors.contains_minor(host, pattern), check))

    def negative_check(model) -> str | None:
        return None if model is None else "found a model in a host that has none"

    def mixed_check(host: Graph, pattern: Graph):
        def check(model) -> str | None:
            if model is not None:
                return None if minors.verify_model(host, pattern, model) else "model does not verify"
            found = _memo(oracle, (host, pattern), lambda: minors.contains_minor_contraction_oracle(
                host, pattern, max_host_order=ORACLE_MAX_ORDER))
            return "contraction oracle finds a minor" if found else None

        return check

    for name, per_order in NEGATIVES.items():
        for order, count in per_order.items():
            for _ in range(count):
                host = relabel(labels, glued_minor_free_union(corpus, name, order))
                query(f"negative-{name}", host, name, PATTERNS[name], negative_check)
    for name, pattern in PATTERNS.items():
        for order in MIXED_ORDERS:
            for _ in range(MIXED_PER_ORDER):
                host = relabel(labels, random_graph(corpus, order, corpus.choice(MIXED_DENSITIES)))
                query(f"mixed-{name}", host, name, pattern, mixed_check(host, pattern))
    for host, name in PLANAR_NEGATIVES:
        query(f"planar-{name}", host, name, PATTERNS[name], negative_check)
    for host, name, pattern in NAMED_MIXED:
        query("named", host, name, pattern, mixed_check(host, pattern))

    for order in HADWIGER_ORDERS:
        for _ in range(HADWIGER_PER_ORDER):
            host = relabel(labels, random_graph(corpus, order, HADWIGER_DENSITY))

            def hadwiger_check(t, host=host) -> str | None:
                def oracle_says(k):
                    return _memo(oracle, (host, k), lambda: minors.contains_minor_contraction_oracle(
                        host, complete_graph(k), max_host_order=ORACLE_MAX_ORDER))

                if t >= 1 and not oracle_says(t):
                    return f"contraction oracle finds no complete minor on {t} vertices"
                if t < host.n and oracle_says(t + 1):
                    return f"contraction oracle finds a complete minor on {t + 1} vertices"
                return None

            ops.append(Op("hadwiger", graphio.to_graph6(host), lambda h=host: minors.hadwiger_number(h),
                          hadwiger_check))
    return Workload(interleaved(labels, [[op] for op in ops]))


# ---------------------------------------------------------------------------
# choosability: dominated by the coloring support DFS

# Every graph of order 4..7 up to isomorphism, except the order-7 graphs
# with 14 to 16 edges: five of those take over 1 s each, four of them over
# 25 s (NOTES.md). Every graph of order 4..5 also runs without shortcuts.
ATLAS_ORDERS = range(4, 8)
ORDER7_LEFT_OUT_EDGES = range(14, 17)
NO_SHORTCUT_ORDERS = range(4, 6)
# Complete multipartite graphs, each with list chromatic number 3.
MULTIPARTITE = [((3, 3), False), ((2, 2, 2), False), ((3, 4), True), ((4, 4), True)]


def graph_atlas(orders) -> list[Graph]:
    """Every graph of the given orders (at most 7) up to isomorphism."""
    from networkx.generators.atlas import graph_atlas_g

    return [Graph.from_edges(g.number_of_nodes(), list(g.edges()))
            for g in graph_atlas_g() if g.number_of_nodes() in orders]


def decide_choosability(G: Graph, use_shortcuts: bool):
    """Chromatic number, list chromatic number, and the certificate that the
    list chromatic number is not smaller: an uncolorable assignment with
    lists of size one less."""
    chi = coloring.chromatic_number(G)
    chi_l = coloring.list_chromatic_number(G, use_shortcuts=use_shortcuts)
    witness = (coloring.find_uncolorable_assignment(G, chi_l - 1, use_shortcuts=use_shortcuts)
               if chi_l >= 2 else None)
    return chi, chi_l, witness


def choosability(seed: int, workdir: Path) -> Workload:
    _, labels = corpus_and_labels("choosability", seed)
    shortcut_answers: dict = {}
    ops: list[Op] = []

    def make_check(G: Graph, compare: bool = False, expected_chi_l=None):
        def check(answer) -> str | None:
            chi, chi_l, witness = answer
            if not chi <= chi_l <= graphs.degeneracy(G)[0] + 1:
                return f"chi={chi}, chi_l={chi_l} outside [chi, degeneracy+1]"
            if chi_l >= 2 and (witness is None
                               or not coloring.verify_choosability_witness(G, witness, chi_l - 1)):
                return f"no verified uncolorable assignment at k={chi_l - 1}"
            if expected_chi_l is not None and chi_l != expected_chi_l:
                return f"chi_l={chi_l}, expected {expected_chi_l}"
            if compare:
                other = _memo(shortcut_answers, G, lambda: coloring.list_chromatic_number(G))
                if other != chi_l:
                    return f"use_shortcuts=False gives {chi_l}, shortcuts give {other}"
            return None

        return check

    def add(kind: str, G: Graph, use_shortcuts: bool, **check_args) -> None:
        ops.append(Op(kind, graphio.to_graph6(G), lambda: decide_choosability(G, use_shortcuts),
                      make_check(G, **check_args)))

    atlas = [G for G in graph_atlas(ATLAS_ORDERS)
             if G.n < 7 or G.edge_count() not in ORDER7_LEFT_OUT_EDGES]
    for G in atlas:
        add(f"order-{G.n}", relabel(labels, G), True)
    for G in atlas:
        if G.n in NO_SHORTCUT_ORDERS:
            add("no-shortcuts", relabel(labels, G), False, compare=True)
    for sizes, use_shortcuts in MULTIPARTITE:
        kind = "K" + ",".join(map(str, sizes)) + ("" if use_shortcuts else "-no-shortcuts")
        add(kind, complete_multipartite_graph(*sizes), use_shortcuts, expected_chi_l=3)
    return Workload(interleaved(labels, [[op] for op in ops]))


# ---------------------------------------------------------------------------
# pipelines: dominated by constructions -> coloring.is_l_colorable

# (order of the complete graph H, epsilon, inputs): each input draws its own
# sampler seed. The 0.2-0.5 s inputs (K9 at 1/5, K10) are many, so that the
# 90th percentile falls among them and not on a gap between two lone inputs.
CONN_COMPLETE = [(7, Fraction(1, 4), 1), (8, Fraction(1, 4), 1), (8, Fraction(1, 5), 1), (9, Fraction(1, 4), 1),
                 (9, Fraction(1, 5), 3), (10, Fraction(1, 4), 3), (11, Fraction(1, 4), 1)]
CONN_RANDOM_GRAPHS = 3
CONN_RANDOM_ORDERS = range(8, 10)
CONN_RANDOM_DENSITY = 0.85
CONN_RANDOM_EPSILON = Fraction(1, 4)
RANDOM_ORDERS_PIPELINE = range(6, 11)
# The parameter overrides of the README example: the derived defaults
# overflow (see known_defect).
RANDOM_EPSILON = Fraction(4, 5)
RANDOM_OVERRIDES = {"delta": Fraction(1, 10), "p": Fraction(1, 20), "D": Fraction(2)}
# (order of the complete graph F, k, replayed). Replaying K4 with k=5 or K5
# with k=4 reruns the pipeline twice (1.3-2 s); the smaller ones stay replayed.
ISOLATED = [(3, 3, True), (4, 3, True), (4, 5, False), (5, 4, False)]
MADER_GRAPHS = 6
MADER_ORDERS = range(7, 10)
MADER_DENSITY = 0.5


def known_defect() -> str | None:
    """Run pipeline_random with its derived default parameters.

    When the benchmark was written this raised OverflowError: constant_C
    overflows to inf and Fraction(inf) fails. Returns the exception's name,
    or None once the defect is fixed.
    """
    try:
        pipelines.pipeline_random(8, Fraction(1, 2), None, ExperimentConfig(seed=1))
    except Exception as exc:  # the defect is reported, whatever it raises
        return type(exc).__name__
    return None


def pipeline_ops(label: str, run: Callable[[], object], verdicts: set[str], workdir: Path,
                 replayed: bool = True) -> list[Op]:
    """A run that writes its report into a fresh directory, then (if
    ``replayed``) a replay of the report loaded back from disk."""
    state: dict = {}

    def run_and_write():
        report = run()
        data = report.to_dict()
        out = Path(tempfile.mkdtemp(dir=workdir))
        reports.write_run_dir(report, out)
        state["out"] = out
        return data

    def check_run(data) -> str | None:
        if data["verdict"] not in verdicts:
            return f"verdict {data['verdict']!r} not in {sorted(verdicts)}"
        first = state.setdefault("hash", data["determinism_hash"])
        if first != data["determinism_hash"]:
            return "determinism hash differs from the previous pass"
        return None

    def replay():
        return pipelines.replay_report(reports.load_report_dict(state["out"] / "report.json"))

    def check_replay(lines) -> str | None:
        bad = [line["claim"] for line in lines if not line["ok"]]
        return f"replay lines not ok: {bad}" if bad else None

    kind = label.split(" ")[0]
    ops = [Op(kind, label, run_and_write, check_run)]
    if replayed:
        ops.append(Op(f"replay-{kind}", label, replay, check_replay))
    return ops


def pipelines_workload(seed: int, workdir: Path) -> Workload:
    corpus, labels = corpus_and_labels("pipelines", seed)
    groups: list[list[Op]] = []

    def add(label: str, run: Callable[[], object], verdicts: set[str], replayed: bool = True) -> None:
        groups.append(pipeline_ops(label, run, verdicts, workdir, replayed))

    def cfg() -> ExperimentConfig:
        return ExperimentConfig(seed=labels.randrange(10**6))

    for n, eps, inputs in CONN_COMPLETE:
        for _ in range(inputs):
            c = cfg()
            add(f"conn K{n} eps={eps} seed={c.seed}",
                lambda H=complete_graph(n), e=eps, c=c: pipelines.pipeline_conn(H, e, c), {"completed"})
    for _ in range(CONN_RANDOM_GRAPHS):
        H = relabel(labels, random_graph(corpus, corpus.choice(CONN_RANDOM_ORDERS), CONN_RANDOM_DENSITY))
        c = cfg()
        add(f"conn {graphio.to_graph6(H)} seed={c.seed}",
            lambda H=H, c=c: pipelines.pipeline_conn(H, CONN_RANDOM_EPSILON, c), {"completed", "gadget-not-found"})
    for n in RANDOM_ORDERS_PIPELINE:
        c = cfg()
        add(f"random n={n} seed={c.seed}",
            lambda n=n, c=c: pipelines.pipeline_random(n, RANDOM_EPSILON, RANDOM_OVERRIDES, c),
            {"completed", "gadget-not-found"})
    for order, k, replayed in ISOLATED:
        c = cfg()
        add(f"isolated K{order} k={k} seed={c.seed}",
            lambda F=complete_graph(order), k=k, c=c: pipelines.pipeline_isolated(F, k, c), {"completed"}, replayed)
    for _ in range(MADER_GRAPHS):
        H = relabel(labels, random_graph(corpus, corpus.choice(MADER_ORDERS), MADER_DENSITY))
        add(f"mader {graphio.to_graph6(H)}", lambda H=H: pipelines.mader_step_check(H), {"pass"})
    # Two passes at least, so every input's determinism hash is compared.
    return Workload(interleaved(labels, groups), known_defect=known_defect, min_passes=2)


# ---------------------------------------------------------------------------
# cli: interpreter start-up plus the forge command layer, one child at a time

CLI_MINOR_QUERIES = 12
CLI_MINOR_ORDERS = range(7, 10)
CLI_MINOR_DENSITIES = (0.3, 0.4, 0.5)
CLI_CHOOSABILITY = 8
CLI_CHOOSABILITY_ORDERS = range(4, 7)
CLI_CHOOSABILITY_DENSITIES = (0.35, 0.5, 0.65)
CLI_PROPERTY_Q = 6
CLI_PROPERTY_Q_ORDERS = range(6, 11)
CLI_PROPERTY_P = 4
CLI_PASTING = 4
CLI_BOUNDS = 3
CLI_PIPELINES = 5
CLI_PIPELINE_GRAPH = complete_graph(7)
CLI_PIPELINE_EPSILON = "1/4"
VOLATILE = {"runtime_ms", "output_dir"}


def _strip_volatile(obj):
    if isinstance(obj, dict):
        return {k: _strip_volatile(v) for k, v in obj.items() if k not in VOLATILE}
    if isinstance(obj, list):
        return [_strip_volatile(v) for v in obj]
    return obj


def run_forge_process(argv: list[str], workdir: Path) -> tuple[int, str, str, int]:
    """Run ``python -m minorforge.cli`` on argv: exit code, stdout, stderr,
    and the child's peak resident set in KiB."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    err_path = workdir / "stderr.txt"
    with err_path.open("wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "minorforge.cli", *argv],
                                stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=env)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), err_path.read_text(), usage.ru_maxrss


def run_forge_inprocess(argv: list[str]) -> tuple[int, str, str]:
    """The same command line through click's CliRunner: exit code, stdout, stderr."""
    from click.testing import CliRunner

    from minorforge import cli

    result = CliRunner().invoke(cli.main, argv)
    return result.exit_code, result.stdout, result.stderr


def cli_workload(seed: int, workdir: Path) -> Workload:
    corpus, labels = corpus_and_labels("cli", seed)
    groups: list[list[tuple[str, Callable[[Path], list[str]]]]] = []

    def g6(G: Graph) -> str:
        return graphio.to_graph6(relabel(labels, G))

    def add(kind: str, *argv: str) -> None:
        groups.append([(kind, lambda _out: list(argv))])

    for _ in range(CLI_MINOR_QUERIES):
        name = corpus.choice(sorted(PATTERNS))
        host = random_graph(corpus, corpus.choice(CLI_MINOR_ORDERS), corpus.choice(CLI_MINOR_DENSITIES))
        add("check-minor", "check-minor", "--host", g6(host), "--pattern", graphio.to_graph6(PATTERNS[name]))
    for _ in range(CLI_CHOOSABILITY):
        G = random_graph(corpus, corpus.choice(CLI_CHOOSABILITY_ORDERS), corpus.choice(CLI_CHOOSABILITY_DENSITIES))
        add("check-choosability", "check-choosability", "--graph", g6(G), "--exact-chi-l")
    for _ in range(CLI_PROPERTY_Q):
        G = random_graph(corpus, corpus.choice(CLI_PROPERTY_Q_ORDERS), 0.6)
        add("check-property-q", "check-property", "q", "--graph", g6(G), "--delta", "1/2", "-D", "3/2")
    for _ in range(CLI_PROPERTY_P):
        H = random_graph(corpus, 4, 0.6)
        edges = [[a, b] for a in range(4) for b in range(4) if corpus.random() < 0.5]
        bipartite = json.dumps({"a_size": 4, "b_size": 4, "edges": edges})
        add("check-property-p", "check-property", "p", "--graph", g6(H), "--bipartite", bipartite,
            "--delta", "1/2", "-s", "1")
    for _ in range(CLI_PASTING):
        report = pipelines.pipeline_conn(CLI_PIPELINE_GRAPH, Fraction(CLI_PIPELINE_EPSILON),
                                         ExperimentConfig(seed=labels.randrange(10**6)))
        args = next(c["replay"]["args"] for c in report.certified if c["replay"]["op"] == "pasting_bound_certified")
        add("verify-pasting-bound", "verify-pasting-bound", "--graph", args["graph"],
            "--part-a", ",".join(map(str, args["a"])), "--part-b", ",".join(map(str, args["b"])),
            "-d", str(args["slack"]))
    for _ in range(CLI_BOUNDS):
        add("bounds-chernoff", "bounds", "chernoff", "--mu", str(labels.randint(5, 60)),
            "--delta", f"1/{labels.randint(1, 4)}")
        add("bounds-constants", "bounds", "constants", "--delta", f"1/{labels.randint(2, 3)}",
            "-p", f"1/{labels.randint(2, 5)}", "-n", str(labels.randint(6, 12)))
    k7 = graphio.to_graph6(CLI_PIPELINE_GRAPH)
    for _ in range(CLI_PIPELINES):
        state: dict = {}

        def conn_argv(out: Path, state=state, seed=str(labels.randrange(10**6))) -> list[str]:
            state["report"] = out / "report.json"
            return ["pipeline", "conn", "--graph", k7, "--epsilon", CLI_PIPELINE_EPSILON,
                    "--seed", seed, "--out", str(out)]

        groups.append([("pipeline-conn", conn_argv),
                       ("replay", lambda _out, state=state: ["replay", "--report", str(state["report"])])])
    return cli_ops(interleaved(labels, groups), workdir)


def cli_ops(commands: list[tuple[str, Callable[[Path], list[str]]]], workdir: Path) -> Workload:
    """Subprocess operations whose JSON must equal the in-process result of
    the same command line.

    ``argv(out)`` builds a command line with ``out`` as a fresh output
    directory. A replay reads the report of the latest ``pipeline conn``
    call of its input; every such call writes the same report.
    """
    expected: dict = {}
    workload = Workload([])

    for index, (kind, argv) in enumerate(commands):
        def fresh(argv=argv) -> list[str]:
            return argv(Path(tempfile.mkdtemp(dir=workdir)))

        def run(fresh=fresh):
            code, out, err, rss = run_forge_process(fresh(), workdir)
            workload.child_rss_kb.append(rss)
            return code, out, err

        def check(answer, fresh=fresh, index=index) -> str | None:
            code, out, err = answer
            if code != 0:
                return f"exit code {code}: {err.strip()[-300:]}"
            want_code, want, want_err = _memo(expected, index, lambda: run_forge_inprocess(fresh()))
            if want_code != 0:
                return f"in-process exit code {want_code}: {want_err.strip()[-300:]}"
            if _strip_volatile(json.loads(out)) != _strip_volatile(json.loads(want)):
                return "output differs from the in-process result"
            return None

        label = " ".join(argv(Path("OUT")))
        workload.ops.append(Op(kind, label, run, check, lambda fresh=fresh: run_forge_inprocess(fresh())))
    return workload


WORKLOADS: dict[str, Callable[[int, Path], Workload]] = {
    "minor-queries": minor_queries,
    "choosability": choosability,
    "pipelines": pipelines_workload,
    "cli": cli_workload,
}
