"""Desk-scale end-to-end reenactments of the three lower-bound pipelines,
the Mader connectivity-search check, and certified-line replay.

Every certified line in a report pairs a claim with a replay spec; the
registry at the bottom re-derives claims from their stored inputs.
"""

from __future__ import annotations

import functools
import math
import time
from fractions import Fraction
from itertools import combinations

from .coloring import LIST_CHROMATIC_MAX_ORDER, list_chromatic_number
from .constructions import (
    PastingSpec,
    TwoCliquePartition,
    build_thm_conn_gadget,
    build_thm_random_gadget,
    check_pasting_lower_bound,
    k_fold_pasting,
)
from .errors import OPERATION_ERRORS, check_size, guard_limit
from .graphs import (
    Graph,
    add_isolated_vertices,
    complement,
    complete_graph,
    degeneracy,
    induced_subgraph,
    is_clique,
    mask_of,
    vertex_connectivity,
)
from .graphio import load_graph, parse_graph6, to_graph6
from .minors import contains_minor, find_induced_pattern_minor
from .random_models import PropertyQParams, check_property_Q, constant_D, m_of, sample_gnm_uniform
from .reports import ExperimentConfig, RunReport, jsonable

PIPELINE_CONN_MAX_ORDER = 12
PIPELINE_RANDOM_MAX_ORDER = 10
PIPELINE_ISOLATED_MAX_ORDER = 9
ISOLATED_SWEEP_MAX_ORDER = 8
MADER_MAX_ORDER = 9
PASTING_CLOSURE_COPIES = 2


def _timed(pipeline):
    """Record the wall time of the whole run as the report's ``runtime_ms``."""

    @functools.wraps(pipeline)
    def run(*args, **kwargs) -> RunReport:
        start = time.perf_counter()
        report = pipeline(*args, **kwargs)
        report.runtime_ms = (time.perf_counter() - start) * 1000
        return report

    return run


def _require_seed(seed) -> int:
    if seed is None:
        raise ValueError("randomized pipelines require a seed")
    return int(seed)


def _gadget_found(report: RunReport, result) -> bool:
    """Record the gadget step; a gadget not found ends the run with that verdict."""
    detail = {"attempts": result.attempts_used, "rejections": result.attempts_used - result.found}
    if result.infeasible:
        detail["infeasible"] = result.infeasible
    report.add_step("gadget", "found" if result.found else "not-found", detail)
    if not result.found:
        report.verdict = "gadget-not-found"
        reason = result.infeasible or "rejection sampling exhausted its attempt budget"
        report.notes.append(f"{reason}; outcome reported, not raised")
    return result.found


def _certify_pasting_bound(report: RunReport, part: TwoCliquePartition, g6F: str) -> None:
    """Record the pasting-bound step and certify the bound it proves."""
    bound_check = check_pasting_lower_bound(part)
    report.add_step(
        "pasting-bound",
        "certified",
        {"bound": bound_check.bound, "copies": bound_check.copies,
         "colorings_checked": bound_check.colorings_checked},
    )
    report.certified_bound = bound_check.bound
    report.certify(
        f"the {bound_check.copies}-fold pasting at A needs at least {bound_check.bound} colors "
        "in some list assignment",
        "pasting_bound_certified",
        {"graph": g6F, "a": part.a_vertices(), "b": part.b_vertices(), "slack": part.slack},
        True,
        exhaustive=True,
    )


def _certify_complete_list_chromatic(report: RunReport, m: int) -> None:
    """Certify that the complete graph on m vertices has list chromatic number m.

    chi(K_m) = m colours are needed even from equal lists, and greedy
    colouring along a degeneracy order succeeds from any lists of
    degeneracy + 1 = m colours, so chi_l(K_m) = m without a search. Up to
    the exact solver's guard the line is replayed by exhaustive search.
    Above it the replay checks the premises of that sandwich instead: the
    stored graph is complete on m vertices, so chi = m and its degeneracy
    is m - 1.
    """
    args = {"graph": to_graph6(complete_graph(m))}
    claim = f"list chromatic number of the complete graph on {m} vertices is {m}"
    if m > guard_limit(LIST_CHROMATIC_MAX_ORDER):
        claim += f", by chi = {m} <= chi_l <= degeneracy + 1 = {m}"
        report.certify(claim, "complete_list_chromatic_sandwich", args, m, exhaustive=True)
    else:
        report.certify(claim, "list_chromatic_number", args, m, exhaustive=True)


@_timed
def pipeline_conn(H: Graph, epsilon: Fraction, cfg: ExperimentConfig | None = None) -> RunReport:
    """Connectivity-driven lower-bound pipeline on one graph instance.

    Computes the connectivity, takes the trivial branch when it is below
    epsilon*n, and otherwise builds the two-clique gadget, re-verifies its
    three defining properties exactly, and certifies the pasting bound.
    The asymptotic target (1-epsilon)(v+kappa) is reported alongside
    but never certified.
    """
    cfg = cfg or ExperimentConfig()
    epsilon = Fraction(epsilon)
    check_size(H.n, PIPELINE_CONN_MAX_ORDER, "graph order for pipeline_conn")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    n = H.n
    report = RunReport(
        pipeline="conn",
        params={"epsilon": epsilon, "graph": to_graph6(H)},
        seed=cfg.seed,
        n=n,
    )
    kappa = vertex_connectivity(H)
    report.add_step("connectivity", "computed", {"kappa": kappa})
    report.certify(
        f"vertex connectivity is {kappa}",
        "vertex_connectivity",
        {"graph": to_graph6(H)},
        kappa,
        exhaustive=True,
    )
    target = float((1 - epsilon) * (n + kappa))
    report.target_bound = target
    report.notes.append("asymptotic target (not certified); certified lines hold at this instance")

    if Fraction(kappa) < epsilon * n:
        report.add_step(
            "trivial-branch",
            "taken",
            {"reason": "kappa below epsilon*n", "bound": n - 1},
        )
        report.certified_bound = n - 1
        report.certify(
            f"the complete graph on {n - 1} vertices has no minor of the input",
            "minor_free",
            {"host": to_graph6(complete_graph(n - 1)), "pattern": to_graph6(H)},
            True,
            exhaustive=True,
        )
        _certify_complete_list_chromatic(report, n - 1)
        return report

    if epsilon >= Fraction(1, 2):
        raise ValueError(
            "epsilon must be below 1/2 when the connectivity branch applies"
        )
    seed = _require_seed(cfg.seed)
    result = build_thm_conn_gadget(H, epsilon, seed, cfg.attempts, kappa=kappa)
    if not _gadget_found(report, result):
        return report
    F, part = result.graph, result.partition
    g6F = to_graph6(F)
    a_count, b_count = part.a_mask.bit_count(), part.b_mask.bit_count()
    expect_a = math.floor((1 - 2 * epsilon) * kappa)
    expect_b = math.floor((1 - 2 * epsilon) * n)
    report.add_step(
        "gadget-shape",
        "verified" if (a_count, b_count) == (expect_a, expect_b) else "mismatch",
        {"a": a_count, "b": b_count, "slack": part.slack},
    )
    report.certify(
        f"gadget part A of size {a_count} induces a clique",
        "is_clique",
        {"graph": g6F, "vertices": part.a_vertices()},
        True,
        exhaustive=True,
    )
    report.certify(
        f"gadget part B of size {b_count} induces a clique",
        "is_clique",
        {"graph": g6F, "vertices": part.b_vertices()},
        True,
        exhaustive=True,
    )
    nonnb_bound = math.floor(epsilon * n)
    report.certify(
        f"every B-vertex has at most {nonnb_bound} non-neighbors in the gadget",
        "b_nonneighbors_at_most",
        {"graph": g6F, "b": part.b_vertices(), "bound": nonnb_bound},
        True,
        exhaustive=True,
    )
    report.certify(
        "the gadget has no minor of the input graph",
        "minor_free",
        {"host": g6F, "pattern": to_graph6(H)},
        True,
        exhaustive=True,
    )
    glue_ok = a_count < kappa
    report.add_step(
        "glue-precondition",
        "holds" if glue_ok else "violated",
        {"attachment_clique": a_count, "kappa": kappa},
    )
    _certify_pasting_bound(report, part, g6F)
    return report


def _delta_from_epsilon(epsilon: Fraction) -> Fraction:
    """Largest multiple of 1/100 with 7*delta < epsilon."""
    k = math.ceil(100 * epsilon / 7) - 1  # largest integer k < 100*epsilon/7
    if k < 1:
        raise ValueError("epsilon is too small for the 1/100 grid of delta values")
    return Fraction(k, 100)


@_timed
def pipeline_random(
    n: int, epsilon: Fraction, overrides: dict | None = None, cfg: ExperimentConfig | None = None
) -> RunReport:
    """Sparse pseudo-random lower-bound pipeline at one instance size.

    Derives the parameter chain (delta on a 1/100 grid, edge probability,
    density constants with C = D^2/delta^2 for the D in use, given or
    derived, and the edge count with clamping), samples the pattern
    graph, checks its edge-spread property exactly, builds the gadget, and
    certifies: no induced-pattern minors at the binding sizes, pasting
    closure at a small materialized pasting, and the pasting
    bound against the (2-epsilon)n target.
    """
    cfg = cfg or ExperimentConfig()
    overrides = overrides or {}
    if n < 2:
        raise ValueError("n must be at least 2 (log n degenerates below)")
    check_size(n, PIPELINE_RANDOM_MAX_ORDER, "instance size for pipeline_random")
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 2:
        raise ValueError("epsilon must lie in (0, 2)")
    seed = _require_seed(cfg.seed)

    delta = Fraction(overrides.get("delta", _delta_from_epsilon(epsilon)))
    p = Fraction(overrides.get("p", delta / 2))
    D = overrides.get("D")
    D = Fraction(D) if D is not None else Fraction(constant_D(delta, p))
    C = overrides.get("C")
    C = Fraction(C) if C is not None else D * D / (delta * delta)
    m, clamped = m_of(n, C)

    report = RunReport(
        pipeline="random",
        params={"n": n, "epsilon": epsilon, "delta": delta, "p": p, "D": D, "C": C, "m": m},
        seed=seed,
        n=n,
    )
    report.target_bound = float((2 - epsilon) * n)
    report.notes.append("asymptotic target (not certified); certified lines hold at this instance")
    report.add_step("parameters", "derived", {"delta": str(delta), "p": str(p), "m": m, "clamped": clamped})
    if clamped:
        report.notes.append(
            "edge count ceil(C n log n) exceeds the complete graph; clamped — "
            "asymptotic regime unreachable at this size"
        )

    H = sample_gnm_uniform(n, m, seed)
    g6H = to_graph6(H)
    report.add_step("sample-pattern", "sampled", {"graph": g6H, "edges": H.edge_count()})

    q_report = check_property_Q(H, PropertyQParams(delta, D), mode="exact")
    report.add_step("property-q", q_report.verdict, {"witness": q_report.witness})
    report.certify(
        f"edge-spread property verdict on the sampled pattern is {q_report.verdict!r}",
        "property_q_verdict",
        {"graph": g6H, "delta": delta, "D": D},
        q_report.verdict,
        exhaustive=True,
        witness=q_report.witness,
    )

    result = build_thm_random_gadget(H, delta, p, seed + 1, cfg.attempts)
    if not _gadget_found(report, result):
        return report

    F, part = result.graph, result.partition
    g6F = to_graph6(F)
    # The builder accepts F only after find_induced_pattern_minor(F, H, u_min)
    # found nothing, which settles every induced pattern on >= u_min vertices.
    u_min = math.ceil((1 - delta) * n)
    report.add_step("induced-minor-sweep", "verified", {"u_min": u_min})
    report.certify(
        f"the gadget has no minor of any induced pattern subgraph on >= {u_min} vertices",
        "minor_free_all_induced",
        {"host": g6F, "pattern": g6H, "min_size": u_min},
        True,
        exhaustive=True,
    )

    closure_spec = PastingSpec(F, part.a_mask, PASTING_CLOSURE_COPIES)
    pasted = k_fold_pasting(closure_spec)
    closure_free = contains_minor(pasted, H) is None
    report.add_step(
        "pasting-closure",
        "verified" if closure_free else "violated",
        {"copies": PASTING_CLOSURE_COPIES, "pasted_order": pasted.n},
    )
    report.certify(
        f"the {PASTING_CLOSURE_COPIES}-fold pasting of the gadget at A has no pattern minor",
        "pasting_minor_free",
        {"graph": g6F, "attach": part.a_vertices(), "copies": PASTING_CLOSURE_COPIES, "pattern": g6H},
        closure_free,
        exhaustive=True,
    )

    _certify_pasting_bound(report, part, g6F)
    return report


@_timed
def pipeline_isolated(F: Graph, k: int, cfg: ExperimentConfig | None = None) -> RunReport:
    """Isolated-vertex padding pipeline: an exhaustive degeneracy sweep.

    Pads the graph with k isolated vertices to H and certifies that no
    H-minor-free graph on at most N = min(8, v(H) + 2) vertices has
    degeneracy >= v(H) - 1, so that each is colorable from any lists of
    size v(H) - 1 (greedily, in reverse degeneracy order), or lists the
    graphs that break this; ``_degeneracy_sweep`` has the proof. ``cfg``
    is taken for the call shape the other pipelines share and is not read:
    nothing is drawn.

    Orders above v(H) + 2 are left out, and below the cap of 8 that happens
    only when v(H) <= 5, where they change no verdict. Minimum degree 2
    forces a K3 minor, minimum degree 3 a K4 minor (Dirac) and minimum
    degree 4 a K5 or K2,2,2 minor (Halin-Jung); each of these has every
    graph on as many vertices as a minor, except that K2,2,2 has no K5
    minor, and for H = K5 the sweep already names the octahedron at order 6.

    The threshold k0 uses the max of the two defining quantities (the
    paper-facing min is inconsistent with its own use) and a provable lower
    bound for the minor-forcing degree, so desk-scale runs always sit below
    k0: violations are recorded as exploratory, not as refutations.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    check_size(F.n + k, PIPELINE_ISOLATED_MAX_ORDER, "padded order for pipeline_isolated")
    H = add_isolated_vertices(F, k)
    vH = H.n
    d_lower = max(F.n - 1, 0)
    k0 = max(d_lower + 1, 9 * F.n**3)
    report = RunReport(
        pipeline="isolated",
        params={"graph": to_graph6(F), "k": k},
        seed=None,
        n=vH,
    )
    report.notes.append(
        "k0 uses the max of the two defining quantities; the source text's min is "
        "inconsistent with its own use and is flagged, not guessed"
    )
    report.notes.append(
        f"k0 >= {k0} uses a provable lower bound {d_lower} for the minor-forcing degree; "
        "the true threshold may be larger"
    )
    if k < k0:
        report.notes.append(
            f"k={k} is below k0={k0}: no guarantee applies; violations would be exploratory"
        )
    report.add_step("pad", "built", {"padded_order": vH, "k0": k0})

    sweep = _degeneracy_sweep(H)
    N, violations = sweep["max_order"], sweep["violations"]
    report.add_step("sweep", "violations-found" if violations else "all-degenerate", sweep)
    if violations:
        report.verdict = "exploratory-violations" if k < k0 else "violations-found"
        report.notes.append(f"violations: {len(violations)} (flagged prominently)")
        claim = (f"up to isomorphism, {len(violations)} graphs on at most {N} vertices have "
                 f"minimum degree >= {vH - 1} and no padded-pattern minor")
    else:
        claim = (f"no padded-pattern-minor-free graph on at most {N} vertices has degeneracy "
                 f">= {vH - 1}, hence each is colorable from any lists of size {vH - 1}")
    report.certify(claim, "isolated_degeneracy_sweep", {"graph": to_graph6(F), "k": k}, sweep,
                   exhaustive=True)
    report.certified_bound = vH - 1
    _certify_complete_list_chromatic(report, vH - 1)
    report.certify(
        f"the complete graph on {vH - 1} vertices has no padded-pattern minor",
        "minor_free",
        {"host": to_graph6(complete_graph(vH - 1)), "pattern": to_graph6(H)},
        True,
        exhaustive=True,
    )
    report.target_bound = float(vH - 1)
    return report


def _degeneracy_sweep(H: Graph) -> dict:
    """Search every graph on v(H)..N vertices, N = min(8, v(H) + 2), of
    minimum degree >= v(H) - 1 for an H minor, one per isomorphism class;
    return N, the orders swept, the number of graphs and the violations, the
    graphs without an H minor (graph6 and degeneracy).

    This decides whether some H-minor-free graph on at most N vertices has
    degeneracy >= v(H) - 1. Such a graph has a (v(H)-1)-core C, a subgraph
    and so H-minor-free as well, of minimum degree >= v(H) - 1 and so on at
    least v(H) vertices; conversely each swept graph is its own core. The
    complement of C has maximum degree <= |C| - v(H) <= 2, which
    ``_dense_cores`` lists. The cap of 8 scales with FORGE_GUARD_OVERRIDE;
    when v(H) exceeds it nothing is swept, since a graph on fewer than v(H)
    vertices has degeneracy at most v(H) - 2.
    """
    vH = H.n
    top = min(guard_limit(ISOLATED_SWEEP_MAX_ORDER), vH + 2)
    orders = list(range(vH, top + 1))
    graphs, violations = 0, []
    for c in orders:
        for G in _dense_cores(c, c - vH):
            graphs += 1
            if contains_minor(G, H) is None:
                violations.append({"graph": to_graph6(G), "degeneracy": degeneracy(G)[0]})
    return {"max_order": top, "orders": orders, "graphs": graphs, "violations": violations}


def _dense_cores(c: int, d: int):
    """Every graph on c vertices whose complement has maximum degree at most
    d <= 2, once up to isomorphism.

    Such a complement is a disjoint union of paths and, when d = 2, cycles,
    and its isomorphism class is the multiset of its component shapes
    (order, is_cycle): a path or cycle on s vertices has maximum degree
    min(s - 1, 2), and a cycle needs s >= 3. Each multiset is built once, as
    a sequence of shapes in the order of ``shapes``, and yields K_c minus
    that union.
    """
    shapes = [(s, cyc) for s in range(c, 0, -1) for cyc in (True, False)
              if min(s - 1, 2) <= d and (s >= 3 or not cyc)]

    def unions(rest: int, first: int):
        if rest == 0:
            yield []
        for i in range(first, len(shapes)):
            if shapes[i][0] <= rest:
                for tail in unions(rest - shapes[i][0], i):
                    yield [shapes[i], *tail]

    for union in unions(c, 0):
        removed, start = [], 0
        for s, cyc in union:
            removed += [(v, v + 1) for v in range(start, start + s - 1)]
            if cyc:
                removed.append((start, start + s - 1))
            start += s
        yield complement(Graph.from_edges(c, removed))


@_timed
def mader_step_check(H: Graph, cfg: ExperimentConfig | None = None) -> RunReport:
    """Average-degree to connected-subgraph check over all induced subgraphs."""
    check_size(H.n, MADER_MAX_ORDER, "graph order for mader_step_check")
    if H.n == 0:
        raise ValueError("the check needs at least one vertex")
    avg_degree = Fraction(2 * H.edge_count(), H.n)
    target = math.ceil(avg_degree / 4)
    best = _best_induced_connectivity(H)
    report = RunReport(
        pipeline="mader",
        params={"graph": to_graph6(H)},
        seed=None,
        n=H.n,
    )
    report.add_step(
        "search",
        "pass" if best >= target else "fail",
        {"avg_degree": float(avg_degree), "target": target, "best_connectivity": best},
    )
    report.certified_bound = best
    report.target_bound = float(target)
    report.verdict = "pass" if best >= target else "fail"
    report.certify(
        f"the best vertex connectivity over induced subgraphs is {best}",
        "best_induced_connectivity",
        {"graph": to_graph6(H)},
        best,
        exhaustive=True,
    )
    return report


def _best_induced_connectivity(H: Graph) -> int:
    """Largest vertex connectivity of an induced subgraph H[S], S non-empty.

    Every graph F on m vertices has kappa(F) <= min(delta(F), m - 1): a
    vertex v of minimum degree is cut off from the rest by its neighbours,
    unless they are all the other vertices, and then F is complete with
    kappa = m - 1 = delta. So S is visited by descending size, the sweep
    stops once |S| - 1 <= best, and an S with a vertex of degree <= best in
    H[S] is skipped without building the subgraph.
    """
    adj = H.adj
    best = 0
    for size in range(H.n, 1, -1):
        if size - 1 <= best:
            break
        for combo in combinations(range(H.n), size):
            S = mask_of(combo)
            if all((adj[v] & S).bit_count() > best for v in combo):
                best = max(best, vertex_connectivity(induced_subgraph(H, S)))
    return best


# ---------------------------------------------------------------------------
# replay


def _op_vertex_connectivity(args):
    return vertex_connectivity(parse_graph6(args["graph"]))


def _op_minor_free(args):
    return contains_minor(parse_graph6(args["host"]), parse_graph6(args["pattern"])) is None


def _op_is_clique(args):
    return is_clique(parse_graph6(args["graph"]), mask_of(args["vertices"]))


def _op_b_nonneighbors_at_most(args):
    G = parse_graph6(args["graph"])
    bound = args["bound"]
    return all(G.n - 1 - G.degree(b) <= bound for b in args["b"])


def _op_pasting_bound_certified(args):
    G = parse_graph6(args["graph"])
    part = TwoCliquePartition(G, mask_of(args["a"]), mask_of(args["b"]), args["slack"])
    check_pasting_lower_bound(part)  # raises ValueError on an invalid partition
    return True


def _op_list_chromatic_number(args):
    # the exhaustive path, so that the replay does not re-run the sandwich
    # proof that certified the line
    return list_chromatic_number(parse_graph6(args["graph"]), use_shortcuts=False)


def _op_complete_list_chromatic_sandwich(args):
    G = parse_graph6(args["graph"])
    if not is_clique(G, G.vertex_mask()):
        return None  # the sandwich premises fail, so the line does not replay
    return G.n


def _op_property_q_verdict(args):
    params = PropertyQParams(Fraction(args["delta"]), Fraction(args["D"]))
    return check_property_Q(parse_graph6(args["graph"]), params, mode="exact").verdict


def _op_minor_free_all_induced(args):
    host, pattern = parse_graph6(args["host"]), parse_graph6(args["pattern"])
    return find_induced_pattern_minor(host, pattern, args["min_size"]) is None


def _op_pasting_minor_free(args):
    F = parse_graph6(args["graph"])
    spec = PastingSpec(F, mask_of(args["attach"]), args["copies"])
    return contains_minor(k_fold_pasting(spec), parse_graph6(args["pattern"])) is None


def _op_isolated_degeneracy_sweep(args):
    return _degeneracy_sweep(add_isolated_vertices(parse_graph6(args["graph"]), args["k"]))


def _op_best_induced_connectivity(args):
    return _best_induced_connectivity(parse_graph6(args["graph"]))


REPLAY_OPS = {
    "vertex_connectivity": _op_vertex_connectivity,
    "minor_free": _op_minor_free,
    "is_clique": _op_is_clique,
    "b_nonneighbors_at_most": _op_b_nonneighbors_at_most,
    "pasting_bound_certified": _op_pasting_bound_certified,
    "list_chromatic_number": _op_list_chromatic_number,
    "complete_list_chromatic_sandwich": _op_complete_list_chromatic_sandwich,
    "property_q_verdict": _op_property_q_verdict,
    "minor_free_all_induced": _op_minor_free_all_induced,
    "pasting_minor_free": _op_pasting_minor_free,
    "isolated_degeneracy_sweep": _op_isolated_degeneracy_sweep,
    "best_induced_connectivity": _op_best_induced_connectivity,
}


def replay_report(report_dict: dict) -> list[dict]:
    """Re-run every certified line; each result records claim and agreement.

    An operation that raises one of ``OPERATION_ERRORS`` (a size guard, say)
    fails its own line with an ``error`` field; later lines still run.
    """
    results = []
    for entry in report_dict.get("certified", []):
        spec = entry["replay"]
        op = REPLAY_OPS.get(spec["op"])
        if op is None:
            results.append({"claim": entry["claim"], "ok": False, "error": f"unknown op {spec['op']}"})
            continue
        try:
            got = jsonable(op(spec["args"]))
        except OPERATION_ERRORS as exc:
            results.append({"claim": entry["claim"], "ok": False, "error": f"{type(exc).__name__}: {exc}"})
            continue
        results.append({"claim": entry["claim"], "ok": got == spec["expect"], "got": got})
    return results


# The inputs each pipeline reads from its config: first those it needs,
# ``graph`` or a ``params`` key, then the ``params`` keys it reads only when
# given. Any other ``params`` key is an error, so that a misspelt one is not
# dropped in silence.
PIPELINE_INPUTS = {
    "conn": (("graph", "epsilon"), ()),
    "random": (("n", "epsilon"), ("delta", "p", "D", "C")),
    "isolated": (("graph", "k"), ()),
    "mader": (("graph",), ()),
}


def run_pipeline(cfg: ExperimentConfig) -> RunReport:
    """Dispatch a configured pipeline run; a missing input or a ``params``
    key the pipeline does not read raises ValueError naming it."""
    if cfg.pipeline not in PIPELINE_INPUTS:
        raise ValueError(f"unknown pipeline {cfg.pipeline!r}")
    needed, optional = PIPELINE_INPUTS[cfg.pipeline]
    unknown = sorted(set(cfg.params) - (set(needed + optional) - {"graph"}))
    if unknown:
        raise ValueError(f"pipeline {cfg.pipeline} does not read params {', '.join(unknown)}")
    missing = [name for name in needed
               if (cfg.graph is None if name == "graph" else name not in cfg.params)]
    if missing:
        raise ValueError(f"pipeline {cfg.pipeline} needs {' and '.join(missing)}")
    params = dict(cfg.params)
    if cfg.pipeline == "conn":
        return pipeline_conn(load_graph(cfg.graph), Fraction(str(params["epsilon"])), cfg)
    if cfg.pipeline == "random":
        n = int(params.pop("n"))
        epsilon = Fraction(str(params.pop("epsilon")))
        # only the optional keys are left
        overrides = {k: Fraction(str(v)) for k, v in params.items()}
        return pipeline_random(n, epsilon, overrides, cfg)
    if cfg.pipeline == "isolated":
        return pipeline_isolated(load_graph(cfg.graph), int(params["k"]), cfg)
    return mader_step_check(load_graph(cfg.graph), cfg)
