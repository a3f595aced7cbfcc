"""Seeded random graph samplers, exact and falsifying checkers for the two
pseudo-random properties, and the evaluable probability-bound formulas."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import BudgetExceededError
from .graphs import BipartiteGraph, Graph, bits, edges_between, mask_of, nonempty_submasks

DEFAULT_NODE_BUDGET = 2_000_000

VERDICT_HOLDS = "holds"
VERDICT_FAILS = "fails"
VERDICT_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class PropertyPParams:
    """Fraction of the host order bounding set counts/sizes, and the edge threshold."""

    delta: Fraction
    s: int

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie strictly between 0 and 1")
        if self.s < 1:
            raise ValueError("edge threshold s must be positive")


@dataclass(frozen=True)
class PropertyQParams:
    """Linear-size fraction delta and the edge-density constant D."""

    delta: Fraction
    D: Fraction

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie strictly between 0 and 1")
        if self.D <= 1:
            raise ValueError("D must exceed 1")


@dataclass
class PropertyReport:
    verdict: str
    witness: dict | None = None
    nodes_explored: int = 0
    trials: int = 0
    seed: int | None = None


# ---------------------------------------------------------------------------
# samplers


def sample_bipartite(m: int, n: int, p, seed: int) -> BipartiteGraph:
    """Bipartite graph on parts of sizes m and n; each cross pair is an edge
    independently with probability p under the seeded generator."""
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    rng = random.Random(seed)
    rows = []
    for _ in range(m):
        row = 0
        for b in range(n):
            if rng.random() < p:
                row |= 1 << b
        rows.append(row)
    return BipartiteGraph(m, n, tuple(rows))


def _all_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def sample_gnm_uniform(n: int, m: int, seed: int) -> Graph:
    """Uniform n-vertex graph with exactly m edges (one-shot edge sample)."""
    pairs = _all_pairs(n)
    if not 0 <= m <= len(pairs):
        raise ValueError(f"m must lie in 0..{len(pairs)}")
    rng = random.Random(seed)
    return Graph.from_edges(n, rng.sample(pairs, m))


def sample_gnm_sequential(n: int, m: int, seed: int) -> Graph:
    """Uniform n-vertex graph with m edges, built by repeatedly adding a
    uniformly random absent edge; distributionally identical to the
    one-shot sampler."""
    pairs = _all_pairs(n)
    if not 0 <= m <= len(pairs):
        raise ValueError(f"m must lie in 0..{len(pairs)}")
    rng = random.Random(seed)
    chosen = []
    for _ in range(m):
        idx = rng.randrange(len(pairs))
        chosen.append(pairs.pop(idx))
    return Graph.from_edges(n, chosen)


# ---------------------------------------------------------------------------
# the pair search behind both properties


def _pair_search(H: Graph, delta, mode: str, minimal: bool, budget: int, seed: int | None,
                 violation, name: str, node_budget=math.inf) -> PropertyReport:
    """Search disjoint vertex tuples xs, ys of H for a violation of property ``name``.

    ``violation(xs, ys, edges, rng, spend)`` gets each pair, the number of H
    edges between its two sides, the falsify generator (None in exact mode)
    and a node counter, and returns a witness or None. With r =
    ceil(delta*n), exact mode enumerates every size pair k, l >= r (only
    k = l = r when ``minimal``) and, within one, the tuples in
    lexicographic order; each pair and each ``spend()`` is a node, and more
    than ``node_budget`` nodes raise BudgetExceededError. Falsify mode
    draws ``budget`` seeded pairs with k = l = r and can only return
    ``fails`` or ``inconclusive``; a negative ``budget`` is a ValueError.
    """
    n = H.n
    r = math.ceil(delta * n)
    nodes = 0

    def spend() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(f"property {name} exact enumeration exceeded {node_budget} nodes")

    if mode == "falsify":
        if seed is None:
            raise ValueError("falsify mode needs a seed")
        if budget < 0:
            raise ValueError(f"budget must be nonnegative, got {budget}")
        rng = random.Random(seed)
        if 2 * r > n or r < 1:
            return PropertyReport(VERDICT_INCONCLUSIVE, trials=0, seed=seed)
        for trial in range(budget):
            sample = rng.sample(range(n), 2 * r)
            xs, ys = tuple(sorted(sample[:r])), tuple(sorted(sample[r:]))
            witness = violation(xs, ys, edges_between(H, mask_of(xs), mask_of(ys)), rng, spend)
            if witness is not None:
                return PropertyReport(VERDICT_FAILS, witness, trials=trial + 1, seed=seed)
        return PropertyReport(VERDICT_INCONCLUSIVE, trials=budget, seed=seed)
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")

    low = max(r, 1)
    sizes = [
        (k, l) for k in range(low, n + 1) for l in range(low, n + 1 - k)
        if not minimal or k == l == r
    ]
    for k, l in sizes:
        for xs in combinations(range(n), k):
            x_mask = mask_of(xs)
            rest = [v for v in range(n) if not x_mask >> v & 1]
            for ys in combinations(rest, l):
                spend()
                witness = violation(xs, ys, edges_between(H, x_mask, mask_of(ys)), None, spend)
                if witness is not None:
                    return PropertyReport(VERDICT_FAILS, witness, nodes_explored=nodes)
    return PropertyReport(VERDICT_HOLDS, nodes_explored=nodes)


def _is_minimal(option: str, value: str) -> bool:
    """Whether a size-range option is ``"minimal"`` (k = l = ceil(delta*n)
    only) rather than ``"full"``; any other value is a ValueError."""
    if value not in ("minimal", "full"):
        raise ValueError(f"unknown {option} {value!r}")
    return value == "minimal"


# ---------------------------------------------------------------------------
# property Q


def _q_threshold(D, n: int) -> int:
    return math.ceil(float(D) * n * math.log(n)) if n >= 2 else 0


def check_property_Q(
    H: Graph,
    params: PropertyQParams,
    mode: str = "exact",
    *,
    pairs: str = "minimal",
    budget: int = 10_000,
    seed: int | None = None,
) -> PropertyReport:
    """Do all disjoint vertex sets of linear size span enough edges?

    Exact mode enumerates disjoint pairs A, B and returns ``holds`` or a
    ``fails`` witness; with ``pairs="minimal"`` only |A| = |B| =
    ceil(delta*n) is checked, which is exact because enlarging either set
    never removes edges. ``pairs="full"`` enumerates every admissible pair;
    any other ``pairs`` value is a ValueError, in every mode. Falsify mode
    samples random pairs under a budget and can only return ``fails`` or
    ``inconclusive``.
    """
    threshold = _q_threshold(params.D, H.n)

    def violation(xs, ys, edges, rng, spend):
        if edges >= threshold:
            return None
        return {"A": list(xs), "B": list(ys), "edges": edges, "threshold": threshold}

    return _pair_search(H, params.delta, mode, _is_minimal("pairs", pairs), budget, seed, violation, "Q")


def property_q_witness_violates(H: Graph, params: PropertyQParams, witness: dict) -> bool:
    """Straight-line recheck that a fails-witness genuinely violates the property."""
    A, B = mask_of(witness["A"]), mask_of(witness["B"])
    if A & B:
        return False
    n = H.n
    r = math.ceil(params.delta * n)
    if A.bit_count() < r or B.bit_count() < r:
        return False
    return edges_between(H, A, B) < _q_threshold(params.D, n)


# ---------------------------------------------------------------------------
# property P


def check_property_P(
    G: BipartiteGraph,
    H: Graph,
    params: PropertyPParams,
    mode: str = "exact",
    *,
    k_l_range: str = "full",
    node_budget: int = DEFAULT_NODE_BUDGET,
    budget: int = 10_000,
    seed: int | None = None,
) -> PropertyReport:
    """Exhaustive or sampling check of the joined-pair property.

    The property asks: for every admissible choice of distinct host-pattern
    vertices x_1..x_k, y_1..y_l (k, l >= ceil(delta*n), at least s pattern
    edges between them) and of disjoint sets X_i in A and Y_j in B of size
    at most 1/delta, some pattern edge x_i y_j has all of X_i x Y_j present
    in G. Exact mode proves ``holds`` or returns a violating witness;
    ``k_l_range="minimal"`` restricts to k = l = ceil(delta*n), a reduction
    whose soundness the exact mode does not assume (callers can compare the
    two); any value but ``"minimal"`` and ``"full"`` is a ValueError, in
    every mode. Falsify mode samples candidate witnesses and can only return
    ``fails`` or ``inconclusive``. Node budget exhaustion in exact mode is
    an error, not a verdict; a negative ``node_budget`` is a ValueError.
    """
    if node_budget < 0:
        raise ValueError(f"node_budget must be nonnegative, got {node_budget}")
    cap = math.floor(1 / params.delta)

    def violation(xs, ys, edges, rng, spend):
        if edges < params.s:
            return None
        edge_pairs = [(i, j) for i, x in enumerate(xs) for j, y in enumerate(ys) if H.has_edge(x, y)]
        if rng is None:
            family = _violating_family(G, len(xs), len(ys), edge_pairs, cap, spend)
        else:  # a random family, kept only if the straight-line recheck accepts it
            X_sets = _random_disjoint_sets(rng, G.a_size, len(xs), cap, {i for i, _ in edge_pairs})
            Y_sets = _random_disjoint_sets(rng, G.b_size, len(ys), cap, {j for _, j in edge_pairs})
            family = None if X_sets is None or Y_sets is None else (X_sets, Y_sets)
        if family is None:
            return None
        witness = {"k": len(xs), "l": len(ys), "xs": list(xs), "ys": list(ys),
                   "X": [sorted(bits(s)) for s in family[0]],
                   "Y": [sorted(bits(s)) for s in family[1]]}
        if rng is None or property_p_witness_violates(G, H, params, witness):
            return witness
        return None

    return _pair_search(H, params.delta, mode, _is_minimal("k_l_range", k_l_range), budget, seed,
                        violation, "P", node_budget)


def _violating_family(G: BipartiteGraph, k: int, l: int, edge_pairs, cap: int, spend):
    """Disjoint set families making every pattern edge miss a cross pair, or None.

    Positions never touched by a pattern edge stay empty: they cannot break
    a violation and shrinking a set only helps the remaining constraints.
    """
    if not edge_pairs:
        # vacuous: with no pattern edge among the chosen vertices there is
        # nothing to join, so empty families violate the exists-clause
        return [0] * k, [0] * l
    x_positions = sorted({i for i, _ in edge_pairs})
    y_positions = sorted({j for _, j in edge_pairs})
    a_all = (1 << G.a_size) - 1
    b_all = (1 << G.b_size) - 1
    X_sets = [0] * k
    Y_sets = [0] * l

    y_constraints: dict[int, list[int]] = {j: [] for j in y_positions}

    def assign_y(pos_idx: int, avail_b: int) -> bool:
        if pos_idx == len(y_positions):
            return True
        j = y_positions[pos_idx]
        # Y_j must leave every incident pattern edge missing a cross pair:
        # for each constraining X_i it needs a vertex not fully joined to X_i
        full_masks = y_constraints[j]
        for Y in nonempty_submasks(avail_b, cap):
            spend()
            ok = all(Y & ~full for full in full_masks)
            if ok:
                Y_sets[j] = Y
                if assign_y(pos_idx + 1, avail_b & ~Y):
                    return True
                Y_sets[j] = 0
        return False

    def assign_x(pos_idx: int, avail_a: int) -> bool:
        if pos_idx == len(x_positions):
            for j in y_positions:
                y_constraints[j] = []
            viable = True
            for i, j in edge_pairs:
                common = b_all
                for a in bits(X_sets[i]):
                    common &= G.rows[a]
                y_constraints[j].append(common)
                if not b_all & ~common:
                    viable = False  # every B-vertex fully joined to X_i
                    break
            if not viable:
                return False
            return assign_y(0, b_all)
        i = x_positions[pos_idx]
        for X in nonempty_submasks(avail_a, cap):
            spend()
            X_sets[i] = X
            if assign_x(pos_idx + 1, avail_a & ~X):
                return True
            X_sets[i] = 0
        return False

    if assign_x(0, a_all):
        return X_sets, Y_sets
    return None


def _random_disjoint_sets(rng, universe: int, count: int, cap: int, needed) -> list[int] | None:
    """Disjoint random sets of 1..cap vertices at the ``needed`` positions, or
    None when the universe runs out."""
    pool = list(range(universe))
    rng.shuffle(pool)
    sets = [0] * count
    for idx in range(count):
        if idx not in needed:
            continue
        size = rng.randint(1, cap)
        if len(pool) < size:
            return None
        sets[idx] = mask_of(pool.pop() for _ in range(size))
    return sets


def property_p_witness_violates(
    G: BipartiteGraph, H: Graph, params: PropertyPParams, witness: dict
) -> bool:
    """Straight-line recheck of a fails-witness against the raw definition."""
    n = H.n
    r = math.ceil(params.delta * n)
    cap = math.floor(1 / params.delta)
    xs, ys = witness["xs"], witness["ys"]
    k, l = witness["k"], witness["l"]
    if len(xs) != k or len(ys) != l or k < r or l < r:
        return False
    if len(set(xs) | set(ys)) != k + l:
        return False
    X_sets = [mask_of(vs) for vs in witness["X"]]
    Y_sets = [mask_of(vs) for vs in witness["Y"]]
    if len(X_sets) != k or len(Y_sets) != l:
        return False
    seen = 0
    for X in X_sets:
        if X & seen or X.bit_count() > cap:
            return False
        seen |= X
    seen = 0
    for Y in Y_sets:
        if Y & seen or Y.bit_count() > cap:
            return False
        seen |= Y
    if edges_between(H, mask_of(xs), mask_of(ys)) < params.s:
        return False
    for i in range(k):
        for j in range(l):
            if not H.has_edge(xs[i], ys[j]):
                continue
            if not X_sets[i] or not Y_sets[j]:
                return False  # empty side: the edge is vacuously fully joined
            if all(G.rows[a] & Y_sets[j] == Y_sets[j] for a in bits(X_sets[i])):
                return False  # this pattern edge is fully joined
    return True


# ---------------------------------------------------------------------------
# bound formulas and constants


def _chernoff(mu, delta, divisor: int) -> float:
    if mu <= 0:
        raise ValueError("mu must be positive")
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    exponent = Fraction(delta) ** 2 * Fraction(mu)
    if exponent > 746 * divisor:  # exp(-746) is below the least subnormal float
        return 0.0
    return math.exp(-float(exponent) / divisor)


def chernoff_upper(mu, delta) -> float:
    """exp(-delta^2 mu / 3): upper-tail bound at (1+delta) times the mean."""
    return _chernoff(mu, delta, 3)


def chernoff_lower(mu, delta) -> float:
    """exp(-delta^2 mu / 2): lower-tail bound at (1-delta) times the mean."""
    return _chernoff(mu, delta, 2)


def _inv_delta_sq(delta: Fraction) -> Fraction:
    return 1 / (Fraction(delta) ** 2)


def constant_D(delta, p) -> Fraction | float:
    """Smallest nice constant strictly above 4 p^(-1/delta^2): a fixed 1% margin.

    Exact rational when 1/delta^2 is an integer, float otherwise; a float
    beyond the float range raises ValueError.
    """
    delta, p = Fraction(delta), Fraction(p)
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    if not 0 < p < 1:
        raise ValueError("p must lie strictly between 0 and 1")
    exponent = _inv_delta_sq(delta)
    if exponent.denominator == 1:
        return Fraction(101, 100) * 4 * p ** (-exponent.numerator)
    try:
        D = 1.01 * 4 * float(p) ** (-float(exponent))
    except OverflowError:
        D = math.inf
    return _finite(D, f"constant_D at delta={delta}, p={p}")


def constant_C(delta, p) -> Fraction | float:
    """D^2 / delta^2 for the derived D; exact in rationals when D is.

    A float D whose square overflows gives the exact rational C instead,
    which ``m_of`` compares in log space.
    """
    delta = Fraction(delta)
    D = constant_D(delta, p)
    if isinstance(D, Fraction):
        return D * D / (delta * delta)
    C = D * D / float(delta * delta)
    if not math.isfinite(C):
        return Fraction(D) ** 2 / delta**2
    return C


def _finite(value: float, what: str) -> float:
    """The value, or a ValueError naming the float overflow it hit."""
    if not math.isfinite(value):
        raise ValueError(f"{what} overflows the float range; pass the constant explicitly")
    return value


def q_n_bound(delta, p, D, n: int) -> float:
    """1 - exp((4 - p^(1/delta^2) D) n log n), clamped into [0, 1]."""
    if n < 2:
        raise ValueError("n must be at least 2")
    delta, p = Fraction(delta), Fraction(p)
    exponent = (4 - float(p) ** float(_inv_delta_sq(delta)) * float(D)) * n * math.log(n)
    if exponent > 700:  # exp overflow: bound degenerates to 0
        return 0.0
    return min(1.0, max(0.0, 1.0 - math.exp(exponent)))


def propQ_failure_bound(D, n: int) -> float:
    """3^n exp(-((D-1)^2 / 2) n log n), clamped into [0, 1]."""
    if n < 2:
        raise ValueError("n must be at least 2")
    try:
        log_value = n * math.log(3) - (float(D) - 1) ** 2 / 2 * n * math.log(n)
    except OverflowError:  # (D-1)^2 beyond the float range: the bound underflows to 0
        return 0.0
    if log_value > 0:
        return 1.0
    return math.exp(log_value)


def m_of(n: int, C) -> tuple[int, bool]:
    """ceil(C n log n) clamped at n(n-1)/2; the flag reports clamping.

    Works for astronomically large rational C by comparing in log space.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    C = Fraction(C)
    if C <= 0:
        raise ValueError("C must be positive")
    limit = n * (n - 1) // 2
    log_m = (
        math.log(C.numerator) - math.log(C.denominator)
        + math.log(n) + math.log(math.log(n))
    )
    if log_m > math.log(limit) + 1:
        return limit, True
    m = math.ceil(float(C) * n * math.log(n))
    if m > limit:
        return limit, True
    return m, False
