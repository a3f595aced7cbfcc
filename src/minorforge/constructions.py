"""Gadget builders: K-fold clique pastings, the adversarial list family and
the pasting lower bound it proves by pigeonhole without materializing the
pasting, and rejection-sampled almost-complete minor-free gadgets."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .coloring import ListAssignment
from .errors import check_size
from .graphs import (
    Graph,
    VertexSet,
    bipartite_union_complement,
    bit_list,
    bits,
    is_clique,
)
from .minors import contains_minor, find_induced_pattern_minor
from .random_models import sample_bipartite

PASTING_MAX_VERTICES = 4096


@dataclass(frozen=True)
class PastingSpec:
    """K copies of a graph pairwise intersecting exactly in an attachment set."""

    graph: Graph
    attach: VertexSet
    copies: int

    def __post_init__(self):
        if self.copies < 1:
            raise ValueError("the number of copies must be positive")
        if self.attach & ~self.graph.vertex_mask():
            raise ValueError("attachment set references vertices outside the graph")

    def materialized_order(self) -> int:
        s = self.attach.bit_count()
        return s + self.copies * (self.graph.n - s)


def k_fold_pasting(spec: PastingSpec) -> Graph:
    """Union of K isomorphic copies of the graph glued along the attachment set.

    Vertex layout: shared attachment vertices first (ascending original
    order), then one block per copy holding the remaining vertices in
    ascending original order.
    """
    n = spec.materialized_order()
    check_size(n, PASTING_MAX_VERTICES, "materialized pasting order")
    rows = [0] * n
    edges = spec.graph.edges()
    for copy in range(spec.copies):
        placed = pasting_copy_vertices(spec, copy)
        for u, v in edges:
            rows[placed[u]] |= 1 << placed[v]
            rows[placed[v]] |= 1 << placed[u]
    return Graph(n, tuple(rows))


def pasting_copy_vertices(spec: PastingSpec, copy: int) -> list[int]:
    """Pasting-graph vertices of one copy, ordered by original F vertex.

    This is the pasting layout: the s attachment vertices come first in
    ascending order, then copy i holds the other vertices, ascending, from
    s + i*(v(F)-s) on. A copy outside ``range(spec.copies)`` raises ValueError.
    """
    if copy not in range(spec.copies):
        raise ValueError(f"copy {copy} is outside the {spec.copies} copies of the pasting")
    attach = spec.attach
    s = attach.bit_count()
    offset = s + copy * (spec.graph.n - s)
    placed = []
    for v in range(spec.graph.n):
        below = (attach & ((1 << v) - 1)).bit_count()  # attachment vertices before v
        placed.append(below if attach >> v & 1 else offset + v - below)
    return placed


@dataclass(frozen=True)
class TwoCliquePartition:
    """A graph split into two cliques A and B where every B-vertex misses at
    most ``slack`` of its potential A-neighbors."""

    graph: Graph
    a_mask: VertexSet
    b_mask: VertexSet
    slack: int

    def a_vertices(self) -> list[int]:
        return bit_list(self.a_mask)

    def b_vertices(self) -> list[int]:
        return bit_list(self.b_mask)

    def universe_size(self) -> int:
        return self.a_mask.bit_count() + self.b_mask.bit_count() - 1

    def validate(self) -> None:
        G = self.graph
        if self.a_mask & self.b_mask:
            raise ValueError("A and B overlap")
        if (self.a_mask | self.b_mask) != G.vertex_mask():
            raise ValueError("A and B must cover every vertex")
        if not 0 <= self.slack <= self.a_mask.bit_count():
            raise ValueError("slack must lie between 0 and |A|")
        if not is_clique(G, self.a_mask):
            raise ValueError("A does not induce a clique")
        if not is_clique(G, self.b_mask):
            raise ValueError("B does not induce a clique")
        need = self.a_mask.bit_count() - self.slack
        for b in bits(self.b_mask):
            if (G.adj[b] & self.a_mask).bit_count() < need:
                raise ValueError(
                    f"vertex {b} has fewer than |A|-slack = {need} neighbors in A"
                )

    def realized_slack(self) -> int:
        """Largest number of A-non-neighbors over the B-vertices."""
        a_count = self.a_mask.bit_count()
        return max(
            (a_count - (self.graph.adj[b] & self.a_mask).bit_count() for b in bits(self.b_mask)),
            default=0,
        )


def adversarial_lists_for_copy(part: TwoCliquePartition, coloring_of_a: dict[int, int]) -> ListAssignment:
    """Lists on the partitioned graph for one copy under an A-coloring.

    A-vertices get the full universe [1..|A|+|B|-1]; each B-vertex gets the
    universe minus the colors of its non-neighbors in A. List sizes are at
    least |A|+|B|-1-slack.
    """
    G = part.graph
    universe = frozenset(range(1, part.universe_size() + 1))
    a_set = set(part.a_vertices())
    if set(coloring_of_a) != a_set:
        raise ValueError("the coloring must assign exactly the A-vertices")
    for a, c in coloring_of_a.items():
        if c not in universe:
            raise ValueError(f"color {c} of vertex {a} is outside the universe")
    lists: list[frozenset[int]] = [frozenset()] * G.n
    for a in a_set:
        lists[a] = universe
    for b in part.b_vertices():
        removed = {coloring_of_a[a] for a in a_set if not G.adj[b] >> a & 1}
        lists[b] = universe - removed
    return ListAssignment(tuple(lists))


@dataclass
class PastingBoundCheck:
    """The pasting lower bound that a valid two-clique partition proves.

    The ``copies``-fold pasting at A needs at least ``bound`` colors in some
    list assignment. ``colorings_checked`` counts the injective A-colorings
    from the universe that the proof covers.
    """

    bound: int
    copies: int
    colorings_checked: int


def check_pasting_lower_bound(part: TwoCliquePartition) -> PastingBoundCheck:
    """Prove that the K-fold pasting of the graph at A needs more than
    |A|+|B|-1-slack colors, for K = u^|A| and u = |A|+|B|-1.

    The lists are those of ``materialized_pasting_instance``: A gets the
    universe [1..u], and copy i's B-block gets the adversarial lists of the
    i-th function from A to the universe, so every list has at least
    u-slack colors. No proper coloring from these lists exists:

    - A is a clique, so every proper coloring is injective on A. Some copy
      plans exactly that A-coloring; pin A to it.
    - In that copy each B-vertex loses every A-color: its A-neighbors'
      colors because the coloring is proper, its A-non-neighbors' colors
      because its list omits them.
    - That leaves the clique B with u-|A| = |B|-1 colors, too few.

    The proof covers all perm(u, |A|) injective A-colorings at once; when
    |A| > u there are none, and the clique A alone cannot be colored. It
    holds for every partition that ``validate`` accepts, which raises
    ValueError on any other.
    """
    part.validate()
    a_count = part.a_mask.bit_count()
    u = part.universe_size()
    bound = a_count + part.b_mask.bit_count() - part.slack
    if part.graph.n == 0:  # empty gadget: the claimed bound is 0, vacuously certified
        return PastingBoundCheck(bound=bound, copies=1, colorings_checked=0)
    return PastingBoundCheck(bound=bound, copies=u**a_count, colorings_checked=math.perm(u, a_count))


def materialized_pasting_instance(
    part: TwoCliquePartition, *, check_invariants: bool = True
) -> tuple[Graph, ListAssignment]:
    """The explicit pasting and list assignment behind the pasting bound.

    Builds the full K-fold pasting at A, K = (|A|+|B|-1)^|A|, and the lists
    in which copy i takes ``adversarial_lists_for_copy`` of the i-th
    A-coloring in mixed-radix enumeration order (every function from A to
    the universe, not only the proper ones). Only feasible for tiny
    fixtures; the uncolorability of this instance is the ground truth that
    ``check_pasting_lower_bound`` proves.
    """
    if check_invariants:
        part.validate()
    a_vertices = part.a_vertices()
    u = part.universe_size()
    copies = u ** len(a_vertices)
    spec = PastingSpec(part.graph, part.a_mask, copies)
    pasted = k_fold_pasting(spec)
    lists: list[frozenset[int]] = [frozenset()] * pasted.n
    for copy in range(copies):
        digits = []
        value = copy
        for _ in a_vertices:
            digits.append(value % u + 1)
            value //= u
        copy_lists = adversarial_lists_for_copy(part, dict(zip(a_vertices, digits))).lists
        for v, placed in enumerate(pasting_copy_vertices(spec, copy)):
            lists[placed] = copy_lists[v]
    return pasted, ListAssignment(tuple(lists))


# ---------------------------------------------------------------------------
# gadget builders


@dataclass
class GadgetResult:
    """Outcome of rejection sampling for a minor-free two-clique gadget.

    ``infeasible`` names the proof that no attempt could pass when the
    builder settled the shape without sampling. Every attempt either is
    rejected or returns the gadget, so ``attempts_used - found`` attempts
    were rejected.
    """

    graph: Graph | None
    partition: TwoCliquePartition | None
    attempts_used: int
    infeasible: str | None = None

    @property
    def found(self) -> bool:
        return self.graph is not None


def build_thm_conn_gadget(
    H: Graph, epsilon: Fraction, seed: int, attempts: int = 200, *, kappa: int | None = None
) -> GadgetResult:
    """Sample an H-minor-free two-clique gadget for well-connected H.

    Samples the bipartite model on n+n vertices at edge probability
    epsilon/2, keeps a sample whose maximum degree is at most epsilon*n,
    takes the complement gadget on the lowest-index part subsets of sizes
    floor((1-2*epsilon)*kappa(H)) and floor((1-2*epsilon)*n), and accepts it
    once an exact search confirms H-minor-freeness. Every B-vertex of an
    accepted gadget has at most epsilon*n non-neighbors. The partition
    carries the realized slack (the largest A-non-neighbor count).
    """
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < Fraction(1, 2):
        raise ValueError("epsilon must lie strictly between 0 and 1/2")
    if attempts < 0:
        raise ValueError(f"attempts must be nonnegative, not {attempts}")
    n = H.n
    if n == 0:
        raise ValueError("H must have at least one vertex")
    if kappa is None:
        from .graphs import vertex_connectivity

        kappa = vertex_connectivity(H)
    if Fraction(kappa) < epsilon * n:
        import warnings

        warnings.warn(
            "connectivity below epsilon*n: the trivial-branch bound applies",
            stacklevel=2,
        )
    a_count = math.floor((1 - 2 * epsilon) * kappa)
    b_count = math.floor((1 - 2 * epsilon) * n)
    p = epsilon / 2
    # the gadget keeps the lowest-index vertices of each part and lists the
    # kept A-vertices first, so in F A's mask is a_mask and B's is b_low << a_count
    a_mask = (1 << a_count) - 1
    b_low = (1 << b_count) - 1
    for attempt in range(attempts):
        sample = sample_bipartite(n, n, float(p), seed + attempt)
        if Fraction(sample.max_degree()) > epsilon * n:
            continue
        F = bipartite_union_complement(sample, a_mask, b_low)
        if contains_minor(F, H) is not None:
            continue
        part = TwoCliquePartition(F, a_mask, b_low << a_count, 0)
        part = replace(part, slack=part.realized_slack())
        part.validate()
        return GadgetResult(F, part, attempt + 1)
    return GadgetResult(None, None, attempts)


def build_thm_random_gadget(
    H: Graph,
    delta: Fraction,
    p: Fraction | None,
    seed: int,
    attempts: int = 200,
) -> GadgetResult:
    """Sample a two-clique gadget whose pastings avoid sparse pseudo-random H.

    Samples the bipartite model on two parts of size floor((1-3*delta)*n)
    at edge probability p (default delta/2), keeps samples of maximum
    degree at most delta*n, and accepts the complement gadget once an exact
    sweep confirms it contains no minor of any induced pattern subgraph on
    at least ceil((1-delta)*n) vertices. Checking the smallest admissible
    induced subgraphs suffices: patterns on larger vertex sets contain them
    as subgraphs. The partition's slack is min(floor(delta*n), side), since
    a B-vertex has only |A| = side A-vertices to miss.

    Some shapes are settled without sampling. A kept sample has maximum
    degree at most s = floor(delta*n), and the gadget F is K_{2*side} minus
    the sample's edges. If s = 0 the sample is edgeless and F = K_{2*side}.
    If s = 1 the sample is a matching, and F has a K_t minor with
    t = floor(3*side/2): for two missing edges xx' and yy', the branch sets
    {x}, {y} and {x', y'} are connected and pairwise adjacent, and every
    vertex left over is a branch set of its own (a matching with fewer
    edges only leaves more). K_t contains every graph on t vertices, so
    when t >= ceil((1-delta)*n) every kept sample has a minor of the first
    induced pattern the sweep tries, every attempt would be rejected, and
    the result is "not found" with no attempt used and the reason in
    ``infeasible``.
    """
    delta = Fraction(delta)
    if not 0 < delta < Fraction(1, 3):
        raise ValueError("delta must lie strictly between 0 and 1/3")
    if attempts < 0:
        raise ValueError(f"attempts must be nonnegative, not {attempts}")
    if p is None:
        p = delta / 2
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    n = H.n
    if n == 0:
        raise ValueError("H must have at least one vertex")
    side = math.floor((1 - 3 * delta) * n)
    if side < 1:
        raise ValueError("(1-3*delta)*n is below 1; no gadget exists at this scale")
    u_size = math.ceil((1 - delta) * n)
    s = math.floor(delta * n)
    if s <= 1:
        clique = 2 * side if s == 0 else 3 * side // 2
        if clique >= u_size:
            kept = "edgeless" if s == 0 else "a matching"
            reason = (
                f"every sample of maximum degree at most {s} is {kept}, so the gadget "
                f"has a K{clique} minor, which contains every induced pattern on {u_size} vertices"
            )
            return GadgetResult(None, None, 0, reason)
    a_mask = (1 << side) - 1
    for attempt in range(attempts):
        sample = sample_bipartite(side, side, float(p), seed + attempt)
        if Fraction(sample.max_degree()) > delta * n:
            continue
        F = bipartite_union_complement(sample, a_mask, a_mask)
        if find_induced_pattern_minor(F, H, u_size) is not None:
            continue
        part = TwoCliquePartition(F, a_mask, a_mask << side, min(s, side))
        part.validate()
        return GadgetResult(F, part, attempt + 1)
    return GadgetResult(None, None, attempts)
