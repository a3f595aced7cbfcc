"""Every package name the benchmark tracer patches still exists, so a rename
in the package cannot silently drop a traced metric."""

import functools
import importlib
import importlib.util
from pathlib import Path


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    counted = [("graphs", "is_connected_subset"), ("graphs", "induced_subgraph")]
    assert len(tracing.SPANNED) > 30
    for module, attr in tracing.SPANNED + counted:
        owner = importlib.import_module(f"minorforge.{module}")
        assert callable(functools.reduce(getattr, attr.split("."), owner)), (module, attr)


def test_minor_search_calls_is_connected_subset_by_name(monkeypatch):
    """The tracer counts candidate branch sets by wrapping
    ``minors.is_connected_subset``; a search that stopped calling that name
    would read 0 for ``minors.connected_candidate_frac``."""
    from minorforge import minors
    from minorforge.graphs import Graph, complete_bipartite_graph

    calls = []
    original = minors.is_connected_subset

    def counting(G, S):
        calls.append(S)
        return original(G, S)

    monkeypatch.setattr(minors, "is_connected_subset", counting)
    rim = [(i, (i + 1) % 5) for i in range(5)]
    prism = Graph.from_edges(10, rim + [(u + 5, v + 5) for u, v in rim] + [(i, i + 5) for i in range(5)])
    assert minors.contains_minor(prism, complete_bipartite_graph(3, 3)) is None  # planar
    assert calls


def test_isolated_sampler_calls_contains_minor_by_name(monkeypatch):
    """The tracer counts ``minors.contains_minor.calls`` through the name
    ``pipelines.contains_minor`` as well; the isolated sampler must search
    each sample of order at least v(H) through that name, once, and no
    smaller sample, so the count falls only by the samples settled by proof."""
    import random

    from minorforge import pipelines
    from minorforge.graphs import add_isolated_vertices, complete_graph

    searched = []
    original = pipelines.contains_minor

    def counting(G, H, *args, **kwargs):
        searched.append(G.n)
        return original(G, H, *args, **kwargs)

    monkeypatch.setattr(pipelines, "contains_minor", counting)
    seed, count, max_n = 7, 300, 8
    rng = random.Random(seed)
    orders = []
    for _ in range(count):
        orders.append(rng.randint(1, max_n))
        for _ in range(orders[-1] * (orders[-1] - 1) // 2):
            rng.random()

    H = add_isolated_vertices(complete_graph(3), 3)
    pipelines._isolated_samples(H, seed, count, max_n, 0.5)
    assert searched == [n for n in orders if n >= H.n]
    assert 0 < len(searched) < count

    searched.clear()
    pipelines._isolated_samples(add_isolated_vertices(complete_graph(4), 5), seed, count, max_n, 0.5)
    assert searched == []


def test_list_chromatic_number_reaches_the_sweep_by_name(monkeypatch):
    """The tracer counts ``coloring.find_uncolorable_assignment.calls``
    through that module name. ``list_chromatic_number`` must reach the
    support sweep only through it, and with shortcuts never at k = 2,
    which the Erdős–Rubin–Taylor theorem answers; otherwise the traced
    count could fall for some other reason."""
    from minorforge import coloring
    from minorforge.graphs import complete_bipartite_graph, complete_multipartite_graph, cycle_graph

    swept, inside = [], []
    original = coloring.find_uncolorable_assignment
    sweep = coloring._capped_uncolorable_supports

    def counting(G, k, **kwargs):
        swept.append((k, kwargs.get("use_shortcuts", True)))
        inside.append(True)
        try:
            return original(G, k, **kwargs)
        finally:
            inside.pop()

    def searching(H, k):
        assert inside, "support search reached without find_uncolorable_assignment"
        return sweep(H, k)

    monkeypatch.setattr(coloring, "find_uncolorable_assignment", counting)
    monkeypatch.setattr(coloring, "_capped_uncolorable_supports", searching)
    graphs = [complete_bipartite_graph(3, 3), complete_bipartite_graph(2, 4), complete_multipartite_graph(2, 2, 2),
              complete_bipartite_graph(2, 3), cycle_graph(6)]
    assert [coloring.list_chromatic_number(G) for G in graphs] == [3, 3, 3, 2, 2]
    assert swept and (2, True) not in swept
    swept.clear()
    assert coloring.list_chromatic_number(complete_bipartite_graph(2, 4), use_shortcuts=False) == 3
    assert (2, False) in swept


def test_chromatic_number_calls_is_l_colorable_by_name(monkeypatch):
    """The tracer counts ``coloring.is_l_colorable.calls`` through that
    module name; ``chromatic_number`` must try each k through it."""
    from minorforge import coloring
    from minorforge.graphs import complete_graph, cycle_graph

    tried = []
    original = coloring.is_l_colorable

    def counting(G, L):
        tried.append(L.min_size())
        return original(G, L)

    monkeypatch.setattr(coloring, "is_l_colorable", counting)
    assert coloring.chromatic_number(cycle_graph(5)) == 3
    assert coloring.chromatic_number(complete_graph(4)) == 4
    assert tried == [2, 3, 4]  # from the greedy clique size up
