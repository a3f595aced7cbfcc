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
