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
