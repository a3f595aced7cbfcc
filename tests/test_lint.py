"""Every name a ``minorforge`` module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "minorforge").glob("*.py"))


def unused_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) for each imported name the module never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((name, line) for name, line in imported.items() if name not in used)


def test_sources_are_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    unused = unused_imports(ast.parse(path.read_text(), str(path)))
    assert not unused, "; ".join(f"{path.name}:{line} imports {name} unused" for name, line in unused)


def test_an_unused_import_is_caught():
    tree = ast.parse("from dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int\n")
    assert unused_imports(tree) == [("field", 1)]
