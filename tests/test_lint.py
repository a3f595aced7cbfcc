"""Every name a ``minorforge`` module imports is used in that module, and
every module-level private name is read somewhere in the package."""

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


def unread_private_names(trees: dict[str, ast.Module]) -> list[tuple[str, str]]:
    """(module, name) for each module-level ``_private`` function, class or
    constant that no module of the package reads."""
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            defined += [(module, name) for name in names if name.startswith("_") and not name.startswith("__")]
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted((module, name) for module, name in defined if name not in read)


def test_sources_are_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    unused = unused_imports(ast.parse(path.read_text(), str(path)))
    assert not unused, "; ".join(f"{path.name}:{line} imports {name} unused" for name, line in unused)


def test_an_unused_import_is_caught():
    tree = ast.parse("from dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int\n")
    assert unused_imports(tree) == [("field", 1)]


def test_no_unread_private_names():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    unread = unread_private_names(trees)
    assert not unread, "; ".join(f"{module} defines {name}, which nothing reads" for module, name in unread)


def test_an_unread_private_name_is_caught():
    trees = {
        "a.py": ast.parse("_LIMIT = 3\n_used: int = 1\n\ndef _helper():\n    return _used\n"),
        "b.py": ast.parse("from .a import _helper\n\nclass _Orphan:\n    x = _helper()\n"),
    }
    assert unread_private_names(trees) == [("a.py", "_LIMIT"), ("b.py", "_Orphan")]
