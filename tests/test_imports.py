"""Every imported name is used, every top-level function and class of
the package is referenced from its code, only `times` builds index
values, and one class holds the parsers' cursor: AST scans."""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path: Path) -> list:
    """`file:line: name` for each name imported in `path` that no
    expression reads; `__future__` features are not names."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported.items() if name not in read]


def test_every_imported_name_is_used():
    paths = [*sorted((ROOT / "src" / "proccat").glob("*.py")),
             *sorted((ROOT / "tests").glob("*.py"))]
    assert len(paths) > 20
    assert [found for path in paths for found in unused_imports(path)] == []


def names_in(node) -> Counter:
    """How often `node`'s code names each identifier: as a name, an
    attribute or an import (whose use the scan above checks)."""
    return Counter(n.id if isinstance(n, ast.Name) else
                   n.attr if isinstance(n, ast.Attribute) else n.name
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute, ast.alias)))


def unreferenced_definitions(paths: list) -> list:
    """`file:line: name` for each top-level function or class in `paths`
    that no code in `paths` names outside its own definition; docstrings
    and comments are not code."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    named = sum(map(names_in, trees.values()), Counter())
    return [f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}"
            for path, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and named[node.name] == names_in(node)[node.name]]


def test_every_definition_is_referenced():
    paths = sorted((ROOT / "src" / "proccat").glob("*.py"))
    assert unreferenced_definitions(paths) == []


INDEX_CLASSES = ("IndexPair", "IndexMor")


def index_value_calls(path: Path) -> list:
    """`file:line: name` for each call in `path` that builds an index pair
    or arrow, by bare or dotted name."""
    tree = ast.parse(path.read_text(), str(path))
    called = [(n.lineno, getattr(n.func, "id", getattr(n.func, "attr", None)))
              for n in ast.walk(tree) if isinstance(n, ast.Call)]
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for line, name in called if name in INDEX_CLASSES]


def test_only_the_scale_builds_index_values():
    # Every other module reads its pairs and arrows off a scale, so how an
    # index is found is decided in `times` alone.
    package = ROOT / "src" / "proccat"
    assert len(index_value_calls(package / "times.py")) == 2
    assert [found for path in sorted(package.glob("*.py")) if path.name != "times.py"
            for found in index_value_calls(path)] == []


CURSOR = ("peek", "take", "expect")


def cursor_methods(path: Path) -> list:
    """`file:Class.method` for each cursor method a class in `path` defines."""
    tree = ast.parse(path.read_text(), str(path))
    return [f"{path.name}:{cls.name}.{node.name}"
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and node.name in CURSOR]


def test_one_class_reads_tokens():
    # Both input languages read their tokens through `times.Reader`; each
    # parser keeps only its grammar.
    package = ROOT / "src" / "proccat"
    assert [found for path in sorted(package.glob("*.py"))
            for found in cursor_methods(path)] == [
        "times.py:Reader.peek", "times.py:Reader.take", "times.py:Reader.expect"]
