"""Every imported name is used: an AST scan of the package and the tests."""
import ast
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
