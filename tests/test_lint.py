"""Static checks over the package source, standing in for a linter."""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "limla"


def unused_imports(source: str) -> list:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_detector_flags_only_unread_names():
    src = "import os\nimport sys\nfrom x import a, b as c\nprint(sys.argv, c)\n"
    assert unused_imports(src) == [(1, "os"), (3, "a")]


def test_no_unused_imports():
    # __init__.py exists to re-export, so its imports are exempt
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []
