"""Static checks over the package source, standing in for a linter."""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "limla"


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


def module_names(source: str) -> dict:
    """Names that a module's top-level statements define, with their lines.

    Imports are left out (unused_imports covers them), and so are dunder
    names, which the interpreter and tools read.
    """
    names = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [ast.Name(node.name)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        else:
            continue
        for target in targets:
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Name) and not leaf.id.startswith("__"):
                    names.setdefault(leaf.id, node.lineno)
    return names


def read_names(source: str) -> set:
    """Every name a source reads: loaded names, attributes and imported names."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def unread_names(defining: str, readers) -> list:
    """Module-level names of one source that none of the readers reads."""
    read = set().union(*map(read_names, readers))
    return sorted((line, name) for name, line in module_names(defining).items()
                  if name not in read)


def test_dead_name_detector_flags_only_unread_names():
    src = ("import os\nA = 1\nB, _c = 2, 3\n__all__ = []\n"
           "def f():\n    return A\nclass K:\n    pass\nX: int = 4\nY = 5\n")
    other = "from m import K\nprint(m.X)\nm.Y = 6\n"
    assert unread_names(src, [src, other]) == [(3, "B"), (3, "_c"), (5, "f"), (10, "Y")]


def test_no_dead_module_names():
    readers = [path.read_text(encoding="utf-8")
               for top in ("src", "tests") for path in sorted((ROOT / top).rglob("*.py"))]
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(SRC.glob("*.py"))
             for line, name in unread_names(path.read_text(encoding="utf-8"), readers)]
    assert found == []
