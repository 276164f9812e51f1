"""Every name that a module of the package, the tests or the demos imports
is read somewhere in that module.  The package's `__init__.py` is left out:
its imports are the public re-exports.  Every private module-level name of
the package is read somewhere in the package, outside its own definition."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src/hyperq", "tests", "demos")
                 for path in (ROOT / folder).rglob("*.py")
                 if path != ROOT / "src/hyperq/__init__.py")
PACKAGE = sorted((ROOT / "src/hyperq").rglob("*.py"))


def unread_imports(source: str) -> list:
    """(line, name) of each name the source imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unread_imports_are_found():
    source = ("from __future__ import annotations\nimport os.path\nimport a as b\n"
              "from c import d, e as f\nf(os)\n")
    assert unread_imports(source) == [(3, "b"), (4, "d")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(sources: dict) -> list:
    """(module, name) of each private module-level name that the modules in
    `sources` (module -> source) read nowhere but in the top-level statement
    that defines it, as a name or as an attribute."""
    defined, reads = [], []
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            nodes = list(ast.walk(statement))
            reads.append({node.id for node in nodes
                          if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
                         | {node.attr for node in nodes if isinstance(node, ast.Attribute)})
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [statement.name]
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                names = [node.id for node in nodes
                         if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
            else:
                names = []
            defined += [(module, name, len(reads) - 1) for name in names
                        if name.startswith("_") and not name.startswith("__")]
    return sorted((module, name) for module, name, k in defined
                  if not any(name in read for j, read in enumerate(reads) if j != k))


def test_unread_private_names_are_found():
    sources = {"a": "_A = 1\n_B: int = _A\ndef _f(n):\n    return _f(n - 1)\n__all__ = []\n",
               "b": "import a\nclass _C:\n    pass\nprint(a._B)\n"}
    assert unread_private_names(sources) == [("a", "_f"), ("b", "_C")]


def test_every_private_package_name_is_read():
    sources = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8") for path in PACKAGE}
    assert unread_private_names(sources) == []
