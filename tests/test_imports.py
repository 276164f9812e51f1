"""Every name that a module of the package, the tests or the demos imports
is read somewhere in that module.  The package's `__init__.py` is left out:
its imports are the public re-exports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src/hyperq", "tests", "demos")
                 for path in (ROOT / folder).rglob("*.py")
                 if path != ROOT / "src/hyperq/__init__.py")


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
