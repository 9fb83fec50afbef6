"""Every name that a module under src/ or tests/ imports is read in it."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src", "tests")
                 for path in (ROOT / folder).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Imported names that the module never reads, ``__future__`` imports and
    names listed in ``__all__`` excepted."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return sorted(set(imported) - read)


def test_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path as osp\nfrom sys import argv, path\n"
              "from json import dumps\n__all__ = ['dumps']\nprint(argv)\n")
    assert unused_imports(source) == ["os", "osp", "path"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []
