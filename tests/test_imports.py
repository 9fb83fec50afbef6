"""Every name that a module under src/ or tests/ imports is read in it,
every name in a package module's ``__all__`` is bound in that module, and
every module-level function and class under src/ is read somewhere in src/
or listed in its module's ``__all__``."""

import ast
import collections
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src", "tests")
                 for path in (ROOT / folder).rglob("*.py"))
MODULES = sorted(".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
                 .removesuffix(".__init__") for path in (ROOT / "src").rglob("*.py"))


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
    return sorted(set(imported) - read - _exported(tree))


def _exported(tree: ast.Module) -> set[str]:
    """The names listed in the module's ``__all__``."""
    names = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names |= set(ast.literal_eval(node.value))
    return names


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each module-level function or class in ``sources``
    (module name to source) that no source reads, as a name or an
    attribute, and whose module does not list it in ``__all__``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = collections.Counter()
    for tree in trees.values():
        read.update(_reads(tree))
    unread = []
    for module, tree in trees.items():
        exported = _exported(tree)
        # a definition's reads of its own name (recursion) do not count
        unread += [f"{module}.{node.name}" for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                   and node.name not in exported
                   and read[node.name] == _reads(node)[node.name]]
    return sorted(unread)


def _reads(tree: ast.AST) -> collections.Counter:
    """How often each name is read in ``tree``, as a name or an attribute."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store))
        or isinstance(node, ast.Attribute))


def test_checker_finds_an_unread_definition():
    sources = {
        "a": "__all__ = ['public']\ndef public(): return _helper()\n"
             "def _helper(): pass\ndef _leftover(): pass\nclass _Old: pass\n",
        "b": "from a import public\nimport a\ndef _used(): pass\nx = a.b._used\n"
             "def _recursive(): return _recursive()\n",
    }
    assert unread_definitions(sources) == ["a._Old", "a._leftover", "b._recursive"]


def test_every_definition_under_src_is_read():
    sources = {".".join(path.relative_to(ROOT / "src").with_suffix("").parts): path.read_text()
               for path in (ROOT / "src").rglob("*.py")}
    assert unread_definitions(sources) == []


def test_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path as osp\nfrom sys import argv, path\n"
              "from json import dumps\n__all__ = ['dumps']\nprint(argv)\n")
    assert unused_imports(source) == ["os", "osp", "path"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_is_bound(name):
    # unused_imports reads every __all__ name, so a stale one would hide an
    # unused import, and ``from module import *`` would fail on it
    module = importlib.import_module(name)
    assert [public for public in module.__all__ if not hasattr(module, public)] == []
