"""Every name that a module under src/, tests/ or scripts/ imports is read
in it, every name in a package module's ``__all__`` is bound in that module,
every module-level function, class and constant under src/ is read
somewhere in src/ or listed in its module's ``__all__``, every public
method or property of a class under src/ is read as an attribute in src/ or
scripts/, and the CLI loads no scipy."""

import ast
import collections
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted([*(path for folder in ("src", "tests") for path in (ROOT / folder).rglob("*.py")),
                  *(ROOT / "scripts").glob("*.py")])
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
    """``module.name`` of each module-level function, class or assigned name
    (dunder names excepted) in ``sources`` (module name to source) that no
    source reads, as a name or an attribute, and whose module does not list
    it in ``__all__``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = collections.Counter()
    for tree in trees.values():
        read.update(_reads(tree))
    unread = []
    for module, tree in trees.items():
        exported = _exported(tree)
        # a definition's reads of its own name (recursion) do not count
        unread += [f"{module}.{name}" for name, node in _definitions(tree)
                   if name not in exported and read[name] == _reads(node)[name]]
    return sorted(unread)


def _definitions(tree: ast.Module):
    """(name, statement) of each module-level function, class and assigned
    name, dunder names excepted."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((name.id, node) for target in targets for name in ast.walk(target)
                        if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
                        and not (name.id.startswith("__") and name.id.endswith("__")))


def _reads(tree: ast.AST) -> collections.Counter:
    """How often each name is read in ``tree``, as a name or an attribute."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store))
        or isinstance(node, ast.Attribute))


def test_checker_finds_an_unread_definition():
    sources = {
        "a": "__all__ = ['public', 'LIMIT']\ndef public(): return _helper(_SIZE)\n"
             "def _helper(n): pass\ndef _leftover(): pass\nclass _Old: pass\n"
             "LIMIT = 3\n_SIZE = 4\n_STALE, _PAIRED = 5, 6\n_TYPED: int = 7\n"
             "__version__ = '1'\n",
        "b": "from a import public\nimport a\ndef _used(): pass\nx = a.b._used\n"
             "def _recursive(): return _recursive()\nx.y = a._PAIRED\n",
    }
    assert unread_definitions(sources) == ["a._Old", "a._STALE", "a._TYPED", "a._leftover",
                                           "b._recursive"]


def test_every_definition_under_src_is_read():
    sources = {".".join(path.relative_to(ROOT / "src").with_suffix("").parts): path.read_text()
               for path in (ROOT / "src").rglob("*.py")}
    assert unread_definitions(sources) == []


def unread_members(sources: dict[str, str]) -> list[str]:
    """``module.Class.name`` of each public method or property of a class in
    ``sources`` (module name to source) that no source reads as an
    attribute, and whose name no module lists in ``__all__``. Dataclass
    fields are not methods, and dunder names are not public."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read, exported = collections.Counter(), set()
    for tree in trees.values():
        read.update(_attribute_reads(tree))
        exported |= _exported(tree)
    return sorted(
        f"{module}.{cls.name}.{node.name}" for module, tree in trees.items()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        # a member's reads of its own name (recursion) do not count
        and not node.name.startswith("_") and node.name not in exported
        and read[node.name] == _attribute_reads(node)[node.name])


def _attribute_reads(tree: ast.AST) -> collections.Counter:
    """How often each name is read in ``tree`` as an attribute."""
    return collections.Counter(node.attr for node in ast.walk(tree)
                               if isinstance(node, ast.Attribute)
                               and not isinstance(node.ctx, ast.Store))


def test_checker_finds_an_unread_member():
    sources = {
        "a": "__all__ = ['shape']\nclass A:\n    count: int = 0\n"
             "    def __len__(self): return 0\n    def _private(self): pass\n"
             "    def used(self): return self.size\n    @property\n    def size(self): pass\n"
             "    def shape(self): pass\n    def stale(self): pass\n"
             "    def again(self): return self.again()\n",
        "b": "from a import A\ndef f(a):\n    a.used()\n    a.stale = 1\n",
    }
    assert unread_members(sources) == ["a.A.again", "a.A.stale"]


def _overrides(member: str) -> bool:
    """Whether ``module.Class.name``, a member of a class under src/, is also
    defined by a base class, which may call it (argparse calls the ``error``
    of an ArgumentParser subclass)."""
    module, cls, name = member.rsplit(".", 2)
    owner = getattr(importlib.import_module(module), cls)
    return any(name in vars(base) for base in owner.__mro__[1:])


def test_every_member_under_src_is_read():
    sources = {".".join(path.relative_to(ROOT / "src").with_suffix("").parts): path.read_text()
               for path in (ROOT / "src").rglob("*.py")}
    sources.update({f"scripts.{path.stem}": path.read_text()
                    for path in (ROOT / "scripts").glob("*.py")})
    assert [member for member in unread_members(sources) if not _overrides(member)] == []


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


def test_cli_import_loads_no_scipy():
    # the test process has scipy loaded by the oracles, so a fresh one is asked
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    code = ("import sys, empchaos.cli\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
