"""Layout of ``src/detourkit``: every top-level name, every ``__all__``
entry and every method serves the command line, only the atomic writer and
the geo cache write files, and no module imports :mod:`threading`.

The checks read the source with :mod:`ast`; nothing is imported or run.
Code that only tests call belongs in the tests (``conftest.py`` holds the
reference oracles), so it cannot drift into a second path beside the one
users run.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
from typing import Callable

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "detourkit"

# an open() mode with one of these characters writes
WRITE_MODE_CHARS = frozenset("wax+")


def _modules(package: Path) -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(package.glob("*.py"))
    }


def _definitions(tree: ast.Module) -> dict[str, list[ast.stmt]]:
    """Each top-level def, class and assigned name -> its statements."""
    defined: dict[str, list[ast.stmt]] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.setdefault(node.name, []).append(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined.setdefault(name.id, []).append(node)
    return defined


def _imports(tree: ast.Module) -> dict[str, tuple[str, str | None]]:
    """Each name bound by a relative import -> ``(module, name)``, with name
    None where the name is the module itself (``from . import geo``)."""
    bound: dict[str, tuple[str, str | None]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    bound[local] = (alias.name, None)
                else:
                    bound[local] = (node.module, alias.name)
    return bound


def _reached(package: Path) -> tuple[set[tuple[str, str]], dict, Callable]:
    """The ``(module, name)`` of each top-level definition that references
    reach from ``cli.main``, each module's definitions, and the resolver of
    a name as seen in a module to where it is defined."""
    modules = _modules(package)
    defined = {module: _definitions(tree) for module, tree in modules.items()}
    imported = {module: _imports(tree) for module, tree in modules.items()}

    def resolve(module: str, name: str) -> tuple[str, str | None] | None:
        """Where ``name`` as seen in ``module`` is defined, through re-exports."""
        while name not in defined[module]:
            target = imported[module].get(name)
            if target is None or target[1] is None:
                return target
            module, name = target
        return module, name

    pending: list[tuple[str, str | None]] = [("cli", "main")]
    reached: set[tuple[str, str]] = set()
    while pending:
        module, name = pending.pop()
        if name is None or (module, name) in reached:
            continue
        reached.add((module, name))
        for statement in defined[module][name]:
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    target = resolve(module, node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    owner = resolve(module, node.value.id)
                    # an attribute of a module alias (detours_mod.search_detours)
                    is_module = owner is not None and owner[1] is None
                    target = resolve(owner[0], node.attr) if is_module else None
                else:
                    continue
                if target is not None:
                    pending.append(target)
    return reached, defined, resolve


def unreached_names(package: Path = PACKAGE) -> list[str]:
    """``module.name`` of each top-level definition that no reference
    reaches from ``cli.main``."""
    reached, defined, _ = _reached(package)
    return sorted(
        f"{module}.{name}"
        for module, names in defined.items()
        for name in names
        if not (name.startswith("__") and name.endswith("__")) and (module, name) not in reached
    )


def unreached_exports(package: Path = PACKAGE) -> list[str]:
    """Each ``__all__`` entry whose definition ``cli.main`` does not reach.
    Raises :class:`LookupError` for an entry that names nothing."""
    reached, defined, resolve = _reached(package)
    (exported,) = defined["__init__"]["__all__"]
    unreached = []
    for name in ast.literal_eval(exported.value):
        root = resolve("__init__", name)
        if root is None:
            raise LookupError(f"__all__ names {name!r}, which the package does not define")
        if root not in reached:
            unreached.append(name)
    return unreached


def uncalled_members(package: Path = PACKAGE) -> list[str]:
    """``module.Class.member`` of each method or property, dunders aside,
    whose name no attribute (``.member``) in the package names outside the
    member's own ``def``."""
    trees = _modules(package)

    def attributes(tree: ast.AST) -> Counter:
        return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))

    named = sum((attributes(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for member in cls.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = member.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if named[name] - attributes(member)[name] <= 0:
                    found.append(f"{module}.{cls.name}.{name}")
    return sorted(found)


def _open_mode(call: ast.Call) -> ast.expr | None:
    """The mode argument of ``open(path, mode)`` or ``path.open(mode)``."""
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    position = 1 if isinstance(call.func, ast.Name) else 0
    return call.args[position] if len(call.args) > position else None


def _writes(call: ast.Call) -> bool:
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    mode = _open_mode(call)
    if mode is None:
        return False
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(WRITE_MODE_CHARS & set(mode.value))
    return True  # a mode computed at run time may write


def writing_calls(package: Path = PACKAGE) -> list[str]:
    """``module.qualname`` of the function around each call that opens a
    file to write."""
    found: list[str] = []

    def visit(node: ast.AST, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and _writes(child):
                found.append(".".join(scope))
            visit(child, scope)

    for module, tree in _modules(package).items():
        visit(tree, [module])
    return sorted(found)


def test_every_top_level_name_is_reached():
    unreached = unreached_names()
    assert not unreached, f"not reached from cli.main: {', '.join(unreached)}"


def test_every_export_is_reached():
    unreached = unreached_exports()
    assert not unreached, f"__all__ names what cli.main does not reach: {', '.join(unreached)}"


def test_every_member_is_named_outside_its_def():
    uncalled = uncalled_members()
    assert not uncalled, f"named nowhere in src/detourkit but their own def: {', '.join(uncalled)}"


def test_only_the_atomic_writer_and_the_geo_cache_write_files():
    # every output goes through replaced_on_success; the geo cache appends
    assert writing_calls() == ["geo.GeoCache.put", "graph.replaced_on_success"]


def test_the_scan_sees_a_test_only_helper_and_a_writer(tmp_path):
    package = tmp_path / "detourkit"
    package.mkdir()
    (package / "__init__.py").write_text(
        '__all__ = ["run", "exported_only"]\n__version__ = "1"\n'
        "from .core import exported_only, run\n",
        encoding="utf-8",
    )
    (package / "cli.py").write_text(
        "from . import core as core_mod\n"
        "def main():\n    return core_mod.run() + core_mod.LIMIT + core_mod.Box().used\n",
        encoding="utf-8",
    )
    (package / "core.py").write_text(
        "LIMIT = 3\n"
        "def run():\n    return _helper()\n"
        "def _helper():\n    return open('x').read()\n"
        "def only_tests():\n    return _twice()\n"
        "def _twice():\n    return 2\n"
        "def exported_only():\n    return 1\n"
        "def dump(path):\n    with open(path, 'a', encoding='utf-8') as f:\n        f.write('')\n"
        "class Box:\n"
        "    def __init__(self):\n        self.size = 0\n"
        "    @property\n    def used(self):\n        return self.size\n"
        "    def uncalled(self):\n        return self.uncalled()\n",
        encoding="utf-8",
    )
    # __all__ is no root: a name it alone reaches is unreached
    assert unreached_names(package) == [
        "core._twice",
        "core.dump",
        "core.exported_only",
        "core.only_tests",
    ]
    assert unreached_exports(package) == ["exported_only"]
    # a method named only inside its own def is uncalled
    assert uncalled_members(package) == ["core.Box.uncalled"]
    assert writing_calls(package) == ["core.dump"]
    # an __all__ entry naming nothing fails the scan, bound or not
    for init in (
        '__all__ = ["run", "no_such_name"]\nfrom .core import run\n',
        '__all__ = ["run", "gone"]\nfrom .core import run, gone\n',
    ):
        (package / "__init__.py").write_text(init, encoding="utf-8")
        with pytest.raises(LookupError, match="'(no_such_name|gone)'"):
            unreached_exports(package)


def test_no_module_imports_threading():
    importers = set()
    for module, tree in _modules(PACKAGE).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "threading" for name in names):
                importers.add(module)
    assert not importers, (
        f"{', '.join(sorted(importers))} import threading, but nothing in src/detourkit "
        "starts a thread: a lock there guards nothing"
    )
