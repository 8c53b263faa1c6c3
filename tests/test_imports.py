"""No module of the package keeps an import it does not use, and every name
has one home: it is imported from the module that defines it, and only that
module's `__all__` lists it, but for the names the benchmark reads through
another module.

pyflakes is not a dependency, so this walks each module's syntax tree: every
name bound by a module-level import must be read somewhere in the module
(annotations included) or be listed in its `__all__`."""

import ast
import importlib
from pathlib import Path

import pytest

import polyauto

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "polyauto"


def import_use(source: str):
    """The names bound by module-level imports (with their lines), the names
    in `__all__`, and the names the module reads."""
    tree = ast.parse(source)
    bound = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound, exported, read


def unused_imports(source: str) -> list[str]:
    bound, exported, read = import_use(source)
    return [f"{name} (line {line})" for name, line in bound.items()
            if name not in read and name not in exported]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = ("from math import gcd, lcm\nimport os\n"
              "__all__ = ['lcm']\n\ndef f(x: int):\n    return gcd(x, 2)\n")
    assert unused_imports(source) == ["os (line 2)"]


# the names perfbench reads through a module other than their home; each
# goes once ROADMAP direction 18 renames its reader
PERFBENCH_NAMES = {"autos.compose", "slin.translation_from_any",
                   "certificates.serialize_certificate",
                   "kernels.mul_terms_ext"}
# those of them that their module imports only to export them
PERFBENCH_REEXPORTS = {"autos.compose", "slin.translation_from_any"}


def defined(source: str) -> set[str]:
    """The names a module binds at its top level other than by importing."""
    out = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            out |= {n.id for t in targets for n in ast.walk(t)
                    if isinstance(n, ast.Name)}
    return out


HOMES = {path.stem: defined(path.read_text())
         for path in PACKAGE.glob("*.py")}


def misplaced(source: str, module: str) -> set[str]:
    """`X.Y` for each `from polyauto.X import Y` or `from .X import Y` of a
    name that X does not define, and `module.Y` for each entry Y of the
    source's `__all__` that the source does not define."""
    _, exported, _ = import_use(source)
    found = {f"{module}.{name}" for name in exported - defined(source)}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        home = node.module if node.level else \
            node.module.partition("polyauto.")[2]
        if home in HOMES:
            found |= {f"{home}.{alias.name}" for alias in node.names
                      if alias.name not in HOMES[home]}
    return found


def reexports(path) -> set[str]:
    bound, exported, read = import_use(path.read_text())
    return {f"{path.stem}.{name}" for name in bound
            if name in exported and name not in read}


def test_only_the_perfbench_reexports_remain():
    found = set()
    for path in PACKAGE.glob("*.py"):
        found |= misplaced(path.read_text(), path.stem)
    for path in TESTS.glob("*.py"):
        found |= misplaced(path.read_text(), path.stem)
    # the package root lists the public names it resolves from their homes
    found -= {f"__init__.{name}" for name in polyauto._HOMES}
    assert found - PERFBENCH_NAMES == set()
    reexported = set().union(*map(reexports, PACKAGE.glob("*.py")))
    assert reexported == PERFBENCH_REEXPORTS


def test_the_check_sees_a_name_away_from_its_home():
    source = ("from .autos import Endo, comm\n"
              "from polyauto.maps import compose\n"
              "__all__ = ['helper', 'compose']\n\n"
              "def helper():\n    return comm, Endo\n")
    assert misplaced(source, "tools") == {"autos.Endo", "tools.compose"}


# the names perfbench reads through a module that imports them only when
# they are read (its `__getattr__`), so that a verify or Q process loads
# neither home
PERFBENCH_LAZY = {"certificates.serialize_certificate": "textio",
                  "kernels.mul_terms_ext": "finite"}


@pytest.mark.parametrize("name", sorted(PERFBENCH_LAZY))
def test_each_lazy_perfbench_name_is_the_object_of_its_home(name):
    module, _, attr = name.partition(".")
    got = getattr(importlib.import_module(f"polyauto.{module}"), attr)
    home = importlib.import_module(f"polyauto.{PERFBENCH_LAZY[name]}")
    assert got is getattr(home, attr)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(importlib.import_module(f"polyauto.{module}"), "no_such_name")
