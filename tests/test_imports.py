"""No module of the package keeps an import it does not use, and only the
re-exports the benchmark reads are imported just to be exported.

pyflakes is not a dependency, so this walks each module's syntax tree: every
name bound by a module-level import must be read somewhere in the module
(annotations included) or be listed in its `__all__`."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "polyauto"


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


# the names a module imports only to export them: perfbench reads each
# through that module, and each goes once ROADMAP direction 18 renames its
# reader
PERFBENCH_REEXPORTS = {"autos.compose", "slin.translation_from_any"}


def reexports(path) -> set[str]:
    bound, exported, read = import_use(path.read_text())
    return {f"{path.stem}.{name}" for name in bound
            if name in exported and name not in read}


def test_only_the_perfbench_reexports_remain():
    found = set().union(*map(reexports, PACKAGE.glob("*.py")))
    assert found == PERFBENCH_REEXPORTS


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
