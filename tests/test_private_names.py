"""Each module of maassforge keeps its private state to itself.

A name with one leading underscore is private to the module that defines it:
another module that reads it couples itself to how that module stores its
data, where a public name would say what it promises.  So no module of src/maassforge may read an attribute
x._name of any x but self or cls unless the module itself defines _name,
nor import a private name from another module of the package.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "maassforge").glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def foreign_private_reads(source: str) -> list[str]:
    """Each attribute x._name read in source whose x is not self or cls and
    whose _name source does not define (as a function, class, or the target
    of an assignment), as "x._name", and each private name imported from
    another module of the package, as "from .module import _name"."""
    tree = ast.parse(source)
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for t in ast.walk(target):
                    if isinstance(t, ast.Name):
                        defined.add(t.id)
                    elif isinstance(t, ast.Attribute):
                        defined.add(t.attr)
    return [
        f"{ast.unparse(node.value)}.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and _private(node.attr) and node.attr not in defined
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    ] + [
        f"from {'.' * node.level}{node.module or ''} import {alias.name}" for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("maassforge"))
        for alias in node.names if _private(alias.name)
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_modules_read_no_private_name_of_another(path):
    assert foreign_private_reads(path.read_text()) == []


def test_the_guard_sees_a_foreign_private_read():
    assert foreign_private_reads("def f(cg):\n    return cg._dlog\n") == ["cg._dlog"]
    assert foreign_private_reads("class A:\n    def f(self):\n        return self.field._chi(1)\n") == ["self.field._chi"]
    # a module's own private names, and those of self and cls, are its own
    assert foreign_private_reads("def _g():\n    pass\nclass A:\n    def f(self, o):\n"
                                 "        o._h = self._x\n        return o._g, o._h, cls._y\n") == []


def test_the_guard_sees_a_private_import():
    assert foreign_private_reads("from .quadfield import _x\n") == ["from .quadfield import _x"]
    assert foreign_private_reads("from maassforge.special import horner, _hermite_sum\n") == [
        "from maassforge.special import _hermite_sum"]
    # a dunder and another package's private name are not the package's own
    assert foreign_private_reads("from . import __version__\nfrom os import _exit\n") == []
