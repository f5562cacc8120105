"""No dead public code in the library.

Every module of the package is parsed.  A public top-level function or
class (a name without a leading underscore) must either be read
somewhere in the package, its own module included, or be exported by
``hyptor.__all__``.  An import alone does not count as a use, so a name
that only ``__init__`` imports is caught unless it is also exported.

A public method of a public class (properties aside) must be read as an
attribute somewhere in the package, whether or not its class is
exported: ``obj.name`` or ``Class.name`` in any module counts, an
assignment to ``obj.name`` does not.
"""

import ast
from pathlib import Path

import hyptor

SRC = Path(__file__).resolve().parent.parent / "src" / "hyptor"

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_property(node: ast.AST) -> bool:
    """Decorated as a property, or as its setter, getter or deleter."""
    for dec in node.decorator_list:
        if isinstance(dec, ast.Name) and dec.id in ("property", "cached_property"):
            return True
        if isinstance(dec, ast.Attribute) and dec.attr in ("cached_property", "setter", "getter", "deleter"):
            return True
    return False


def unused_public_names(sources: dict[str, str], exported: set[str]) -> list[str]:
    """"module.name" of every public top-level def or class that no
    module reads and that is not exported, and "module.Class.method" of
    every public method of a public class that no module reads as an
    attribute, sorted."""
    defined = []
    methods = []
    used: set[str] = set()
    read_attributes: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (*_FUNCTIONS, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append((module, node.name))
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                methods.extend(
                    (module, node.name, item.name)
                    for item in node.body
                    if isinstance(item, _FUNCTIONS) and not item.name.startswith("_") and not _is_property(item)
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    read_attributes.add(node.attr)
    unused = [f"{module}.{name}" for module, name in defined if name not in used and name not in exported]
    unused += [f"{module}.{cls}.{name}" for module, cls, name in methods if name not in read_attributes]
    return sorted(unused)


def test_guard_flags_each_unused_name():
    sources = {
        "a": "def used(): pass\ndef dead(): pass\nclass Dead: pass\ndef _private(): pass\ndef exported(): pass\n",
        "b": "from .a import used, Dead\nfrom . import a\n\nvalue = used() + a.used()\n",
        "c": "class Base: pass\nclass Child(Base): pass\ndef by_attribute(): pass\nx = module.by_attribute\n",
        "d": (
            "class Point:\n"
            "    def read(self): pass\n"
            "    def dead(self): pass\n"
            "    def stored(self): pass\n"
            "    def _private(self): pass\n"
            "    @property\n"
            "    def size(self): pass\n"
            "    @classmethod\n"
            "    def unused_constructor(cls): pass\n"
            "class _Hidden:\n"
            "    def dead(self): pass\n"
            "p = Point()\np.read()\np.stored = 1\n"
        ),
    }
    assert unused_public_names(sources, {"exported", "Point"}) == [
        "a.Dead",
        "a.dead",
        "c.Child",
        "d.Point.dead",
        "d.Point.stored",
        "d.Point.unused_constructor",
    ]


def test_every_public_name_is_used_or_exported():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert sources
    assert unused_public_names(sources, set(hyptor.__all__)) == []
