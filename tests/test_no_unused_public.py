"""No dead public code in the library.

Every module of the package is parsed.  A public top-level function or
class (a name without a leading underscore) must either be read
somewhere in the package, its own module included, or be exported by
``hyptor.__all__``.  An import alone does not count as a use, so a name
that only ``__init__`` imports is caught unless it is also exported.
"""

import ast
from pathlib import Path

import hyptor

SRC = Path(__file__).resolve().parent.parent / "src" / "hyptor"


def unused_public_names(sources: dict[str, str], exported: set[str]) -> list[str]:
    """"module.name" of every public top-level def or class that no
    module reads and that is not exported, sorted."""
    defined = []
    used: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append((module, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(f"{module}.{name}" for module, name in defined if name not in used and name not in exported)


def test_guard_flags_each_unused_name():
    sources = {
        "a": "def used(): pass\ndef dead(): pass\nclass Dead: pass\ndef _private(): pass\ndef exported(): pass\n",
        "b": "from .a import used, Dead\nfrom . import a\n\nvalue = used() + a.used()\n",
        "c": "class Base: pass\nclass Child(Base): pass\ndef by_attribute(): pass\nx = module.by_attribute\n",
    }
    assert unused_public_names(sources, {"exported"}) == ["a.Dead", "a.dead", "c.Child"]


def test_every_public_name_is_used_or_exported():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert sources
    assert unused_public_names(sources, set(hyptor.__all__)) == []
