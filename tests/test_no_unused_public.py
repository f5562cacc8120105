"""No dead public code in the library.

Every module of the package is parsed.  A public top-level function or
class (a name without a leading underscore) must either be read
somewhere in the package, its own module included, or be exported by
``hyptor.__all__``.  An import alone does not count as a use, so a name
that only ``__init__`` imports is caught unless it is also exported.
An attribute read ``x.name`` counts as a use of a top-level ``name``
only when x is a module: a name bound by ``import``, or by ``from ...
import`` of a module of the package.  ``res.point`` on a result object
does not keep a function ``point`` alive.

A public method of a public class (properties aside) must be read as an
attribute somewhere in the package, whether or not its class is
exported: ``obj.name`` or ``Class.name`` in any module counts, an
assignment to ``obj.name`` does not.

A private top-level function, class or constant (one leading
underscore, dunders aside) must be read by some module of the package:
a deleted routine's helpers and constants do not stay behind.

A field of a record class of the package must be read as an
attribute, ``obj.name``, by a module of the package or of the tests,
unless its class serializes itself with ``asdict`` or ``_asdict``: a
result field that is only stored is dead weight.  The records are
dataclasses and ``NamedTuple`` subclasses, whose fields are their
annotated names, and classes with ``__slots__``, whose fields are the
slots.  A method call ``obj.name(...)`` is not a read of a field
``name``, and neither is a read in a class's ``__eq__``, ``__ne__`` or
``__hash__``: a field that is only compared is only stored.
"""

import ast
from pathlib import Path

import hyptor

SRC = Path(__file__).resolve().parent.parent / "src" / "hyptor"
TESTS = Path(__file__).resolve().parent

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_property(node: ast.AST) -> bool:
    """Decorated as a property, or as its setter, getter or deleter."""
    for dec in node.decorator_list:
        if isinstance(dec, ast.Name) and dec.id in ("property", "cached_property"):
            return True
        if isinstance(dec, ast.Attribute) and dec.attr in ("cached_property", "setter", "getter", "deleter"):
            return True
    return False


def _module_attribute_reads(tree: ast.AST, modules: set[str]) -> set[str]:
    """The attributes read as ``x.name`` or ``x.y.name`` with x bound in
    the tree by ``import``, or by ``from ... import`` of one of modules."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            bound |= {alias.asname or alias.name for alias in node.names if alias.name in modules}
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in bound:
                reads.add(node.attr)
    return reads


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
        used |= _module_attribute_reads(tree, set(sources))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read_attributes.add(node.attr)
    unused = [f"{module}.{name}" for module, name in defined if name not in used and name not in exported]
    unused += [f"{module}.{cls}.{name}" for module, cls, name in methods if name not in read_attributes]
    return sorted(unused)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _top_level_names(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a def or class, or the
    plain names an assignment binds."""
    if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """"module.name" of every private top-level def, class or constant
    that no module reads, sorted."""
    defined = []
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, name) for node in tree.body for name in _top_level_names(node) if _is_private(name)]
        read |= _module_attribute_reads(tree, set(sources))
        read |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_guard_flags_each_unused_name():
    sources = {
        "a": "def used(): pass\ndef dead(): pass\nclass Dead: pass\ndef _private(): pass\ndef exported(): pass\n",
        "b": "from .a import used, Dead\nfrom . import a\n\nvalue = used() + a.used()\n",
        "c": (
            "import module\nclass Base: pass\nclass Child(Base): pass\ndef by_attribute(): pass\n"
            "x = module.by_attribute\n"
        ),
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
        # an attribute of a result object shares the name of a function
        "e": "def point(): pass\ndef solve(): pass\nres = solve()\nx = res.point\n",
    }
    assert unused_public_names(sources, {"exported", "Point"}) == [
        "a.Dead",
        "a.dead",
        "c.Child",
        "d.Point.dead",
        "d.Point.stored",
        "d.Point.unused_constructor",
        "e.point",
    ]


def test_every_public_name_is_used_or_exported():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert sources
    assert unused_public_names(sources, set(hyptor.__all__)) == []


def test_guard_flags_each_unused_private_name():
    sources = {
        "a": (
            "_USED = 1\n_DEAD = 2\n_TYPED: int = 3\n_X, _Y = 1, 2\n__all__ = []\n"
            "def _helper(): return _USED + _X\ndef _dead(): pass\nclass _Dead: pass\n"
            "def public(): return _helper()\ndef _stale(): pass\n"
        ),
        "b": "from .a import _Dead\nfrom . import a\nvalue = a._Y\na._DEAD = 0\nres = a.public()\nx = res._stale\n",
    }
    assert unused_private_names(sources) == ["a._DEAD", "a._Dead", "a._TYPED", "a._dead", "a._stale"]


def test_every_private_name_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unused_private_names(sources) == []


def _named(node: ast.AST) -> str | None:
    """The name of a Name or Attribute node."""
    return getattr(node, "id", getattr(node, "attr", None))


def record_fields(node: ast.ClassDef) -> list[str]:
    """The fields of a record class: the annotated names of a class
    decorated with dataclass, bare or called, or derived from
    NamedTuple, by name or attribute; else the names in the class's
    ``__slots__``; none for any other class."""
    decorators = [_named(d.func if isinstance(d, ast.Call) else d) for d in node.decorator_list]
    if "dataclass" in decorators or "NamedTuple" in map(_named, node.bases):
        annotated = [item.target for item in node.body if isinstance(item, ast.AnnAssign)]
        return [target.id for target in annotated if isinstance(target, ast.Name)]
    for item in node.body:
        if isinstance(item, ast.Assign) and any(_named(t) == "__slots__" for t in item.targets):
            return [n.value for n in ast.walk(item.value) if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    return []


def _field_reads(tree: ast.AST) -> set[str]:
    """The names read as ``x.name``, method calls ``x.name(...)`` and
    reads in ``__eq__``, ``__ne__`` and ``__hash__`` aside."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    compared = {
        id(node)
        for f in ast.walk(tree)
        if isinstance(f, _FUNCTIONS) and f.name in ("__eq__", "__ne__", "__hash__")
        for node in ast.walk(f)
    }
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and id(node) not in called
        and id(node) not in compared
    }


def stored_only_fields(sources: dict[str, str], readers: list[str]) -> list[str]:
    """"module.Class.field" of every field of a record class in sources
    that no source or reader reads as an attribute, where the class does
    not call asdict or _asdict, sorted."""
    fields = []
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        read |= _field_reads(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if any(isinstance(n, ast.Call) and _named(n.func) in ("asdict", "_asdict") for n in ast.walk(node)):
                continue
            fields += [(module, node.name, name) for name in record_fields(node)]
    for source in readers:
        read |= _field_reads(ast.parse(source))
    return sorted(f"{module}.{cls}.{name}" for module, cls, name in fields if name not in read)


def _package_and_tests() -> tuple[dict[str, str], list[str]]:
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    tests = [path.read_text(encoding="utf-8") for path in sorted(TESTS.glob("*.py"))]
    assert sources and tests
    return sources, tests


def test_guard_flags_each_stored_only_field():
    sources = {
        "a": (
            "from dataclasses import asdict, dataclass\n"
            "import dataclasses\n"
            "@dataclass(frozen=True)\nclass Result:\n    ok: bool\n    index: int\n    row: tuple\n"
            "    def total(self): return self.ok\n"
            "@dataclasses.dataclass\nclass Stored:\n    kept: int\n"
            "@dataclass\nclass Flags:\n    flag: bool\n    def as_dict(self): return asdict(self)\n"
            "class Plain:\n    unread: int = 0\n"
            "r = Result(True, 0, ())\ni = (1, 2).index(2)\nr.row = ()\n"
        ),
        "b": (
            "import typing\nfrom typing import NamedTuple\n"
            "class Pair(typing.NamedTuple):\n    left: int\n    right: int\n    def total(self): return self.left\n"
            "class Report(NamedTuple):\n    flag: bool\n    def as_dict(self): return self._asdict()\n"
            "class Point:\n    __slots__ = ('x', 'compared')\n"
            "    def __init__(self, x, compared): self.x, self.compared = x, compared\n"
            "    def __eq__(self, other): return self.compared == other.compared\n"
            "    def __hash__(self): return hash(self.compared)\n"
            "x = Point(0, 1).x\n"
        ),
    }
    assert stored_only_fields(sources, ["x = r.ok.real\n"]) == [
        "a.Result.index",
        "a.Result.row",
        "a.Stored.kept",
        "b.Pair.right",
        "b.Point.compared",
    ]
    # the field that recorded which Smith row gave an obstruction, put
    # back on the package's Obstruction: the tuples' .index(...) calls
    # do not keep it alive
    package, tests = _package_and_tests()
    stored = "    row: tuple[int, ...]\n    value: Fraction\n"
    assert package["affine_actions"].count(stored) == 1
    package["affine_actions"] = package["affine_actions"].replace(stored, "    index: int\n" + stored)
    # and a slot on the package's AffineAut, which its __eq__ and
    # __hash__ read
    slots = '__slots__ = ("torus", "a", "t", "minus_identity")'
    assert package["affine_actions"].count(slots) == 1
    package["affine_actions"] = package["affine_actions"].replace(slots, slots.replace('"t"', '"t", "index"'))
    package["affine_actions"] = package["affine_actions"].replace("self.a, self.t)", "self.a, self.t, self.index)")
    assert stored_only_fields(package, tests) == ["affine_actions.AffineAut.index", "affine_actions.Obstruction.index"]


def test_every_dataclass_field_is_read():
    assert stored_only_fields(*_package_and_tests()) == []
