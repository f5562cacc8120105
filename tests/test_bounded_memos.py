"""Every memo in the library is bounded explicitly.

The package is parsed, and each use of a functools memo decorator
(``cache``, ``lru_cache``, ``cached_property``), whether imported by
name, under another name or read as ``functools.name``, must be one of:

- ``lru_cache`` called with an integer ``maxsize``, by keyword or as
  its first argument;
- ``cache`` decorating a function of no parameters, which can hold one
  value only (the CLI's parser).

Anything else fails: ``lru_cache(maxsize=None)``, a bare
``lru_cache``, ``cache`` on a function of arguments or applied by a
call, and ``cached_property``, which keeps a value per instance.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hyptor"

_MEMOS = ("cache", "lru_cache", "cached_property")


def _memo_names(tree: ast.AST) -> tuple[dict[str, str], set[str]]:
    """Local names bound to functools memos, and names bound to the
    functools module."""
    names, modules = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update({a.asname or a.name: a.name for a in node.names if a.name in _MEMOS})
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
    return names, modules


def _memo(node: ast.AST, names: dict[str, str], modules: set[str]) -> str | None:
    """The functools memo node names, if it names one."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
        return node.attr if node.attr in _MEMOS else None
    return None


def _int_maxsize(call: ast.Call) -> bool:
    args = [k.value for k in call.keywords if k.arg == "maxsize"] or call.args[:1]
    return len(args) == 1 and isinstance(args[0], ast.Constant) and type(args[0].value) is int


def _no_parameters(f: ast.FunctionDef) -> bool:
    a = f.args
    return not (a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg)


def unbounded_memos(sources: dict[str, str]) -> list[str]:
    """"module:line name" of every memo in sources that is not bounded
    by the rules above, sorted."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        names, modules = _memo_names(tree)
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _memo(node.func, names, modules) == "lru_cache" and _int_maxsize(node):
                allowed.add(id(node.func))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _no_parameters(node):
                allowed |= {id(d) for d in node.decorator_list if _memo(d, names, modules) == "cache"}
        for node in ast.walk(tree):
            kind = _memo(node, names, modules)
            if kind is not None and id(node) not in allowed:
                found.append(f"{module}:{node.lineno} {kind}")
    return sorted(found)


def test_guard_flags_each_unbounded_memo():
    sources = {
        "a": (
            "import functools\n"
            "from functools import lru_cache, cache as memo, cached_property\n"
            "@lru_cache(maxsize=None)\ndef f(x): return x\n"
            "@functools.lru_cache\ndef g(x): return x\n"
            "@memo\ndef h(x): return x\n"
            "k = functools.cache(len)\n"
            "class C:\n    @cached_property\n    def v(self): return 1\n"
        ),
        "b": (
            "import functools as ft\n"
            "from functools import lru_cache\n"
            "@lru_cache(maxsize=64)\ndef f(x): return x\n"
            "@ft.lru_cache(16)\ndef g(x): return x\n"
            "@ft.cache\ndef h(): return 1\n"
            "k = ft.lru_cache(maxsize=8)(len)\n"
            "def cache(x): return x\n"
            "@cache\ndef k(x): return x\n"
        ),
    }
    assert unbounded_memos(sources) == [
        "a:11 cached_property",
        "a:3 lru_cache",
        "a:5 lru_cache",
        "a:7 cache",
        "a:9 cache",
    ]


def test_every_memo_in_the_package_is_bounded():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert sources
    assert unbounded_memos(sources) == []
    # the scan reads the package's own memos: the frame memo unbounded
    # is caught
    bounded = "@lru_cache(maxsize=64)\ndef quotient_frame("
    assert sources["d4_family"].count(bounded) == 1
    sources["d4_family"] = sources["d4_family"].replace(bounded, bounded.replace("64", "None"))
    assert [m.split()[1] for m in unbounded_memos(sources)] == ["lru_cache"]


def memo_functions(sources: dict[str, str]) -> list[str]:
    """"module.function" of every function in sources that an
    ``lru_cache`` decorates, sorted."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        names, modules = _memo_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for d in node.decorator_list:
                    if _memo(d.func if isinstance(d, ast.Call) else d, names, modules) == "lru_cache":
                        found.append(f"{module}.{node.name}")
    return sorted(found)


def readme_memo_rows(readme: str) -> list[str]:
    """The memos the README's "Performance" memo table names, from the
    first cell of each row, sorted."""
    section = readme.split("\n## Performance\n", 1)[1].split("\n## ", 1)[0]
    return sorted(re.findall(r"^\| `(\w+\.\w+)` \(\d+\) \|", section, flags=re.M))


def test_readme_memo_table_names_every_memo():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    memos = memo_functions(sources)
    assert "d4_family.quotient_frame" in memos
    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    assert readme_memo_rows(readme) == memos
    # a row left behind by a deleted memo is caught
    row = "| `d4_family.quotient_frame` (64) |"
    assert readme.count(row) == 1
    stale = "| `affine_actions._dropped` (256) | a linear part | 0/7 | 485/19 | 0/0 |\n"
    assert readme_memo_rows(readme.replace(row, stale + row)) == sorted([*memos, "affine_actions._dropped"])
