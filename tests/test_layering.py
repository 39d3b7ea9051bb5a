"""Decisions that belong to one module of the package.

Family conventions live in rootdata: no other module asks for the family.
Every module of the package except rootdata is parsed, and a comparison
against a family name ("GL", "GSp", "G2"), directly or through a
container of names, fails the test.  Passing a family name as data, as
the check suites do with create("GL", 3), is allowed.

The KL cache file is read and written by cli alone: no module except
hecke, which defines it, and cli refers to KLCache, so the library
computes in memory.

The products x s_i are memoised in one place, the group's table per
generator in affweyl: no other module defines a class with __missing__.

Modules a table or query run does not use are imported where they are
first needed: no module except checks imports one of LAZY at module level,
and an import, a table and a query run load none of them.

No function of the package calls itself: a recursion along a reduced word
needs a stack frame per generator and fails on long elements, so the
recursions run on explicit stacks.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

FAMILIES = {"GL", "GSp", "G2"}
PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "affhecke"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "rootdata.py")


def _names(node):
    """The family names among node's constants, looking into containers."""
    if isinstance(node, ast.Constant):
        return {node.value} & FAMILIES
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return set().union(*(_names(e) for e in node.elts))
    return set()


def family_branches(source):
    """(line, names) of every comparison or match case on a family name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            names = set().union(*(_names(e) for e in [node.left, *node.comparators]))
        elif isinstance(node, ast.MatchValue):
            names = _names(node.value)
        else:
            continue
        if names:
            found.append((node.lineno, sorted(names)))
    return found


def test_the_scan_sees_branches():
    src = 'if d.family == "GL": pass\nx = fam in ("GSp", "G2")\ny = create("GL", 3)\n'
    assert family_branches(src) == [(1, ["GL"]), (2, ["G2", "GSp"])]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_family_branch_outside_rootdata(path):
    assert family_branches(path.read_text(encoding="utf-8")) == []


def cache_references(source):
    """Lines of every name, attribute or import of KLCache."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Name) and node.id == "KLCache")
        or (isinstance(node, ast.Attribute) and node.attr == "KLCache")
        or (isinstance(node, ast.alias) and node.name == "KLCache")
    )


def test_the_scan_sees_the_cli_cache_calls():
    # the import and the one KLCache(directory) in cmd_table
    assert len(cache_references((PACKAGE / "cli.py").read_text(encoding="utf-8"))) == 2
    assert cache_references("from . import hecke\nc = hecke.KLCache(d)\n") == [2]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name not in ("cli.py", "hecke.py")),
    ids=lambda p: p.name,
)
def test_only_cli_touches_the_kl_cache(path):
    assert cache_references(path.read_text(encoding="utf-8")) == []


def missing_memos(source):
    """(line, class) of every class that defines __missing__: a dict
    subclass that makes its values on first lookup."""
    return sorted(
        (node.lineno, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and f.name == "__missing__"
            for f in node.body
        )
    )


def test_the_scan_sees_the_group_table():
    # the one table {x: x s_i} per generator
    found = missing_memos((PACKAGE / "affweyl.py").read_text(encoding="utf-8"))
    assert [name for _, name in found] == ["_RightTable"]
    assert missing_memos("class A(dict):\n    def __missing__(self, k):\n        pass\n") == [
        (1, "A")
    ]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "affweyl.py"), ids=lambda p: p.name
)
def test_only_the_group_memoises_on_missing(path):
    # x s_i is made in the group's table alone, so no second memo of it
    # grows back elsewhere
    assert missing_memos(path.read_text(encoding="utf-8")) == []


LAZY = {
    "json", "fractions", "decimal", "tempfile", "random", "typing",
    "importlib.resources", "affhecke.checks",
}


def module_level_imports(source, package="affhecke"):
    """(line, module) of every import outside a function body; a relative
    import is named within package."""
    found = []
    todo = list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(filter(None, (package, base)))
            found.append((node.lineno, base))
            found += [(node.lineno, f"{base}.{a.name}") for a in node.names]
        todo.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_the_scan_sees_module_level_imports():
    src = (
        "import json\nfrom . import checks\nfrom fractions import Fraction\n"
        "class C:\n    import typing\n"
        "def f():\n    import tempfile\n"
    )
    assert [m for _, m in module_level_imports(src) if m in LAZY] == [
        "json", "affhecke.checks", "fractions", "typing"
    ]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "checks.py"), ids=lambda p: p.name
)
def test_lazy_modules_are_imported_on_first_use(path):
    found = module_level_imports(path.read_text(encoding="utf-8"))
    assert [(line, m) for line, m in found if m in LAZY] == []


def test_import_and_table_and_query_load_no_lazy_module(tmp_path):
    # -S: a site module may preload typing, tempfile or importlib.resources
    probe = (
        "import sys, affhecke\n"
        "from affhecke import cli\n"
        "lazy = set(sys.argv[1:])\n"
        "seen = [sorted(lazy & set(sys.modules))]\n"
        "cli.main(['table', 'GL3', '--mu', '1,0,0'])\n"
        "cli.main(['query', 'kottwitz', 'GL3', '--mu', '1,0,0'])\n"
        "seen.append(sorted(lazy & set(sys.modules)))\n"
        "cli.main(['query', 'kottwitz', 'GL3', '--mu', '1,0,0', '--format', 'json'])\n"
        "seen.append(sorted(lazy & set(sys.modules)))\n"
        "print(seen, file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    env.pop("AFFHECKE_CACHE_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe, *sorted(LAZY)],
        capture_output=True, env=env, cwd=tmp_path, check=True,
    )
    assert proc.stderr.decode() == "[[], [], ['json']]\n"


def self_calls(source):
    """(line, name) of every call of a function to itself: name(...) inside
    def name, or self.name(...) inside the method name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if (isinstance(f, ast.Name) and f.id == node.name) or (
                isinstance(f, ast.Attribute)
                and f.attr == node.name
                and isinstance(f.value, ast.Name)
                and f.value.id == "self"
            ):
                found.append((call.lineno, node.name))
    return sorted(found)


def test_the_scan_sees_self_calls():
    src = (
        "def f(n):\n    return f(n - 1)\n"
        "class C:\n"
        "    def g(self):\n        return self.g()\n"
        "    def h(self, other):\n        return other.h() + self.g() + h()\n"
    )
    assert self_calls(src) == [(2, "f"), (5, "g"), (7, "h")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    assert self_calls(path.read_text(encoding="utf-8")) == []
