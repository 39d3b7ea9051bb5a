"""Decisions that belong to one module of the package.

Family conventions live in rootdata: no other module asks for the family.
Every module of the package except rootdata is parsed, and a comparison
against a family name ("GL", "GSp", "G2"), directly or through a
container of names, fails the test.  Passing a family name as data, as
the check suites do with create("GL", 3), is allowed.

The KL cache file is read and written by cli alone: no other module
calls load_cache or save_cache, so the library computes in memory.

Modules a table or query run does not use are imported where they are
first needed: no module except checks imports one of LAZY at module level,
and an import, a table and a query run load none of them.
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


def cache_calls(source):
    """Lines of every call of a method named load_cache or save_cache."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("load_cache", "save_cache")
    ]


def test_the_scan_sees_the_cli_cache_calls():
    assert len(cache_calls((PACKAGE / "cli.py").read_text(encoding="utf-8"))) == 2


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "cli.py"), ids=lambda p: p.name
)
def test_only_cli_touches_the_kl_cache(path):
    assert cache_calls(path.read_text(encoding="utf-8")) == []


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
