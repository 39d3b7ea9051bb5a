"""Decisions that belong to one module of the package.

Family conventions live in rootdata: no other module asks for the family.
Every module of the package except rootdata is parsed, and a comparison
against a family name ("GL", "GSp", "G2"), directly or through a
container of names, fails the test.  Passing a family name as data, as
the check suites do with create("GL", 3), is allowed.

The KL cache file is read and written by cli alone: no other module
calls load_cache or save_cache, so the library computes in memory.
"""

import ast
import pathlib

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
