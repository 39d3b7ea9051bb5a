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
and an import, a table and a query run load none of them, nor argparse
and the modules it brings (CLI_FREE): the command line parses argv itself.
A bare `import affhecke` loads only the package modules IMPORTED.

Hecke elements are ordered for output in one place: in hecke and cli,
only HeckeElement.encode, the one text form, and the downward solve, which
needs decreasing length, sort by the group's sort_key.  Exact sums add
their terms in any order.

No function of the package calls itself: a recursion along a reduced word
needs a stack frame per generator and fails on long elements, so the
recursions run on explicit stacks.

A memo is kept only where a run reads it again: an element carries
ELEMENT_SLOTS and no other slot, and the dict, list, set and
None-initialised attributes that AffineWeylGroup, RootDatum and
HeckeContext set in __init__ are MEMO_INVENTORY, each named with its
reader and the workload or check that hits it, so a new memo is added
deliberately.
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
    "importlib.resources", "affhecke.checks", "affhecke.wakimoto",
}

#: argparse, the gettext and locale it loads for its messages, and the
#: shutil its help formatter loads for the terminal width
CLI_FREE = {"argparse", "gettext", "locale", "shutil"}


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
    assert [(line, m) for line, m in found if m in LAZY | CLI_FREE] == []


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
        [sys.executable, "-S", "-c", probe, *sorted(LAZY | CLI_FREE)],
        capture_output=True, env=env, cwd=tmp_path, check=True,
    )
    assert proc.stderr.decode() == "[[], [], ['json']]\n"


#: the modules a bare `import affhecke` loads: the datum, its group and
#: its Hecke context, which the package names, and the polynomials
IMPORTED = {
    "affhecke", "affhecke.rootdata", "affhecke.affweyl", "affhecke.laurent", "affhecke.hecke"
}


def test_import_loads_only_the_group_and_its_hecke_context():
    # central, multiplicity, wakimoto, checks and cli load when a caller
    # imports them: the package re-exports none of their names
    probe = "import sys, affhecke; print(sorted(m for m in sys.modules if 'affhecke' in m))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, env=env, check=True, text=True
    )
    assert proc.stdout == f"{sorted(IMPORTED)}\n"


def sort_key_sites(source):
    """Sorted (function, line) of every call whose key= argument names
    sort_key, the function given by its qualified name."""
    found = []
    todo = [("", node) for node in ast.parse(source).body]
    while todo:
        scope, node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}".lstrip(".")
        if isinstance(node, ast.Call) and any(
            kw.arg == "key"
            and any(
                isinstance(n, ast.Attribute) and n.attr == "sort_key"
                or isinstance(n, ast.Name) and n.id == "sort_key"
                for n in ast.walk(kw.value)
            )
            for kw in node.keywords
        ):
            found.append((scope, node.lineno))
        todo.extend((scope, child) for child in ast.iter_child_nodes(node))
    return sorted(found)


def test_the_scan_sees_sort_keys():
    src = (
        "class H:\n"
        "    def f(self, t):\n"
        "        return sorted(t, key=lambda kv: self.g.sort_key(kv[0]))\n"
        "def g(t, sort_key):\n"
        "    t.sort(key=sort_key)\n"
        "    return max(t, key=len), sort_key(t)\n"
    )
    assert sort_key_sites(src) == [("H.f", 3), ("g", 5)]


@pytest.mark.parametrize(
    "name, want",
    [("hecke.py", ["HeckeContext._solve_down", "HeckeElement.encode"]), ("cli.py", [])],
)
def test_only_encode_and_the_solve_sort_by_sort_key(name, want):
    found = sort_key_sites((PACKAGE / name).read_text(encoding="utf-8"))
    assert [scope for scope, _line in found] == want


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


#: the per-element slots: the element's key, its length and its text
ELEMENT_SLOTS = ("group", "trans", "_fi", "_len", "_enc")

#: module -> class -> {attribute set in __init__: what reads it, and the
#: workload or check that hits it}
MEMO_INVENTORY = {
    "affweyl.py": {
        "AffineWeylGroup": {
            "_intern": "every element is made through it: all workloads",
            "_intervals": "[e, y] for each y asked about, read by leq and below: "
            "check oracles (286,128 of 286,876 hit)",
            "_root_idx": "root -> index, read by _perm_of: element, so kl-deep",
            "_aff_simple": "the affine simple roots, read by _register and conj_gen: trace-gl5",
            "_gperm": "the root permutations of the generators, read by _fin_right: all workloads",
            "_pidx": "the finite Weyl index, permutation -> id: all workloads",
            "_perm": "the permutation of each id: all workloads",
            "_fmat": "the matrix of each id, read by mul and inv: trace-gl5 and kl-deep",
            "_g0": "wbar(theta^vee) per id, read by x s_0: all workloads",
            "_asc": "the ascent data per id, read by lengths and descents: all workloads",
            "_rmul": "the id of wbar s_i: every workload (kl-deep 508 of 544 hit)",
            "_fprod": "the id of a product of two ids: kl-deep (1,296 of 1,440 hit)",
            "_fword": "the finite word of each id, filled by _word, read by encode and _matrix: "
            "table-gl5",
            "_right": "the tables {x: x s_i}: all workloads",
        },
    },
    "rootdata.py": {
        "RootDatum": {
            "_finite_weyl": "the listing of W: kl-deep (4 of 5 calls) and check oracles",
        },
    },
    "hecke.py": {
        "HeckeContext": {
            "_r_cache": "R_{x,y}, read by _r_known: check oracles (204,656 of 253,901 hit)",
            "_p_cols": "the KL columns, read by _kl_column: table-gl5 (328 of 393 hit)",
            "_p_values": "the held packed P, read by _solve_column: kl-deep (766 of 799 hit)",
            "_p_polys": "each packed P decoded once, read by kl_poly and ic_basis_element: "
            "check properties GL6 1,1,1,0,0,0 (50,466 reads of 11 values)",
            "_limits": "the d-digit bounds, read by _kl_shape: kl-deep (791 of 799 hit)",
            "_q_cache": "the columns of Q, read by inv_kl_poly: check oracles (4,639 of 4,965)",
            "_col_done": "the columns solved in this process, read by perfbench: table-gl5-warm",
        },
    },
}


def _is_memo_value(node):
    """A dict, list or set display, comprehension or constructor call, a
    concatenation with a list, or None: a value a later call fills in."""
    if isinstance(node, ast.BinOp):
        return any(isinstance(n, (ast.List, ast.ListComp)) for n in (node.left, node.right))
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id in ("dict", "list", "set")
    if isinstance(node, ast.Constant):
        return node.value is None
    return isinstance(
        node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    )


def init_memos(source, cls):
    """The names of the attributes self.name that cls.__init__ sets to a
    memo value (see _is_memo_value), in order of appearance."""
    found = []
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.ClassDef) and node.name == cls):
            continue
        init = next(f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__init__")
        for stmt in ast.walk(init):
            if not isinstance(stmt, ast.Assign) or not _is_memo_value(stmt.value):
                continue
            found += [
                t.attr
                for t in stmt.targets
                if isinstance(t, ast.Attribute)
                and isinstance(t.value, ast.Name)
                and t.value.id == "self"
            ]
    return found


def slots(source, cls):
    """The __slots__ tuple of cls, as written."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
                ):
                    return ast.literal_eval(stmt.value)
    return None


def test_the_scan_sees_memos_and_slots():
    src = (
        "class G:\n"
        "    __slots__ = ('a', 'b')\n"
        "    def __init__(self, d):\n"
        "        self._m = {}\n"
        "        self._n = [[] for _ in d]\n"
        "        self._c = [(0, 1)] + [(a, 0) for a in d]\n"
        "        self._o = None\n"
        "        self._s = dict()\n"
        "        self.k = d.k\n"
        "        self._t = tuple(x for x in d)\n"
        "    def f(self):\n"
        "        self._late = {}\n"
    )
    assert init_memos(src, "G") == ["_m", "_n", "_c", "_o", "_s"]
    assert slots(src, "G") == ("a", "b")


def test_an_element_carries_only_its_key_length_and_text():
    source = (PACKAGE / "affweyl.py").read_text(encoding="utf-8")
    assert slots(source, "AffineWeylElement") == ELEMENT_SLOTS


@pytest.mark.parametrize(
    "name, cls",
    [(name, cls) for name, classes in MEMO_INVENTORY.items() for cls in classes],
)
def test_the_memos_set_in_init_are_the_inventory(name, cls):
    found = init_memos((PACKAGE / name).read_text(encoding="utf-8"), cls)
    assert sorted(found) == sorted(MEMO_INVENTORY[name][cls])
