"""Source hygiene checked with the standard library's ``ast``: no module of
the package or of ``tests/`` imports a name it never uses or imports from
one module twice, every module-level function and class of the package
has a caller in the package, unless ``NO_CALLER_NEEDED`` says why it
stays, and every defaulted parameter of the package is set by some call in
``src/``, ``tests/`` or ``perfbench/``, unless ``NO_SETTER_NEEDED`` says
why it stays.  A fresh interpreter that imports the standard-library
modules the package names adds only ``fusionkit`` modules when it then
imports the package, and no module of the package imports
``dataclasses``, which would load ``inspect`` and its parsers.  Derived
data is declared with ``fusion.derived``: it is the one function of the
package that reads or writes a system's ``_cache``, which only
``FusionSystem.__init__`` binds besides, and no module names
``functools.cached_property``, a second cache on an object that holds a
system.  Every function declared with ``derived`` is a family of the fill
pins of ``test_content_memos``.  Only the mutation helpers of ``verify``
build a system with both a witness and explicit iso-sets.  A check of the
verification suite takes only systems: every parameter of a ``verify_*``
or ``_check_*`` function of ``verify`` is annotated ``FusionSystem``, and
no scope runner of its registry is called with a lambda, so each row
names its verifier and the verifier reads its data itself."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path
from typing import Optional

import pytest

import fusionkit
from test_content_memos import FAMILIES

PACKAGE = Path(fusionkit.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
REPO = PACKAGE.parents[1]
# The import checks also read the tests; ``perfbench/`` is left out, since
# its one inline import (``verify`` in ``worker.py``) is timed on purpose.
TEST_FILES = sorted((REPO / "tests").glob("*.py"))
IMPORT_CHECKED = MODULES + TEST_FILES
CALLER_FILES = sorted(path for top in ("src", "tests", "perfbench")
                      for path in (REPO / top).rglob("*.py"))

# Definitions the package itself never calls, each with the reason it stays.
NO_CALLER_NEEDED = {
    "builtin_group_path": "perfbench/ imports it",
    "central_product_subsystem": "perfbench/ imports it; the verified F1*F2",
    "with_added_iso": "mutation helper of the self-tests",
    "with_removed_iso": "mutation helper of the self-tests",
    "inner_only_shadow": "mutation helper of the self-tests and of "
                         "perfbench/selftest.py",
}
# Also exempt: the names in fusionkit.__all__ (the public API).  The names
# of the README tour all have callers in the package.

# The only code of the package that names a system's ``_cache``: the
# constructor binds the slot's dict, and ``derived`` reads and fills it.
CACHE_SITES = ["fusion.FusionSystem.__init__", "fusion.derived"]

# The only code of the package that builds a system with both a witness and
# explicit iso-sets: the mutation helpers.  Every other system is given by
# its witness or by its table, so the agreement check of
# ``subsystems._local`` never runs on an honest system.
WITNESS_AND_TABLE_SITES = ["verify.inner_only_shadow", "verify.with_added_iso",
                           "verify.with_replaced_isos"]

# The scope runners of ``verify.CHECKS``: each is called with a named check.
SCOPE_RUNNERS = ("_per_pair", "_per_commuting_pair")

# Defaulted parameters no call sets, as "function(parameter)", each with the
# reason it stays.
NO_SETTER_NEEDED: dict[str, str] = {}


def _quoted_annotation_names(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) for the names inside quoted annotations such as
    "FusionSystem"."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            note = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            note = node.returns
        else:
            continue
        for const in ast.walk(note) if note is not None else ():
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                expr = ast.parse(const.value, mode="eval")
                out.extend((n.id, const.lineno) for n in ast.walk(expr)
                           if isinstance(n, ast.Name))
    return out


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements and never loaded elsewhere in the
    module.  Names listed in ``__all__`` count as used (re-exports), and so
    does any ``from __future__`` import."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {elt.value for elt in node.value.elts
                     if isinstance(elt, ast.Constant)}
    used |= {name for name, _ in _quoted_annotation_names(tree)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def _module_key(node: ast.ImportFrom) -> str:
    return "." * node.level + (node.module or "")


def redundant_imports(source: str) -> list[str]:
    """Imports from a module the file already imports from at top level: a
    second top-level ``from m import ...``, or one inside a function or
    class."""
    tree = ast.parse(source)
    top: set[str] = set()
    out = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            key = _module_key(node)
            if key in top:
                out.append(f"{key} (line {node.lineno})")
            top.add(key)
    top_level = {id(node) for node in tree.body}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and id(node) not in top_level
                and _module_key(node) in top):
            out.append(f"{_module_key(node)} (line {node.lineno})")
    return sorted(out)


def caller_less(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each module-level function or class of
    ``sources`` (module name -> source) that no module loads outside the
    definition itself, by bare name, attribute or quoted annotation."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    loads = {mod: [(n.id, n.lineno) for n in ast.walk(tree)
                   if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)]
             + [(n.attr, n.lineno) for n in ast.walk(tree)
                if isinstance(n, ast.Attribute)]
             + _quoted_annotation_names(tree)
             for mod, tree in trees.items()}
    out = []
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and (other != mod or line not in inside)
                       for other, names in loads.items()
                       for name, line in names):
                out.append(f"{mod}.{node.name}")
    return sorted(out)


def _sites(sources: dict[str, str], is_use) -> list[str]:
    """``module.function``, or ``module.Class.method`` for a method, for
    each module-level function or method of ``sources`` (module name ->
    source) that holds a node ``is_use`` accepts at any depth inside it,
    and ``module (line n)`` for such a node anywhere else."""
    out = set()
    for mod, src in sources.items():
        for node in ast.parse(src).body:
            for fn in (node.body if isinstance(node, ast.ClassDef) else [node]):
                uses = [n.lineno for n in ast.walk(fn) if is_use(n)]
                if not uses:
                    continue
                if not isinstance(fn, ast.FunctionDef):
                    out.update(f"{mod} (line {line})" for line in uses)
                elif fn is node:
                    out.add(f"{mod}.{fn.name}")
                else:
                    out.add(f"{mod}.{node.name}.{fn.name}")
    return sorted(out)


def cache_sites(sources: dict[str, str]) -> list[str]:
    """The sites (``_sites``) that name an attribute ``_cache``."""
    return _sites(sources, lambda n: isinstance(n, ast.Attribute)
                  and n.attr == "_cache")


def _witness_and_table(n: ast.AST) -> bool:
    """Is ``n`` a call of ``FusionSystem``, bare or as an attribute, that
    passes both a witness (third) and explicit iso-sets (fourth), by
    keyword or by position?"""
    if not (isinstance(n, ast.Call) and "FusionSystem" in (
            getattr(n.func, "id", None), getattr(n.func, "attr", None))):
        return False
    given = {k.arg for k in n.keywords}
    return (("witness" in given or len(n.args) > 2)
            and ("explicit" in given or len(n.args) > 3))


def witness_and_table_sites(sources: dict[str, str]) -> list[str]:
    """The sites (``_sites``) that build a system with both a witness and
    explicit iso-sets."""
    return _sites(sources, _witness_and_table)


def derived_functions(sources: dict[str, str]) -> list[str]:
    """``module.function``, or ``module.Class.method`` for a method, for
    each module-level function or method of ``sources`` (module name ->
    source) decorated with ``derived``, bare or as an attribute."""
    out = []
    for mod, src in sources.items():
        for node in ast.parse(src).body:
            inside = node.body if isinstance(node, ast.ClassDef) else [node]
            for fn in inside:
                if isinstance(fn, ast.FunctionDef) and any(
                        "derived" in (getattr(d, "id", None),
                                      getattr(d, "attr", None))
                        for d in fn.decorator_list):
                    name = fn.name if fn is node else f"{node.name}.{fn.name}"
                    out.append(f"{mod}.{name}")
    return sorted(out)


def cached_property_lines(source: str) -> list[int]:
    """The lines of ``source`` that name ``cached_property``: its import,
    as a decorator or in any other use, bare or as ``functools``'s."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if ((isinstance(node, ast.Name) and node.id == "cached_property")
                or (isinstance(node, ast.Attribute)
                    and node.attr == "cached_property")
                or (isinstance(node, ast.alias)
                    and node.name == "cached_property")):
            lines.add(node.lineno)
    return sorted(lines)


def _defaulted(fn: ast.FunctionDef, skip: int) -> list[tuple[str, Optional[int]]]:
    """(name, position among the call's positional arguments, or None for
    keyword-only) of each defaulted parameter; ``skip`` leading parameters
    (``self``, ``cls``) are bound without the call."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    out = [(arg.arg, i - skip) for i, arg in enumerate(positional) if i >= first]
    out += [(arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults)
            if d is not None]
    return out


def _definitions(tree: ast.AST):
    """(called name, reported name, function node, skipped leading
    parameters) for every function and method; ``Class.__init__`` and
    ``Class.__new__`` are called by the class's name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                decorators = {d.id for d in item.decorator_list
                              if isinstance(d, ast.Name)}
                skip = 0 if "staticmethod" in decorators else 1
                if item.name in ("__init__", "__new__"):
                    yield node.name, f"{node.name}.{item.name}", item, skip
                else:
                    yield item.name, item.name, item, skip
        elif isinstance(node, (ast.FunctionDef, ast.Module)):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item.name, item, 0


def unset_defaults(defs: dict[str, str], callers: dict[str, str]) -> list[str]:
    """``function(parameter)`` for each defaulted parameter of a function or
    method of ``defs`` (module name -> source) that no call in ``callers``
    (file name -> source) sets, by keyword or by position.  Calls match by
    the called name alone, a call with ``*args`` or ``**kwargs`` sets every
    parameter, and a call inside the function itself does not count."""
    calls: dict[str, list[tuple[str, int, int, set, bool]]] = {}
    for where, src in callers.items():
        for node in ast.walk(ast.parse(src)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            starred = (any(isinstance(x, ast.Starred) for x in node.args)
                       or any(k.arg is None for k in node.keywords))
            calls.setdefault(name, []).append(
                (where, node.lineno, len(node.args),
                 {k.arg for k in node.keywords}, starred))
    out = []
    for mod, src in defs.items():
        for name, shown, fn, skip in _definitions(ast.parse(src)):
            inside = range(fn.lineno, fn.end_lineno + 1)
            outside = [c for c in calls.get(name, ())
                       if c[0] != mod or c[1] not in inside]
            for param, pos in _defaulted(fn, skip):
                if not any(starred or param in keywords
                           or (pos is not None and npos > pos)
                           for _, _, npos, keywords, starred in outside):
                    out.append(f"{shown}({param})")
    return sorted(out)


def _names_a_system(note: Optional[ast.expr]) -> bool:
    return (isinstance(note, ast.Name) and note.id == "FusionSystem"
            or isinstance(note, ast.Constant) and note.value == "FusionSystem")


def check_data_parameters(source: str) -> list[str]:
    """``function(parameter)`` for each parameter of a module-level
    ``verify_*`` or ``_check_*`` function of ``source`` that is not
    annotated ``FusionSystem``."""
    out = []
    for fn in ast.parse(source).body:
        if not (isinstance(fn, ast.FunctionDef)
                and fn.name.startswith(("verify_", "_check_"))):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [
            arg for arg in (a.vararg, a.kwarg) if arg is not None]
        out += [f"{fn.name}({arg.arg})" for arg in params
                if not _names_a_system(arg.annotation)]
    return sorted(out)


def lambda_rows(source: str) -> list[int]:
    """The lines of ``source`` where a scope runner (``SCOPE_RUNNERS``) is
    called with a lambda among its arguments."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in SCOPE_RUNNERS
                  and any(isinstance(arg, ast.Lambda) for arg in
                          node.args + [k.value for k in node.keywords]))


def absolute_imports(source: str) -> list[ast.stmt]:
    """The import statements of ``source``, at any depth, that name a
    module by its absolute name."""
    return [node for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.level == 0]


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules ``source`` imports absolutely."""
    return {name.split(".")[0] for node in absolute_imports(source)
            for name in ([a.name for a in node.names]
                         if isinstance(node, ast.Import) else [node.module])}


def _import_id(path: Path) -> str:
    return path.name if path.parent == PACKAGE else f"tests/{path.name}"


@pytest.mark.parametrize("path", IMPORT_CHECKED, ids=_import_id)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", IMPORT_CHECKED, ids=_import_id)
def test_no_redundant_imports(path):
    assert redundant_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=_import_id)
def test_no_dataclasses(path):
    assert "dataclasses" not in imported_modules(path.read_text())


def test_importing_the_package_adds_only_its_modules():
    """Once the standard-library imports the package names have run, its
    command line and verifier load nothing but ``fusionkit`` modules."""
    statements = sorted({ast.unparse(node) for path in MODULES
                         for node in absolute_imports(path.read_text())})
    script = (f"import sys\n"
              f"sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
              f"for statement in {statements!r}:\n"
              f"    exec(statement, {{}})\n"
              f"before = set(sys.modules)\n"
              f"import fusionkit.cli, fusionkit.verify\n"
              f"print(sorted(set(sys.modules) - before))\n")
    run = subprocess.run([sys.executable, "-I", "-c", script],
                         capture_output=True, text=True, check=True, timeout=60)
    added = ast.literal_eval(run.stdout)
    assert "fusionkit.verify" in added
    assert [m for m in added if m.split(".")[0] != "fusionkit"] == []


def test_every_definition_has_a_caller():
    """The caller-less definitions are exactly the allow-listed ones, so an
    entry leaves ``NO_CALLER_NEEDED`` once it gains a caller."""
    found = caller_less({p.stem: p.read_text() for p in MODULES})
    found = [d for d in found if d.split(".")[1] not in fusionkit.__all__]
    assert sorted(d.split(".")[1] for d in found) == sorted(NO_CALLER_NEEDED)


def test_only_derived_touches_a_slot():
    """Every cached result is keyed by ``fusion.derived``, so no key is
    written by hand and one site sees every fill and hit."""
    assert cache_sites({p.stem: p.read_text() for p in MODULES}) == CACHE_SITES


def test_only_mutation_helpers_give_a_witness_and_a_table():
    """A system with both a witness and iso-sets of its own is a corrupted
    system of the self-tests, and only the mutation helpers build one."""
    assert witness_and_table_sites(
        {p.stem: p.read_text() for p in MODULES}) == WITNESS_AND_TABLE_SITES


def test_every_derived_family_is_pinned():
    """Each function declared with ``derived`` is a family of the fill pins
    of ``test_content_memos`` (``FAMILIES``), so a new family fails here
    by name, not only as a changed total of fills."""
    pinned = sorted(f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
                    for fn in FAMILIES.values())
    assert derived_functions(
        {p.stem: p.read_text() for p in MODULES}) == pinned


@pytest.mark.parametrize("path", MODULES, ids=_import_id)
def test_no_cached_property(path):
    """Data derived from a system is declared with ``fusion.derived``, so
    it lives in the system's slot and not on an object that holds it."""
    assert cached_property_lines(path.read_text()) == []


def test_every_default_is_set_by_a_caller():
    """The unset defaulted parameters are exactly the allow-listed ones, so
    a knob no caller turns is deleted rather than kept."""
    defs = {p.stem: p.read_text() for p in MODULES}
    callers = {str(p.relative_to(REPO)): p.read_text() for p in CALLER_FILES}
    for path in MODULES:     # a package module calls under its module name
        callers[path.stem] = callers.pop(str(path.relative_to(REPO)))
    assert unset_defaults(defs, callers) == sorted(NO_SETTER_NEEDED)


def test_checks_take_only_systems():
    source = (PACKAGE / "verify.py").read_text()
    assert check_data_parameters(source) == []
    assert lambda_rows(source) == []


def test_detects_an_unused_import():
    src = ("import os\n"
           "from typing import Optional\n"
           "from m import A, B\n"
           "def f(a: 'A') -> Optional[int]:\n"
           "    '''B'''\n")
    assert unused_imports(src) == ["B (line 3)", "os (line 1)"]


def test_detects_an_imported_module():
    src = ("from __future__ import annotations\n"
           "import os.path as p, json\n"
           "from .a import dataclasses\n"
           "def f():\n"
           "    from dataclasses import dataclass\n")
    assert imported_modules(src) == {"__future__", "os", "json", "dataclasses"}


def test_detects_a_redundant_import():
    src = ("from .a import x\n"
           "from .b import y\n"
           "from .a import z\n"
           "def f():\n"
           "    from .b import w\n"
           "    from .c import v\n"
           "    return x, y, z, w, v\n")
    assert redundant_imports(src) == [".a (line 3)", ".b (line 5)"]


def test_detects_a_caller_less_function():
    sources = {"a": ("def used():\n"
                     "    pass\n"
                     "def planted():\n"
                     "    return used()\n"
                     "def recursive():\n"
                     "    return recursive()\n"
                     "class K:\n"
                     "    def m(self) -> 'K':\n"
                     "        return K()\n"
                     "def f(k: 'Hinted') -> None:\n"
                     "    '''planted'''\n"),
               "b": ("from a import f\n"
                     "class Hinted:\n"
                     "    pass\n"
                     "f(None)\n")}
    assert caller_less(sources) == ["a.K", "a.planted", "a.recursive"]


def test_detects_a_cache_use():
    sources = {"a": ("def reads(F):\n"
                     "    return F._cache.get(1)\n"
                     "def nested(F):\n"
                     "    def inner():\n"
                     "        F._cache[2] = 2\n"
                     "    return inner()\n"
                     "def other(F, _cache):\n"
                     "    return F.cache, F._caches, _cache\n"
                     "class K:\n"
                     "    size = len(F._cache)\n"
                     "    def m(self):\n"
                     "        del self._cache\n"),
               "b": "x = F._cache\n"}
    assert cache_sites(sources) == ["a (line 10)", "a.K.m", "a.nested",
                                    "a.reads", "b (line 1)"]


def test_detects_a_witness_and_a_table():
    sources = {"a": ("def mutant(F, t):\n"
                     "    return FusionSystem(F.support, 2, witness=F.witness,\n"
                     "                        explicit=t)\n"
                     "def honest(F, t):\n"
                     "    return (FusionSystem(F.support, 2, witness=F.witness),\n"
                     "            fusion.FusionSystem(F.support, 2, explicit=t),\n"
                     "            Other(F.support, 2, witness=1, explicit=t))\n"
                     "class K:\n"
                     "    made = FusionSystem(S, 2, explicit=t, witness=W)\n"
                     "    def m(self):\n"
                     "        return fusion.FusionSystem(S, 2, W, t)\n"),
               "b": "M = FusionSystem(S, 2, W, explicit=t)\n"}
    assert witness_and_table_sites(sources) == [
        "a (line 9)", "a.K.m", "a.mutant", "b (line 1)"]


def test_detects_a_derived_function():
    sources = {"a": ("@derived\n"
                     "def kept(F):\n"
                     "    pass\n"
                     "@fusion.derived\n"
                     "def dotted(F, T):\n"
                     "    pass\n"
                     "@other\n"
                     "def plain(F):\n"
                     "    return 'derived'\n"
                     "def derived(fn):\n"
                     "    @derived\n"
                     "    def nested(F):\n"
                     "        pass\n"
                     "    return fn\n"
                     "class K:\n"
                     "    @derived\n"
                     "    def m(self):\n"
                     "        pass\n"),
               "b": ("@wraps(f)\n"
                     "@derived\n"
                     "def stacked(F):\n"
                     "    pass\n")}
    assert derived_functions(sources) == ["a.K.m", "a.dotted", "a.kept",
                                          "b.stacked"]


def test_detects_a_cached_property():
    source = ("import functools\n"
              "from functools import cached_property as cp, wraps\n"
              "class C:\n"
              "    @functools.cached_property\n"
              "    def a(self):\n"
              "        return 1\n"
              "    @cached_property\n"
              "    def b(self):\n"
              "        return self.cached_properties, wraps\n")
    assert cached_property_lines(source) == [2, 4, 7]


def test_detects_an_unset_default():
    defs = {"a": ("def f(x, y=1, *, z=2, w=3):\n"
                  "    return f(x, y=y)\n"
                  "def g(v=0):\n"
                  "    return v\n"
                  "class K:\n"
                  "    def __init__(self, size=1, mode='r'):\n"
                  "        pass\n"
                  "    def m(self, k=2):\n"
                  "        return k\n"
                  "    @staticmethod\n"
                  "    def s(j=0):\n"
                  "        return j\n"
                  "class N:\n"
                  "    def __new__(cls, a, b=0, c=1):\n"
                  "        return object.__new__(cls)\n")}
    callers = {"a": defs["a"],
               "b": ("f(1, z=3)\n"
                     "g(*args)\n"
                     "K(4).m(5)\n"
                     "K.s()\n"
                     "N(1, c=2)\n")}
    assert unset_defaults(defs, callers) == ["K.__init__(mode)", "N.__new__(b)",
                                             "f(w)", "f(y)", "s(j)"]


def test_detects_a_check_that_takes_data():
    source = ("def verify_a(F: FusionSystem, E: 'FusionSystem'):\n"
              "    pass\n"
              "def verify_b(F: FusionSystem, E: FusionSystem, X_set=None):\n"
              "    pass\n"
              "def _check_c(F, *rest: FusionSystem, **data):\n"
              "    pass\n"
              "def helper(F, data):\n"
              "    pass\n"
              "CHECKS = {'a': _per_pair(verify_a),\n"
              "          'b': _per_pair(lambda F, E: verify_b(F, E, ())),\n"
              "          'c': _per_commuting_pair(check=lambda F, A, B: None),\n"
              "          'd': _report_holds(lambda rep: rep.iff_holds)}\n")
    assert check_data_parameters(source) == [
        "_check_c(F)", "_check_c(data)", "verify_b(X_set)"]
    assert lambda_rows(source) == [10, 11]
