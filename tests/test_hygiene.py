"""Source hygiene of the jetcalc package, checked with the stdlib ast module:
no definition that nothing references, no unused import, no parameter
that its function never reads, no default that no call overrides, no
local that its function never reads, no module but operators.py that
touches an operator's coefficient table, no module but algebra.py (and,
among the tests, the monomials helper) that knows the monomial format,
no write to an expression's terms, no Fraction in the inner kernels, no
import inside a function, none from outside jetcalc and the standard
library, a presentation's rule caches assigned only when it is built, and
every dataclass frozen; and, on built objects, no dataclass or operator
table holding a plain dict or list at any depth."""

import ast
import copy
import dataclasses
import importlib
import pkgutil
import sys
from pathlib import Path
from types import MappingProxyType

import jetcalc
from jetcalc import (
    Ansatz,
    CDiffOp,
    EquivalenceWitness,
    HorizontalForm,
    PseudoOp,
    abelian_from_current,
    conservation_law_from_cosymmetry,
    cotangent_covering,
    d_h,
    parse,
    to_superdensity,
)

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jetcalc"


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(name, whether it is a method) of the module-level names and of the
    functions and methods defined anywhere."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, False
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, False) for t in targets if isinstance(t, ast.Name))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield from ((f.name, True) for f in node.body
                        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)))


def _references(tree):
    """(name, whether it is read as an attribute) of every name read,
    attribute taken or name imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, True
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, False) for alias in node.names)


def _unreferenced(defining, referencing):
    """Non-dunder definitions in `defining` that nothing in `referencing`
    reads; a method counts as read only as an attribute (`.name`), so a
    function, local or field of the same name does not hide it."""
    names, attributes = set(), set()
    for tree in referencing:
        for name, attribute in _references(tree):
            (attributes if attribute else names).add(name)
    for tree in defining:
        for name, method in _definitions(tree):
            if not _is_dunder(name) and name not in attributes \
                    and (method or name not in names):
                yield name


def test_every_definition_is_referenced():
    referencing = [tree for _, tree in _trees(ROOT / "src", ROOT / "tests")]
    dead = [f"{path.name}: {name}" for path, tree in _trees(PACKAGE)
            for name in _unreferenced([tree], referencing)]
    assert dead == []


def test_the_definition_check_sees_a_method_hidden_by_a_name():
    defining = ast.parse("""
def render(e):
    pass

class Expr:
    def render(self):
        pass

    def used(self):
        pass

    @property
    def order(self):
        pass

for order in range(3):
    render(order)
""")
    referencing = ast.parse("Expr().used()")
    assert list(_unreferenced([defining], [defining, referencing])) == ["render", "order"]


def test_every_import_is_used():
    unused = []
    for path, tree in _trees(PACKAGE):
        if path.name == "__init__.py":  # re-exports the public interface
            continue
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused.extend(f"{path.name}: {name}" for name in names if name not in read)
    assert unused == []


def test_every_parameter_is_read():
    unread = []
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + \
                [a for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread.extend(f"{path.name}:{node.lineno}: {a.arg}" for a in params
                          if a.arg not in read and a.arg not in ("self", "cls"))
    assert unread == []


def _unread_locals(tree):
    """(line, name) of each name assigned in a function, alone or inside a
    tuple target, that nothing in the function (nested functions included)
    reads; a name that starts with '_' is exempt."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for n in ast.walk(node):
            if not (isinstance(n, ast.Assign) and len(n.targets) == 1):
                continue
            for t in ast.walk(n.targets[0]):
                if isinstance(t, ast.Name) and not t.id.startswith("_") and t.id not in read:
                    yield n.lineno, t.id


def test_every_local_is_read():
    unread = sorted({f"{path.name}:{line}: {name}" for path, tree in _trees(PACKAGE)
                     for line, name in _unread_locals(tree)})
    assert unread == []


def test_the_locals_check_sees_an_unread_name():
    source = """
def f(a):
    kept = a + 1
    dead = [a]
    x, y = a, a
    (_, z), w = a
    k = z

    def g():
        return kept
    return g
"""
    assert list(_unread_locals(ast.parse(source))) == [
        (4, "dead"), (5, "x"), (5, "y"), (6, "w"), (7, "k")]


def _monomial_readers(tree):
    """Nodes that read a DiffExpr's term dict (`x.terms`, but not a call of
    CDiffOp's `terms()` method) or build a DiffExpr from one."""
    calls = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "terms" \
                and id(node) not in calls:
            yield node
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "DiffExpr":
            yield node


def test_only_algebra_knows_the_monomial_format():
    """A monomial's layout and the {monomial: coefficient} dict are known
    in algebra.py alone; other modules use the JetSpace constructors, the
    ring operations and DiffExpr's accessors.  The tests do the same, but
    for tests/monomials.py, which decodes monomials for the tests that
    spell them out."""
    readers = [f"{path.name}:{node.lineno}"
               for path, tree in _trees(PACKAGE, ROOT / "tests")
               if path.name not in ("algebra.py", "monomials.py")
               for node in _monomial_readers(tree)]
    assert readers == []


def test_the_monomial_check_spares_the_operator_terms_method():
    source = """
def f(space, e, op):
    for r, c, I, a in op.terms():
        pass
    return e.terms, len(e.terms), DiffExpr(space, {}), e.terms.items()
"""
    lines = [node.lineno for node in _monomial_readers(ast.parse(source))]
    assert lines == [5, 5, 5, 5]


def test_only_operators_touches_the_operator_table():
    """CDiffOp's {(row, col): {I: a_I}} table is read and written in
    operators.py alone; other modules build operators from terms."""
    touching = [f"{path.name}:{node.lineno}" for path, tree in _trees(PACKAGE)
                if path.name != "operators.py" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "entries"]
    assert touching == []


def _terms_writes(tree):
    """Nodes that change a DiffExpr's term dict in place: `x.terms[k] = v`,
    `del x.terms[k]`, `x.terms.update(...)` and the like, or an assignment
    to `x.terms` anywhere but DiffExpr.__init__."""
    allowed = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "DiffExpr":
            for f in cls.body:
                if isinstance(f, ast.FunctionDef) and f.name == "__init__":
                    allowed.update(map(id, ast.walk(f)))

    def is_terms(node):
        return isinstance(node, ast.Attribute) and node.attr == "terms"

    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and is_terms(node.value) \
                and isinstance(node.ctx, (ast.Store, ast.Del)):
            yield node
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and is_terms(node.func.value) and node.func.attr in (
                    "update", "pop", "popitem", "clear", "setdefault", "__setitem__",
                    "__delitem__"):
            yield node
        elif is_terms(node) and isinstance(node.ctx, (ast.Store, ast.Del)) \
                and id(node) not in allowed:
            yield node


def test_no_module_writes_an_expression_in_place():
    """A DiffExpr is immutable, which is what lets it cache its free total
    derivatives: no module writes its term dict after construction."""
    writes = [f"{path.name}:{node.lineno}" for path, tree in _trees(PACKAGE)
              for node in _terms_writes(tree)]
    assert writes == []


def test_the_terms_check_sees_every_kind_of_write():
    source = """
class DiffExpr:
    def __init__(self, space, terms):
        self.terms = terms

def f(e, m):
    e.terms[m] = 1
    del e.terms[m]
    e.terms.update({})
    e.terms.pop(m)
    e.terms.setdefault(m, 0)
    e.terms.clear()
    e.terms = {}
    e.terms |= {}
    return e.terms.get(m), e.terms[m], len(e.terms)
"""
    lines = [node.lineno for node in _terms_writes(ast.parse(source))]
    assert sorted(lines) == [7, 8, 9, 10, 11, 12, 13, 14]


# the kernels that run on int numerators over one denominator
INT_KERNELS = ("total_derivative", "_mul_into", "raw_sum", "sum_of_terms", "sum_of_products",
               "partial", "substitute", "__add__", "_sum", "euler")


def _fraction_uses(tree):
    """(function, line) of each `Fraction(...)` call and each read of the
    old per-coefficient helper `_q` inside a function named in INT_KERNELS."""
    for f in ast.walk(tree):
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and f.name in INT_KERNELS:
            for node in ast.walk(f):
                if isinstance(node, ast.Call) and _callee(node) == "Fraction" \
                        or isinstance(node, ast.Name) and node.id == "_q":
                    yield f.name, node.lineno


def test_the_kernels_build_no_fraction():
    """Coefficients are int numerators over one denominator per expression;
    a Fraction is built only at the boundary, never in an inner kernel."""
    tree = ast.parse((PACKAGE / "algebra.py").read_text())
    defined = {f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}
    assert set(INT_KERNELS) <= defined
    assert list(_fraction_uses(tree)) == []


def test_the_fraction_check_sees_a_planted_fraction():
    source = """
class DiffExpr:
    def __add__(self, other):
        return Fraction(1, 2)

    def render(self):
        return Fraction(3)

def total_derivative(e):
    c = _q(e)
    return fractions.Fraction(c)

def euler(e):
    def inner(x):
        return _q
    return inner
"""
    found = sorted(_fraction_uses(ast.parse(source)), key=lambda use: use[1])
    assert found == [("__add__", 4), ("total_derivative", 10), ("total_derivative", 11),
                     ("euler", 15)]


def _callee(call):
    """The name a call is made by: `f(...)`, `x.f(...)` or `C(...)`."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _signatures(tree):
    """(callee name, function, skip) of each function and method: a method
    skips its self or cls argument, and __init__ is called by its class's
    name."""
    owner = {id(f): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for f in cls.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))}
    for f in ast.walk(tree):
        if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        static = any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)
        skip = 1 if id(f) in owner and not static else 0
        yield owner[id(f)] if f.name == "__init__" and id(f) in owner else f.name, f, skip


def _defaulted_parameters(f, skip):
    """(positional index or None, parameter) of each parameter of the
    function f that has a default, the index counted after `skip`
    arguments."""
    args = f.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for k, a in enumerate(positional[first:], first):
        yield k - skip, a.arg
    for a, d in zip(args.kwonlyargs, args.kw_defaults):
        if d is not None:
            yield None, a.arg


def _module_name(path):
    return path.parent.name if path.stem == "__init__" else path.stem


def _unpassed_defaults(defining, calling):
    """`module: name(parameter)` of each defaulted parameter of a function
    in the modules `defining` ({module name: tree}) that no call in the
    modules `calling` passes.  `f(...)` reaches the module-level f of its
    own module, or of the module it imports f from, followed through
    re-exports (else every f), and `x.f(...)` every function and method
    named f.  A call passes a parameter by keyword to each definition it
    reaches (**kwargs passes every one), and by position (*args passes
    every one) only when it reaches one definition."""
    modules = {**calling, **defining}
    every, top, imported = {}, {}, {}
    for module, tree in modules.items():
        for name, f, _ in _signatures(tree):
            every.setdefault(name, set()).add(id(f))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                inits = [f for f in node.body if getattr(f, "name", None) == "__init__"]
                top[module, node.name] = {id(f) for f in inits or [node]}
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                top[module, node.name] = {id(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                for a in node.names:
                    imported[module, a.asname or a.name] = (node.module.rpartition(".")[2],
                                                            a.name)

    def reach(module, call):
        name = _callee(call)
        if not isinstance(call.func, ast.Name):
            return every.get(name, set())
        key = (module, name)
        if key not in top and key not in imported:
            return every.get(name, set())
        while key in imported and key not in top:
            key = imported[key]
        return top.get(key, set())

    most, keywords = {}, {}
    for module, tree in calling.items():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            targets = reach(module, call)
            n = len(call.args)
            if any(isinstance(a, ast.Starred) for a in call.args):
                n = float("inf")
            for target in targets:
                if len(targets) == 1:
                    most[target] = max(most.get(target, 0), n)
                keywords.setdefault(target, set()).update(k.arg for k in call.keywords)
    for module, tree in defining.items():
        for name, f, skip in _signatures(tree):
            kws = keywords.get(id(f), set())
            for k, param in _defaulted_parameters(f, skip):
                if param not in kws and None not in kws \
                        and (k is None or most.get(id(f), 0) <= k):
                    yield f"{module}: {name}({param})"


def test_every_default_is_passed_somewhere():
    """A default that no caller overrides is a constant in disguise."""
    trees = list(_trees(ROOT / "src", ROOT / "tests", ROOT / "bench"))
    calling = {_module_name(path): tree for path, tree in trees}
    assert len(calling) == len(trees)  # no two modules share a name
    package = {_module_name(path) for path in PACKAGE.glob("*.py")}
    defining = {module: tree for module, tree in calling.items() if module in package}
    assert list(_unpassed_defaults(defining, calling)) == []


def test_the_default_check_sees_an_unpassed_parameter():
    defining = ast.parse("""
def f(a, b=1, c=2, *, d=3, e=4):
    pass

class C:
    def __init__(self, x=0, y=0):
        pass

    def m(self, p=0, q=0):
        pass

    @staticmethod
    def s(r=0):
        pass
""")
    calling = ast.parse("""
from lib import f, C
f(0, 1, d=5)
C(1)
obj.m(**opts)
C.s(*args)
""")
    assert list(_unpassed_defaults({"lib": defining}, {"user": calling})) == [
        "lib: f(c)", "lib: f(e)", "lib: C(y)"]


def test_the_default_check_tells_same_named_definitions_apart():
    """A call that reaches two definitions of its name passes neither's
    defaults by position; a keyword passes the parameter of that name, and
    an imported function is told apart from another module's."""
    defining = ast.parse("""
class A:
    def m(self, p=0):
        pass

class B:
    def m(self, a, b=0):
        pass

    def n(self, c=0):
        pass

def main(argv=None):
    pass
""")
    other = ast.parse("""
from lib import main as run

def main(argv=None):
    run(["x"])
""")
    calling = ast.parse("""
from other import run
obj.m(1, b=2)
obj.n(1)
run(["y"])
""")
    assert list(_unpassed_defaults({"lib": defining, "other": other},
                                   {"user": calling, "other": other})) == [
        "lib: m(p)", "other: main(argv)"]


def _linearization_rebuilds(tree):
    """Nodes that rebuild what a Presentation caches: `.adjoint()` of a
    `linearization(...)` call, made directly or through a name that the same
    function assigns one, and `linearize(...)` of an argument that reads
    `.components`."""
    def calls(node, name):
        return isinstance(node, ast.Call) and _callee(node) == name

    found = {}
    for scope in [tree] + [f for f in ast.walk(tree)
                           if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]:
        named = {t.id for n in ast.walk(scope)
                 if isinstance(n, ast.Assign) and calls(n.value, "linearization")
                 for t in n.targets if isinstance(t, ast.Name)}
        for node in ast.walk(scope):
            if calls(node, "adjoint") and isinstance(node.func, ast.Attribute):
                owner = node.func.value
                if calls(owner, "linearization") or getattr(owner, "id", None) in named:
                    found[id(node)] = node
            elif calls(node, "linearize") and any(
                    isinstance(a, ast.Attribute) and a.attr == "components"
                    for arg in node.args for a in ast.walk(arg)):
                found[id(node)] = node
    return sorted(found.values(), key=lambda node: node.lineno)


def test_only_presentations_builds_the_linearizations():
    """l_F and l_F* are built once per presentation, by
    Presentation.linearization(adjoint=...); other modules read them there
    instead of taking an adjoint or a linearization of their own."""
    rebuilds = [f"{path.name}:{node.lineno}" for path, tree in _trees(PACKAGE)
                if path.name != "presentations.py" for node in _linearization_rebuilds(tree)]
    assert rebuilds == []


def test_the_linearization_check_sees_every_rebuild():
    source = """
def f(pres, delta, psi):
    L = pres.linearization()
    a = L.adjoint()
    b = pres.linearization().adjoint()
    c = linearize(list(pres.components), pres.space)
    d = pres.linearization(adjoint=True)
    e = delta.adjoint().compose(d)
    g = linearize(psi)

    def h():
        return L.adjoint()
    return a, b, c, e, g, h
"""
    lines = [node.lineno for node in _linearization_rebuilds(ast.parse(source))]
    assert lines == [4, 5, 6, 12]


RULE_CACHES = ("_jet_rules", "_towers", "_d_tables", "_ops")


def _rule_cache_resets(tree):
    """(line, function, cache) of each place that empties, replaces or
    deletes from one of a Presentation's rule caches: an assignment to it,
    a `del` of it or of an entry, or a call of its `clear`, `pop` or
    `popitem`; the function is the innermost one around it."""
    def cache(node):
        return node.attr if isinstance(node, ast.Attribute) and node.attr in RULE_CACHES \
            else None

    owner = {}
    for f in ast.walk(tree):
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(f):
                owner[id(node)] = f.name  # inner functions are walked later
    found = []
    for node in ast.walk(tree):
        name = None
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            name = cache(node)
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Del):
            name = cache(node.value)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("clear", "pop", "popitem"):
            name = cache(node.func.value)
        if name:
            found.append((node.lineno, owner.get(id(node), "<module>"), name))
    return sorted(found)


def test_the_rule_caches_are_emptied_in_one_place():
    """The jets' rules, their normal forms' towers, the D_i tables and the
    memo of derived operators are built from the rules and components, which
    do not change once a presentation is built, so each is assigned once, in
    Presentation.__init__, and never emptied."""
    sites = [(path.name, function, name) for path, tree in _trees(PACKAGE)
             for _, function, name in _rule_cache_resets(tree)]
    assert sorted(sites) == [("presentations.py", "__init__", name)
                             for name in sorted(RULE_CACHES)]


def test_the_rule_cache_check_sees_every_reset():
    source = """
class P:
    def __init__(self):
        self._towers = []

    def forget(self):
        self._towers, self._d_tables = [], {}
        self._ops.clear()

def f(pres):
    pres._towers.clear()
    del pres._d_tables[0, 1]
    pres._towers[0] = pres._d_tables.get((0, 1))

    def g():
        pres._d_tables.pop((0, 1))
    return g
"""
    assert _rule_cache_resets(ast.parse(source)) == [
        (4, "__init__", "_towers"), (7, "forget", "_d_tables"), (7, "forget", "_towers"),
        (8, "forget", "_ops"), (11, "f", "_towers"), (12, "f", "_d_tables"),
        (16, "g", "_d_tables")]


def _function_imports(tree):
    """Line of each import statement made inside a function or method."""
    return sorted({node.lineno for f in ast.walk(tree)
                   if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(f) if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_no_import_inside_a_function():
    """Each module imports at its top, so its head lists what it depends on."""
    found = [f"{path.name}:{line}" for path, tree in _trees(PACKAGE)
             for line in _function_imports(tree)]
    assert found == []


def test_the_import_check_sees_every_nested_import():
    source = """
import os
from .algebra import d_h

def f():
    import time
    return time

class C:
    def m(self):
        from .corpus import corpus

        def inner():
            from . import operators
            return operators
        return corpus, inner

async def g():
    import json
"""
    assert _function_imports(ast.parse(source)) == [6, 11, 14, 19]


def _foreign_imports(tree):
    """Sorted (line, module) of each import of a module that is neither
    jetcalc's own (relative, or under `jetcalc`) nor in the standard library."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found.extend((node.lineno, name) for name in names
                     if name.split(".")[0] not in sys.stdlib_module_names | {"jetcalc"})
    return sorted(found)


def test_the_package_has_no_runtime_dependency():
    """Every import in src/jetcalc is of jetcalc itself or of Python's
    standard library, so the package installs with no dependency."""
    found = [f"{path.name}:{line} {name}" for path, tree in _trees(PACKAGE)
             for line, name in _foreign_imports(tree)]
    assert found == []


def test_the_dependency_check_sees_a_planted_import():
    source = """
from __future__ import annotations
import os, sympy.core
from . import algebra
from .errors import ProblemError
from jetcalc.algebra import parse
from jsonschema import Draft202012Validator
from collections.abc import Mapping

def f():
    import numpy as np
    return np
"""
    assert _foreign_imports(ast.parse(source)) == [(3, "sympy.core"), (7, "jsonschema"),
                                                   (11, "numpy")]


def _repeated_runs(trees, length=3, least=40):
    """(where first written, where again, AST nodes) of each run of `length`
    consecutive statements, of at least `least` nodes, that dumps the same as
    an earlier run once every name and argument is one placeholder."""
    seen, found = {}, []
    for name, tree in trees:
        tree = copy.deepcopy(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                node.id = "_"
            elif isinstance(node, ast.arg):
                node.arg = "_"
        for node in ast.walk(tree):
            for field in ("body", "orelse", "finalbody"):
                stmts = getattr(node, field, None)
                if not isinstance(stmts, list) or not stmts or not isinstance(stmts[0], ast.stmt):
                    continue
                sizes = [sum(1 for _ in ast.walk(stmt)) for stmt in stmts]
                dumps = [ast.dump(stmt) for stmt in stmts]
                for k in range(len(stmts) - length + 1):
                    size = sum(sizes[k:k + length])
                    if size >= least:
                        where = f"{name}:{stmts[k].lineno}"
                        first = seen.setdefault("\n".join(dumps[k:k + length]), where)
                        if first != where:
                            found.append((first, where, size))
    return found


def test_no_statement_run_is_written_twice():
    """No three consecutive statements of 40 or more AST nodes are a copy of
    three others, whatever their names: a step written twice is one function.
    corpus.py is problem data, not code."""
    trees = [(path.name, tree) for path, tree in _trees(PACKAGE) if path.name != "corpus.py"]
    assert _repeated_runs(trees) == []


def test_the_repeated_run_check_sees_a_planted_copy():
    source = """
def f(row, piv, lead):
    g = gcd(piv[lead], row[lead])
    a, b = piv[lead] // g, row[lead] // g
    if a != 1:
        row = {c: a * v for c, v in row.items()}
    return row

class C:
    def m(self, other):
        try:
            x = 1
        finally:
            h = gcd(self[other], other[self])
            p, q = self[other] // h, other[self] // h
            if p != 1:
                other = {k: p * w for k, w in other.items()}

def short(a):
    b = a + 1
    c = b + 1
    return c

def shorter(x):
    y = x + 1
    z = y + 1
    return z
"""
    planted, again = ast.parse(source), ast.parse(source.split("class C")[0])
    assert _repeated_runs([("planted.py", planted)]) == [("planted.py:3", "planted.py:14", 77)]
    assert sorted(_repeated_runs([("planted.py", planted), ("again.py", again)])) == [
        ("planted.py:3", "again.py:3", 77), ("planted.py:3", "planted.py:14", 77),
        ("planted.py:4", "again.py:4", 62)]
    assert sorted(_repeated_runs([("planted.py", planted)], least=10)) == [
        ("planted.py:20", "planted.py:25", 19), ("planted.py:3", "planted.py:14", 77)]


def _unfrozen_dataclasses(tree):
    """(line, class) of each class decorated `@dataclass` or
    `@dataclass(...)`, plain or as `dataclasses.dataclass`, without
    `frozen=True`."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for d in cls.decorator_list:
            func = d.func if isinstance(d, ast.Call) else d
            if getattr(func, "id", getattr(func, "attr", None)) != "dataclass":
                continue
            keywords = d.keywords if isinstance(d, ast.Call) else []
            if not any(k.arg == "frozen" and getattr(k.value, "value", None) is True
                       for k in keywords):
                yield cls.lineno, cls.name


def test_every_dataclass_is_frozen():
    """No engine object changes after it is built: a covering's fields
    live in its presentation's tables, reduced once, and every dataclass
    is frozen."""
    found = [f"{path.name}:{line}: {name}" for path, tree in _trees(PACKAGE)
             for line, name in _unfrozen_dataclasses(tree)]
    assert found == []


def _engine_dataclasses():
    """Every dataclass that a jetcalc module defines."""
    modules = [importlib.import_module(f"jetcalc.{m.name}")
               for m in pkgutil.iter_modules(jetcalc.__path__)]
    return {obj for module in modules for obj in vars(module).values()
            if isinstance(obj, type) and dataclasses.is_dataclass(obj)
            and obj.__module__ == module.__name__}


def _plain_containers(value, where):
    """The paths below `value` that hold a plain dict or list, looking into
    tuples, the values of read-only maps, dataclass fields and operator
    tables; an expression's term dict is its own (no module writes it)."""
    if isinstance(value, (dict, list)):
        yield where
    elif isinstance(value, tuple):
        for k, x in enumerate(value):
            yield from _plain_containers(x, f"{where}[{k}]")
    elif isinstance(value, MappingProxyType):
        for k, x in value.items():
            yield from _plain_containers(x, f"{where}[{k!r}]")
    elif isinstance(value, CDiffOp):
        yield from _plain_containers(value.entries, f"{where}.entries")
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _plain_containers(getattr(value, f.name), f"{where}.{f.name}")


def test_no_dataclass_holds_a_plain_dict_or_list(kdv):
    """One object of each engine dataclass, built as the engine builds it:
    a map is read-only and a sequence a tuple, in its fields and in the
    values and operator tables they hold, so a frozen object's contents
    cannot change either."""
    sp = kdv.space
    u = sp.jet("u", (0, 0))
    mass = HorizontalForm(sp, 1, {(0,): u, (1,): parse("u[2,0] + 3*u[0,0]^2", sp)})
    one = CDiffOp.identity(sp, 1)
    built = [sp, Ansatz(2, 2), mass, d_h(mass), abelian_from_current(mass, kdv),
             cotangent_covering(kdv), conservation_law_from_cosymmetry([sp.one()], kdv),
             to_superdensity(CDiffOp.total_derivative(sp, 0)), kdv.reduce(parse("u[0,1]", sp)),
             PseudoOp(one, [([u], one)]).scale(2), EquivalenceWitness(*[one] * 6)]
    assert {type(x) for x in built} == _engine_dataclasses()
    plain = [path for x in built for path in _plain_containers(x, type(x).__name__)]
    assert plain == []


def test_the_container_check_sees_nested_plain_values(kdv):
    sp = kdv.space
    u = sp.jet("u", (0, 0))
    one = CDiffOp.identity(sp, 1)
    unsafe = CDiffOp(sp, 1, 1)
    object.__setattr__(unsafe, "entries", {(0, 0): MappingProxyType({(0, 0): u})})
    inner = CDiffOp(sp, 1, 1)
    object.__setattr__(inner, "entries", MappingProxyType({(0, 0): {(0, 0): u}}))
    form = HorizontalForm(sp, 1, {(0,): u})
    object.__setattr__(form, "comps", MappingProxyType({(0,): [u]}))
    pseudo = PseudoOp(one, [([u], one)])
    object.__setattr__(pseudo, "tails", (([u], one),))
    found = [path for x in (form, pseudo, EquivalenceWitness(one, unsafe, inner, *[one] * 3))
             for path in _plain_containers(x, type(x).__name__)]
    assert found == ["HorizontalForm.comps[(0,)]", "PseudoOp.tails[0][0]",
                     "EquivalenceWitness.beta.entries",
                     "EquivalenceWitness.alpha_p.entries[(0, 0)]"]


def test_the_frozen_check_sees_every_unfrozen_dataclass():
    source = """
@dataclass
class A:
    x: int

@dataclass(frozen=True)
class B:
    x: int

@dataclass(eq=False)
class C:
    x: int

@dataclasses.dataclass(frozen=False)
class D:
    x: int

@dataclasses.dataclass(eq=False, frozen=True)
class E:
    x: int

@total_ordering
class F:
    x: int
"""
    assert list(_unfrozen_dataclasses(ast.parse(source))) == [
        (3, "A"), (11, "C"), (15, "D")]
