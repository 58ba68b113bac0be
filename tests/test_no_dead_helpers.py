"""Every function and method defined in the package is used somewhere, every
parameter it takes is read, and every name a package module imports is used
in that module.

A name counts as used when it is called (``name(``), read as an attribute
(``.name``) or passed by name (``func=name``) in the package, its tests or
the benchmark; its own definition does not count.  A bare name that a file
also binds as a variable counts only where it is called, so a local ``row``
does not keep a method ``row`` alive.  The helpers that only tests use are
listed by name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dyntwist"


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _uses(tree) -> set:
    nodes = list(ast.walk(tree))
    variables = {n.id for n in nodes
                 if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)}
    variables |= {n.arg for n in nodes if isinstance(n, ast.arg)}
    used = {n.func.id for n in nodes
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    used |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    used |= {n.id for n in nodes if isinstance(n, ast.Name)
             and isinstance(n.ctx, ast.Load) and n.id not in variables}
    return used


def _defined():
    defined = {}
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    defined.setdefault(name, "%s:%d" % (path.name, node.lineno))
    return defined


# The paper's lemma checks and oracles, which the tests run and no command
# does, and the ``vector``/``element`` accessors.
TEST_ONLY = {
    "costable_closure", "curry_map", "element", "gauge_from_equivalence", "gauge_transform",
    "generic_galois_datum", "harpoon", "phi_psi", "stab_compose", "stab_galois_transport",
    "stab_unit", "theta_maps", "trivial_twist", "twisted_pentagon_check", "uncurry_map",
    "vector",
}


def test_every_helper_is_used():
    defined = _defined()
    used = set()
    for _, tree in _trees(ROOT / "src", ROOT / "tests", ROOT / "perfbench"):
        used |= _uses(tree)
    dead = sorted(where + " " + name for name, where in defined.items()
                  if name not in used)
    assert not dead, "defined but never used: " + ", ".join(dead)


def test_the_helpers_only_tests_use_are_the_listed_ones():
    """The same rule with only the package and the benchmark as callers.

    What it leaves unreached must be exactly ``TEST_ONLY``, so a new helper
    that only tests call fails here.  ``Matrix.scaled`` escapes the rule:
    ``Cyclo.scaled`` shares its name and the package calls that.
    """
    used = set()
    for _, tree in _trees(ROOT / "src", ROOT / "perfbench"):
        used |= _uses(tree)
    assert {name for name in _defined() if name not in used} == TEST_ONLY


def test_every_import_is_used():
    # a name bound by an import counts as used when the module loads it
    # (``name``, or ``name.attr``); ``__init__.py`` re-exports, so it is skipped
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, node.lineno)
        loaded = {n.id for n in ast.walk(tree)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += ["%s:%d %s" % (path.name, line, name)
                   for name, line in imported.items() if name not in loaded]
    assert not unused, "imported but never used: " + ", ".join(sorted(unused))


# ``_sparse_rref`` keeps the arity (rows, ncols, order) that the benchmark's
# tracer counts it by (``tests/test_bench_surface.py``)
UNREAD_PARAMETERS = {("_sparse_rref", "ncols"), ("_sparse_rref", "order")}


def test_every_parameter_is_read():
    # a parameter counts as read when its body loads it, nested functions
    # included; a special method takes what its protocol passes, so it is
    # skipped as ``_defined`` skips it
    unread = {}
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = getattr(node, "name", "lambda")
            if name.startswith("__") and name.endswith("__"):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                      + [a for a in (args.vararg, args.kwarg) if a]]
            body = node.body if isinstance(node.body, list) else [node.body]
            loaded = {n.id for stmt in body for n in ast.walk(stmt)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for p in params:
                if p not in loaded:
                    unread[name, p] = "%s:%d" % (path.name, node.lineno)
    assert set(unread) == UNREAD_PARAMETERS, "parameters never read: " + ", ".join(
        "%s %s(%s)" % (where, name, p) for (name, p), where in sorted(unread.items())
        if (name, p) not in UNREAD_PARAMETERS)
