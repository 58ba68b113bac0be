"""The program surface that the benchmark uses still exists.

``perfbench/tracing.py`` replaces functions and methods of the package by
name, and the benchmark's set-up and ``validate_datum.py`` import names from
it; a refactor that renames or moves one would break the benchmark without
failing any other test.  The tracing module needs only the standard
library, so it is loaded here by path.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from conftest import e0_spec
from dyntwist import linalg
from dyntwist.datum import MonomialDatum
from dyntwist.scalar import Cyclo

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module: str, target: str):
    mod = importlib.import_module(module)
    if "." in target:
        cls_name, attr = target.split(".")
        owner = getattr(mod, cls_name)
        assert attr in owner.__dict__, "%s.%s is not defined on the class" % (module, target)
        return owner.__dict__[attr]
    return getattr(mod, target)


def test_every_span_target_resolves(tracing):
    for module, target, _ in tracing.SPANS:
        assert callable(_resolve(module, target)), (module, target)


@pytest.mark.parametrize("module, target, params", [
    ("dyntwist.scalar", "Cyclo.__mul__", 2),
    ("dyntwist.scalar", "Cyclo.__add__", 2),
    ("dyntwist.scalar", "Cyclo.__sub__", 2),
    ("dyntwist.scalar", "Cyclo.inverse", 1),
    ("dyntwist.scalar", "Cyclo.is_zero", 1),
    ("dyntwist.linalg", "_sparse_rref", 3),
    ("dyntwist.linalg", "Matrix.__mul__", 2),
    ("dyntwist.datum", "AdjunctionEngine.t", 2),
    ("dyntwist.cli", "read_json", 1),
    ("dyntwist.cli", "write_json", 2),
])
def test_op_counter_targets_resolve(module, target, params):
    # the counter's wrappers call these positionally with this many arguments
    fn = _resolve(module, target)
    assert len(inspect.signature(fn).parameters) == params


def test_instruments_install_and_restore(tracing):
    before = dict(Cyclo.__dict__), dict(vars(linalg))
    for instrument in (tracing.SpanTracer(), tracing.OpCounter()):
        instrument.install()
        instrument.uninstall()
    assert (dict(Cyclo.__dict__), dict(vars(linalg))) == before


def test_fresh_engine_t_cache_is_a_list():
    # the counter scans (module, T(module)) pairs of this list for hits
    assert isinstance(MonomialDatum(e0_spec()).engine._t_cache, list)


def _package_names():
    """(file, module, name) for each name a perfbench file takes from the package.

    That is every ``from dyntwist... import name``, and every attribute read
    off a name bound by such an import (``cli.finish`` after ``from dyntwist
    import cli``); the caller checks the attribute only where that name is a
    module.
    """
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dyntwist":
                for alias in node.names:
                    yield path.name, node.module, alias.name
                    bound[alias.asname or alias.name] = (node.module, alias.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in bound):
                module, name = bound[node.value.id]
                yield path.name, (module, name), node.attr


def _lookup(module, name):
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    return importlib.import_module(module + "." + name)  # a submodule


def test_every_name_perfbench_imports_from_the_package_resolves():
    names = list(_package_names())
    assert any(f == "validate_datum.py" for f, _, _ in names)
    missing = []
    for where, module, name in names:
        try:
            if isinstance(module, tuple):
                owner = _lookup(*module)
                if inspect.ismodule(owner) and not hasattr(owner, name):
                    missing.append("%s: %s.%s" % (where, owner.__name__, name))
            else:
                _lookup(module, name)
        except ImportError:
            missing.append("%s: %s.%s" % (where, module, name))
    assert not missing, "perfbench uses names the package lacks: " + ", ".join(missing)
