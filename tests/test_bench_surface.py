"""The program surface that the benchmark's traced run wraps still exists.

``perfbench/tracing.py`` replaces functions and methods of the package by
name; a refactor that renames or moves one would break the traced run
without failing any other test.  The module needs only the standard
library, so it is loaded here by path.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from conftest import e0_spec
from dyntwist import linalg
from dyntwist.datum import MonomialDatum
from dyntwist.scalar import Cyclo

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
