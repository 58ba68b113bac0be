"""Start-up loads only what a command runs.

Each check runs in a fresh interpreter with PYTHONPATH=src and reads back
the ``dyntwist.*`` modules loaded at its end, since the modules this test
session has already imported would hide an eager import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dyntwist
from conftest import write_e0_files

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import contextlib, io, json, sys
{body}
print(json.dumps(sorted(sys.modules)))
"""

MAIN = """
from dyntwist import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main({argv!r}) == 0
"""

LIGHT = {"cli", "scalar", "linalg", "hopf", "report"}
# the construction builds comodule algebras through hopf's record, never comod's checks
CONSTRUCTION = LIGHT | {"rep", "monomial", "twist", "datum"}


def _modules(body: str) -> set:
    """Every module loaded at the end of a fresh interpreter that runs body."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE.format(body=body)], env=env,
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    return set(json.loads(out.splitlines()[-1]))


def _loaded(body: str) -> set:
    """The dyntwist submodules loaded, without the package prefix."""
    return {name[len("dyntwist."):] for name in _modules(body)
            if name.startswith("dyntwist.")}


@pytest.fixture(scope="module")
def e0(tmp_path_factory):
    return write_e0_files(str(tmp_path_factory.mktemp("e0")))


def test_importing_the_package_loads_no_submodule():
    assert _loaded("import dyntwist") == set()


def test_importing_the_cli_loads_only_the_light_layers():
    assert _loaded("import dyntwist.cli") == LIGHT


COMMANDS = [
    (["verify", "hopf"], ["hopf"], set()),
    (["verify", "comodule"], ["hopf", "comodule"], {"comod"}),
    (["verify", "twist"], ["hopf", "base", "twist"], {"twist"}),
    (["verify", "gauge"], ["hopf", "base", "twist", "twist", "gauge"], {"twist"}),
    (["twisted-galois"], ["hopf", "base", "twist"], {"comod", "twist"}),
    (["stab"], ["hopf", "comodule", "ttriv", "ttriv"], {"rep", "stab"}),
]


@pytest.mark.parametrize("command, files, extra", COMMANDS)
def test_each_command_loads_only_the_layers_it_runs(e0, command, files, extra):
    argv = command + [e0[kind] for kind in files]
    assert _loaded(MAIN.format(argv=argv)) == LIGHT | extra


EVERY_COMMAND = ([(command, files) for command, files, _ in COMMANDS]
                 + [(["compute-twist"], ["datum"]), (["example", "E0"], [])])


def _command_modules(e0, tmp_path, command, files) -> set:
    """Every module loaded by a run of the command on the E0 files."""
    argv = command + [e0[kind] for kind in files]
    if command == ["compute-twist"]:
        argv += ["--out", str(tmp_path / "twist.json")]
    elif command == ["example", "E0"]:
        argv += ["--out-dir", str(tmp_path)]
    return _modules(MAIN.format(argv=argv))


@pytest.mark.parametrize("command, files", EVERY_COMMAND)
def test_no_command_loads_a_code_generator(e0, tmp_path, command, files):
    # dataclasses pulls in inspect, dis, ast and tokenize, and execs the
    # methods it writes; the records are plain classes, so no command needs it
    assert not _command_modules(e0, tmp_path, command, files) & {"dataclasses", "inspect"}


@pytest.mark.parametrize("command, files", EVERY_COMMAND + [(["--help"], [])])
def test_no_command_loads_argparse(e0, tmp_path, command, files):
    # the command table is parsed by hand; argparse also loads gettext
    assert not _command_modules(e0, tmp_path, command, files) & {"argparse", "gettext"}


def test_only_a_report_loads_hashlib(e0, tmp_path):
    # hashing the inputs is the one use of hashlib (and its libcrypto)
    argv = ["verify", "hopf", e0["hopf"]]
    assert "hashlib" not in _modules(MAIN.format(argv=argv))
    argv = ["--report", str(tmp_path / "report.json")] + argv
    assert "hashlib" in _modules(MAIN.format(argv=argv))


def test_the_construction_loads_neither_polys_nor_stab(e0, tmp_path):
    argv = ["compute-twist", e0["datum"], "--out", str(tmp_path / "twist.json")]
    assert _loaded(MAIN.format(argv=argv)) == CONSTRUCTION


def test_an_example_loads_neither_comod_nor_twist(tmp_path):
    argv = ["example", "E0", "--out-dir", str(tmp_path)]
    assert _loaded(MAIN.format(argv=argv)) == CONSTRUCTION - {"twist"}


def test_a_public_name_loads_its_module_on_first_use():
    # the datum layer loads the twist layer only when it extracts a twist
    assert _loaded("from dyntwist import MonomialDatum") == CONSTRUCTION - {"cli", "twist"}


VALIDATE_E0 = """
from dyntwist.datum import DatumSpec, MonomialDatum
from dyntwist.scalar import Cyclo
spec = DatumSpec(table=[[0, 1], [1, 0]], chi=[Cyclo.one(2), Cyclo.from_rational(-1, 2)],
                 g=1, n=2, f_indices=[0, 1], b_indices=[0], mu=Cyclo.one(2))
assert MonomialDatum(spec).validate_datum().ok
"""


def test_validating_a_datum_adds_only_the_certificate_layers():
    # the H-simplicity certificate loads comod and polys; polys takes its
    # product from scalar, which the construction has loaded already
    assert _loaded(VALIDATE_E0) == (CONSTRUCTION - {"cli", "twist"}) | {"comod", "polys"}


def test_the_comodule_record_loads_hopf_and_not_comod():
    assert _loaded("from dyntwist import ComoduleAlgebraData") == LIGHT - {"cli"}


def test_every_public_name_resolves():
    from dyntwist import MonomialDatum
    from dyntwist.datum import MonomialDatum as defined
    assert MonomialDatum is defined
    assert all(hasattr(dyntwist, name) for name in dyntwist.__all__)
    assert dyntwist.__version__
    with pytest.raises(AttributeError):
        getattr(dyntwist, "no_such_name")
