"""Output files stay byte-identical to the recorded reference hashes.

The ``example`` files and the computed twists of E0, E1 and Z3 (n = 3 over
Q(zeta_3)) must hash to the values the benchmark checks
(``perfbench/reference.json``); the serialised T(A_reg) module of E1 and the
twist of the S3 x Z2 datum, whose base S3 is non-abelian, must hash to the
values recorded here.  A change of matrix storage, product order or
elimination order that alters a single byte fails this test.
"""

import hashlib
import json
from pathlib import Path

import pytest

from conftest import e1_spec
from dyntwist.cli import main, module_to_json, write_json
from dyntwist.datum import MonomialDatum

REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text())
E1_T_AREG_SHA256 = "9f1c5c1998b141e6b7157387cbd88ac5536becb9bfc18b0497fe09d4a9c599e2"
S3XZ2_TWIST_SHA256 = "73826531aace178bcf9ce38feab108b70e96301c79d37c1d77a1e251872d6824"


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("name", ["E0", "E1"])
def test_example_and_twist_files_match_the_reference(name, tmp_path, capsys):
    prefix = name.lower()
    assert main(["example", name, "--out-dir", str(tmp_path)]) == 0
    twist = tmp_path / (prefix + "_twist.json")
    assert main(["compute-twist", str(tmp_path / (prefix + "_datum.json")),
                 "--out", str(twist)]) == 0
    capsys.readouterr()
    for kind in ("hopf", "comodule", "base", "datum", "twist"):
        fname = "%s_%s.json" % (prefix, kind)
        assert _sha256(tmp_path / fname) == REFERENCE[fname], fname


def test_module_file_of_t_of_the_regular_module_is_unchanged(tmp_path):
    datum = MonomialDatum(e1_spec())
    path = tmp_path / "t_areg.json"
    write_json(str(path), module_to_json(datum.engine.t(datum.engine.a_reg)))
    assert _sha256(path) == E1_T_AREG_SHA256


def test_z3_example_and_twist_files_match_the_reference(tmp_path, capsys):
    assert main(["example", "custom", "--group-order", "3", "--n", "3", "--chi-gen", "[0,1]@3",
                 "--mu", "1", "--out-dir", str(tmp_path)]) == 0
    twist = tmp_path / "z3_twist.json"
    assert main(["compute-twist", str(tmp_path / "custom_datum.json"),
                 "--out", str(twist)]) == 0
    capsys.readouterr()
    for fname in ("custom_hopf.json", "custom_comodule.json", "custom_base.json",
                  "custom_datum.json", "z3_twist.json"):
        assert _sha256(tmp_path / fname) == REFERENCE[fname], fname


def test_twist_over_the_non_abelian_base_of_s3xz2_is_unchanged(tmp_path, capsys):
    datum = Path(__file__).resolve().parent / "data" / "s3xz2_datum.json"
    twist = tmp_path / "twist.json"
    assert main(["compute-twist", str(datum), "--out", str(twist)]) == 0
    capsys.readouterr()
    assert _sha256(twist) == S3XZ2_TWIST_SHA256
