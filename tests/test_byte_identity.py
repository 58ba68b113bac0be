"""Output files stay byte-identical to the recorded reference hashes.

The ``example`` files and the computed twists of E0, E1 and Z3 (n = 3 over
Q(zeta_3)) must hash to the values the benchmark checks
(``perfbench/reference.json``); the serialised T(A_reg) module of E1 and the
twist of the S3 x Z2 datum, whose base S3 is non-abelian, must hash to the
values recorded here.  The structure files (``hopf_to_json``,
``comodule_to_json``) of the S3 x Z2 datum and of a datum whose F is a
proper subgroup of G, which relabels F to 0, ..., |F| - 1, are pinned too,
and so are the twisted algebra B = H* (x) S and the inverse of its canonical
map that ``build_twisted_galois`` returns for the E0, E1 and Z3 twists.
A change of matrix storage, product order or
elimination order that alters a single byte fails this test.
"""

import hashlib
import json
from pathlib import Path

import pytest

from conftest import e0_spec, e1_spec, z3_spec
from dyntwist.cli import (_matrix_entries, comodule_to_json, datum_from_json, hopf_to_json,
                          main, module_to_json, read_json, twist_to_json, write_json)
from dyntwist.datum import DatumSpec, MonomialDatum
from dyntwist.monomial import MonomialHopfSpec, make_monomial_comodule, make_monomial_hopf
from dyntwist.scalar import Cyclo
from dyntwist.twist import build_twisted_galois

REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text())
E1_T_AREG_SHA256 = "9f1c5c1998b141e6b7157387cbd88ac5536becb9bfc18b0497fe09d4a9c599e2"
S3XZ2_TWIST_SHA256 = "73826531aace178bcf9ce38feab108b70e96301c79d37c1d77a1e251872d6824"
S3XZ2_HOPF_SHA256 = "3034382da003a5a084c7c1c78c8046b7ba491020a26987071d55914ca7fe6838"
S3XZ2_COMODULE_SHA256 = "9803c24b3bca63abf9ea6294bdda03cf7b05ad19e7f22053f0279f7e3a864666"
PROPER_F_HOPF_SHA256 = "909230f20803020d62b57b17b08d6f4edef8058181534702010593b0cd4cf573"
PROPER_F_COMODULE_SHA256 = "8b1b245c66ea181599de1e79ec49c59d3204d712761bf83ab6c83222412f7a15"
PROPER_F_TWIST_SHA256 = "535ed55925ff3128c296c306dd81ceda2e85adb33324d5f906d64e1b2a6c18d1"
# (B as a comodule algebra, can^-1 entries) of build_twisted_galois on each twist
TWISTED_GALOIS_SHA256 = {
    "e0_spec": ("9000d2dcd101d7b360183a9e2923822eb819eeb6c9104dcac53076f36d7d8e8f",
                "e1a3e4c9d4202f1766304b46f6e6278bf36202ab64f0444646bc4f27ca790c27"),
    "e1_spec": ("d3d9dc84807f68d38e865154af8aa2bcbe3715351ffd14342911be65d5880d03",
                "1d05885b9f6759b7ab20cc7c47146a411fa4e731de9ca1b3b3eb8515abd22761"),
    "z3_spec": ("bd19f8d7ea20f0f4504908866866b5a5195ea15e08c7acdb38d6f1093140f92e",
                "7fc5f669e83dc7ec7ba80c02c28f4d8c068693128ad72cffc67ca1d54f055956"),
}


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


def _doc_sha256(tmp_path, doc) -> str:
    path = tmp_path / "doc.json"
    write_json(str(path), doc)
    return _sha256(path)


def test_structure_files_of_the_s3xz2_datum_are_unchanged(tmp_path):
    spec, order = datum_from_json(read_json(
        str(Path(__file__).resolve().parent / "data" / "s3xz2_datum.json")))
    hopf_spec = MonomialHopfSpec(spec.table, spec.chi, spec.g, spec.n)
    h = make_monomial_hopf(hopf_spec, order)
    k = make_monomial_comodule(hopf_spec, spec.f_indices, spec.mu, h)
    assert _doc_sha256(tmp_path, hopf_to_json(h)) == S3XZ2_HOPF_SHA256
    assert _doc_sha256(tmp_path, comodule_to_json(k)) == S3XZ2_COMODULE_SHA256


def test_structure_files_and_twist_of_a_proper_f_datum_are_unchanged(tmp_path):
    # G = Z2 x Z2, F = {1, g} is proper, so K is built on F relabelled to 0, 1
    spec = DatumSpec(table=[[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
                     chi=[Cyclo.from_rational(s, 2) for s in (1, 1, -1, -1)],
                     g=2, n=2, f_indices=[0, 2], b_indices=[0], mu=Cyclo.one(2))
    datum = MonomialDatum(spec)
    assert datum.k.dim == 4
    assert _doc_sha256(tmp_path, hopf_to_json(datum.h)) == PROPER_F_HOPF_SHA256
    assert _doc_sha256(tmp_path, comodule_to_json(datum.k)) == PROPER_F_COMODULE_SHA256
    twist, report = datum.compute_twist()
    assert report.ok, str(report)
    assert _doc_sha256(tmp_path, twist_to_json(twist)) == PROPER_F_TWIST_SHA256


@pytest.mark.parametrize("make_spec", [e0_spec, e1_spec, z3_spec])
def test_twisted_algebra_and_its_can_inverse_are_unchanged(make_spec, tmp_path):
    twist, report = MonomialDatum(make_spec()).compute_twist()
    assert report.ok, str(report)
    (b_comod, gal), report = build_twisted_galois(twist)
    assert report.ok, str(report)
    assert (_doc_sha256(tmp_path, comodule_to_json(b_comod)),
            _doc_sha256(tmp_path, _matrix_entries(gal.can_inverse))) == \
        TWISTED_GALOIS_SHA256[make_spec.__name__]
