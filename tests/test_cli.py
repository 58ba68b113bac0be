import json
import os

import pytest

from dyntwist.cli import main


def run(args):
    return main(args)


def test_example_and_verify_hopf(tmp_path, capsys):
    out = str(tmp_path)
    assert run(["example", "E0", "--out-dir", out]) == 0
    capsys.readouterr()
    assert run(["verify", "hopf", os.path.join(out, "e0_hopf.json")]) == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text


def test_verify_comodule_and_report(tmp_path, capsys):
    out = str(tmp_path)
    run(["example", "E1", "--out-dir", out])
    capsys.readouterr()
    report_path = os.path.join(out, "report.json")
    rc = run(["--report", report_path, "verify", "comodule",
              os.path.join(out, "e1_hopf.json"),
              os.path.join(out, "e1_comodule.json")])
    assert rc == 0
    doc = json.loads(open(report_path).read())
    assert doc["command"] == "verify comodule"
    assert all(c["status"] == "PASS" for c in doc["checks"])
    assert all(c["residual_nonzero_count"] == 0 for c in doc["checks"]
               if c["status"] == "PASS")
    assert set(doc["inputs"]) == {os.path.join(out, "e1_hopf.json"),
                                  os.path.join(out, "e1_comodule.json")}


def test_verify_comodule_rejects_a_non_associative_algebra(tmp_path, capsys):
    # K = span(1, a, b) with a a = b, b a = a and every other product of a, b zero,
    # coacted on trivially by E1's H: every comodule axiom holds, but
    # (aa)a != a(aa), (ab)a != a(ba), (ba)a != b(aa) and (bb)a != b(ba)
    out = str(tmp_path)
    run(["example", "E1", "--out-dir", out])
    mult = [[0, x, x, "1"] for x in range(3)] + [[x, 0, x, "1"] for x in (1, 2)]
    k = {"format": "comodule-algebra", "order": 2, "dim": 3, "name": "K",
         "mult": mult + [[1, 1, 2, "1"], [2, 1, 1, "1"]], "unit": [[0, "1"]],
         "coaction": [[x, 0, x, "1"] for x in range(3)]}
    k_path = os.path.join(out, "k.json")
    with open(k_path, "w") as fh:
        json.dump(k, fh)
    report_path = os.path.join(out, "report.json")
    capsys.readouterr()
    assert run(["--report", report_path, "verify", "comodule",
                os.path.join(out, "e1_hopf.json"), k_path]) == 1
    checks = json.loads(open(report_path).read())["checks"]
    assert [(c["name"], c["status"], c["residual_nonzero_count"]) for c in checks] == [
        ("associativity m(m x id) = m(id x m)", "FAIL", 4),
        ("unit laws", "PASS", 0),
        ("coassociativity (Delta x id)delta = (id x delta)delta", "PASS", 0),
        ("counit law (eps x id)delta = id", "PASS", 0),
        ("coaction is an algebra map", "PASS", 0),
        ("delta(1) = 1 x 1", "PASS", 0),
    ]


def test_compute_twist_and_verify_roundtrip(tmp_path, capsys):
    out = str(tmp_path)
    run(["example", "E0", "--out-dir", out])
    twist_path = os.path.join(out, "twist.json")
    rc = run(["compute-twist", os.path.join(out, "e0_datum.json"),
              "--out", twist_path])
    assert rc == 0
    capsys.readouterr()
    rc = run(["verify", "twist", os.path.join(out, "e0_hopf.json"),
              os.path.join(out, "e0_base.json"), twist_path])
    assert rc == 0


def test_report_names_the_dynamical_support_of_the_twist(tmp_path, capsys):
    out = str(tmp_path)
    run(["example", "E1", "--out-dir", out])
    capsys.readouterr()
    twist_path = os.path.join(out, "twist.json")
    made = os.path.join(out, "made.json")
    checked = os.path.join(out, "checked.json")
    assert run(["--report", made, "compute-twist", os.path.join(out, "e1_datum.json"),
                "--out", twist_path]) == 0
    made_out = capsys.readouterr().out
    assert run(["--report", checked, "verify", "twist", os.path.join(out, "e1_hopf.json"),
                os.path.join(out, "e1_base.json"), twist_path]) == 0
    checked_out = capsys.readouterr().out
    coeffs = json.loads(open(twist_path).read())["coeffs"]
    support = sorted({k for _, _, k, _ in coeffs})
    assert support == [0]  # E1's J reaches only the unit of kB in its third leg
    for path, text in ((made, made_out), (checked, checked_out)):
        assert json.loads(open(path).read())["dynamical_support"] == support
        assert "dynamical" not in text  # the check lines stay as they were


def test_malformed_scalar_is_input_error(tmp_path, capsys):
    out = str(tmp_path)
    run(["example", "E0", "--out-dir", out])
    path = os.path.join(out, "e0_hopf.json")
    doc = json.loads(open(path).read())
    doc["mult"][0][3] = "1/0"
    with open(path, "w") as fh:
        json.dump(doc, fh)
    rc = run(["verify", "hopf", path])
    assert rc == 2


def test_corrupt_twist_exits_one(tmp_path, capsys):
    out = str(tmp_path)
    run(["example", "E0", "--out-dir", out])
    twist_path = os.path.join(out, "twist.json")
    run(["compute-twist", os.path.join(out, "e0_datum.json"), "--out", twist_path])
    doc = json.loads(open(twist_path).read())
    doc["coeffs"] = [[0, 0, 0, "1"], [1, 1, 0, "1"]]
    doc.pop("inverse", None)
    with open(twist_path, "w") as fh:
        json.dump(doc, fh)
    rc = run(["verify", "twist", os.path.join(out, "e0_hopf.json"),
              os.path.join(out, "e0_base.json"), twist_path])
    assert rc == 1


def _e1_twist(tmp_path) -> tuple[list[str], dict]:
    """E1's hopf and base file paths, and the document of its computed twist."""
    out = str(tmp_path)
    twist_path = os.path.join(out, "twist.json")
    run(["example", "E1", "--out-dir", out])
    run(["compute-twist", os.path.join(out, "e1_datum.json"), "--out", twist_path])
    doc = json.loads(open(twist_path).read())
    assert doc["inverse"]
    return [os.path.join(out, "e1_hopf.json"), os.path.join(out, "e1_base.json")], doc


def _run_on_twist(args, files, doc, path, capsys):
    """Exit code, stdout and stderr of a command on the twist document written to path."""
    with open(path, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    rc = run(args + files + [path])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_a_zero_twist_fails_invertibility_whatever_inverse_it_carries(tmp_path, capsys):
    files, doc = _e1_twist(tmp_path)
    doc["coeffs"] = []
    bare = {key: value for key, value in doc.items() if key != "inverse"}
    path = os.path.join(str(tmp_path), "zero.json")
    rc, out, err = _run_on_twist(["verify", "twist"], files, doc, path, capsys)
    assert (rc, out) == _run_on_twist(["verify", "twist"], files, bare, path, capsys)[:2]
    assert rc == 1 and "invertible in H (x) H (x) S" in out
    assert "inverting J by elimination" in err
    line, = [l for l in out.splitlines() if "invertible in H (x) H (x) S" in l]
    assert "FAIL" in line and "PASS" not in line


def test_twisted_galois_recomputes_a_wrong_supplied_inverse(tmp_path, capsys):
    files, doc = _e1_twist(tmp_path)
    entry = doc["inverse"][0]
    entry[3] = "2" if entry[3] != "2" else "3"
    path = os.path.join(str(tmp_path), "wrong_inverse.json")
    rc, out, err = _run_on_twist(["twisted-galois"], files, doc, path, capsys)
    assert rc == 0 and "FAIL" not in out
    assert "inverting J by elimination" in err


def test_trivial_twist_verifies(tmp_path, capsys):
    out = str(tmp_path)
    run(["example", "E1", "--out-dir", out])
    twist_path = os.path.join(out, "trivial.json")
    with open(twist_path, "w") as fh:
        json.dump({"format": "twist", "order": 2,
                   "coeffs": [[0, 0, 0, "1"]]}, fh)
    rc = run(["verify", "twist", os.path.join(out, "e1_hopf.json"),
              os.path.join(out, "e1_base.json"), twist_path])
    assert rc == 0


def test_determinism_byte_identical(tmp_path, capsys):
    out = str(tmp_path)
    run(["example", "E1", "--out-dir", out])
    t1 = os.path.join(out, "t1.json")
    t2 = os.path.join(out, "t2.json")
    run(["compute-twist", os.path.join(out, "e1_datum.json"), "--out", t1])
    run(["compute-twist", os.path.join(out, "e1_datum.json"), "--out", t2])
    assert open(t1, "rb").read() == open(t2, "rb").read()


def test_example_files_reparse(tmp_path, capsys):
    from dyntwist.cli import (
        comodule_from_json,
        comodule_to_json,
        hopf_from_json,
        hopf_to_json,
        read_json,
        twist_from_json,
        twist_to_json,
    )
    out = str(tmp_path)
    run(["example", "E1", "--out-dir", out])
    doc = read_json(os.path.join(out, "e1_hopf.json"))
    h = hopf_from_json(doc)
    assert hopf_to_json(h) == doc
    kdoc = read_json(os.path.join(out, "e1_comodule.json"))
    k = comodule_from_json(kdoc, h)
    assert comodule_to_json(k) == kdoc
    sdoc = read_json(os.path.join(out, "e1_base.json"))
    s = comodule_from_json(sdoc, h)
    twist_path = os.path.join(out, "twist.json")
    run(["compute-twist", os.path.join(out, "e1_datum.json"), "--out", twist_path])
    tdoc = read_json(twist_path)
    t = twist_from_json(tdoc, h, s)
    assert twist_to_json(t) == tdoc


def test_stab_command(tmp_path, capsys):
    from dyntwist.cli import module_to_json, write_json
    from dyntwist.datum import MonomialDatum
    from dyntwist.monomial import make_t_module
    from dyntwist.rep import trivial_module
    from conftest import e1_spec
    out = str(tmp_path)
    run(["example", "E1", "--out-dir", out])
    datum = MonomialDatum(e1_spec())
    triv = trivial_module(datum.kb, name="triv")
    tv = datum.engine.t(triv)
    vpath = os.path.join(out, "v.json")
    write_json(vpath, module_to_json(tv))
    capsys.readouterr()
    rc = run(["stab", os.path.join(out, "e1_hopf.json"),
              os.path.join(out, "e1_comodule.json"), vpath, vpath])
    text = capsys.readouterr().out
    assert rc == 0
    assert "realizations agree in dimension (4 vs 4)" in text


# the check list of `stab` with V != W on E1, as the intersection route reported it
STAB_V_NEQ_W_CHECKS = [
    ("yan-zhu: L is injective", "PASS", 0),
    ("realized: H-action: unit acts as identity", "PASS", 0),
    ("realized: H-action: rho(e_i)rho(e_j) = rho(e_i e_j)", "PASS", 0),
    ("realizations agree in dimension (8 vs 8)", "PASS", 0),
    ("dim K * dim St = dim V * dim W * dim H (64 vs 64)", "PASS", 0),
]


@pytest.mark.parametrize("v_name, w_name", [("triv", "A_reg"), ("A_reg", "triv")])
def test_stab_command_with_v_other_than_w(tmp_path, capsys, v_name, w_name):
    # Hom(V, W) is not square: T(triv) has dimension 2 and T(A_reg) dimension 4
    from dyntwist.cli import module_to_json, write_json
    from dyntwist.datum import MonomialDatum
    from dyntwist.rep import regular_module, trivial_module
    from conftest import e1_spec
    out = str(tmp_path)
    run(["example", "E1", "--out-dir", out])
    datum = MonomialDatum(e1_spec())
    modules = {"triv": trivial_module(datum.kb, name="triv"),
               "A_reg": regular_module(datum.kb.alg, name="A_reg")}
    paths = []
    for name in (v_name, w_name):
        paths.append(os.path.join(out, name + ".json"))
        write_json(paths[-1], module_to_json(datum.engine.t(modules[name])))
    report_path = os.path.join(out, "report.json")
    capsys.readouterr()
    rc = run(["--report", report_path, "stab", os.path.join(out, "e1_hopf.json"),
              os.path.join(out, "e1_comodule.json")] + paths)
    text = capsys.readouterr().out
    assert rc == 0
    assert "realizations agree in dimension (8 vs 8)" in text
    assert "dim K * dim St = dim V * dim W * dim H (64 vs 64)" in text
    doc = json.loads(open(report_path).read())
    assert [(c["name"], c["status"], c["residual_nonzero_count"])
            for c in doc["checks"]] == STAB_V_NEQ_W_CHECKS


def test_twisted_galois_command(tmp_path, capsys):
    out = str(tmp_path)
    run(["example", "E1", "--out-dir", out])
    twist_path = os.path.join(out, "twist.json")
    run(["compute-twist", os.path.join(out, "e1_datum.json"), "--out", twist_path])
    capsys.readouterr()
    rc = run(["twisted-galois", os.path.join(out, "e1_hopf.json"),
              os.path.join(out, "e1_base.json"), twist_path])
    assert rc == 0


def test_custom_example_needs_field(tmp_path, capsys):
    out = str(tmp_path)
    # zeta3 as mu requires a field of order divisible by 3: accepted
    rc = run(["example", "custom", "--out-dir", out, "--group-order", "3",
              "--n", "3", "--chi-gen", "[0,1]@3", "--mu", "1"])
    assert rc == 0


def test_custom_example_invalid_orders(tmp_path):
    rc = run(["example", "custom", "--out-dir", str(tmp_path),
              "--group-order", "4", "--n", "3", "--chi-gen", "-1", "--mu", "1"])
    assert rc == 2


def test_verify_gauge_command(tmp_path, capsys):
    out = str(tmp_path)
    run(["example", "E1", "--out-dir", out])
    twist_path = os.path.join(out, "twist.json")
    run(["compute-twist", os.path.join(out, "e1_datum.json"), "--out", twist_path])
    gauge_path = os.path.join(out, "gauge.json")
    with open(gauge_path, "w") as fh:
        json.dump({"format": "gauge", "order": 2, "coeffs": [[0, 0, "1"]]}, fh)
    capsys.readouterr()
    rc = run(["verify", "gauge", os.path.join(out, "e1_hopf.json"),
              os.path.join(out, "e1_base.json"), twist_path, twist_path,
              gauge_path])
    assert rc == 0


def test_max_dim_guard(tmp_path, monkeypatch):
    out = str(tmp_path)
    run(["example", "E1", "--out-dir", out])
    monkeypatch.setenv("DYNTWIST_MAX_DIM", "100")
    rc = run(["verify", "hopf", os.path.join(out, "e1_hopf.json")])
    assert rc == 2
    monkeypatch.delenv("DYNTWIST_MAX_DIM")
    assert run(["verify", "hopf", os.path.join(out, "e1_hopf.json")]) == 0


# the message names the cause, not a consequence met further on
NAMED_CAUSE = {
    "module that is not a K-module":
        "rho(e_i)rho(e_j) = rho(e_i e_j) FAIL (nonzero residuals: 19)",
    "datum group not associative": "group table is not associative",
    "datum group associative at its first generator only": "group table is not associative",
    "datum F with a repeated index": "F lists an index twice",
    "custom example with a b index out of range": "--b must be a list of indices below 6",
    "custom example with a repeated b index": "--b lists an index twice",
    "verify hopf with a missing extra file": "verify hopf needs H.json",
}


@pytest.mark.parametrize("corruption", [
    "negative mult index", "mult index out of range", "missing comult",
    "duplicate mult entry", "invalid DYNTWIST_MAX_DIM", "gauge index out of range",
    "datum without n", "datum B index out of range", "datum group not a Latin square",
    "custom example with a malformed mu", "hopf field order beyond DYNTWIST_MAX_DIM",
    "datum field order beyond DYNTWIST_MAX_DIM", "custom field order beyond DYNTWIST_MAX_DIM",
    "datum B not a subgroup", "custom example with n = 0", "custom example with a malformed b",
    "scalar of a huge order", "hopf generators that do not generate",
    "module that is not a K-module", "datum group not associative",
    "datum group associative at its first generator only", "datum F with a repeated index",
    "custom example with a b index out of range", "custom example with a repeated b index",
    "verify hopf with a missing extra file",
])
def test_malformed_structure_file_exits_two(corruption, tmp_path, capsys, monkeypatch):
    out = str(tmp_path)
    run(["example", "E0", "--out-dir", out])
    hopf_path = os.path.join(out, "e0_hopf.json")
    datum_path = os.path.join(out, "e0_datum.json")
    hopf = json.loads(open(hopf_path).read())
    datum = json.loads(open(datum_path).read())
    argv = ["verify", "hopf", hopf_path]
    if corruption == "negative mult index":
        hopf["mult"][0][0] = -1
    elif corruption == "mult index out of range":
        hopf["mult"][0][0] = 99  # dim is 4
    elif corruption == "missing comult":
        del hopf["comult"]
    elif corruption == "duplicate mult entry":
        hopf["mult"].append(list(hopf["mult"][0]))
    elif corruption == "invalid DYNTWIST_MAX_DIM":
        monkeypatch.setenv("DYNTWIST_MAX_DIM", "abc")
    elif corruption == "gauge index out of range":
        twist_path = os.path.join(out, "one.json")
        gauge_path = os.path.join(out, "gauge.json")
        with open(twist_path, "w") as fh:
            json.dump({"format": "twist", "order": 2, "coeffs": [[0, 0, 0, "1"]]}, fh)
        with open(gauge_path, "w") as fh:
            json.dump({"format": "gauge", "order": 2,
                       "coeffs": [[0, 0, "1"], [5, 0, "1"]]}, fh)
        argv = ["verify", "gauge", hopf_path, os.path.join(out, "e0_base.json"),
                twist_path, twist_path, gauge_path]
    elif corruption == "custom example with a malformed mu":
        argv = ["example", "custom", "--out-dir", out, "--group-order", "3",
                "--n", "3", "--mu", "bogus"]
    elif corruption == "scalar of a huge order":
        # a prime order that does not divide 2: rejected before it is factored
        hopf["mult"][0][-1] = "[1]@1000000000000000003"
    elif corruption == "hopf generators that do not generate":
        # e_0 is the unit of E0's H, so its words span one of the four dimensions
        hopf["generators"] = [0]
    elif corruption == "module that is not a K-module":
        # E1's T(triv) with one action entry changed: every shape is still right
        from conftest import e1_spec
        from dyntwist.cli import module_to_json
        from dyntwist.datum import MonomialDatum
        from dyntwist.rep import trivial_module
        run(["example", "E1", "--out-dir", out])
        datum_e1 = MonomialDatum(e1_spec())
        module = module_to_json(datum_e1.engine.t(trivial_module(datum_e1.kb, name="triv")))
        assert module["action"][2] == [1, 0, 1, "1"]
        module["action"][2][-1] = "7"
        module_path = os.path.join(out, "v.json")
        with open(module_path, "w") as fh:
            json.dump(module, fh)
        argv = ["stab", os.path.join(out, "e1_hopf.json"), os.path.join(out, "e1_comodule.json"),
                module_path, module_path]
    elif corruption == "verify hopf with a missing extra file":
        argv = ["verify", "hopf", hopf_path, os.path.join(out, "missing.json")]
    elif corruption == "hopf field order beyond DYNTWIST_MAX_DIM":
        # Q(zeta_65537) would need phi(N)^2 = 2^32 table entries
        hopf["order"] = 65537
    elif corruption == "custom field order beyond DYNTWIST_MAX_DIM":
        argv = ["example", "custom", "--out-dir", out, "--group-order", "65537", "--n", "1"]
    elif corruption == "custom example with n = 0":
        argv = ["example", "custom", "--out-dir", out, "--group-order", "4", "--n", "0"]
    elif corruption == "custom example with a malformed b":
        argv = ["example", "custom", "--out-dir", out, "--group-order", "4", "--n", "2",
                "--b", "x"]
    elif corruption == "custom example with a b index out of range":
        argv = ["example", "custom", "--out-dir", out, "--group-order", "6", "--n", "2",
                "--b", "0,6"]
    elif corruption == "custom example with a repeated b index":
        argv = ["example", "custom", "--out-dir", out, "--group-order", "6", "--n", "2",
                "--b", "0,0"]
    else:
        argv = ["compute-twist", datum_path, "--out", os.path.join(out, "t.json")]
        if corruption == "datum without n":
            del datum["n"]
        elif corruption == "datum B index out of range":
            datum["B"] = [5]
        elif corruption == "datum field order beyond DYNTWIST_MAX_DIM":
            # mu = 1 written in Q(zeta_65537), which the datum's order must contain
            datum["mu"] = "[%s]@65537" % ",".join(["1"] + ["0"] * 65535)
        elif corruption == "datum B not a subgroup":
            datum["B"] = [1]  # in range, without the identity
        elif corruption == "datum group not associative":
            # a Latin square with identity 0, so a loop, but (1*1)*2 = 2 != 4 = 1*(1*2)
            datum.update(group=[[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                                [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
                         chi=["1"] * 5, g=0, n=1, F=[0, 1, 2, 3, 4], B=[0, 1, 2, 3, 4], mu="1")
        elif corruption == "datum group associative at its first generator only":
            # a loop of order 6 generated by 1 and 2: (x*1)*y = x*(1*y) for all x, y,
            # but (1*2)*3 = 0 != 2 = 1*(2*3)
            datum.update(group=[[0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3], [2, 5, 3, 4, 0, 1],
                                [3, 4, 1, 2, 5, 0], [4, 3, 5, 0, 1, 2], [5, 2, 0, 1, 3, 4]],
                         chi=["1"] * 6, g=0, n=1, F=list(range(6)), B=list(range(6)), mu="1")
        elif corruption == "datum F with a repeated index":
            datum["F"] = [0, 0, 1]
        else:
            datum["group"] = [[0, 1], [1, 1]]  # has an identity; 1 has no order
    for path, doc in ((hopf_path, hopf), (datum_path, datum)):
        with open(path, "w") as fh:
            json.dump(doc, fh)
    capsys.readouterr()
    report_path = os.path.join(out, "report.json")
    assert run(["--report", report_path] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert NAMED_CAUSE.get(corruption, "") in err
    # exit 2 still leaves a report document, with the reason and no checks
    doc = json.loads(open(report_path).read())
    command = " ".join(argv[:2]) if argv[0] in ("verify", "example") else argv[0]
    assert doc == {"command": command, "inputs": {}, "checks": [], "outputs": [],
                   "input_error": err[len("input error: "):].rstrip("\n")}


def test_an_input_that_cannot_be_hashed_is_an_input_error(tmp_path):
    from dyntwist.cli import InputError, _sha256
    with pytest.raises(InputError, match="cannot read"):
        _sha256(str(tmp_path / "missing.json"))


@pytest.mark.parametrize("target", ["--report", "compute-twist --out", "example --out-dir"])
def test_unwritable_output_path_exits_two(target, tmp_path, capsys):
    out = str(tmp_path)
    run(["example", "E1", "--out-dir", out])
    missing = os.path.join(out, "missing_dir")
    regular_file = os.path.join(out, "e1_datum.json")
    if target == "--report":
        argv = ["--report", os.path.join(missing, "r.json"),
                "verify", "hopf", os.path.join(out, "e1_hopf.json")]
    elif target == "compute-twist --out":
        argv = ["compute-twist", regular_file, "--out", os.path.join(missing, "t.json")]
    else:
        argv = ["example", "E0", "--out-dir", os.path.join(regular_file, "sub")]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "Traceback" not in err
    assert not os.path.exists(missing)
