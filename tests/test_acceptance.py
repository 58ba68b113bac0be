"""Acceptance suite: one test (and one printed line) per criterion.

Every check is exact: a residual is either identically zero or the criterion
fails.  Timing bounds are asserted where stated.
"""

import time

import pytest

from conftest import e0_spec, e1_spec, in_span

from dyntwist.comod import (
    ComoduleAlgebraData,
    SimplicityCertificate,
    canonical_map,
    coinvariants,
    corestrict_coaction,
    is_h_simple,
    verify_comodule_algebra,
)
from dyntwist.datum import MonomialDatum, gauge_from_equivalence, phi_psi
from dyntwist.hopf import group_algebra, verify_hopf
from dyntwist.linalg import Matrix
from dyntwist.monomial import make_monomial_hopf, make_monomial_comodule, make_t_module
from dyntwist.rep import (
    character_module,
    regular_module,
    theta_maps,
    trivial_module,
)
from dyntwist.scalar import Cyclo
from dyntwist.stab import stab_hom_realized, yan_zhu_stabilizer
from dyntwist.twist import (
    TwistElement,
    build_twisted_galois,
    gauge_check,
    trivial_twist,
    twisted_pentagon_check,
    unit_tensor,
    verify_twist,
)


def record(num, name, ok=True):
    status = "PASS" if ok else "FAIL"
    print("ACCEPTANCE %2d %-58s %s" % (num, name, status))
    assert ok


def test_criterion_01_hopf_construction():
    t0 = time.monotonic()
    spec0 = e0_spec()
    from dyntwist.monomial import MonomialHopfSpec
    h0 = make_monomial_hopf(MonomialHopfSpec(spec0.table, spec0.chi, spec0.g,
                                             spec0.n), 2)
    ok = h0.dim == 4 and verify_hopf(h0).ok
    e0_time = time.monotonic() - t0
    t0 = time.monotonic()
    spec1 = e1_spec()
    h1 = make_monomial_hopf(MonomialHopfSpec(spec1.table, spec1.chi, spec1.g,
                                             spec1.n), 2)
    ok = ok and h1.dim == 8 and verify_hopf(h1).ok
    e1_time = time.monotonic() - t0
    ok = ok and e0_time < 1.0 and e1_time < 1.0
    record(1, "monomial Hopf algebras: dims 4 and 8, all axioms, < 1 s", ok)


def test_criterion_02_comodule_galois(e0_datum, e1_datum):
    t0 = time.monotonic()
    ok = True
    for datum in (e0_datum, e1_datum):
        ok = ok and verify_comodule_algebra(datum.k).ok
        ok = ok and coinvariants(datum.k).dim == 1
        gal = datum.galois_f
        ok = ok and gal.bijective
        ident = Matrix.identity(gal.can_matrix.rows, 2)
        ok = ok and gal.can_matrix * gal.can_inverse == ident
        ok = ok and gal.can_inverse * gal.can_matrix == ident
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    record(2, "comodule checks, trivial coinvariants, can bijective, < 5 s", ok)


def test_criterion_03_simplicity(e0_datum, e1_datum, z2_table):
    ok = True
    for datum in (e0_datum, e1_datum):
        cert = is_h_simple(datum.k)
        ok = ok and cert.verdict == SimplicityCertificate.SIMPLE
    h = group_algebra(z2_table, 2)
    one = Cyclo.one(2)
    unit_idx = max(h.alg.unit)
    k_triv = ComoduleAlgebraData(h.alg, h, [{(unit_idx, j): one}
                                            for j in range(h.dim)],
                                 name="trivial_coaction")
    cert = is_h_simple(k_triv)
    ok = ok and cert.verdict == SimplicityCertificate.NOT_SIMPLE
    w = cert.witness
    ok = ok and w is not None and 0 < w.dim < k_triv.dim
    # independent witness verification
    for vec in w.vectors():
        for i in range(k_triv.dim):
            ok = ok and in_span(w, k_triv.alg.left_mult_matrix({i: one}).apply(vec))
            ok = ok and in_span(w, k_triv.alg.right_mult_matrix({i: one}).apply(vec))
        for a in range(h.dim):
            ok = ok and in_span(w, k_triv.coaction_component(a).apply(vec))
    record(3, "H-simplicity certified; counterexample witnessed", ok)


def test_criterion_04_stabilizer_dimension(e1_datum):
    triv = trivial_module(e1_datum.kb, name="triv")
    tv = e1_datum.engine.t(triv)
    st1 = yan_zhu_stabilizer(e1_datum.k, tv, tv)
    st2 = stab_hom_realized(e1_datum.k, tv, tv)
    ok = st1.report.ok
    ok = ok and st1.dim == 4 and st2.dim == 4
    ok = ok and 4 == (tv.dim * tv.dim * e1_datum.h.dim) // e1_datum.k.dim
    record(4, "both stabilizer realizations have dim 4 = (2*2*8)/8", ok)


def test_criterion_05_theta_maps(e1_datum):
    ok = True
    for v in (trivial_module(e1_datum.kb, name="triv"),
              regular_module(e1_datum.kb.alg, name="kB_reg")):
        data = theta_maps(e1_datum.embed_b, v)
        ok = ok and data["report"].ok
    record(5, "theta and theta-tilde mutually inverse and H-linear", ok)


def test_criterion_06_phi_psi(e0_datum, e1_datum):
    ok = True
    triv0 = trivial_module(e0_datum.kb, name="triv")
    ok = ok and phi_psi(e0_datum, triv0, triv0)["report"].ok
    triv = trivial_module(e1_datum.kb, name="triv")
    sign = character_module(e1_datum.kb,
                            [Cyclo.one(2), Cyclo.from_rational(-1, 2)],
                            name="sign")
    for v in (triv, sign):
        for w in (triv, sign):
            ok = ok and phi_psi(e1_datum, v, w)["report"].ok
    record(6, "phi/psi mutually inverse on E0 and E1 module pairs", ok)


def test_criterion_07_pipeline_end_to_end():
    t0 = time.monotonic()
    datum1 = MonomialDatum(e1_spec())
    twist1, report1 = datum1.compute_twist()
    elapsed = time.monotonic() - t0
    ok = report1.ok and elapsed < 60.0
    dims = twist1.h.dim * twist1.h.dim * twist1.s.dim
    ok = ok and dims == 128
    ok = ok and verify_twist(twist1).ok  # independent re-verification
    # E0: trivial base, the plain two-cocycle specialisation
    datum0 = MonomialDatum(e0_spec())
    twist0, report0 = datum0.compute_twist()
    ok = ok and report0.ok and twist0.s.dim == 1
    ok = ok and verify_twist(twist0).ok
    record(7, "compute-twist E1 < 60 s; J in 128 dims passes all equations", ok)


def test_criterion_08_theorem_consequences(e1_datum, e1_twist):
    eng = e1_datum.engine
    h_reg = regular_module(e1_datum.h.alg, name="H_reg")
    triv_h = trivial_module(e1_datum.h, name="triv_H")
    triv_a = trivial_module(e1_datum.kb, name="triv_A")
    a_reg = regular_module(e1_datum.kb.alg, name="A_reg")
    ok = True
    for x, y in ((h_reg, triv_h), (triv_h, h_reg)):
        i_mat = eng.compute_i(x, y, a_reg)
        ok = ok and i_mat == Matrix.identity(i_mat.rows, 2)
    from dyntwist.linalg import inverse
    for x, m in ((h_reg, a_reg), (h_reg, triv_a), (triv_h, a_reg)):
        f, _ = eng.xi_inverse_id(x, m)
        ok = ok and f.rows == f.cols
        inverse(f)  # raises if the constructive hypothesis fails
    pent = twisted_pentagon_check(e1_twist, h_reg, h_reg, h_reg, a_reg)
    ok = ok and pent.ok
    record(8, "unit laws, invertible xi^-1(id), twisted pentagon", ok)


def test_criterion_09_twisted_galois_oracle(e1_datum, e1_twist):
    _, report = build_twisted_galois(e1_twist)
    ok = report.ok
    # corrupted twist: must fail associativity (cocycle <-> associativity)
    coeffs = dict(unit_tensor([e1_datum.h.alg, e1_datum.h.alg, e1_datum.kb.alg]))
    coeffs[(1, 1, 0)] = Cyclo.one(2)
    broken = TwistElement(e1_datum.h, e1_datum.engine.s_base(), coeffs)
    ok = ok and not verify_twist(broken).ok
    _, bad_report = build_twisted_galois(broken)
    ok = ok and any("associativity" in c.name for c in bad_report.failures())
    record(9, "twisted algebra oracle passes; corrupted twist fails", ok)


def test_criterion_10_gauge_invariance(e1_datum, e1_twist):
    two = Cyclo.from_rational(2, 2)

    def phi_scaled(v):
        tv = e1_datum.engine.t(v)
        return Matrix.identity(tv.dim, 2).scaled(two)

    gauge, report = gauge_from_equivalence(e1_datum, e1_datum, phi_scaled)
    ok = report.ok and gauge_check(e1_twist, e1_twist, gauge).ok

    def phi_id(v):
        tv = e1_datum.engine.t(v)
        return Matrix.identity(tv.dim, 2)

    gauge_id, report_id = gauge_from_equivalence(e1_datum, e1_datum, phi_id)
    ok = ok and report_id.ok
    ok = ok and gauge_id.coeffs == unit_tensor([e1_datum.h.alg,
                                                e1_datum.kb.alg])
    record(10, "gauge extraction: scaled phi passes, identity gives t = 1", ok)


def test_criterion_11_determinism(tmp_path):
    import os
    from dyntwist.cli import main
    out = str(tmp_path)
    assert main(["example", "E1", "--out-dir", out]) == 0
    datum_path = os.path.join(out, "e1_datum.json")
    t1, t2 = os.path.join(out, "t1.json"), os.path.join(out, "t2.json")
    assert main(["compute-twist", datum_path, "--out", t1]) == 0
    assert main(["compute-twist", datum_path, "--out", t2]) == 0
    ok = open(t1, "rb").read() == open(t2, "rb").read()
    record(11, "two pipeline runs produce byte-identical twist files", ok)
