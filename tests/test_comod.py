import pytest

from itertools import permutations

from conftest import in_span

from dyntwist.comod import (
    ComoduleAlgebraData,
    SimplicityCertificate,
    _close_under_products,
    _trace_form,
    _verify_witness,
    canonical_map,
    coinvariants,
    corestrict_coaction,
    costable_closure,
    costable_operators,
    galois_gamma,
    is_h_simple,
    verify_comodule_algebra,
)
from dyntwist.hopf import group_algebra
from dyntwist.linalg import Subspace
from dyntwist.rep import intertwiner_basis
from dyntwist.scalar import Cyclo


def hopf_as_comodule_over_itself(h):
    coaction = [dict(h.comult[k]) for k in range(h.dim)]
    return ComoduleAlgebraData(h.alg, h, coaction, name=h.name + "_self")


def trivial_coaction_comodule(h):
    one = Cyclo.one(h.order)
    unit = max(h.alg.unit)  # group algebra: single unit index
    coaction = [{(unit, k): one} for k in range(h.dim)]
    return ComoduleAlgebraData(h.alg, h, coaction, name="trivial_coact")


def test_hopf_over_itself_is_comodule_algebra(z2_table):
    h = group_algebra(z2_table, 2)
    k = hopf_as_comodule_over_itself(h)
    assert verify_comodule_algebra(k).ok


def test_monomial_comodule_is_comodule_algebra(e0, e1):
    assert verify_comodule_algebra(e0.k).ok
    assert verify_comodule_algebra(e1.k).ok


def test_monomial_comodule_dimensions(e0, e1):
    assert e0.k.dim == 4
    assert e1.k.dim == 8


def test_corrupted_coaction_fails(e0):
    # flip the sign of the x g^-1 (x) 1 part of delta(y)
    k = e0.k
    bad = [dict(d) for d in k.coaction]
    y_idx = 1  # basis (e, i=1)
    flipped = {}
    for (hi, ki), c in bad[y_idx].items():
        flipped[(hi, ki)] = -c if hi % 2 == 1 else c  # x-component sign flip
    bad[y_idx] = flipped
    broken = ComoduleAlgebraData(k.alg, k.over, bad, name="broken")
    report = verify_comodule_algebra(broken)
    assert not report.ok
    names = [c.name for c in report.failures()]
    assert any("algebra map" in n for n in names)


def test_a_doubled_coaction_entry_fails_with_pinned_counts(e1):
    # delta(e_1) = e_4 (x) e_1 + e_5 (x) e_0 on E1's K; doubling its (4, 1)
    # entry breaks coassociativity and the counit law at e_1 only, and the
    # algebra-map identity at every product that involves it
    k = e1.k
    coaction = [dict(d) for d in k.coaction]
    coaction[1][(4, 1)] = coaction[1][(4, 1)] + coaction[1][(4, 1)]
    report = verify_comodule_algebra(ComoduleAlgebraData(k.alg, k.over, coaction))
    assert {c.name: c.residual_nonzero_count for c in report.failures()} == {
        "coassociativity (Delta x id)delta = (id x delta)delta": 1,
        "counit law (eps x id)delta = id": 1,
        "coaction is an algebra map": 19,
    }


def test_coinvariants_of_hopf_over_itself(z2_table):
    h = group_algebra(z2_table, 2)
    k = hopf_as_comodule_over_itself(h)
    c = coinvariants(k)
    assert c.dim == 1
    assert in_span(c, k.alg.unit)


def test_coinvariants_trivial_e0_e1(e0, e1):
    assert coinvariants(e0.k).dim == 1
    assert coinvariants(e1.k).dim == 1


def test_costable_closure_of_unit_is_everything(e1):
    k = e1.k
    full = costable_closure(k, k.alg.unit)
    assert full.dim == k.dim


def test_costable_closure_of_zero(e1):
    zero_vec = {}
    assert costable_closure(e1.k, zero_vec).dim == 0


def test_costable_closure_of_y_is_everything(e1):
    k = e1.k
    y_vec = {1: Cyclo.one(2)}  # basis (e, 1) = y
    assert costable_closure(k, y_vec).dim == k.dim


def test_simple_certified_hopf_over_itself(z2_table):
    h = group_algebra(z2_table, 2)
    k = hopf_as_comodule_over_itself(h)
    cert = is_h_simple(k)
    assert cert.verdict == SimplicityCertificate.SIMPLE, cert.detail


def test_not_simple_trivial_coaction(z2_table):
    h = group_algebra(z2_table, 2)
    k = trivial_coaction_comodule(h)
    assert verify_comodule_algebra(k).ok
    cert = is_h_simple(k)
    assert cert.verdict == SimplicityCertificate.NOT_SIMPLE, cert.detail
    assert_costable_ideal(k, cert.witness)


def assert_costable_ideal(k, w):
    """Independent re-verification of a witness: proper, costable, two-sided ideal."""
    assert w is not None and 0 < w.dim < k.dim
    one = Cyclo.one(k.order)
    for vec in w.vectors():
        for i in range(k.dim):
            assert in_span(w, k.alg.left_mult_matrix({i: one}).apply(vec))
            assert in_span(w, k.alg.right_mult_matrix({i: one}).apply(vec))
        for a in range(k.over.dim):
            assert in_span(w, k.coaction_component(a).apply(vec))


@pytest.mark.parametrize("name, witness_dim", [("e0_datum", 2), ("e1_datum", 4)])
def test_not_simple_by_the_radical(name, witness_dim, request):
    # the monomial Hopf algebra is not semisimple: coacting trivially on
    # itself, the radical of its operator algebra already gives the witness
    k = trivial_coaction_comodule(request.getfixturevalue(name).h)
    assert verify_comodule_algebra(k).ok
    cert = is_h_simple(k)
    assert cert.verdict == SimplicityCertificate.NOT_SIMPLE, cert.detail
    assert cert.detail == "radical of the operator algebra acts nontrivially"
    assert cert.witness.dim == witness_dim
    assert_costable_ideal(k, cert.witness)


def s3_table():
    perms = list(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(a[b[x]] for x in range(3))] for b in perms] for a in perms]


@pytest.mark.parametrize("case, verdict", [
    ("kS3 trivial", SimplicityCertificate.NOT_SIMPLE),
    ("kZ3 trivial", SimplicityCertificate.NOT_SIMPLE),
    ("E1", SimplicityCertificate.SIMPLE),
])
def test_commutant_is_commutative(case, verdict, e1_datum):
    # the commutant of the costable operators commutes with every L_a and
    # R_b, so it is its own centre, which the certificate relies on
    if case == "E1":
        k = e1_datum.k
    else:
        table = s3_table() if case == "kS3 trivial" else [[(i + j) % 3 for j in range(3)]
                                                           for i in range(3)]
        k = trivial_coaction_comodule(group_algebra(table, 1))
    ops = costable_operators(k)
    commutant = intertwiner_basis(ops, ops, k.dim, k.dim, k.order)
    if case == "kS3 trivial":
        # QS3 is not commutative, its centre (the class sums) is 3-dimensional
        assert k.alg.multiply({1: Cyclo.one(1)}, {2: Cyclo.one(1)}) != \
            k.alg.multiply({2: Cyclo.one(1)}, {1: Cyclo.one(1)})
        assert len(commutant) == 3
    for f in commutant:
        for g in commutant:
            assert f * g == g * f
    assert is_h_simple(k).verdict == verdict


def test_monomial_comodule_simple_certified(e0, e1):
    for inst in (e0, e1):
        cert = is_h_simple(inst.k)
        assert cert.verdict == SimplicityCertificate.SIMPLE, cert.detail


def test_canonical_map_hopf_over_itself(z2_table):
    h = group_algebra(z2_table, 2)
    k = hopf_as_comodule_over_itself(h)
    r = coinvariants(k)
    g = canonical_map(k, r)
    assert g.bijective
    assert g.can_matrix.rows == 4  # dim(A (x) K) = 2*2


def test_canonical_map_script_a(e0, e1):
    for inst in (e0, e1):
        k_over_f = corestrict_coaction(inst.k, inst.embed_f)
        assert verify_comodule_algebra(k_over_f).ok
        r = coinvariants(k_over_f)
        assert r.dim == 1
        g = canonical_map(k_over_f, r)
        assert g.bijective
        assert g.can_matrix.rows == inst.hf.dim * inst.k.dim


def test_canonical_map_trivial_coaction_not_surjective(z2_table):
    h = group_algebra(z2_table, 2)
    k = trivial_coaction_comodule(h)
    r = coinvariants(k)  # everything is coinvariant
    g = canonical_map(k, r)
    assert not g.bijective
    # R = K, so K (x)_R K = K (dim 2) and can(k) = 1 (x) k is injective into
    # A (x) K (dim 4): rank 2, deficit max(4, 2) - 2 = 2
    assert g.can_deficit == 2
    (check,) = [c for c in g.report.checks if c.name == "can bijective"]
    assert (check.status, check.residual_nonzero_count) == ("FAIL", 2)


def test_galois_gamma_unit(e1):
    k_over_f = corestrict_coaction(e1.k, e1.embed_f)
    g = canonical_map(k_over_f, coinvariants(k_over_f))
    one = Cyclo.one(2)
    gamma_1 = galois_gamma(g, {0: one})  # unit of A(F,chi,g) is index 0 = (e,0)
    # gamma(1) = 1 (x) 1
    expected = {0 * e1.k.dim + 0: one}
    assert gamma_1 == expected


def test_not_simple_z3_idempotent_split():
    # trivial coaction on kZ3: the commutant is Q x Q(zeta_3) as a Q-algebra,
    # so the witness comes from factoring a cubic minimal polynomial
    table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    h = group_algebra(table, 1)
    k = trivial_coaction_comodule(h)
    assert verify_comodule_algebra(k).ok
    cert = is_h_simple(k)
    assert cert.verdict == SimplicityCertificate.NOT_SIMPLE, cert.detail
    assert cert.witness is not None and 0 < cert.witness.dim < 3


def test_simple_certified_over_cyclotomic_field():
    # K over Q(zeta_3): the certificate's rational-restriction step must
    # handle a field with phi(N) = 2
    from dyntwist.datum import DatumSpec, MonomialDatum
    table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    z3 = Cyclo.zeta(3)
    spec = DatumSpec(table=table, chi=[Cyclo.one(3), z3, z3 * z3], g=1, n=3,
                     f_indices=[0, 1, 2], b_indices=[0], mu=Cyclo.one(3))
    datum = MonomialDatum(spec)
    cert = is_h_simple(datum.k)
    assert cert.verdict == SimplicityCertificate.SIMPLE, cert.detail


def test_coinvariants_inside_component_kernels(e1):
    # coinvariants lie in ker((alpha (x) id)delta - alpha(1) id) for every alpha
    k = e1.k
    c = coinvariants(k)
    unit_vec = [k.over.alg.unit.get(i, Cyclo.zero(2)) for i in range(k.over.dim)]
    for j in range(c.dim):
        vec = c.vector(j)
        for a in range(k.over.dim):
            lhs = k.coaction_component(a).apply(vec)
            rhs = {i: y for i, x in vec.items() if not (y := unit_vec[a] * x).is_zero()}
            assert lhs == rhs


def test_galois_gamma_x_defining_property(e0):
    # gamma(x) verified by can(gamma(x)) = x (x) 1 inside galois_gamma
    k_over_f = corestrict_coaction(e0.k, e0.embed_f)
    g = canonical_map(k_over_f, coinvariants(k_over_f))
    one = Cyclo.one(2)
    gamma_x = galois_gamma(g, {1: one})  # x = basis (e, 1) of A(F,chi,g)
    assert gamma_x  # nonzero


def _pair_loop_trace(a, b):
    """tr(a b) as the sum of a[i][j] b[j][i] over the nonzeros of a."""
    total = Cyclo.zero(a.order)
    for i, j, x in a.nonzeros():
        y = b.row(j).get(i)
        if y is not None:
            total = total + x * y
    return total


@pytest.mark.parametrize("case", ["E1", "Z3", "E0 radical", "E1 radical"])
def test_trace_form_equals_a_pair_loop(case, request):
    from conftest import z3_spec
    from dyntwist.datum import MonomialDatum
    if case == "E1":
        k = request.getfixturevalue("e1_datum").k
    elif case == "Z3":
        k = MonomialDatum(z3_spec()).k
    else:
        datum = request.getfixturevalue("e0_datum" if case == "E0 radical" else "e1_datum")
        k = trivial_coaction_comodule(datum.h)
    seed = costable_operators(k)
    algebra = _close_under_products(seed, k.dim, k.order)
    commutant = intertwiner_basis(seed, seed, k.dim, k.dim, k.order)
    for basis in (algebra, commutant):
        gram = _trace_form(basis)
        assert (gram.rows, gram.cols) == (len(basis), len(basis))
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                assert gram.entry(i, j) == _pair_loop_trace(a, b), (case, i, j)


def test_a_witness_fails_at_its_first_failing_operator(e0_datum):
    # the operators are checked in order, every multiplication before every
    # coaction component, each on the whole witness at once
    h, k = e0_datum.h, e0_datum.k
    one = Cyclo.one(2)
    rad = is_h_simple(trivial_coaction_comodule(h)).witness
    assert _verify_witness(trivial_coaction_comodule(h), rad) == (True, "")
    # the radical of H is a two-sided ideal, but Delta moves it out of itself
    assert _verify_witness(hopf_as_comodule_over_itself(h), rad) == (False, "not costable")
    # e0 + e1 leaves this subspace of K under a coaction component only, and
    # e2 or e3 under a multiplication, so the multiplication is named
    w = Subspace.from_vectors([{0: one, 1: one}, {2: one}, {3: one}], k.dim, 2)
    assert _verify_witness(k, w) == (False, "not a two-sided ideal")
    assert _verify_witness(k, Subspace.from_vectors([], k.dim, 2)) == (False, "witness is zero")
    full = Subspace.from_vectors([{i: one} for i in range(k.dim)], k.dim, 2)
    assert _verify_witness(k, full) == (False, "witness is not proper")
