import itertools

import pytest

from conftest import e0_spec, e1_spec, hopf_identities, z3_spec
from dyntwist.comod import verify_comodule_algebra
from dyntwist.datum import MonomialDatum
from dyntwist.hopf import (
    AlgebraData,
    HopfAlgebraData,
    StructureError,
    dual_hopf,
    group_algebra,
    group_exponent,
    group_generators,
    harpoon,
    verify_hopf,
)
from dyntwist.linalg import Matrix, generated_words
from dyntwist.scalar import Cyclo
from dyntwist.twist import build_twisted_galois


@pytest.fixture(scope="module")
def kz2(z2_table):
    return group_algebra(z2_table, 2, name="kZ2")


def test_group_algebra_passes_all_axioms(kz2):
    report = verify_hopf(kz2)
    assert report.ok, str(report)


def test_group_algebra_antipode_is_inversion(kz2):
    # S = S^-1 on group-likes of order 2
    assert kz2.antipode == kz2.antipode_inv
    assert kz2.antipode == Matrix.identity(2, 2)  # all elements self-inverse


def test_corrupted_comultiplication_fails(z2_table):
    h = group_algebra(z2_table, 2)
    one = Cyclo.one(2)
    # break Delta(g): make it primitive-ish, no longer an algebra map
    bad_comult = [dict(d) for d in h.comult]
    bad_comult[1] = {(0, 1): one, (1, 0): one}
    from dyntwist.hopf import HopfAlgebraData
    with pytest.raises(StructureError):
        # the antipode equation becomes unsolvable or the axioms fail
        broken = HopfAlgebraData(h.alg, bad_comult, h.counit, antipode=h.antipode)
        rep = verify_hopf(broken)
        assert not rep.ok
        raise StructureError("axioms fail")  # normalize either failure mode


@pytest.mark.parametrize("entry", [(0, 1), (1, 4)])
def test_a_doubled_comultiplication_entry_fails_with_pinned_counts(e1, entry):
    # Delta(e_1) = e_0 (x) e_1 + e_1 (x) e_4 on E1; doubling either entry
    # breaks coassociativity and the antipode axioms at e_1 only, the counit
    # law on leg 0 for (0, 1) and on leg 1 for (1, 4), and the algebra-map
    # identity at every product that involves e_1
    h = e1.h
    comult = [dict(d) for d in h.comult]
    comult[1][entry] = comult[1][entry] + comult[1][entry]
    broken = HopfAlgebraData(h.alg, comult, h.counit, antipode=h.antipode)
    report = verify_hopf(broken)
    assert {c.name: c.residual_nonzero_count for c in report.failures()} == {
        "coassociativity": 1,
        "counit axioms": 1,
        "comultiplication is an algebra map": 18,
        "antipode axiom m(S x id)Delta = u eps": 1,
        "antipode axiom m(id x S)Delta = u eps": 1,
    }


def test_wrong_antipode_inverse_reports_its_residual(z2_table):
    h = group_algebra(z2_table, 2)
    h.antipode_inv = Matrix.identity(2, 2).scaled(Cyclo.from_rational(2, 2))
    check = next(c for c in verify_hopf(h).checks if c.name == "S S^-1 = id")
    # S S^-1 = 2 id: both diagonal entries of S S^-1 - id are nonzero
    assert (check.status, check.residual_nonzero_count) == ("FAIL", 2)


def test_dual_of_group_algebra_is_functions(kz2):
    dual = dual_hopf(kz2)
    assert verify_hopf(dual).ok
    # two orthogonal idempotents: the dual basis elements
    one = Cyclo.one(2)
    e0, e1 = {0: one}, {1: one}
    assert dual.alg.multiply(e0, e0) == e0
    assert dual.alg.multiply(e1, e1) == e1
    assert dual.alg.multiply(e0, e1) == {}


def test_double_dual_is_original(kz2):
    dd = dual_hopf(dual_hopf(kz2))
    assert dd.alg.mult == kz2.alg.mult
    assert dd.comult == kz2.comult
    assert dd.counit == kz2.counit
    assert dd.antipode == kz2.antipode


def test_dual_counit_is_evaluation_at_one(kz2):
    dual = dual_hopf(kz2)
    assert dual.counit == [kz2.alg.unit.get(i, Cyclo.zero(2)) for i in range(kz2.dim)]


def test_harpoon_unit_acts_trivially(kz2):
    one = Cyclo.one(2)
    gamma = {0: one, 1: one + one}
    assert harpoon(kz2, {0: one}, gamma) == gamma


def test_harpoon_is_module_action(kz2):
    one = Cyclo.one(2)
    g = {1: one}
    gamma = {0: one, 1: one + one}
    # g . (g . gamma) = (g*g) . gamma = gamma
    once = harpoon(kz2, g, gamma)
    assert harpoon(kz2, g, once) == gamma


def test_harpoon_defining_pairing(kz2):
    # < h harpoon gamma, t > = < gamma, S^-1(h) t > for all basis h, gamma, t
    one = Cyclo.one(2)
    for hi in range(2):
        h_elem = {hi: one}
        for gi in range(2):
            gamma = {gi: one}
            acted = harpoon(kz2, h_elem, gamma)
            for t in range(2):
                lhs = acted.get(t, Cyclo.zero(2))
                prod = kz2.alg.multiply(kz2.antipode_inv_of(h_elem), {t: one})
                rhs = prod.get(gi, Cyclo.zero(2))
                assert lhs == rhs


@pytest.mark.parametrize("seed", range(6))
def test_harpoon_module_axiom_random(kz2, seed):
    # h . (h' . gamma) = (h h') . gamma on random elements
    import random
    rng = random.Random(seed)
    one = Cyclo.one(2)

    def rand_elem():
        return {i: Cyclo.from_rational(rng.randint(-3, 3), 2) for i in range(2)}

    h1, h2 = rand_elem(), rand_elem()
    gamma = {i: c for i, c in enumerate([Cyclo.from_rational(rng.randint(-3, 3), 2)
                                         for _ in range(2)]) if not c.is_zero()}
    lhs = harpoon(kz2, h1, harpoon(kz2, h2, gamma))
    rhs = harpoon(kz2, kz2.alg.multiply(h1, h2), gamma)
    assert lhs == rhs


def test_group_generators(z2z2_table):
    gens = group_generators(z2z2_table)
    assert len(gens) == 2
    assert group_exponent(z2z2_table) == 2


def test_z2z2_group_algebra(z2z2_table):
    h = group_algebra(z2z2_table, 2)
    assert verify_hopf(h).ok
    assert h.dim == 4


def test_wrong_coproduct_of_the_unit_counts_differing_keys(z2_table):
    # Delta(1) = g x g + g x 1 differs from 1 x 1 in all three keys
    from dyntwist.hopf import HopfAlgebraData
    h = group_algebra(z2_table, 2)
    one = Cyclo.one(2)
    comult = [{(1, 1): one, (1, 0): one}, dict(h.comult[1])]
    broken = HopfAlgebraData(h.alg, comult, h.counit, antipode=h.antipode)
    check = next(c for c in verify_hopf(broken).checks if c.name == "Delta(1) = 1 x 1")
    assert (check.status, check.residual_nonzero_count) == ("FAIL", 3)


def test_non_injective_embedding_reports_its_rank_deficit(kz2):
    from dyntwist.rep import SubHopfEmbedding
    embed = SubHopfEmbedding(kz2, kz2, Matrix.zero(2, 2, 2))
    check = next(c for c in embed.verify().checks if c.name == "embedding injective")
    assert (check.status, check.residual_nonzero_count) == ("FAIL", 2)


# -- Light's test: associativity on a generating set ----------------------------------


def _words_span(alg, gens) -> bool:
    one = Cyclo.one(alg.order)
    words = generated_words(alg.unit, [{g: one} for g in gens], alg.multiply, alg.dim)[1]
    return len(words) == alg.dim


@pytest.mark.parametrize("make_spec, gens", [(e1_spec, [0, 1, 2, 4, 5]), (z3_spec, [0, 1])])
def test_b_is_certified_by_one_identity_per_generator(make_spec, gens, monkeypatch):
    twist, report = MonomialDatum(make_spec()).compute_twist()
    assert report.ok
    (b_comod, _), report = build_twisted_galois(twist)
    assert report.ok
    b = b_comod.alg
    # a fresh copy of B, so nothing is certified yet; B lists no generators
    fresh = AlgebraData(b.dim, b.mult, b.unit, b.order, name="B")
    assert fresh.generating_set() == gens and _words_span(fresh, gens)
    calls = hopf_identities(monkeypatch)
    assert fresh.verify().ok
    assert len(calls) == len(gens) < b.dim
    # the coaction of B over H* (both certified above): one identity per generator
    del calls[:]
    assert verify_comodule_algebra(b_comod).ok
    assert len(calls) == len(gens)


def test_broken_unit_laws_count_associativity_over_every_index(e1_datum, monkeypatch):
    alg = e1_datum.h.alg
    two = Cyclo.from_rational(2, alg.order)
    broken = AlgebraData(alg.dim, alg.mult, {i: two * c for i, c in alg.unit.items()},
                         alg.order)
    calls = hopf_identities(monkeypatch)
    report = broken.verify()
    counts = {c.name: c.residual_nonzero_count for c in report.checks}
    assert counts == {"associativity m(m x id) = m(id x m)": 0, "unit laws": alg.dim}
    assert not broken.certified()
    # Light's attempt stops at the unit laws, so only the full count forms identities
    assert len(calls) == alg.dim


@pytest.mark.parametrize("make_spec", [e0_spec, e1_spec, z3_spec])
def test_the_generating_set_of_every_monomial_datum_algebra_is_its_listed_generators(make_spec):
    datum = MonomialDatum(make_spec())
    for alg in (datum.h.alg, datum.k.alg, datum.hf.alg, datum.kb.alg):
        if alg.dim == 1:
            # trivial kB: the unit alone spans, and its listed [0] adds nothing
            assert alg.generators == [0] and alg.generating_set() == []
        else:
            assert alg.generating_set() == alg.generators
            assert _words_span(alg, alg.generators)


def test_generators_that_do_not_span_are_extended_greedily():
    alg = MonomialDatum(z3_spec()).h.alg
    assert alg.generators == [3, 1] and alg.generating_set() == [3, 1]
    short = AlgebraData(alg.dim, alg.mult, alg.unit, alg.order, generators=[3])
    assert not _words_span(short, [3])
    # g generates only kZ3; x joins as the first basis index outside its span
    assert short.generating_set() == [3, 1]
    assert short.verify().ok and short.certified()
    # a corrupted product with the same short list still counts every failing triple
    mult = [[dict(p) for p in row] for row in alg.mult]
    mult[1][1][4] = Cyclo.one(alg.order)
    broken = AlgebraData(alg.dim, mult, alg.unit, alg.order, generators=[3])
    counts = {c.name: c.residual_nonzero_count for c in broken.verify().checks}
    assert counts["associativity m(m x id) = m(id x m)"] == _associator_oracle(broken) > 0


def _associator_oracle(alg) -> int:
    """Triples (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k), one at a time."""
    def times(x, y):
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                for k, c in alg.mult[i][j].items():
                    out[k] = out[k] + a * b * c if k in out else a * b * c
        return {k: v for k, v in out.items() if not v.is_zero()}
    one = Cyclo.one(alg.order)
    return sum(1 for i, j, k in itertools.product(range(alg.dim), repeat=3)
               if times(alg.mult[i][j], {k: one}) != times({i: one}, alg.mult[j][k]))
