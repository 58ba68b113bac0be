import pytest

from dyntwist.hopf import (
    HopfAlgebraData,
    StructureError,
    dual_hopf,
    group_algebra,
    group_exponent,
    group_generators,
    harpoon,
    verify_hopf,
)
from dyntwist.linalg import Matrix
from dyntwist.scalar import Cyclo


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
