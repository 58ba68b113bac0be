import pytest

from dyntwist.hopf import verify_hopf
from dyntwist.monomial import (
    MonomialHopfSpec,
    ValidationError,
    gauss_binomial,
    make_monomial_hopf,
    verify_coset_basis,
)
from dyntwist.scalar import Cyclo


def test_gauss_binomial_classical():
    q = Cyclo.one(1)
    assert gauss_binomial(4, 2, q) == Cyclo.from_rational(6, 1)


def test_gauss_binomial_at_minus_one():
    q = Cyclo.from_rational(-1, 2)
    # [2 1]_{-1} = 1 + (-1) = 0
    assert gauss_binomial(2, 1, q).is_zero()


def test_e0_dimension_and_axioms(e0):
    assert e0.h.dim == 4
    report = verify_hopf(e0.h)
    assert report.ok, str(report)


def test_e0_counit_values(e0):
    # eps(x) = 0, eps(g) = 1 on the group-major basis {1, x, g, gx}
    assert e0.h.counit[0].is_one()      # 1
    assert e0.h.counit[1].is_zero()     # x
    assert e0.h.counit[2].is_one()      # g
    assert e0.h.counit[3].is_zero()     # g x


def test_e0_antipode_solved(e0):
    one = Cyclo.one(2)
    # S(g) = g^-1 = g, S(x) = -x g^-1 = -xg = chi(g) g x... verified as vectors
    s_g = e0.h.antipode_of({2: one})
    assert s_g == {2: one}
    s_x = e0.h.antipode_of({1: one})
    # S(x) = -x g = -chi(g) g x = g x on the basis (chi(g) = -1)
    assert s_x == {3: one}


def test_e1_dimension_and_axioms(e1):
    assert e1.h.dim == 8
    assert verify_hopf(e1.h).ok


def test_degenerate_n1_is_group_algebra(z2_table):
    spec = MonomialHopfSpec(
        table=z2_table,
        chi=[Cyclo.one(2), Cyclo.one(2)],
        g=0,
        n=1,
    )
    h = make_monomial_hopf(spec, 2)
    assert h.dim == 2
    assert verify_hopf(h).ok
    one = Cyclo.one(2)
    assert h.comult[1] == {(1, 1): one}


def test_invalid_spec_noncentral_or_wrong_order(z2_table):
    with pytest.raises(ValidationError):
        MonomialHopfSpec(
            table=z2_table,
            chi=[Cyclo.one(2), Cyclo.from_rational(-1, 2)],
            g=1,
            n=4,  # |g| = 2 != 4
        ).validate()


def test_invalid_chi_not_hom(z2z2_table):
    # every O(|G|) condition holds (g = (0, 1), n = 2, chi = +-1, chi(1) = 1),
    # but chi(1, 1) = 1 != chi(0, 1) chi(1, 0) = -1
    sign = [1, -1, 1, 1]
    with pytest.raises(ValidationError, match="not a homomorphism"):
        MonomialHopfSpec(
            table=z2z2_table,
            chi=[Cyclo.from_rational(c, 2) for c in sign],
            g=1,
            n=2,
        ).validate()


def test_cheap_conditions_are_checked_before_the_homomorphism(z2_table):
    # chi = (1, 2) is no homomorphism (chi(1)^2 = 4), and chi^1 = 1 fails at 1;
    # the O(|G|) check runs first, so its message is the one raised
    with pytest.raises(ValidationError, match=r"chi\^n = 1 fails"):
        MonomialHopfSpec(
            table=z2_table,
            chi=[Cyclo.one(2), Cyclo.from_rational(2, 2)],
            g=0,
            n=1,
        ).validate()


def test_embeddings_are_hopf_maps(e1):
    assert e1.embed_f.verify().ok
    assert e1.embed_b.verify().ok
    assert e1.hf.dim == 8
    assert e1.kb.dim == 2


def test_subalgebra_hopf_axioms(e0, e1):
    assert verify_hopf(e0.hf).ok
    assert verify_hopf(e1.hf).ok
    assert verify_hopf(e1.kb).ok


def test_e0_embeddings(e0):
    assert e0.embed_f.verify().ok
    assert e0.embed_b.verify().ok
    assert e0.kb.dim == 1


def test_coset_data_e1(e1):
    assert e1.cosets.reps == [0]
    assert e1.cosets.g_powers == [0, 2]
    # b-part of g is identity, of b is b
    assert e1.cosets.b_part[2] == 0 and e1.cosets.g_exponent[2] == 1
    assert e1.cosets.b_part[1] == 1 and e1.cosets.g_exponent[1] == 0


def test_coset_basis_rank(e0, e1):
    assert verify_coset_basis(e0.h, e0.spec, e0.cosets, e0.b_indices)
    assert verify_coset_basis(e1.h, e1.spec, e1.cosets, e1.b_indices)


def test_corrupted_primitive_comultiplication_fails(e0):
    # Delta(x) changed to x (x) 1 + 1 (x) x: no longer an algebra map for H4
    from dyntwist.hopf import HopfAlgebraData, StructureError
    h = e0.h
    one = Cyclo.one(2)
    bad = [dict(d) for d in h.comult]
    bad[1] = {(0, 1): one, (1, 0): one}  # basis 0 = 1, 1 = x
    try:
        broken = HopfAlgebraData(h.alg, bad, h.counit, antipode=h.antipode)
        report = broken.verify()
        ok = report.ok
        names = [c.name for c in report.failures()]
        assert not ok and any("algebra map" in n for n in names)
    except StructureError:
        pass  # antipode re-derivation may already reject the corrupted tensor


def test_t_module_y_power_is_lambda(e1):
    from dyntwist.monomial import make_t_module
    from dyntwist.rep import trivial_module, regular_module
    from dyntwist.linalg import Matrix
    lam = e1.mu ** e1.spec.n
    for v in (trivial_module(e1.kb), regular_module(e1.kb.alg)):
        t = make_t_module(e1.spec, e1.k, e1.f_indices, e1.b_indices, e1.cosets,
                          e1.mu, v)
        y = t.action[1]  # basis (e, 1) = y
        y_n = Matrix.identity(t.dim, 2)
        for _ in range(e1.spec.n):
            y_n = y_n * y
        assert y_n == Matrix.identity(t.dim, 2).scaled(lam)
