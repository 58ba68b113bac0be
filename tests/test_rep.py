import json
from pathlib import Path

import pytest

from dyntwist.cli import datum_from_json
from dyntwist.hopf import group_algebra
from dyntwist.linalg import Matrix, balanced_relations, flatten, quotient, solve
from dyntwist.monomial import (MonomialHopfSpec, group_sub_embedding, make_monomial_hopf,
                               sub_table)
from dyntwist.rep import (
    ModuleRep,
    dual_module,
    hom_module,
    hom_space,
    induce,
    regular_module,
    restrict_module,
    tensor_action,
    tensor_reps,
    theta_maps,
    trivial_module,
)
from dyntwist.scalar import Cyclo


@pytest.fixture(scope="module")
def kz2(z2_table):
    return group_algebra(z2_table, 2)


def sign_module(kz2):
    from dyntwist.rep import character_module
    return character_module(kz2, [Cyclo.one(2), Cyclo.from_rational(-1, 2)],
                            name="sign")


def test_hom_contains_identity(kz2):
    reg = regular_module(kz2.alg)
    h = hom_space(reg, reg)
    assert any(b == Matrix.identity(2, 2) for b in h.basis) or h.dim >= 1


def test_schur_trivial_vs_sign(kz2):
    triv = trivial_module(kz2)
    sgn = sign_module(kz2)
    assert hom_space(triv, sgn).dim == 0


def test_regular_self_homs(kz2):
    reg = regular_module(kz2.alg)
    assert hom_space(reg, reg).dim == 2


def test_act_matrix_and_hom_element_are_linear_combinations(e1):
    reg = regular_module(e1.h.alg)
    a, b = Cyclo.from_rational(2, 2), Cyclo.from_rational(-3, 2)
    combined = reg.action[1].scaled(a) + reg.action[2].scaled(b)
    assert reg.act_matrix({1: a, 2: b}) == combined
    assert reg.act_matrix({}) == Matrix.zero(reg.dim, reg.dim, 2)
    homs = hom_space(reg, reg)
    assert homs.element([a, b] + [Cyclo.zero(2)] * (homs.dim - 2)) == (
        homs.basis[0].scaled(a) + homs.basis[1].scaled(b))


def test_module_axioms_regular(e1):
    reg = regular_module(e1.h.alg)
    assert reg.verify().ok


def test_tensor_action_trivial_factor(e0):
    triv_h = trivial_module(e0.h)
    reg_k = regular_module(e0.k.alg)
    t = tensor_action(e0.k, triv_h, reg_k)
    assert t.verify().ok
    for i in range(e0.k.dim):
        assert t.action[i] == reg_k.action[i]


def test_tensor_action_strict_associativity(e0):
    x = regular_module(e0.h.alg, name="X")
    y = trivial_module(e0.h, name="Y")
    v = regular_module(e0.k.alg, name="V")
    xy = tensor_reps(e0.h, x, y)
    lhs = tensor_action(e0.k, xy, v)
    yv = tensor_action(e0.k, y, v)
    rhs = tensor_action(e0.k, x, yv)
    assert lhs.dim == rhs.dim
    for i in range(e0.k.dim):
        assert lhs.action[i] == rhs.action[i]


def test_tensor_action_module_axioms(e1):
    x = regular_module(e1.h.alg, name="X")
    v = regular_module(e1.k.alg, name="V")
    t = tensor_action(e1.k, x, v)
    assert t.verify().ok


def test_induce_from_self_is_identity_dim(e0):
    from dyntwist.rep import SubHopfEmbedding
    emb = SubHopfEmbedding(e0.h, e0.h, Matrix.identity(e0.h.dim, 2))
    v = trivial_module(e0.h)
    ind, _, _ = induce(emb, v)
    assert ind.dim == 1
    assert ind.verify().ok


def test_induce_from_scalars_is_free(e1):
    # A = kB with B trivial would be scalars; here use E0-style: induce over kB
    triv = trivial_module(e1.kb)
    ind, _, _ = induce(e1.embed_b, triv)
    assert ind.dim == e1.h.dim * triv.dim // e1.kb.dim == 4
    assert ind.verify().ok


def test_an_embedding_that_negates_g_fails_with_pinned_counts(kz2):
    # kZ2 -> kZ2, g -> -g: an injective algebra map, but Delta(-g) = -g (x) g is
    # not (-g) (x) (-g), and eps(-g) = -1 while S(-g) = -g still matches
    from dyntwist.rep import SubHopfEmbedding
    minus_one = Cyclo.from_rational(-1, 2)
    emb = SubHopfEmbedding(kz2, kz2, Matrix.from_rows([[Cyclo.one(2), Cyclo.zero(2)],
                                                      [Cyclo.zero(2), minus_one]], 2))
    counts = {c.name: (c.status, c.residual_nonzero_count) for c in emb.verify().checks}
    assert counts == {
        "embedding injective": ("PASS", 0),
        "embedding is an algebra map": ("PASS", 0),
        "embedding intertwines comultiplication": ("FAIL", 1),
        "embedding intertwines counit and antipode": ("FAIL", 1),
    }


def test_hom_module_dims(e1):
    triv = trivial_module(e1.kb)
    mod, basis = hom_module(e1.embed_b, triv)
    assert mod.dim == 4
    assert mod.verify().ok


def test_frobenius_reciprocity_dims(e1):
    # dim Hom_H(Ind_A^H V, X) = dim Hom_A(V, R(X)) for V = triv, X = regular
    triv = trivial_module(e1.kb)
    ind, _, _ = induce(e1.embed_b, triv)
    x = regular_module(e1.h.alg, name="X")
    lhs = hom_space(ind, x).dim
    rx = restrict_module(e1.embed_b, x)
    rhs = hom_space(triv, rx).dim
    assert lhs == rhs


def test_dual_of_trivial_is_trivial(e0):
    triv = trivial_module(e0.h)
    d = dual_module(e0.h, triv)
    for i in range(e0.h.dim):
        assert d.action[i] == triv.action[i]


def test_double_dual_via_s_squared(e1):
    v = regular_module(e1.h.alg, name="V")
    dd = dual_module(e1.h, dual_module(e1.h, v))
    s2 = e1.h.antipode * e1.h.antipode
    for i in range(e1.h.dim):
        # double dual action = the original action at S^2(e_i)
        elem = {j: s2.entry(j, i) for j in range(e1.h.dim)
                if not s2.entry(j, i).is_zero()}
        assert dd.action[i] == v.act_matrix(elem)


def test_restrict_full_is_identity(e1):
    from dyntwist.rep import SubHopfEmbedding
    emb = SubHopfEmbedding(e1.h, e1.h, Matrix.identity(e1.h.dim, 2))
    x = regular_module(e1.h.alg)
    r = restrict_module(emb, x)
    for i in range(e1.h.dim):
        assert r.action[i] == x.action[i]


def test_theta_maps_trivial_module_e1(e1):
    triv = trivial_module(e1.kb)
    data = theta_maps(e1.embed_b, triv)
    assert data["report"].ok, str(data["report"])
    assert data["induced"].dim == 4
    assert data["hom_module"].dim == 4


def test_theta_maps_regular_module_e1(e1):
    reg = regular_module(e1.kb.alg, name="kB_reg")
    data = theta_maps(e1.embed_b, reg)
    assert data["report"].ok, str(data["report"])
    assert data["induced"].dim == 8


def test_theta_maps_e0(e0):
    triv = trivial_module(e0.kb)
    data = theta_maps(e0.embed_b, triv)
    assert data["report"].ok, str(data["report"])
    assert data["induced"].dim == 4


def test_unit_acting_as_twice_the_identity_reports_its_dimension(e1):
    v = regular_module(e1.h.alg, name="V")
    (u, _), = e1.h.alg.unit.items()
    action = list(v.action)
    action[u] = action[u].scaled(Cyclo.from_rational(2, 2))
    report = ModuleRep(e1.h.alg, v.dim, action, name="2V").verify()
    check = next(c for c in report.checks if c.name == "unit acts as identity")
    # rho(1) - id = id: every diagonal entry is a nonzero residual
    assert (check.status, check.residual_nonzero_count) == ("FAIL", v.dim)


@pytest.mark.parametrize("inst", ["E1", "Z3"])
@pytest.mark.parametrize("module", ["triv", "A_reg"])
def test_hom_module_action_equals_one_solve_per_column(inst, module):
    # Hom_A(H, V) for A = kB: the right-translation action read off the pivots
    # by ``translation_action`` against one ``solve`` per basis map and H-index
    from conftest import e1_spec, z3_spec
    from dyntwist.datum import MonomialDatum
    d = MonomialDatum(e1_spec() if inst == "E1" else z3_spec())
    embed = d.engine.embed_b
    h, order = embed.big, d.h.order
    v = trivial_module(embed.small) if module == "triv" else regular_module(embed.small.alg)
    mod, basis = hom_module(embed, v)
    assert mod.verify().ok
    assert basis
    basis_mat = Matrix.from_cols([flatten(b) for b in basis], v.dim * h.dim, order)
    for i in range(h.dim):
        rm = h.alg.right_mult_matrix({i: Cyclo.one(order)})
        want = Matrix.from_cols([solve(basis_mat, flatten(b * rm)) for b in basis],
                                len(basis), order)
        assert mod.action[i] == want


def _induced_relations(embed, v, indices):
    """span{h a (x) w - h (x) a w} over the basis indices a of A in ``indices``."""
    h, one = embed.big, Cyclo.one(v.order)
    return balanced_relations([(h.alg.right_mult_matrix(embed.embed_elem({a: one})), v.action[a])
                               for a in indices], h.dim, v.dim, v.order)


def _s3xz2_base_embedding():
    """kS3 inside the monomial Hopf algebra of tests/data/s3xz2_datum.json."""
    doc = json.loads((Path(__file__).parent / "data" / "s3xz2_datum.json").read_text())
    spec, order = datum_from_json(doc)
    hopf_spec = MonomialHopfSpec(table=spec.table, chi=[c.embed(order) for c in spec.chi],
                                 g=spec.g, n=spec.n)
    kb = group_algebra(sub_table(spec.table, spec.b_indices), order, name="kS3")
    return group_sub_embedding(make_monomial_hopf(hopf_spec, order), hopf_spec, kb,
                               spec.b_indices)


@pytest.mark.parametrize("instance", ["E1", "S3xZ2"])
def test_induced_relations_over_the_generating_set_equal_those_over_the_basis(instance, e1):
    embed = e1.embed_b if instance == "E1" else _s3xz2_base_embedding()
    a = embed.small
    assert len(a.alg.generating_set()) < a.dim
    for v in (trivial_module(a), regular_module(a.alg)):
        full = _induced_relations(embed, v, range(a.dim))
        assert _induced_relations(embed, v, a.alg.generating_set()) == full
        _, proj, sec = induce(embed, v)
        assert (proj, sec) == quotient(embed.big.dim * v.dim, full)
