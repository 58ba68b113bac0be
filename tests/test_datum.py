import pytest

from dyntwist import datum as datum_module
from dyntwist.datum import (
    STATION_WEIGHT_FAMILIES,
    DatumSpec,
    MonomialDatum,
    PipelineError,
    gauge_from_equivalence,
    _element_action,
)
from dyntwist.linalg import LinAlgError, Matrix, inverse, kron
from dyntwist.rep import hom_space, regular_module, tensor_reps, trivial_module
from dyntwist.scalar import Cyclo
from dyntwist.twist import gauge_check, unit_tensor
from conftest import cyclic_table, e1_spec


def test_validate_datum_e0(e0_datum):
    report = e0_datum.validate_datum(check_simplicity=False)
    assert report.ok, str(report)


def test_validate_datum_e1(e1_datum):
    report = e1_datum.validate_datum(check_simplicity=True)
    assert report.ok, str(report)


def test_xi_roundtrip_forward_inverse(e1_datum):
    eng = e1_datum.engine
    x = regular_module(e1_datum.h.alg, name="X")
    triv = trivial_module(e1_datum.kb, name="triv_A")
    a_reg = regular_module(e1_datum.kb.alg, name="A_reg")
    # random-ish A-linear f' built from the intertwiner basis
    target_src = eng.a_tensor(eng.restrict(x), triv)
    homs = hom_space(target_src, a_reg)
    assert homs.dim > 0
    coeffs = [Cyclo.from_rational(i + 1, 2) for i in range(homs.dim)]
    fprime = homs.element(coeffs)
    f = eng.xi_inverse(x, triv, a_reg, fprime)
    assert eng.xi_forward(x, triv, a_reg, f) == fprime


def test_xi_roundtrip_inverse_forward(e1_datum):
    eng = e1_datum.engine
    x = trivial_module(e1_datum.h, name="triv_H")
    triv = trivial_module(e1_datum.kb, name="triv_A")
    tv = eng.t(triv)
    from dyntwist.rep import tensor_action, intertwiner_basis
    source = tensor_action(e1_datum.k, x, tv)
    gens = e1_datum.k.alg.generator_indices()
    basis = intertwiner_basis([source.action[g] for g in gens],
                              [tv.action[g] for g in gens],
                              tv.dim, source.dim, 2)
    for f in basis:
        fprime = eng.xi_forward(x, triv, triv, f)
        back = eng.xi_inverse(x, triv, triv, fprime)
        assert back == f


def test_xi_naturality_in_target(e1_datum):
    # natxi1: f . xi(b) = xi(T(f) . b) for an A-morphism f: N -> N'
    eng = e1_datum.engine
    x = regular_module(e1_datum.h.alg, name="X")
    triv = trivial_module(e1_datum.kb, name="triv_A")
    a_reg = regular_module(e1_datum.kb.alg, name="A_reg")
    homs = hom_space(triv, a_reg)
    assert homs.dim >= 1
    beta, n_mod = eng.xi_inverse_id(x, triv)
    xi_beta = eng.xi_forward(x, triv, n_mod, beta)
    nprime = eng.a_tensor(eng.restrict(x), a_reg)
    for fmor in homs.basis:
        prom = kron(Matrix.identity(x.dim, 2), fmor)      # N -> N'
        tf = eng.t_morphism(prom)                         # T(N) -> T(N')
        lhs = prom * xi_beta
        rhs = eng.xi_forward(x, triv, nprime, tf * beta)
        assert lhs == rhs


def test_xi_naturality_in_source_module(e1_datum):
    # natxi2: xi(b).(id_{R(X)} (x) g) = xi(b.(id_X (x) T(g))) for g: M -> M'
    eng = e1_datum.engine
    x = regular_module(e1_datum.h.alg, name="X")
    triv = trivial_module(e1_datum.kb, name="triv_A")
    a_reg = regular_module(e1_datum.kb.alg, name="A_reg")
    homs = hom_space(triv, a_reg)
    beta, n_mod = eng.xi_inverse_id(x, a_reg)
    xi_beta = eng.xi_forward(x, a_reg, n_mod, beta)
    for g in homs.basis:  # g: triv -> A_reg
        tg = eng.t_morphism(g)
        lhs = xi_beta * kron(Matrix.identity(x.dim, 2), g)
        moved = beta * kron(Matrix.identity(x.dim, 2), tg)
        rhs = eng.xi_forward(x, triv, n_mod, moved)
        assert lhs == rhs


def test_xi_naturality_in_x(e1_datum):
    # natxi3: xi(b)(R(alpha) (x) id) = xi(b (alpha (x) id)) for right mult alpha
    eng = e1_datum.engine
    h = e1_datum.h
    x = regular_module(h.alg, name="X")
    triv = trivial_module(e1_datum.kb, name="triv_A")
    one = Cyclo.one(2)
    beta, n_mod = eng.xi_inverse_id(x, triv)
    xi_beta = eng.xi_forward(x, triv, n_mod, beta)
    tv = eng.t(triv)
    for hi in (1, 2, 3):
        alpha = h.alg.right_mult_matrix({hi: one})  # H-module map H -> H
        lhs = xi_beta * kron(alpha, Matrix.identity(triv.dim, 2))
        moved = beta * kron(alpha, Matrix.identity(tv.dim, 2))
        rhs = eng.xi_forward(x, triv, n_mod, moved)
        assert lhs == rhs


def test_xi_inverse_id_is_isomorphism(e0_datum, e1_datum):
    # the constructive hypothesis: xi^-1(id) is a linear isomorphism
    for datum in (e0_datum, e1_datum):
        eng = datum.engine
        h_reg = regular_module(datum.h.alg, name="H_reg")
        a_reg = regular_module(datum.kb.alg, name="A_reg")
        triv_h = trivial_module(datum.h, name="triv_H")
        triv_a = trivial_module(datum.kb, name="triv_A")
        for x, m in ((h_reg, a_reg), (h_reg, triv_a), (triv_h, a_reg)):
            f, _ = eng.xi_inverse_id(x, m)
            assert f.rows == f.cols
            inverse(f)  # raises if singular


def test_i_unit_laws(e1_datum):
    # I_{X,1} = id and I_{1,X} = id
    eng = e1_datum.engine
    h_reg = regular_module(e1_datum.h.alg, name="H_reg")
    triv_h = trivial_module(e1_datum.h, name="triv_H")
    a_reg = regular_module(e1_datum.kb.alg, name="A_reg")
    for x, y in ((h_reg, triv_h), (triv_h, h_reg), (triv_h, triv_h)):
        i_mat = eng.compute_i(x, y, a_reg)
        assert i_mat == Matrix.identity(i_mat.rows, 2)


def test_twist_extraction_element_certificates(e1_datum, e1_twist):
    # action of the inverse element reproduces I on an extra module pair
    eng = e1_datum.engine
    e_elem = e1_twist.inverse
    x = trivial_module(e1_datum.h, name="triv_H")
    y = regular_module(e1_datum.h.alg, name="H_reg")
    m = trivial_module(e1_datum.kb, name="triv_A")
    direct = eng.compute_i(x, y, m)
    assert direct == _element_action(e_elem, x, y, m, 2)


def test_module_functor_datum_gives_trivial_twist():
    # n = 1: T is a module functor, so I = id and J = 1 x 1 x 1
    table = cyclic_table(2)
    spec = DatumSpec(table=table, chi=[Cyclo.one(2), Cyclo.one(2)], g=0, n=1,
                     f_indices=[0, 1], b_indices=[0, 1], mu=Cyclo.one(2))
    datum = MonomialDatum(spec)
    twist, report = datum.compute_twist()
    assert report.ok, str(report)
    assert twist.coeffs == unit_tensor(twist.legs)


def test_gauge_identity_is_trivial(e1_datum, e1_twist):
    def phi_of(v):
        tv = e1_datum.engine.t(v)
        return Matrix.identity(tv.dim, 2)

    gauge, report = gauge_from_equivalence(e1_datum, e1_datum, phi_of)
    assert report.ok, str(report)
    assert gauge.coeffs == unit_tensor([e1_datum.h.alg, e1_datum.kb.alg])
    assert gauge_check(e1_twist, e1_twist, gauge).ok


def test_gauge_scalar_two(e1_datum, e1_twist):
    two = Cyclo.from_rational(2, 2)

    def phi_of(v):
        tv = e1_datum.engine.t(v)
        return Matrix.identity(tv.dim, 2).scaled(two)

    gauge, report = gauge_from_equivalence(e1_datum, e1_datum, phi_of)
    assert report.ok, str(report)
    assert gauge_check(e1_twist, e1_twist, gauge).ok
    assert gauge.coeffs == unit_tensor([e1_datum.h.alg, e1_datum.kb.alg])


@pytest.fixture(scope="module")
def e1_datum_minus(e1_datum):
    return MonomialDatum(e1_spec(mu=Cyclo.from_rational(-1, 2)))


def test_gauge_between_mu_choices(e1_datum, e1_twist, e1_datum_minus):
    """The datum re-dressed with the other square root of lambda.

    phi_V(v_s (x) v) = (mu/mu')^s v_s (x) v is a K-linear natural isomorphism
    T -> T'; the extracted gauge element must relate the two computed twists.
    """
    datum2 = e1_datum_minus
    twist2, report2 = datum2.compute_twist()
    assert report2.ok, str(report2)
    ratio = e1_datum.mu * datum2.mu.inverse()

    def phi_of(v):
        n = e1_datum.spec.n
        dim = n * v.dim
        m = [[Cyclo.zero(2)] * dim for _ in range(dim)]
        for s in range(n):
            c = ratio ** s
            for t in range(v.dim):
                m[s * v.dim + t][s * v.dim + t] = c
        return Matrix.from_rows(m, 2)

    gauge, report = gauge_from_equivalence(e1_datum, datum2, phi_of)
    assert report.ok, str(report)
    check = gauge_check(e1_twist, twist2, gauge)
    assert check.ok, str(check)


def test_rejects_non_k_linear_phi(e1_datum):
    def phi_of(v):
        tv = e1_datum.engine.t(v)
        ident = Matrix.identity(tv.dim, 2)
        m = [[ident.entry(i, j) for j in range(tv.dim)] for i in range(tv.dim)]
        m[0][-1] = Cyclo.one(2)  # breaks K-linearity
        return Matrix.from_rows(m, 2)

    with pytest.raises(PipelineError):
        gauge_from_equivalence(e1_datum, e1_datum, phi_of)


def _scalar_comodule_datum(datum):
    from dyntwist.hopf import AlgebraData, group_algebra
    from dyntwist.comod import ComoduleAlgebraData
    from dyntwist.rep import ModuleRep, SubHopfEmbedding
    h = datum.h
    one = Cyclo.one(2)
    zero = Cyclo.zero(2)
    ka = group_algebra([[0]], 2, name="k")
    embed = SubHopfEmbedding(
        ka, h, Matrix.from_rows([[one]] + [[zero]] * (h.dim - 1), 2))
    scalars = AlgebraData(1, [[{0: one}]], {0: one}, 2, name="k")
    k = ComoduleAlgebraData(scalars, h, [{(0, 0): one}], name="K=k")
    t_functor = lambda v: ModuleRep(scalars, v.dim,
                                    [Matrix.identity(v.dim, 2)], name="T")
    return embed, k, t_functor


def test_generic_datum_trivial_gives_trivial_twist(e0_datum):
    from dyntwist.datum import generic_galois_datum
    embed, k, t_functor = _scalar_comodule_datum(e0_datum)
    engine, report = generic_galois_datum(
        embed, k, t_functor, lambda f: f,
        lambda v, w: Matrix.identity(v.dim * w.dim, 2))
    assert report.ok, str(report)
    twist, rep = engine.extract_twist()
    assert rep.ok
    assert twist.coeffs == unit_tensor(twist.legs)


def test_generic_datum_hopf_case(e1_datum):
    # K = A = kB inside E1's H: T = identity, J = 1 x 1 x 1
    from dyntwist.datum import generic_galois_datum
    from dyntwist.comod import subhopf_comodule
    from dyntwist.rep import ModuleRep
    k = subhopf_comodule(e1_datum.embed_b, name="K=kB")
    kb_alg = e1_datum.kb.alg

    def t_functor(v):
        return ModuleRep(kb_alg, v.dim, list(v.action), name="T(%s)" % v.name)

    engine, report = generic_galois_datum(
        e1_datum.embed_b, k, t_functor, lambda f: f,
        lambda v, w: Matrix.identity(v.dim * w.dim, 2))
    assert report.ok, str(report)
    twist, rep = engine.extract_twist()
    assert rep.ok
    assert twist.coeffs == unit_tensor(twist.legs)


def test_generic_datum_rejects_non_a_linear_iso(e1_datum):
    from dyntwist.datum import generic_galois_datum
    from dyntwist.comod import subhopf_comodule
    from dyntwist.rep import ModuleRep
    k = subhopf_comodule(e1_datum.embed_b, name="K=kB")
    kb_alg = e1_datum.kb.alg

    def t_functor(v):
        return ModuleRep(kb_alg, v.dim, list(v.action), name="T")

    def bad_iso(v, w):
        ident = Matrix.identity(v.dim * w.dim, 2)
        m = [[ident.entry(i, j) for j in range(ident.cols)] for i in range(ident.rows)]
        if v.dim * w.dim > 1:
            m[0][1] = Cyclo.one(2)
            m[1][0] = Cyclo.one(2) + Cyclo.one(2)
        return Matrix.from_rows(m, 2)

    with pytest.raises(PipelineError):
        generic_galois_datum(e1_datum.embed_b, k, t_functor, lambda f: f,
                             bad_iso)


def test_validation_rejects_bad_b(e1_datum):
    spec = e1_spec()
    spec.b_indices = [0, 2]  # contains g: B cap <g> != 1
    from dyntwist.monomial import ValidationError
    with pytest.raises(ValidationError):
        MonomialDatum(spec)


def z3_spec():
    z3 = Cyclo.zeta(3)
    return DatumSpec(table=cyclic_table(3), chi=[Cyclo.one(3), z3, z3 * z3], g=1, n=3,
                     f_indices=[0, 1, 2], b_indices=[0], mu=Cyclo.one(3))


def test_full_contract_at_n3_over_cyclotomic():
    # the whole datum contract on a dim-9 instance over Q(zeta_3)
    datum = MonomialDatum(z3_spec())
    report = datum.validate_datum(check_simplicity=True)
    assert report.ok, str(report)
    twist, rep = datum.compute_twist()
    assert rep.ok, str(rep)


def test_character_nontrivial_on_b_is_a_named_obstruction():
    # chi(b) = -1: no admissible station weights; must fail loudly, not wrongly
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    m1 = Cyclo.from_rational(-1, 2)
    spec = DatumSpec(table=table, chi=[Cyclo.one(2), m1, m1, Cyclo.one(2)],
                     g=2, n=2, f_indices=[0, 1, 2, 3], b_indices=[0, 1],
                     mu=Cyclo.one(2))
    with pytest.raises(PipelineError, match="nontrivial on B"):
        MonomialDatum(spec)


# -- the xi^-1 memo: one solve per distinct system --------------------------------


@pytest.fixture
def solve_calls(monkeypatch):
    """The column counts of the systems datum solves from now on."""
    calls = []
    real = datum_module.sparse_solve

    def counting(rows, rhs, ncols, order, **kwargs):
        calls.append(ncols)
        return real(rows, rhs, ncols, order, **kwargs)

    monkeypatch.setattr(datum_module, "sparse_solve", counting)
    return calls


@pytest.mark.parametrize("make_spec, distinct", [(z3_spec, 5), (e1_spec, 7)])
def test_compute_twist_solves_each_distinct_system_once(solve_calls, make_spec, distinct):
    # 12 xi^-1 systems on both: the regular one at set-up, three certification
    # pairs and two per battery entry.  On Z3, B = {e} makes A_reg = triv_A, so
    # more of them coincide.
    twist, report = MonomialDatum(make_spec()).compute_twist()
    assert report.ok, str(report)
    assert len(solve_calls) == distinct


class _Forgetful(dict):
    """A memo that stores nothing, so every xi^-1 is solved afresh."""

    def __setitem__(self, key, value):
        pass


@pytest.mark.parametrize("make_spec", [z3_spec, e1_spec])
def test_memoised_battery_equals_fresh_engine(solve_calls, make_spec):
    datum = MonomialDatum(make_spec())
    datum.compute_twist()
    eng = datum.engine
    solved = len(solve_calls)
    for index, (x, y, m) in enumerate(eng._extraction_battery()):
        memoised = eng.compute_i(x, y, m)
        assert len(solve_calls) == solved  # every system is already in the memo
        fresh = MonomialDatum(make_spec()).engine
        fresh._xi_memo = _Forgetful()
        before = len(solve_calls)
        assert fresh.compute_i(*fresh._extraction_battery()[index]) == memoised
        assert len(solve_calls) == before + 2
        solved = len(solve_calls)


def test_memo_misses_after_the_weights_change(solve_calls):
    datum = MonomialDatum(e1_spec())
    eng = datum.engine
    x, m = eng.triv_h, eng.a_reg
    eng.xi_inverse_id(x, m)
    eng.xi_inverse_id(x, m)
    assert len(solve_calls) == 2  # the set-up's regular solve, then this one
    datum.weights = [Cyclo.from_rational(r, datum.order)
                     for r in STATION_WEIGHT_FAMILIES[1](datum.spec.n)]
    f, n = eng.xi_inverse_id(x, m)
    assert len(solve_calls) == 3
    ident = Matrix.identity(x.dim * m.dim, datum.order)
    assert eng.xi_forward(x, m, n, f) == ident  # solved under the new station


def test_failed_solve_leaves_the_memo_unchanged(solve_calls):
    datum = MonomialDatum(e1_spec())
    eng = datum.engine
    before = dict(eng._xi_memo)
    datum.weights = [Cyclo.zero(datum.order)] * datum.spec.n
    with pytest.raises(PipelineError, match="not uniquely invertible"):
        eng.xi_inverse_id(eng.triv_h, eng.a_reg)
    assert eng._xi_memo == before
    with pytest.raises(PipelineError, match="not uniquely invertible"):
        eng.xi_inverse_id(eng.triv_h, eng.a_reg)
    assert len(solve_calls) == 3  # set-up, then both failures solved


def test_xi_bijectivity_residual_is_the_rank_deficit():
    # a zero station sends every K-linear map to 0, so xi has rank 0 on both
    # sample instances: dim Hom_A(triv, triv) = 1 and
    # dim Hom_kB(R(H_reg), kB) = dim H = 8 on E1, with no dimension gap
    datum = MonomialDatum(e1_spec())
    datum.weights = [Cyclo.zero(datum.order)] * datum.spec.n
    checks = {c.name: c for c in datum.engine.validate().checks}
    bij = checks["xi bijective on sample instances"]
    assert (bij.status, bij.residual_nonzero_count) == ("FAIL", 9)
    assert checks["naturality of xi on sample instances"].status == "PASS"
