import importlib.util
import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from dyntwist import datum as datum_module
from dyntwist.cli import datum_from_json
from dyntwist.datum import (
    STATION_WEIGHT_FAMILIES,
    DatumSpec,
    MonomialDatum,
    PipelineError,
    gauge_from_equivalence,
)
from dyntwist.linalg import (LinAlgError, Matrix, inverse, kron, kron_sum, rank,
                             sparse_kernel_basis, sparse_solve, unflatten)
from dyntwist.rep import (_expand_orbits, _orbit_reduction, hom_space, intertwiner_basis,
                          regular_module, tensor_reps, trivial_module)
from dyntwist.report import CheckReport
from dyntwist.scalar import Cyclo
from dyntwist.twist import element_action, gauge_check, unit_tensor
from conftest import cyclic_table, e0_spec, e1_spec, product_table, z3_spec

ROOT = Path(__file__).resolve().parents[1]


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
    from dyntwist.rep import tensor_action
    source = tensor_action(e1_datum.k, x, tv)
    gens = e1_datum.k.alg.generating_set()
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
        tf = kron(Matrix.identity(e1_datum.spec.n, 2), prom)  # T(N) -> T(N')
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
        tg = kron(Matrix.identity(e1_datum.spec.n, 2), g)
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
    assert direct == element_action(e_elem, [x.action, y.action, m.action], 2)


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


def _identity_slices(v):
    """The station of T = identity: p_V = i_V = id_V."""
    return Matrix.identity(v.dim, 2), Matrix.identity(v.dim, 2)


def test_generic_datum_trivial_gives_trivial_twist(e0_datum):
    from dyntwist.datum import generic_galois_datum
    embed, k, t_functor = _scalar_comodule_datum(e0_datum)
    engine, report = generic_galois_datum(embed, k, t_functor, _identity_slices)
    assert report.ok, str(report)
    twist, rep = engine.extract_twist()
    assert rep.ok
    assert twist.coeffs == unit_tensor(twist.legs)


def test_generic_datum_hopf_case(e1_datum):
    # K = A = kB inside E1's H: T = identity, J = 1 x 1 x 1
    from dyntwist.datum import generic_galois_datum
    from dyntwist.hopf import subhopf_comodule
    from dyntwist.rep import ModuleRep
    k = subhopf_comodule(e1_datum.embed_b, name="K=kB")
    kb_alg = e1_datum.kb.alg

    def t_functor(v):
        return ModuleRep(kb_alg, v.dim, list(v.action), name="T(%s)" % v.name)

    engine, report = generic_galois_datum(
        e1_datum.embed_b, k, t_functor, _identity_slices)
    assert report.ok, str(report)
    twist, rep = engine.extract_twist()
    assert rep.ok
    assert twist.coeffs == unit_tensor(twist.legs)


def test_generic_datum_rejects_non_a_linear_iso(e1_datum):
    from dyntwist.datum import generic_galois_datum
    from dyntwist.hopf import subhopf_comodule
    from dyntwist.rep import ModuleRep
    k = subhopf_comodule(e1_datum.embed_b, name="K=kB")
    kb_alg = e1_datum.kb.alg

    def t_functor(v):
        return ModuleRep(kb_alg, v.dim, list(v.action), name="T")

    def bad_slices(v):
        # an invertible i_V that does not commute with the action of B on kB
        ident = Matrix.identity(v.dim, 2)
        m = [[ident.entry(i, j) for j in range(ident.cols)] for i in range(ident.rows)]
        if v.dim > 1:
            m[0][1] = Cyclo.one(2)
            m[1][0] = Cyclo.one(2) + Cyclo.one(2)
        return ident, Matrix.from_rows(m, 2)

    with pytest.raises(PipelineError, match="supplied isomorphism family is not A-linear"):
        generic_galois_datum(e1_datum.embed_b, k, t_functor, bad_slices)


def test_validation_rejects_bad_b(e1_datum):
    spec = e1_spec()
    spec.b_indices = [0, 2]  # contains g: B cap <g> != 1
    from dyntwist.monomial import ValidationError
    with pytest.raises(ValidationError):
        MonomialDatum(spec)


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


def test_the_admissibility_error_names_the_first_b_with_chi_not_one():
    # G = Z2^3 at 4a + 2b + c, chi = (-1)^(a + b), B = {(0, b, c)}: chi is 1 at
    # the first two elements of B and -1 at the third, index 2
    table = product_table(product_table(cyclic_table(2), cyclic_table(2)), cyclic_table(2))
    chi = [Cyclo.from_rational((-1) ** ((x >> 2) + (x >> 1 & 1)), 2) for x in range(8)]
    spec = DatumSpec(table=table, chi=chi, g=4, n=2, f_indices=list(range(8)),
                     b_indices=[0, 1, 2, 3], mu=Cyclo.one(2))
    with pytest.raises(PipelineError) as exc:
        MonomialDatum(spec)
    message = str(exc.value)
    assert "needs chi(b) = 1 for every b in B" in message
    assert "nontrivial on B" in message
    assert message.endswith("chi(b) = -1 != 1 at the group element b = 2")


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


def test_normalisation_fails_on_every_module_when_the_weights_are_zero():
    # p_M i_M = c_0 id_M, so zero weights break xi(id_T(M)) = id_M on both
    # triv_A and A_reg
    datum = MonomialDatum(e1_spec())
    datum.weights = [Cyclo.zero(datum.order)] * datum.spec.n
    checks = {c.name: c for c in datum.engine.validate().checks}
    norm = checks["normalisation xi(id_T(M)) = id_M"]
    assert (norm.status, norm.residual_nonzero_count) == ("FAIL", 2)


# omega normalisation's residual counts (V = triv_A, then V = A_reg) when the
# station breaks it: with weight c_0 at slice 0, p_V i_V = c_0 id_V
OMEGA_COUNTS = {"e0_spec": [2, 2], "e1_spec": [2, 4], "z3_spec": [3, 3]}


@pytest.mark.parametrize("make_spec", [e0_spec, e1_spec, z3_spec])
def test_omega_normalisation_counts_the_induced_basis_vectors_it_fails_on(make_spec):
    datum = MonomialDatum(make_spec())
    n = datum.spec.n
    broken = OMEGA_COUNTS[make_spec.__name__]
    for weights, counts in (([0] * n, broken), ([2] + [1] * (n - 1), broken),
                            ([1, 5] + [0] * (n - 2), [0, 0])):
        datum.weights = [Cyclo.from_rational(r, datum.order) for r in weights]
        report = datum.omega_normalisation()
        assert [c.residual_nonzero_count for c in report.checks] == counts, weights
        assert report.ok == (counts == [0, 0])


def _s3xz2_spec():
    doc = json.loads((ROOT / "tests" / "data" / "s3xz2_datum.json").read_text())
    return datum_from_json(doc)[0]


@pytest.mark.parametrize("make_spec", [e0_spec, e1_spec, z3_spec, _s3xz2_spec])
def test_counit_is_fixed_by_the_inverse_antipode(make_spec):
    # omega normalisation reads eps S^-1 as eps; this is the identity it relies on
    h = MonomialDatum(make_spec()).h
    eps = h.counit_row()
    assert not eps.is_zero()
    assert eps * h.antipode_inv == eps


# -- the orbit-reduced xi^-1 against the unreduced system --------------------------


def _flat_station(datum, v_dim, w_dim) -> Matrix:
    """The monomial station as one matrix, flattened Hom(T(V), T(W)) -> flattened Hom(V, W).

    Written entry by entry from the slice layout, not from the engine's slice
    maps: Theta -> sum_s c_s Theta[(s, w), (0, v)] with T(V) = n slices of V,
    so row w*dim V + v holds c_s at column (s*dim W + w)*dim T(V) + v.
    """
    n = datum.spec.n
    tv_dim = n * v_dim
    data = [{} for _ in range(w_dim * v_dim)]
    for s, c in enumerate(datum.weights):
        for wt in range(w_dim):
            for vi in range(v_dim):
                data[wt * v_dim + vi][(s * w_dim + wt) * tv_dim + vi] = c
    return Matrix(w_dim * v_dim, n * w_dim * tv_dim, data, datum.order)


def _unreduced_solution(datum, key) -> Matrix:
    """Solve the full K-linearity and station system of one memo key.

    The system is written out exactly as xi^-1 is defined, one row per
    equation of f S(g) = T(g) f and per station entry, with no substitution;
    a memo key holds (action of X, of T(V), of T(W), p_W, i_V, f').  The
    station rows come from ``_flat_station``; the key's slice maps give only
    dim W and dim V.
    """
    k, order = datum.k, datum.order
    x_act, tv_act, tw_act, p_w, i_v, fprime = key
    v_dim, w_dim = i_v.cols, p_w.rows
    st = _flat_station(datum, v_dim, w_dim)
    x_dim, tv_dim, tw_dim = x_act[0].rows, tv_act[0].rows, tw_act[0].rows
    s_dim = x_dim * tv_dim
    rows, rhs = [], {}

    def put(row, col, c):
        total = row[col] + c if col in row else c
        if total.is_zero():
            row.pop(col, None)
        else:
            row[col] = total

    for g in k.alg.generating_set():
        s_g = kron_sum(((c, x_act[hi], tv_act[ki]) for (hi, ki), c in k.coaction[g].items()),
                       s_dim, s_dim, order)
        s_cols = s_g.transpose()
        t_g = tw_act[g]
        for i in range(tw_dim):
            for j in range(s_dim):
                row = {}
                for kk, c in s_cols.row(j).items():
                    put(row, i * s_dim + kk, c)
                for kk, c in t_g.row(i).items():
                    put(row, kk * s_dim + j, -c)
                rows.append(row)
    for xi in range(x_dim):
        for out in range(w_dim * v_dim):
            row = {}
            for h, c in st.row(out).items():
                r, col = divmod(h, tv_dim)
                put(row, r * s_dim + xi * tv_dim + col, c)
            wt, vi = divmod(out, v_dim)
            val = fprime.row(wt).get(xi * v_dim + vi)
            if val is not None:
                rhs[len(rows)] = val
            rows.append(row)
    sol = sparse_solve(rows, [rhs], tw_dim * s_dim, order, require_unique=True)[0]
    data = [{} for _ in range(tw_dim)]
    for u, val in sol.items():
        i, j = divmod(u, s_dim)
        data[i][j] = val
    return Matrix(tw_dim, s_dim, data, order)


def _seeded_z3_spec():
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return datum_from_json(inputs.seeded_datum("z3", 3))[0]


@pytest.mark.parametrize("make_spec", [e0_spec, e1_spec, z3_spec, _seeded_z3_spec])
def test_every_memoised_xi_inverse_equals_the_unreduced_solve(make_spec):
    datum = MonomialDatum(make_spec())
    twist, report = datum.compute_twist()
    assert report.ok, str(report)
    memo = datum.engine._xi_memo
    assert len(memo) >= 3
    for key, f in memo.items():
        assert _unreduced_solution(datum, key) == f


def test_a_two_cycle_with_product_minus_one_is_forced_to_zero():
    # f S = T f with S swapping the two columns of a 1 x 2 matrix f, with
    # signs: f0 = -f1 and f1 = f0, so f = 0
    one, minus = Cyclo.one(1), Cyclo.from_rational(-1, 1)
    s = Matrix(2, 2, [{1: one}, {0: minus}], 1)
    t = Matrix.identity(1, 1)
    assert _orbit_reduction([(s, t)], 1, 2) == ([None, None], 0, [])


def test_a_two_cycle_with_product_one_is_one_orbit():
    # a_0 = 2, a_1 = 1/2: f0 = 2 f1 and f1 = f0 / 2, one free value
    two, half = Cyclo.from_rational(2, 1), Cyclo.from_rational(Fraction(1, 2), 1)
    s = Matrix(2, 2, [{1: half}, {0: two}], 1)
    orbit, ncols, equations = _orbit_reduction([(s, Matrix.identity(1, 1))], 1, 2)
    assert ncols == 1 and equations == []
    (c0, w0), (c1, w1) = orbit
    assert c0 == c1 == 0
    # f0 = w0 y, f1 = w1 y satisfy f0 = 2 f1
    as_value = [Cyclo.one(1) if w is None else w for w in (w0, w1)]
    assert as_value[0] == two * as_value[1]


def _random_monomial_pairs(seed, t_dim=3, s_dim=4, gens=2, swaps=False):
    """``gens`` (S, T) pairs of monomial matrices, from the seed.

    Each is a permutation conjugated by a diagonal gauge: row sigma(j) of S
    holds z_j / z_sigma(j) at column j, row i of T holds x_i / x_tau(i) at
    column tau(i), so f[i][j] = x_i z_j solves f S = T f.  On odd seeds one
    entry of the first S changes sign, which can force orbits to zero.  With
    ``swaps`` each permutation swaps two random points and fixes the rest, so
    that three generators still leave several orbits.
    """
    rng = random.Random(seed)
    values = [1, -1, 2, Fraction(1, 2), 3]
    x = [rng.choice(values) for _ in range(t_dim)]
    z = [rng.choice(values) for _ in range(s_dim)]

    def permutation(n):
        if not swaps:
            return rng.sample(range(n), n)
        p = list(range(n))
        a, b = rng.sample(range(n), 2)
        p[a], p[b] = b, a
        return p

    pairs = []
    for g in range(gens):
        sigma, tau = permutation(s_dim), permutation(t_dim)
        s_rows = [{} for _ in range(s_dim)]
        for j in range(s_dim):
            flip = -1 if (seed % 2 and g == 0 and j == 0) else 1
            s_rows[sigma[j]][j] = Cyclo.from_rational(flip * z[j] / Fraction(z[sigma[j]]), 1)
        t_rows = [{tau[i]: Cyclo.from_rational(x[i] / Fraction(x[tau[i]]), 1)}
                  for i in range(t_dim)]
        pairs.append((Matrix(s_dim, s_dim, s_rows, 1), Matrix(t_dim, t_dim, t_rows, 1)))
    return pairs


# seed 19 keeps a merged orbit with a weight other than 1 and forces one to
# zero; it also gets two generators that are not monomial, so equation rows
# written over merged orbits are covered too (see _mixed_pairs)
_MIXED_SEED = 19


def _mixed_pairs(t_dim, s_dim, gens=2, swaps=False):
    """The monomial pairs of the mixed seed plus two that are not monomial.

    The sum of the first two monomial pairs holds for every solution of them,
    so its rows vanish over the orbits only if the weights are right; a Jordan
    block on the T side cuts the solutions down.
    """
    one = Cyclo.one(1)
    pairs = _random_monomial_pairs(_MIXED_SEED, t_dim, s_dim, gens, swaps)
    (s1, t1), (s2, t2) = pairs[:2]
    t_rows = [{i: one} for i in range(t_dim)]
    t_rows[0][1] = one
    return pairs + [(s1 + s2, t1 + t2),
                    (Matrix.identity(s_dim, 1), Matrix(t_dim, t_dim, t_rows, 1))]


def _full_rows(pairs, t_dim, s_dim):
    """The rows of f S = T f over every entry f[i][j], at index i*s_dim + j."""
    rows = []
    for s_g, t_g in pairs:
        for i in range(t_dim):
            for j in range(s_dim):
                row = {}
                for u, c in [(i * s_dim + kk, s_g.entry(kk, j)) for kk in range(s_dim)] + \
                            [(kk * s_dim + j, -t_g.entry(i, kk)) for kk in range(t_dim)]:
                    row[u] = row[u] + c if u in row else c
                rows.append(row)
    return Matrix(len(rows), t_dim * s_dim, rows, 1)


# 3 x 4 with two permutations, and 4 x 6 with three swaps
@pytest.mark.parametrize("seed, t_dim, s_dim, gens, swaps", [
    pytest.param(seed, *shape, id=prefix + str(seed))
    for prefix, shape in (("", (3, 4, 2, False)), ("4x6x3-", (4, 6, 3, True)))
    for seed in [*range(12), _MIXED_SEED]])
def test_orbits_parametrise_exactly_the_solutions_of_monomial_equations(seed, t_dim, s_dim,
                                                                         gens, swaps):
    # the free orbit values must span exactly the solution space of
    # f S(g) = T(g) f, with no orbit surviving that the equations force to 0;
    # intertwiner_basis, solved over the orbits, must return exactly the
    # canonical kernel basis of the rows over every entry
    monomial = _random_monomial_pairs(seed, t_dim, s_dim, gens, swaps)
    pairs = _mixed_pairs(t_dim, s_dim, gens, swaps) if seed == _MIXED_SEED else monomial
    orbit, ncols, equations = _orbit_reduction(pairs, t_dim, s_dim)
    assert (equations != []) == (seed == _MIXED_SEED)
    # each surviving orbit's highest unknown has weight 1 (None), and the
    # orbit columns ascend with it
    top = {}
    for u, slot in enumerate(orbit):
        if slot is not None:
            top[slot[0]] = u
    assert sorted(top) == list(range(ncols))
    assert all(orbit[u][1] is None for u in top.values())
    assert [top[c] for c in range(ncols)] == sorted(top.values())
    assert ncols == t_dim * s_dim - rank(_full_rows(monomial, t_dim, s_dim))
    for col in range(ncols):
        f = unflatten(_expand_orbits(orbit, {col: Cyclo.one(1)}), t_dim, s_dim, 1)
        assert not f.is_zero()
        for s_g, t_g in monomial:
            assert f * s_g == t_g * f
    full = _full_rows(pairs, t_dim, s_dim)
    oracle = sparse_kernel_basis([dict(full.row(r)) for r in range(full.rows)],
                                 t_dim * s_dim, 1)
    basis = intertwiner_basis([s for s, _ in pairs], [t for _, t in pairs], t_dim, s_dim, 1)
    assert basis == [unflatten(v, t_dim, s_dim, 1) for v in oracle]


def test_the_random_monomial_cases_cover_merged_and_zero_orbits():
    # the seeds above are not vacuous: some keep a merged orbit with a weight
    # other than 1, and some force an orbit to zero; the mixed seed does
    # both, and its generators that are not monomial cut the orbit
    # solutions down without leaving none
    def weighted(orbit):
        return any(slot is not None and slot[1] is not None and not slot[1].is_one()
                   for slot in orbit)

    orbits = [_orbit_reduction(_random_monomial_pairs(seed), 3, 4)[0] for seed in range(12)]
    assert any(map(weighted, orbits)) and any(None in orbit for orbit in orbits)
    pairs = _mixed_pairs(3, 4)
    orbit, ncols, equations = _orbit_reduction(pairs, 3, 4)
    assert weighted(orbit) and None in orbit and equations
    basis = intertwiner_basis([s for s, _ in pairs], [t for _, t in pairs], 3, 4, 1)
    assert 0 < len(basis) < ncols


def test_without_a_monomial_generator_every_orbit_is_a_singleton():
    one = Cyclo.one(1)
    s = Matrix(2, 2, [{0: one, 1: one}, {1: one}], 1)  # a Jordan block
    t = Matrix.identity(1, 1)
    orbit, ncols, equations = _orbit_reduction([(s, t)], 1, 2)
    assert orbit == [(0, None), (1, None)]
    assert ncols == 2
    # (f S - T f)[0][0] = 0 holds identically; (f S - T f)[0][1] = f[0][0]
    assert equations == [{0: one}]


def test_a_wrong_solution_fails_the_xi_inverse_certificate(monkeypatch):
    datum = MonomialDatum(e1_spec())
    eng = datum.engine
    before = dict(eng._xi_memo)
    real = datum_module.sparse_solve

    def off_by_one(rows, rhs, ncols, order, **kwargs):
        sols = real(rows, rhs, ncols, order, **kwargs)
        col = min(sols[0])
        sols[0][col] = sols[0][col] + Cyclo.one(order)
        return sols

    monkeypatch.setattr(datum_module, "sparse_solve", off_by_one)
    with pytest.raises(PipelineError, match=r"certificate failed on \(triv_H, A_reg, ") as info:
        eng.xi_inverse_id(eng.triv_h, eng.a_reg)
    count = int(re.search(r"(\d+) nonzero residuals", str(info.value)).group(1))
    assert count >= 1
    assert eng._xi_memo == before


@pytest.mark.parametrize("where", ["regulars", "battery"])
def test_an_element_that_fails_its_certificate_raises(e1_datum, where):
    # the element read off a right multiplication is not its left
    # multiplication (H is not commutative); a battery map that differs from
    # the element's action on one module tuple is counted once
    h = e1_datum.h
    one = Cyclo.one(2)
    eng = e1_datum.engine
    if where == "regulars":
        reg_map = h.alg.right_mult_matrix({1: one})
    else:
        reg_map = h.alg.left_mult_matrix({1: one})
    battery = [(eng.h_reg,), (eng.triv_h,)]

    def direct(x):
        return x.act_matrix({1: one}) + Matrix.identity(x.dim, 2)

    report = CheckReport("extraction")
    with pytest.raises(PipelineError, match="test certificate failed on " + where):
        datum_module._certified_element([h.alg], reg_map, battery, direct, report,
                                        ("on regulars", "on the battery"), "test")
    failed = [(c.name, c.residual_nonzero_count) for c in report.failures()]
    if where == "regulars":
        assert [name for name, _ in failed] == ["on regulars"] and failed[0][1] >= 1
    else:
        assert failed == [("on the battery", 2)]


def _composite_station_contract(st, f, xdim, tv_dim, vdim, wdim):
    """The forward slice contraction of a formed composite f: X (x) T(V) -> T(W)."""
    slots = []
    for r in range(f.rows):
        by_c = {}
        for col, val in f.row(r).items():
            i, c = divmod(col, tv_dim)
            by_c.setdefault(c, []).append((i, val))
        slots.append(by_c)
    out = [{} for _ in range(wdim)]
    for p in range(st.rows):
        wt, vi = divmod(p, vdim)
        for h, sv in st.row(p).items():
            r, c = divmod(h, tv_dim)
            for i, val in slots[r].get(c, ()):
                key = i * vdim + vi
                out[wt][key] = out[wt][key] + sv * val if key in out[wt] else sv * val
    return Matrix(wdim, xdim * vdim, out, st.order)


def _composite_i(datum, x, y, m, xi_elem):
    """I_{X,Y,M} by the formed composite f_x (id_X (x) f_y), then the station."""
    eng = datum.engine
    if xi_elem is None:
        f_y, n_y = eng.xi_inverse_id(y, m)
        f_x, _ = eng.xi_inverse_id(x, n_y)
    else:
        n_y = eng.a_tensor(eng.restrict(y), m)
        f_y = eng.contract_obstruction(xi_elem, y, m)
        f_x = eng.contract_obstruction(xi_elem, x, n_y)
    composite = f_x * kron(Matrix.identity(x.dim, eng.order), f_y)
    n_out = eng.a_tensor(eng.a_tensor(eng.restrict(x), eng.restrict(y)), m)
    return _composite_station_contract(_flat_station(datum, m.dim, n_out.dim), composite,
                                       x.dim * y.dim, eng.t(m).dim, m.dim, n_out.dim)


@pytest.mark.parametrize("make_spec", [e1_spec, z3_spec])
def test_compute_i_equals_the_station_of_the_formed_composite(make_spec):
    datum = MonomialDatum(make_spec())
    eng = datum.engine
    xi_elem, _ = eng.obstruction_element()
    battery = eng._extraction_battery()
    for x, y, m in battery:  # the solve path
        assert eng.compute_i(x, y, m) == _composite_i(datum, x, y, m, None)
    for x, y, m in battery + [(eng.h_reg, eng.h_reg, eng.a_reg)]:  # the element path
        assert eng.compute_i(x, y, m, xi_elem=xi_elem) == _composite_i(datum, x, y, m, xi_elem)


@pytest.mark.parametrize("make_spec", [e1_spec, z3_spec])
def test_station_contraction_reads_the_weights(make_spec):
    # weights other than 1 on the slices: xi_forward and the station of I
    # still agree with the formula on the formed composite
    datum = MonomialDatum(make_spec())
    eng = datum.engine
    xi_elem, _ = eng.obstruction_element()
    f, n = eng.xi_inverse_id(eng.h_reg, eng.a_reg)
    datum.weights = [Cyclo.from_rational(r, datum.order)
                     for r in STATION_WEIGHT_FAMILIES[3](datum.spec.n)]
    x, m = eng.h_reg, eng.a_reg
    assert eng.xi_forward(x, m, n, f) == _composite_station_contract(
        _flat_station(datum, m.dim, n.dim), f, x.dim, eng.t(m).dim, m.dim, n.dim)
    for x, y, m in eng._extraction_battery():
        assert eng.compute_i(x, y, m, xi_elem=xi_elem) == _composite_i(datum, x, y, m, xi_elem)


# -- the paper's setting: a non-abelian base -----------------------------------------


def _product_recipe(perms, n, order):
    """The datum P x Z_n of the ladder recipe, P given by its permutation tuples.

    (p, k) sits at index n * (position of p among the sorted tuples) + k,
    with (p1 o p2)[i] = p1[p2[i]]; chi(p, k) = zeta_n^k, g = (id, 1),
    F = G, B = P x {0} and mu = 1.
    """
    perms = sorted(perms)
    size = n * len(perms)

    def index(p, k):
        return n * perms.index(p) + k

    table = [[0] * size for _ in range(size)]
    for (p1, k1), (p2, k2) in itertools.product(itertools.product(perms, range(n)),
                                                repeat=2):
        table[index(p1, k1)][index(p2, k2)] = index(tuple(p1[i] for i in p2), (k1 + k2) % n)
    zeta = Cyclo.zeta(n).embed(order)
    return DatumSpec(table=table, chi=[zeta ** (h % n) for h in range(size)],
                     g=index(tuple(range(len(perms[0]))), 1), n=n,
                     f_indices=list(range(size)), b_indices=[index(p, 0) for p in perms],
                     mu=Cyclo.one(order))


def _generated_permutations(gens):
    """The permutation group generated by ``gens``, as tuples."""
    found = {tuple(range(len(gens[0])))}
    frontier = list(found)
    while frontier:
        frontier = [tuple(p[i] for i in q) for p in frontier for q in gens]
        frontier = [p for p in set(frontier) if p not in found]
        found.update(frontier)
    return found


def _assert_fixture_is_the_recipe(name, recipe, order):
    doc = json.loads((ROOT / "tests" / "data" / name).read_text())
    spec, parsed_order = datum_from_json(doc)
    assert (spec, parsed_order) == (recipe, order)
    table = spec.table
    assert spec.g == 1 and spec.b_indices == list(range(0, len(table), 2))
    assert any(table[a][b] != table[b][a] for a in spec.b_indices for b in spec.b_indices)


def test_s3xz2_fixture_is_the_recipe_and_its_base_is_non_abelian():
    order = 6  # the group exponent; n = 2 and mu = 1 add nothing
    recipe = _product_recipe(list(itertools.permutations(range(3))), 2, order)
    _assert_fixture_is_the_recipe("s3xz2_datum.json", recipe, order)


def test_d4xz2_fixture_is_the_recipe_and_its_base_is_non_abelian():
    # D4 on 4 points, generated by the rotation (1,2,3,0) and the reflection (0,3,2,1)
    d4 = _generated_permutations([(1, 2, 3, 0), (0, 3, 2, 1)])
    assert len(d4) == 8
    order = 4  # the group exponent
    _assert_fixture_is_the_recipe("d4xz2_datum.json", _product_recipe(d4, 2, order), order)

# -- the twist of this realisation is the Z_n twist -------------------------------------


@pytest.mark.parametrize("perms, n, order", [
    ([(0, 1), (1, 0)], 2, 2),                        # Z2 x Z2, B = Z2
    ([(0, 1, 2), (1, 2, 0), (2, 0, 1)], 2, 6),       # Z3 x Z2, B = Z3
    ([(0, 1), (1, 0)], 3, 6),                        # Z2 x Z3, B = Z2
])
def test_the_twist_of_p_times_zn_is_the_twist_of_zn(perms, n, order):
    # with chi = 1 on B = P, J of P x Z_n has the index triples and values of J
    # of Z_n alone (P trivial): its H-legs live on the Z_n factor (p = id comes
    # first among the sorted tuples, so the indices agree) and its S-leg is
    # the unit of kB
    product, report = MonomialDatum(_product_recipe(perms, n, order)).compute_twist()
    assert report.ok, str(report)
    alone, report = MonomialDatum(_product_recipe([(0,)], n, n)).compute_twist()
    assert report.ok, str(report)
    assert alone.coeffs != {(0, 0, 0): Cyclo.one(n)}  # not the trivial twist
    assert product.coeffs == {key: c.embed(order) for key, c in alone.coeffs.items()}
