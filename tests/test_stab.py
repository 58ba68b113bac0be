import functools

import pytest

from conftest import in_span
from dyntwist import rep as rep_module
from dyntwist import stab as stab_module
from dyntwist.comod import canonical_map, coinvariants, corestrict_coaction
from dyntwist.hopf import add_into
from dyntwist.linalg import (LinAlgError, Matrix, Subspace, flatten, kernel, kron, kron_sum,
                             rank, solve, sparse_cols, unflatten)
from dyntwist.monomial import make_t_module
from dyntwist.rep import (HomSpace, hom_space, intertwiner_basis, intertwiner_coords,
                          regular_module, tensor_action, trivial_module)
from dyntwist.scalar import Cyclo
from dyntwist.stab import (
    curry_map,
    stab_compose,
    stab_galois_transport,
    stab_hom_realized,
    stab_unit,
    uncurry_map,
    yan_zhu_stabilizer,
)


@pytest.fixture(scope="module")
def e1_t_triv(e1):
    triv = trivial_module(e1.kb)
    return make_t_module(e1.spec, e1.k, e1.f_indices, e1.b_indices, e1.cosets,
                         e1.mu, triv)


@pytest.fixture(scope="module")
def e0_t_triv(e0):
    triv = trivial_module(e0.kb)
    return make_t_module(e0.spec, e0.k, e0.f_indices, e0.b_indices, e0.cosets,
                         e0.mu, triv)


def test_t_module_axioms(e1_t_triv, e0_t_triv):
    assert e1_t_triv.verify().ok
    assert e0_t_triv.verify().ok


def test_t_module_y_action_shape(e0, e0_t_triv):
    # y = basis (e, 1): acts by the mu-scaled cyclic shift
    y = e0_t_triv.action[1]
    one = Cyclo.one(2)
    assert y.entry(1, 0) == one and y.entry(0, 1) == one
    assert y.entry(0, 0).is_zero() and y.entry(1, 1).is_zero()


def test_yan_zhu_dimension_e1(e1, e1_t_triv):
    st = yan_zhu_stabilizer(e1.k, e1_t_triv, e1_t_triv)
    assert st.report.ok
    assert st.dim == 4  # (2*2*8)/8


def test_hom_realized_dimension_e1(e1, e1_t_triv):
    st = stab_hom_realized(e1.k, e1_t_triv, e1_t_triv)
    assert st.report.ok, str(st.report)
    assert st.dim == 4
    # dimension formula dim K * dim St = dim V * dim W * dim H, exact integers
    assert e1.k.dim * st.dim == e1_t_triv.dim * e1_t_triv.dim * e1.h.dim


def test_both_realizations_agree_e0(e0, e0_t_triv):
    st1 = yan_zhu_stabilizer(e0.k, e0_t_triv, e0_t_triv)
    st2 = stab_hom_realized(e0.k, e0_t_triv, e0_t_triv)
    assert st1.dim == st2.dim
    assert e0.k.dim * st2.dim == e0_t_triv.dim ** 2 * e0.h.dim


def test_trivial_comodule_stabilizer_is_everything():
    # K = scalars: St = H* (x) Hom(V, W) with no constraint
    k, v2, _ = _trivial_comodule()
    st = yan_zhu_stabilizer(k, v2, v2)
    assert st.dim == k.over.dim * v2.dim * v2.dim


def test_curry_uncurry_roundtrip(e1, e1_t_triv):
    x = regular_module(e1.h.alg, name="X")
    st = stab_hom_realized(e1.k, e1_t_triv, e1_t_triv)
    # build a K-map f: X (x) T -> T from a stabilizer element by uncurrying a
    # constant family, then check curry inverts uncurry on H-linear families
    f0 = st.basis[0]
    # f(x (x) v) := f0(x-as-H (x) v) using X = H regular: f = f0 itself
    curried = curry_map(e1.k, x, e1_t_triv, f0)
    back = uncurry_map(e1.k, x, e1_t_triv, e1_t_triv, curried)
    assert back == f0


def test_curry_is_h_linear(e1, e1_t_triv):
    x = regular_module(e1.h.alg, name="X")
    st = stab_hom_realized(e1.k, e1_t_triv, e1_t_triv)
    f0 = st.basis[0]
    curried = curry_map(e1.k, x, e1_t_triv, f0)
    one = Cyclo.one(2)
    # curry(f)(h'. x_j) = h' . (curry(f)(x_j)): right-translation on the value
    for hp in range(e1.h.dim):
        for xj in range(x.dim):
            moved = x.action[hp].col(xj)
            lhs = Matrix.zero(e1_t_triv.dim, e1.h.dim * e1_t_triv.dim, 2)
            for t, c in moved.items():
                lhs = lhs + curried[t].scaled(c)
            mover = Matrix.zero(e1.h.dim, e1.h.dim, 2)
            from dyntwist.linalg import kron
            rm = e1.h.alg.right_mult_matrix({hp: one})
            rhs = curried[xj] * kron(rm, Matrix.identity(e1_t_triv.dim, 2))
            assert lhs == rhs


def test_transport_e1(e1, e1_t_triv):
    k_over_f = corestrict_coaction(e1.k, e1.embed_f)
    g = canonical_map(k_over_f, coinvariants(k_over_f))
    st = stab_hom_realized(e1.k, e1_t_triv, e1_t_triv)
    out = stab_galois_transport(g, e1.embed_f, e1_t_triv, e1_t_triv, st)
    assert out["report"].ok, str(out["report"])


def test_transport_e0(e0, e0_t_triv):
    k_over_f = corestrict_coaction(e0.k, e0.embed_f)
    g = canonical_map(k_over_f, coinvariants(k_over_f))
    st = stab_hom_realized(e0.k, e0_t_triv, e0_t_triv)
    out = stab_galois_transport(g, e0.embed_f, e0_t_triv, e0_t_triv, st)
    assert out["report"].ok, str(out["report"])


def test_stab_composition_unit_and_assoc(e0, e0_t_triv):
    t = e0_t_triv
    st = stab_hom_realized(e0.k, t, t)
    unit = stab_unit(e0.k, t)
    # unit is K-linear, i.e. lives in the stabilizer space
    for f in st.basis:
        assert stab_compose(e0.k, t, unit, f) == f
        assert stab_compose(e0.k, t, f, unit) == f
    # associativity on basis triples
    b = st.basis
    for f in b[:2]:
        for g in b[:2]:
            for h in b[:2]:
                lhs = stab_compose(e0.k, t, stab_compose(e0.k, t, f, g), h)
                rhs = stab_compose(e0.k, t, f, stab_compose(e0.k, t, g, h))
                assert lhs == rhs


def test_stab_composition_h_equivariance(e0, e0_t_triv):
    # h.(f o g) = sum (h_1 . f) o (h_2 . g) on basis elements
    t = e0_t_triv
    st = stab_hom_realized(e0.k, t, t)
    one = Cyclo.one(2)
    from dyntwist.linalg import kron
    idv = Matrix.identity(t.dim, 2)

    def translate(f, hi):
        return f * kron(e0.h.alg.right_mult_matrix({hi: one}), idv)

    for f in st.basis[:2]:
        for g in st.basis[:2]:
            fg = stab_compose(e0.k, t, f, g)
            for hi in range(e0.h.dim):
                lhs = translate(fg, hi)
                rhs = Matrix.zero(t.dim, e0.h.dim * t.dim, 2)
                for (h1, h2), c in e0.h.comult[hi].items():
                    term = stab_compose(e0.k, t, translate(f, h1), translate(g, h2))
                    rhs = rhs + term.scaled(c)
                assert lhs == rhs


def test_stab_composition_is_the_sweedler_formula(e1, e1_t_triv):
    # (f o g)(h (x) x) = f(h_2 (x) g(h_1 (x) x)), written out on each basis h (x) x;
    # E1's H is not cocommutative, so the order of h_1 and h_2 shows
    t, h = e1_t_triv, e1.h
    basis = stab_hom_realized(e1.k, t, t).basis
    for f in basis:
        for g in basis:
            cols = []
            for hi in range(h.dim):
                for x in range(t.dim):
                    col = {}
                    for (h1, h2), c in h.comult[hi].items():
                        g_x = g.col(h1 * t.dim + x)
                        for w, val in f.apply({h2 * t.dim + v: gv for v, gv in g_x.items()}).items():
                            add_into(col, w, c * val)
                    cols.append(col)
            assert stab_compose(e1.k, t, f, g) == Matrix.from_cols(cols, t.dim, 2)


# -- coordinates read off the canonical basis ---------------------------------


def _stab_case(case):
    """(K, H, V) with V = W: T(A_reg) on E1, T(triv) on Z3."""
    from conftest import e1_spec, z3_spec
    from dyntwist.datum import MonomialDatum
    if case == "E1 T(A_reg)":
        d = MonomialDatum(e1_spec())
        return d.k, d.h, d.engine.t(regular_module(d.kb.alg, name="A_reg"))
    d = MonomialDatum(z3_spec())
    return d.k, d.h, d.engine.t(trivial_module(d.kb))


def _solve_h_action(k, h, v, basis):
    """The H-action on the stabilizer coordinates, one ``solve`` per column."""
    order = k.order
    basis_mat = Matrix.from_cols([flatten(b) for b in basis], v.dim * h.dim * v.dim, order)
    idv = Matrix.identity(v.dim, order)
    out = []
    for i in range(h.dim):
        mover = kron(h.alg.right_mult_matrix({i: Cyclo.one(order)}), idv)
        out.append(Matrix.from_cols([solve(basis_mat, flatten(b * mover)) for b in basis],
                                    len(basis), order))
    return out


@pytest.mark.parametrize("case", ["E1 T(A_reg)", "Z3 T(triv)"])
def test_h_action_read_off_the_pivots_equals_the_solve(case):
    k, h, v = _stab_case(case)
    st = stab_hom_realized(k, v, v)
    assert st.report.ok, str(st.report)
    assert st.dim > 0
    assert st.h_action == _solve_h_action(k, h, v, st.basis)


@pytest.mark.parametrize("case", ["E1 T(A_reg)", "Z3 T(triv)"])
def test_read_off_coordinates_equal_solve_and_reject_the_outside(case):
    k, h, v = _stab_case(case)
    basis = stab_hom_realized(k, v, v).basis
    size = v.dim * h.dim * v.dim
    basis_mat = Matrix.from_cols([flatten(b) for b in basis], size, k.order)
    one = Cyclo.one(k.order)
    # the sum of two basis vectors, one scaled, has the coordinates of the solve
    vecs = [flatten(kron_sum([(one, b), (one + one, basis[j - 1])], b.rows, b.cols, k.order))
            for j, b in enumerate(basis)]
    coords, misses = intertwiner_coords(basis, Matrix.from_cols(vecs, size, k.order))
    assert misses == 0
    for j, vec in enumerate(vecs):
        assert coords.col(j) == solve(basis_mat, vec)
    # a unit vector off the span: the solve finds the system inconsistent, and
    # the read-off counts it
    outside = [u for u in range(size) if rank(Matrix.from_cols(
        sparse_cols(basis_mat) + [{u: one}], size, k.order)) > len(basis)]
    assert outside
    for u in outside[:5]:
        with pytest.raises(LinAlgError, match="inconsistent linear system"):
            solve(basis_mat, {u: one})
    units = Matrix.from_cols([{u: one} for u in outside[:5]], size, k.order)
    assert intertwiner_coords(basis, units) == (
        Matrix.zero(len(basis), len(outside[:5]), k.order), len(outside[:5]))


def test_a_corrupted_basis_entry_raises_as_the_solve_did(monkeypatch):
    # one entry of the first basis vector moved off its value, away from every
    # pivot: the span is no longer closed under the H-action, and the solve
    # found the first failing column inconsistent in the same way
    k, h, v = _stab_case("E1 T(A_reg)")
    space = hom_space(tensor_action(k, regular_module(h.alg, name="H_reg"), v), v)
    pivots = {max(flatten(b)) for b in space.basis}
    first = flatten(space.basis[0])
    idx = min(u for u in first if u not in pivots)
    first[idx] = first[idx] + Cyclo.one(k.order)
    corrupted = [unflatten(first, v.dim, h.dim * v.dim, k.order)] + space.basis[1:]
    with pytest.raises(LinAlgError, match="inconsistent linear system"):
        _solve_h_action(k, h, v, corrupted)
    monkeypatch.setattr(stab_module, "hom_space",
                        lambda src, tgt: HomSpace(src, tgt, corrupted))
    with pytest.raises(LinAlgError, match="inconsistent linear system"):
        stab_hom_realized(k, v, v)


# -- the Yan-Zhu kernel against the intersection route ---------------------------


def _intersect(u, v):
    """U cap V, via the kernel of [basis_U | -basis_V]."""
    order = u.basis.order
    if u.dim == 0 or v.dim == 0:
        return Subspace(u.ambient_dim, Matrix.zero(u.ambient_dim, 0, order))
    minus = v.basis.scaled(Cyclo.from_rational(-1, order))
    stacked = Matrix.from_cols(sparse_cols(u.basis) + sparse_cols(minus), u.ambient_dim, order)
    vectors = [u.basis.apply({i: c for i, c in vec.items() if i < u.dim})
               for vec in kernel(stacked).vectors()]
    return Subspace.from_vectors(vectors, u.ambient_dim, order)


def _q(n):
    return Cyclo.from_rational(n, 1)


def test_intersect_same_space():
    u = Subspace.from_vectors([{0: _q(1)}, {0: _q(1), 1: _q(1)}], 2, 1)
    assert _intersect(u, u) == u


def test_intersect_with_zero():
    u = Subspace.from_vectors([{0: _q(1)}], 2, 1)
    z = Subspace.from_vectors([], 2, 1)
    assert _intersect(u, z).dim == 0


def test_intersect_planes_in_q3():
    e1, e2, e3 = {0: _q(1)}, {1: _q(1)}, {2: _q(1)}
    u = Subspace.from_vectors([e1, e2], 3, 1)
    v = Subspace.from_vectors([e2, e3], 3, 1)
    w = _intersect(u, v)
    assert w.dim == 1 and in_span(w, e2)


def _l_columns(h, v, w):
    """The columns kron(Lambda_a, E_ts) of L, flattened, in the order (a, t, s)."""
    one = Cyclo.one(h.order)
    cols = []
    for a in range(h.dim):
        lmat = stab_module._dual_left_mult(h, a)
        for t in range(w.dim):
            for s in range(v.dim):
                e = Matrix(w.dim, v.dim, [{s: one} if i == t else {} for i in range(w.dim)],
                           h.order)
                cols.append(flatten(kron(lmat, e)))
    return cols


def _intersection_route(k, v, w):
    """Hom_K(H* (x) V, H* (x) W) cap L(H* (x) Hom(V, W)), over the whole ambient space."""
    h, order = k.over, k.order
    gens = k.alg.generating_set()
    inter = intertwiner_basis(stab_module._k_action_on_dual_tensor(k, v, gens),
                              stab_module._k_action_on_dual_tensor(k, w, gens),
                              h.dim * w.dim, h.dim * v.dim, order)
    amb = (h.dim * w.dim) * (h.dim * v.dim)
    inter_space = Subspace.from_vectors([flatten(m) for m in inter], amb, order)
    return _intersect(inter_space, Subspace.from_vectors(_l_columns(h, v, w), amb, order))


@functools.lru_cache(maxsize=None)
def _instance(name):
    """(K, {"T(triv)": ..., "T(A_reg)": ...}) of the datum E0, E1 or Z3."""
    from conftest import e0_spec, e1_spec, z3_spec
    from dyntwist.datum import MonomialDatum
    d = MonomialDatum({"E0": e0_spec, "E1": e1_spec, "Z3": z3_spec}[name]())
    return d.k, {"T(triv)": d.engine.t(trivial_module(d.kb)),
                 "T(A_reg)": d.engine.t(regular_module(d.kb.alg, name="A_reg"))}


def _trivial_comodule():
    """K = scalars over kZ2 with coaction 1 (x) 1, and V = W of dimension 2."""
    from conftest import cyclic_table
    from dyntwist.comod import ComoduleAlgebraData
    from dyntwist.hopf import AlgebraData, group_algebra
    from dyntwist.rep import ModuleRep
    h = group_algebra(cyclic_table(2), 2)
    one = Cyclo.one(2)
    scalars = AlgebraData(1, [[{0: one}]], {0: one}, 2, name="k")
    k = ComoduleAlgebraData(scalars, h, [{(max(h.alg.unit), 0): one}], name="k_triv")
    v2 = ModuleRep(scalars, 2, [Matrix.identity(2, 2)], name="V2")
    return k, v2, v2


ORACLE_CASES = [("E0", "T(triv)", "T(triv)"), ("E1", "T(triv)", "T(triv)"),
                ("E1", "T(A_reg)", "T(A_reg)"), ("Z3", "T(triv)", "T(triv)"),
                ("E1", "T(triv)", "T(A_reg)"), ("E1", "T(A_reg)", "T(triv)"),
                ("trivial comodule", None, None)]


def _oracle_case(name, vname, wname):
    if vname is None:
        return _trivial_comodule()
    k, mods = _instance(name)
    return k, mods[vname], mods[wname]


@pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda c: " ".join(filter(None, c)))
def test_yan_zhu_kernel_is_the_preimage_of_the_intersection(case):
    k, v, w = _oracle_case(*case)
    st = yan_zhu_stabilizer(k, v, w)
    assert st.report.ok, str(st.report)
    h = k.over
    amb = (h.dim * w.dim) * (h.dim * v.dim)
    lmatrix = Matrix.from_cols(_l_columns(h, v, w), amb, k.order)
    images = Subspace.from_vectors([lmatrix.apply(flatten(x)) for x in st.basis], amb, k.order)
    assert images.dim == st.dim
    assert images == _intersection_route(k, v, w)


def test_yan_zhu_builds_no_intertwiner_space(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Yan-Zhu stabilizer called intertwiner_basis")

    k, mods = _instance("E1")
    monkeypatch.setattr(rep_module, "intertwiner_basis", refuse)
    monkeypatch.setattr(stab_module, "intertwiner_basis", refuse)
    assert yan_zhu_stabilizer(k, mods["T(A_reg)"], mods["T(A_reg)"]).dim == 16


def _injectivity(report):
    check, = [c for c in report.checks if c.name == "L is injective"]
    return check


@pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda c: " ".join(filter(None, c)))
def test_injectivity_count_is_the_rank_defect_of_l(case):
    k, v, w = _oracle_case(*case)
    h = k.over
    cols = _l_columns(h, v, w)
    expected = len(cols) - Subspace.from_vectors(cols, len(cols) * h.dim, k.order).dim
    assert _injectivity(yan_zhu_stabilizer(k, v, w).report).residual_nonzero_count == expected


@pytest.mark.parametrize("vname, wname", [("T(triv)", "T(A_reg)"), ("T(A_reg)", "T(triv)")])
def test_injectivity_count_sees_a_dependent_family(monkeypatch, vname, wname):
    # Lambda_2 = Lambda_0 + Lambda_1 makes kron(Lambda_2, E_ts) dependent for every
    # (t, s): the count is w*v, not a 0/1 flag
    real = stab_module._dual_left_mult
    monkeypatch.setattr(stab_module, "_dual_left_mult",
                        lambda h, a: real(h, 0) + real(h, 1) if a == 2 else real(h, a))
    k, mods = _instance("E1")
    v, w = mods[vname], mods[wname]
    check = _injectivity(yan_zhu_stabilizer(k, v, w).report)
    cols = _l_columns(k.over, v, w)
    parent = len(cols) - Subspace.from_vectors(cols, len(cols) * k.over.dim, k.order).dim
    assert check.status == "FAIL"
    assert check.residual_nonzero_count == w.dim * v.dim == parent


def test_a_kernel_vector_off_the_equations_raises(monkeypatch):
    # the first kernel vector plus a unit vector that some equation reads
    real = stab_module.sparse_kernel_basis

    def off_by_a_unit(rows, ncols, order):
        u = min(min(r) for r in rows if r)
        basis = real(rows, ncols, order)
        first = dict(basis[0])
        add_into(first, u, Cyclo.one(order))
        return [first] + basis[1:]

    k, mods = _instance("E1")
    monkeypatch.setattr(stab_module, "sparse_kernel_basis", off_by_a_unit)
    with pytest.raises(LinAlgError, match="a kernel vector fails the stabilizer equations"):
        yan_zhu_stabilizer(k, mods["T(A_reg)"], mods["T(triv)"])
