import cmath
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from dyntwist import linalg
from dyntwist.linalg import (
    Echelon,
    LinAlgError,
    Matrix,
    Subspace,
    balanced_relations,
    differing_columns,
    differing_entries,
    flatten,
    generated_words,
    identity_residual,
    inverse,
    kernel,
    kron,
    kron_sum,
    mul_id_kron,
    pivot_coords,
    quotient,
    rank,
    solve,
    sparse_cols,
)
from dyntwist.scalar import Cyclo, ScalarError, euler_phi, sub_mul


def q(x, order=1):
    return Cyclo.from_rational(Fraction(x), order)


def mat(rows, order=1):
    return Matrix.from_rows([[q(x, order) for x in r] for r in rows], order)


def sparse(dense):
    """The sparse {index: value} form of a dense list of scalars."""
    return {i: x for i, x in enumerate(dense) if not x.is_zero()}


def test_kernel_of_identity_is_zero():
    assert kernel(Matrix.identity(3, 1)).dim == 0


def test_kernel_of_zero_is_full():
    assert kernel(Matrix.zero(2, 2, 1)).dim == 2


def test_kernel_rank_one():
    k = kernel(mat([[1, 1], [1, 1]]))
    assert k.dim == 1
    v = k.vector(0)
    # spans (1, -1)
    assert (v[0] + v[1]).is_zero() and not v[0].is_zero()


def test_kernel_residual_is_zero():
    random.seed(7)
    m = mat([[random.randint(-4, 4) for _ in range(5)] for _ in range(3)])
    k = kernel(m)
    assert k.dim >= 2
    for j in range(k.dim):
        assert m.apply(k.vector(j)) == {}


def test_solve_exact_residual():
    m = mat([[2, 1], [1, 3]])
    rhs = sparse([q(5), q(10)])
    x = solve(m, rhs)
    assert m.apply(x) == rhs


def test_solve_inconsistent_raises():
    m = mat([[1, 1], [1, 1]])
    with pytest.raises(LinAlgError):
        solve(m, sparse([q(0), q(1)]))


def test_apply_rejects_an_index_outside_the_columns():
    with pytest.raises(LinAlgError):
        mat([[1, 2]]).apply({2: q(1)})
    with pytest.raises(LinAlgError):
        mat([[1, 2]]).apply({-1: q(1)})


def test_inverse_roundtrip():
    m = mat([[1, 2], [3, 5]])
    assert m * inverse(m) == Matrix.identity(2, 1)


def test_product_rejects_matrices_over_different_fields():
    # a zero operand has no terms, so only the matrices' own orders can tell
    with pytest.raises(ScalarError):
        Matrix.zero(2, 2, 3) * Matrix.identity(2, 1)
    with pytest.raises(ScalarError):
        Matrix.identity(2, 3) * Matrix.zero(2, 2, 1)
    with pytest.raises(ScalarError):
        mat([[1, 2], [3, 4]], 3) * mat([[1, 2], [3, 4]], 4)


def test_inverse_singular_raises():
    with pytest.raises(LinAlgError):
        inverse(mat([[1, 2], [2, 4]]))


def test_from_vectors_leaves_its_input_alone_and_checks_the_range():
    # stored zeros do not count, the given dicts are not consumed, and an
    # index outside the ambient space is refused
    v = {0: q(2), 1: q(0), 2: q(4)}
    w = Subspace.from_vectors([v, {1: q(0)}], 3, 1)
    assert v == {0: q(2), 1: q(0), 2: q(4)}
    assert w.basis == Matrix.from_cols([{0: q(1), 2: q(2)}], 3, 1)
    for bad in ({3: q(1)}, {-1: q(1)}):
        with pytest.raises(LinAlgError, match="column index out of range"):
            Subspace.from_vectors([bad], 3, 1)


def test_quotient_by_zero_is_identity():
    proj, sec = quotient(3, Subspace.from_vectors([], 3, 1))
    assert proj == Matrix.identity(3, 1)
    assert sec == Matrix.identity(3, 1)


def test_quotient_by_full_space():
    w = Subspace.from_vectors([sparse([q(1), q(0)]), sparse([q(0), q(1)])], 2, 1)
    proj, sec = quotient(2, w)
    assert proj.rows == 0 and sec.cols == 0


def test_quotient_diagonal_line():
    w = Subspace.from_vectors([sparse([q(1), q(1)])], 2, 1)
    proj, sec = quotient(2, w)
    assert proj.rows == 1
    assert proj.apply(sparse([q(1), q(1)])) == {}
    assert proj * sec == Matrix.identity(1, 1)
    # projection composed with inclusion of W vanishes exactly
    residual = proj * w.basis
    assert all(residual.entry(0, j).is_zero() for j in range(residual.cols))


def _relations_by_hand(actions, d1, d2, order):
    """x_i r (x) y_j - x_i (x) r y_j, written out entry by entry.

    ``actions`` holds, per element r, the list of the x_i r and the list of
    the r y_j as sparse vectors.
    """
    vectors = []
    for right, left in actions:
        for i in range(d1):
            for j in range(d2):
                vec = {t * d2 + j: c for t, c in right[i].items()}
                for t, c in left[j].items():
                    vec[i * d2 + t] = vec.get(i * d2 + t, Cyclo.zero(order)) - c
                vectors.append({k: c for k, c in vec.items() if not c.is_zero()})
    return Subspace.from_vectors(vectors, d1 * d2, order)


def test_balanced_relations_of_e1_h_over_kb_on_the_trivial_module(e1):
    # h b (x) 1 - eps(b) h (x) 1; the quotient H (x)_kB triv has dim H / dim kB = 4
    h, kb, one = e1.h, e1.kb, Cyclo.one(2)
    images = [e1.embed_b.embed_elem({b: one}) for b in range(kb.dim)]
    hand = _relations_by_hand([([h.alg.multiply({i: one}, a) for i in range(h.dim)],
                                [{0: kb.counit[b]}]) for b, a in enumerate(images)],
                              h.dim, 1, 2)
    got = balanced_relations([(h.alg.right_mult_matrix(a), Matrix.from_rows([[kb.counit[b]]], 2))
                              for b, a in enumerate(images)], h.dim, 1, 2)
    assert got == hand
    assert h.dim - got.dim == 4


def test_balanced_relations_of_kz3_over_itself():
    # kZ3 (x)_kZ3 kZ3 = kZ3; multiplication by a 3-cycle is not a symmetric matrix
    from conftest import cyclic_table
    from dyntwist.hopf import group_algebra
    alg, one = group_algebra(cyclic_table(3), 1).alg, Cyclo.one(1)
    elements = [{g: one} for g in range(3)]
    hand = _relations_by_hand([([alg.multiply({i: one}, x) for i in range(3)],
                                [alg.multiply(x, {j: one}) for j in range(3)]) for x in elements],
                              3, 3, 1)
    got = balanced_relations([(alg.right_mult_matrix(x), alg.left_mult_matrix(x))
                              for x in elements], 3, 3, 1)
    assert got == hand
    assert 9 - got.dim == 3


def test_balanced_relations_of_the_twisted_algebra_over_its_coinvariants(e1_twist):
    # B^op (x)_R B^op for E1's twist, R = eps (x) S: k r (x) s - k (x) r s
    from dyntwist.twist import build_twisted_galois
    (_, gal), _ = build_twisted_galois(e1_twist)
    alg, dim, order = gal.comodule.alg, gal.comodule.dim, gal.comodule.order
    one = Cyclo.one(order)
    r = gal.coinvariant_basis.vectors()
    hand = _relations_by_hand([([alg.multiply({i: one}, x) for i in range(dim)],
                                [alg.multiply(x, {j: one}) for j in range(dim)]) for x in r],
                              dim, dim, order)
    got = balanced_relations([(alg.right_mult_matrix(x), alg.left_mult_matrix(x)) for x in r],
                             dim, dim, order)
    assert got == hand
    assert 0 < got.dim < dim * dim
    assert quotient(dim * dim, got)[0] == gal.projection


def test_kron_identities():
    assert kron(Matrix.identity(2, 1), Matrix.identity(3, 1)) == Matrix.identity(6, 1)
    assert kron(mat([[2]]), mat([[3]])) == mat([[6]])
    assert kron(mat([[1, 2]]), Matrix.zero(2, 2, 1)).is_zero()


def test_kron_sum_rejects_a_term_of_the_wrong_shape():
    two, three = Matrix.identity(2, 1), Matrix.identity(3, 1)
    with pytest.raises(LinAlgError):
        kron_sum([(q(1), two, three)], 6, 5, 1)
    with pytest.raises(LinAlgError):  # the second term is 6 x 6, not 8 x 8
        kron_sum([(q(1), two, two, two), (q(1), two, three)], 8, 8, 1)
    with pytest.raises(LinAlgError):
        kron_sum([(q(1), three)], 2, 2, 1)


def test_kron_index_convention():
    a = mat([[0, 1], [0, 0]])
    b = Matrix.identity(2, 1)
    k = kron(a, b)
    # (i, j) -> i*2 + j: entry ((0,0),(1,0)) = a[0][1]*b[0][0] at (0, 2)
    assert k.entry(0, 2) == q(1)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10000))
def test_kron_multiplicativity(seed):
    rng = random.Random(seed)
    def rnd(r, c):
        return mat([[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)])
    a, c = rnd(2, 3), rnd(3, 2)
    b, d = rnd(2, 2), rnd(2, 3)
    assert kron(a, b) * kron(c, d) == kron(a * c, b * d)


@pytest.mark.parametrize("order", [1, 3])
@pytest.mark.parametrize("seed", range(6))
def test_mul_id_kron_is_the_product_with_id_kron(order, seed):
    # d = 1 on seeds 0 and 1, a zero a on seed 2 and a zero b on seed 3;
    # every random matrix with rows and columns has an empty row
    rng = random.Random("mul_id_kron:%d:%d" % (order, seed))
    d = 1 if seed < 2 else rng.randint(2, 3)
    rows, brows, bcols = rng.randint(2, 4), rng.randint(2, 4), rng.randint(2, 4)
    a = _to_matrix(_rand_dense(rng, rows, d * brows, order), rows, d * brows, order)
    b = _to_matrix(_rand_dense(rng, brows, bcols, order), brows, bcols, order)
    if seed == 2:
        a = Matrix.zero(rows, d * brows, order)
    if seed == 3:
        b = Matrix.zero(brows, bcols, order)
    assert mul_id_kron(a, d, b) == a * kron(Matrix.identity(d, order), b)
    with pytest.raises(LinAlgError):
        mul_id_kron(a, d + 1, b)


def test_subspace_equality_is_canonical():
    u = Subspace.from_vectors([sparse([q(1), q(1)]), sparse([q(1), q(-1)])], 2, 1)
    v = Subspace.from_vectors([sparse([q(2), q(0)]), sparse([q(0), q(3)])], 2, 1)
    assert u == v


def test_rank():
    assert rank(mat([[1, 2], [2, 4], [0, 1]])) == 2


def test_identity_residual_counts_nonzero_entries_of_m_minus_i():
    one, two, zero = Cyclo.one(3), Cyclo.from_rational(2, 3), Cyclo.zero(3)
    assert identity_residual(Matrix.identity(3, 3)) == 0
    wrong = Matrix.from_rows([[one, zero, Cyclo.zeta(3)],
                              [zero, two, zero],
                              [zero, zero, one]], 3)
    assert identity_residual(wrong) == 2  # the stray zeta and the diagonal 2
    assert identity_residual(Matrix.zero(4, 4, 3)) == 4
    with pytest.raises(LinAlgError):
        identity_residual(Matrix.zero(2, 3, 3))


# -- oracle: a dense list-of-lists reference written here, sharing no code ----


def _rand_scalar(rng, order):
    if rng.random() < 0.6:
        return Cyclo.zero(order)
    phi = 1 if order == 1 else 2
    return Cyclo(order, [Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2]))
                         for _ in range(phi)])


def _rand_dense(rng, rows, cols, order):
    out = [[_rand_scalar(rng, order) for _ in range(cols)] for _ in range(rows)]
    if rows and cols:
        zero = Cyclo.zero(order)
        out[rng.randrange(rows)] = [zero] * cols          # a zero row
        c = rng.randrange(cols)
        for r in out:                                     # a zero column
            r[c] = zero
    return out


def _to_matrix(dense, rows, cols, order):
    if rows == 0:
        return Matrix.from_cols([{} for _ in range(cols)], 0, order)
    return Matrix.from_rows(dense, order)


def _dense_of(m):
    return [[m.entry(i, j) for j in range(m.cols)] for i in range(m.rows)]


def _ref_mul(a, b, n, cols, order):
    return [[sum((a[i][k] * b[k][j] for k in range(n)), Cyclo.zero(order))
             for j in range(cols)] for i in range(len(a))]


def _ref_kron(a, b):
    return [[a[i][j] * b[k][l] for j in range(len(a[0])) for l in range(len(b[0]))]
            for i in range(len(a)) for k in range(len(b))]


def _ref_rref(rows, order):
    """Gauss-Jordan on a dense copy: the nonzero rows of the unique RREF."""
    m = [list(r) for r in rows]
    zero = Cyclo.zero(order)
    lead = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        sel = next((i for i in range(lead, len(m)) if not m[i][c].is_zero()), None)
        if sel is None:
            continue
        m[lead], m[sel] = m[sel], m[lead]
        inv = m[lead][c].inverse()
        m[lead] = [x * inv for x in m[lead]]
        for i in range(len(m)):
            if i != lead and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[lead])]
        lead += 1
    return [r for r in m if any(not x.is_zero() for x in r)] if ncols else []


def _stores_no_zero(m):
    return all(not v.is_zero() for i in range(m.rows) for v in m.row(i).values())


SHAPES = [(3, 4, 2), (4, 1, 3), (2, 3, 0), (3, 0, 2), (0, 3, 2), (5, 5, 5)]


def _unit_vector(i, dim):
    return sparse([q(int(i == j)) for j in range(dim)])


def _truncated_poly_mult(dim):
    """The product of Q[x]/(x^dim) on the basis 1, x, ..., x^(dim-1)."""
    def multiply(a, b):
        out = {}
        for i, c in a.items():
            for j, d in b.items():
                if i + j < dim:
                    out[i + j] = out.get(i + j, q(0)) + c * d
        return {k: v for k, v in out.items() if not v.is_zero()}
    return multiply


def _entrywise(a, b):
    """The product of Q^n, entry by entry."""
    return {i: a[i] * b[i] for i in a if i in b}


def test_generated_words_keep_only_enlarging_items_in_breadth_first_order():
    e = [_unit_vector(i, 4) for i in range(4)]
    gens, words = generated_words(e[0], [{0: q(3)}, e[2], e[1], e[3]], _truncated_poly_mult(4), 4)
    # the multiple of 1 is dropped; x^2 joins and x^2 x^2 = 0 adds nothing; x
    # joins, then 1 x = x is a repeat and x^2 x = x^3 fills the space, so x^3
    # is never taken as a candidate
    assert gens == [e[2], e[1]]
    assert words == [e[0], e[2], e[1], e[3]]


def test_generated_words_stop_at_an_invariant_subspace():
    # the words in c = (1, 2, 1, 2) span the subalgebra of Q^4 of the vectors
    # constant on {0, 2} and on {1, 3}
    unit, c = sparse([q(1)] * 4), sparse([q(1), q(2), q(1), q(2)])
    gens, words = generated_words(unit, [c], _entrywise, 4)
    assert gens == [c] and words == [unit, c]
    span = Subspace.from_vectors(words, 4, 1)
    assert span == Subspace.from_vectors([{0: q(1), 2: q(1)}, {1: q(1), 3: q(1)}],
                                         4, 1)
    products = _batch([_entrywise(w, g) for w in words for g in gens], 4, 1)
    assert pivot_coords(span.basis, span.pivots, products)[1] == 0


def test_generated_words_of_matrices_under_right_products_with_a_flatten_key():
    p = mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    ident = Matrix.identity(3, 1)
    gens, words = generated_words(ident, [p, p * p], Matrix.__mul__, 9, key=flatten)
    assert gens == [p] and words == [ident, p, p * p]
    assert p * p * p == ident  # the cube is I again, so the words stop


def test_generated_words_keep_every_candidate_when_the_unit_laws_fail():
    # in Q^2 the "unit" e_1 kills e_0: the words grown from it alone never
    # reach e_0, yet e_0 is kept as a word itself
    e = [_unit_vector(i, 2) for i in range(2)]
    assert _entrywise(e[1], e[0]) == {}
    gens, words = generated_words(e[1], e, _entrywise, 2)
    assert gens == [e[0]] and words == [e[1], e[0]]


@pytest.mark.parametrize("order", [1, 3])
@pytest.mark.parametrize("seed", range(6))
def test_row_sparse_matrix_agrees_with_a_dense_reference(order, seed):
    rng = random.Random("%d:%d" % (order, seed))
    zero, one = Cyclo.zero(order), Cyclo.one(order)
    for r, n, c in SHAPES:
        da, db = _rand_dense(rng, r, n, order), _rand_dense(rng, r, n, order)
        dc = _rand_dense(rng, n, c, order)
        a, b = _to_matrix(da, r, n, order), _to_matrix(db, r, n, order)
        cm = _to_matrix(dc, n, c, order)
        k = _rand_scalar(rng, order) if seed % 2 else Cyclo.one(order) + Cyclo.zeta(order)
        vec = [_rand_scalar(rng, order) for _ in range(n)]
        plus_minus = Matrix.from_rows(
            [[Cyclo.one(order) if i == j else zero for j in range(n)] for i in range(n)]
            + [[-Cyclo.one(order) if i == j else zero for j in range(n)] for i in range(n)],
            order)
        results = {
            "mul": (a * cm, _ref_mul(da, dc, n, c, order), (r, c)),
            "mul that cancels": (Matrix.from_cols(sparse_cols(a) + sparse_cols(a), r, order)
                                 * plus_minus, [[zero] * n for _ in range(r)], (r, n)),
            "add": (a + b, [[x + y for x, y in zip(p, q)] for p, q in zip(da, db)], (r, n)),
            "sub": (a - b, [[x - y for x, y in zip(p, q)] for p, q in zip(da, db)], (r, n)),
            "self-sub": (a - a, [[zero] * n for _ in range(r)], (r, n)),
            "scaled": (a.scaled(k), [[x * k for x in p] for p in da], (r, n)),
            "scaled by 0": (a.scaled(zero), [[zero] * n for _ in range(r)], (r, n)),
            "transpose": (a.transpose(), [[da[i][j] for i in range(r)] for j in range(n)],
                          (n, r)),
        }
        if r and n and c:
            results["kron"] = (kron(a, cm), _ref_kron(da, dc), (r * n, n * c))
            ka, kb = _rand_scalar(rng, order), Cyclo.from_rational(-2, order)
            ref = [[ka * x + kb * y for x, y in zip(p, q)]
                   for p, q in zip(_ref_kron(da, dc), _ref_kron(db, dc))]
            results["kron_sum"] = (kron_sum([(ka, a, cm), (kb, b, cm)], r * n, n * c, order),
                                   ref, (r * n, n * c))
            ref = [[ka * x + kb * y for x, y in zip(p, q)]
                   for p, q in zip(_ref_kron([[one]], da), _ref_kron([[one]], db))]
            results["kron_sum, one factor"] = (kron_sum([(ka, a), (kb, b)], r, n, order),
                                               ref, (r, n))
            dsmall = [[k, zero], [one, k]]
            small = Matrix.from_rows(dsmall, order)
            ref = [[ka * x for x in p] for p in _ref_kron(_ref_kron(da, dsmall), dc)]
            results["kron_sum, three factors"] = (
                kron_sum([(ka, a, small, cm)], r * 2 * n, n * 2 * c, order), ref,
                (r * 2 * n, n * 2 * c))
        for name, (got, ref, shape) in results.items():
            assert (got.rows, got.cols) == shape, name
            assert _dense_of(got) == ref, name
            assert _stores_no_zero(got), name
        assert a.apply(sparse(vec)) == sparse(
            [sum((x * y for x, y in zip(p, vec)), zero) for p in da])
        assert (a == b) == (da == db)
        assert a == Matrix.from_cols([sparse([p[j] for p in da]) for j in range(n)], r, order)
        assert (a - b + b) == a and (a - a).is_zero()
        assert differing_entries(a, b) == sum(
            1 for p, q in zip(da, db) for x, y in zip(p, q) if x != y)
        # the columns where two matrices differ, against a dense loop, on a
        # random pair and on a copy of a with a few entries moved
        dc = [list(p) for p in da]
        for _ in range(2 if r and n else 0):
            i, j = rng.randrange(r), rng.randrange(n)
            dc[i][j] = dc[i][j] + _rand_scalar(rng, order)
        for other, dother in ((b, db), (_to_matrix(dc, r, n, order), dc)):
            assert differing_columns(a, other) == {
                j for j in range(n) if any(p[j] != q[j] for p, q in zip(da, dother))}
        assert differing_columns(a, a) == set()
        ref_rref = _ref_rref([[da[i][j] for i in range(r)] for j in range(n)], order)
        echelon = Subspace.from_vectors(sparse_cols(a), a.rows, a.order).basis
        assert _dense_of(echelon) == [[row[i] for row in ref_rref] for i in range(r)]
        assert _stores_no_zero(echelon)
        assert rank(a) == len(ref_rref)


def _one_entry_rows(rng, rows, cols, order, columns, scalars):
    """A dense rows x cols matrix whose row k is 0 or holds ``scalars()`` at ``columns(k)``."""
    zero = Cyclo.zero(order)
    out = [[zero] * cols for _ in range(rows)]
    for k in range(rows):
        j = columns(k)
        if j is not None:
            out[k][j] = scalars()
    return out


@pytest.mark.parametrize("order", [1, 3])
@pytest.mark.parametrize("seed", range(4))
def test_a_right_factor_of_one_entry_per_row_relabels(order, seed, monkeypatch):
    rng = random.Random("relabel:%d:%d" % (order, seed))
    zero, one = Cyclo.zero(order), Cyclo.one(order)

    def nonzero():
        x = zero
        while x.is_zero():
            x = _rand_scalar(rng, order)
        return x

    r, n, c = rng.randint(2, 6), rng.randint(3, 7), rng.randint(2, 6)
    perm = rng.sample(range(n), n)
    factors = {
        "identity": _one_entry_rows(rng, n, n, order, lambda k: k, lambda: one),
        "permutation": _one_entry_rows(rng, n, n, order, lambda k: perm[k], lambda: one),
        # a 0/1 column selector with empty rows, as a quotient's section
        "selector": _one_entry_rows(rng, n, c, order,
                                    lambda k: rng.randrange(c) if k % 3 else None, lambda: one),
        "scaled": _one_entry_rows(rng, n, c, order,
                                  lambda k: rng.randrange(c) if k % 4 else None, nonzero),
    }
    # rows 0 and 1 of b, and only they, meet column 0; row 0 of a makes their
    # contributions cancel there
    y0, y1 = nonzero(), nonzero()
    cancel = _one_entry_rows(rng, n, c, order, lambda k: 0 if k < 2 else rng.randrange(1, c),
                             nonzero)
    cancel[0][0], cancel[1][0] = y0, y1
    factors["cancelling"] = cancel

    def no_packed_products(*args):
        raise AssertionError("a right factor of one entry per row needs no packed product")

    monkeypatch.setattr(linalg, "_sum_rows", no_packed_products)
    for name, db in factors.items():
        da = _rand_dense(rng, r, n, order)
        if name == "cancelling":
            x = nonzero()
            da[0] = [x, -(x * y0) * y1.inverse()] + [nonzero() for _ in range(n - 2)]
            da[1] = [x, x] + [zero] * (n - 2)
        cols = len(db[0])
        got = Matrix.from_rows(da, order) * Matrix.from_rows(db, order)
        ref = _ref_mul(da, db, n, cols, order)
        assert (got.rows, got.cols) == (r, cols), name
        assert _dense_of(got) == ref, name
        assert _stores_no_zero(got), name
        if name == "cancelling":
            assert 0 not in got.row(0) and ref[1][0] == x * (y0 + y1)


# -- oracle for the cleared-numerator kernels, over fields with phi up to 4 ---

FIELD_ORDERS = [1, 3, 4, 5, 12]  # phi = 1, 2, 2, 4, 4


def _field_scalar(rng, order, scale=1):
    if rng.random() < 0.5:
        return Cyclo.zero(order)
    return Cyclo(order, [Fraction(rng.randint(-4, 4) * scale, rng.choice([1, 2, 3, 5]))
                         for _ in range(euler_phi(order))])


def _numeric(x):
    """x at zeta_N = exp(2 pi i / N), as a complex number."""
    z = cmath.exp(2j * cmath.pi / x.order)
    return sum(float(c) * z ** k for k, c in enumerate(x.coeffs))


def _canonical(x):
    return x.den > 0 and gcd(x.den, *x.num) == 1 and (any(x.num) or x.den == 1)


@pytest.mark.parametrize("order", FIELD_ORDERS)
@pytest.mark.parametrize("seed", range(4))
def test_cleared_numerator_kernels_agree_with_cyclo_arithmetic(order, seed):
    # seed 3 scales the entries of b by up to 10^15, so the packing width grows
    rng = random.Random("kernels:%d:%d" % (order, seed))
    zero = Cyclo.zero(order)
    r, n, c = rng.randint(3, 6), rng.randint(2, 6), rng.randint(2, 6)
    scale = rng.randint(10 ** 14, 10 ** 15) if seed == 3 else 1
    da = [[_field_scalar(rng, order) for _ in range(n)] for _ in range(r)]
    db = [[_field_scalar(rng, order, scale) for _ in range(c)] for _ in range(n)]
    da[0] = [zero] * n                                  # an empty row
    da[1] = [zero] * n                                  # a row that scales one row of b
    da[1][rng.randrange(n)] = Cyclo(order, [Fraction(-3, 5)] * euler_phi(order))
    db[rng.randrange(n)] = [zero] * c
    a, b = Matrix.from_rows(da, order), Matrix.from_rows(db, order)

    got = a * b
    assert _dense_of(got) == _ref_mul(da, db, n, c, order)
    assert all(_canonical(v) for i in range(got.rows) for v in got.row(i).values())
    assert _stores_no_zero(got)
    for i in range(r):
        for j in range(c):
            want = sum(_numeric(da[i][k]) * _numeric(db[k][j]) for k in range(n))
            assert abs(_numeric(got.entry(i, j)) - want) <= 1e-9 * (1 + abs(want))

    plus_minus = Matrix.from_rows(
        [[Cyclo.one(order) if i == j else zero for j in range(n)] for i in range(n)]
        + [[-Cyclo.one(order) if i == j else zero for j in range(n)] for i in range(n)],
        order)
    doubled = Matrix.from_cols(sparse_cols(a) + sparse_cols(a), r, order)
    assert (doubled * plus_minus).is_zero()             # every sum cancels
    # equal extreme coefficients over denominator 1: the sums of polynomial
    # products come within a factor 8 of the packing width's bound
    top = Cyclo(order, [(1 << 20) - 1] * euler_phi(order))
    dense = [[top] * 6 for _ in range(6)]
    square = Matrix.from_rows(dense, order)
    assert _dense_of(square * square) == _ref_mul(dense, dense, 6, 6, order)

    ref_rref = _ref_rref([[da[i][j] for i in range(r)] for j in range(n)], order)
    echelon = Subspace.from_vectors(sparse_cols(a), a.rows, a.order).basis
    assert _dense_of(echelon) == [[row[i] for row in ref_rref] for i in range(r)]
    assert all(_canonical(v) for i in range(echelon.rows) for v in echelon.row(i).values())
    assert rank(a) == len(ref_rref)

    for x, y, cur in zip(da[2], db[0], db[-1]):
        assert sub_mul(cur, x, y) == cur - x * y
        assert sub_mul(None, x, y) == zero - x * y
        assert sub_mul(x * y, x, y) == zero
        assert _canonical(sub_mul(cur, x, y))
    with pytest.raises(ScalarError):
        sub_mul(None, Cyclo.one(order), Cyclo.one(2 * order + 1))


# -- coordinates read off a canonical basis -------------------------------------


def _batch(vectors, dim, order):
    return Matrix.from_cols(vectors, dim, order)


def _combination(rng, gens, order):
    """A random combination of the sparse vectors gens."""
    vec = {}
    for g in gens:
        w = _rand_scalar(rng, order)
        for i, x in g.items():
            vec[i] = vec[i] + w * x if i in vec else w * x
    return {i: x for i, x in vec.items() if not x.is_zero()}


@pytest.mark.parametrize("order", [1, 3])
@pytest.mark.parametrize("seed", range(8))
def test_pivot_coords_equal_solve_on_random_subspaces(order, seed):
    rng = random.Random("pivots:%d:%d" % (order, seed))
    dim = rng.randint(3, 7)
    gens = [sparse(r) for r in _rand_dense(rng, rng.randint(1, dim), dim, order)]
    space = Subspace.from_vectors(gens, dim, order)
    pivots = [min(col) for col in space.vectors()]  # reduced column echelon
    assert space.pivots == pivots
    vecs = [_combination(rng, gens, order) for _ in range(6)]
    coords, misses = pivot_coords(space.basis, pivots, _batch(vecs, dim, order))
    assert misses == 0
    for j, vec in enumerate(vecs):
        assert coords.col(j) == solve(space.basis, vec)
    one = Cyclo.one(order)
    for u in range(dim):
        unit = {u: one}
        inside = rank(_batch(space.vectors() + [unit], dim, order)) == space.dim
        assert pivot_coords(space.basis, pivots, _batch([unit], dim, order))[1] == (0 if inside else 1)
        if not inside:
            with pytest.raises(LinAlgError, match="inconsistent linear system"):
                solve(space.basis, unit)
            assert pivot_coords(space.basis, pivots, _batch([unit], dim, order)) == (
                Matrix.zero(space.dim, 1, order), 1)


@pytest.mark.parametrize("order", [1, 3])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("off", [0, 1, 3])
def test_pivot_coords_count_every_column_off_the_span(order, seed, off):
    # a column off the span agrees with a span vector at every pivot and
    # differs from it at one other row; it is counted, and only its
    # coordinates are dropped
    rng = random.Random("misses:%d:%d:%d" % (order, seed, off))
    dim = rng.randint(3, 7)
    space = Subspace.from_vectors([], dim, order)
    while space.dim == 0:
        gens = [sparse(r) for r in _rand_dense(rng, rng.randint(1, dim - 1), dim, order)]
        space = Subspace.from_vectors(gens, dim, order)
    free = [i for i in range(dim) if i not in space.pivots]
    vecs = []
    while len(vecs) < 5:
        vec = _combination(rng, gens, order)
        if vec:
            vecs.append(vec)
    outside = set(rng.sample(range(len(vecs) + off), off))
    batch, want = [], []
    for j in range(len(vecs) + off):
        vec = vecs[j % len(vecs)]
        want.append({} if j in outside else solve(space.basis, vec))
        if j in outside:
            vec = dict(vec)
            u = rng.choice(free)
            vec[u] = vec[u] + Cyclo.one(order) if u in vec else Cyclo.one(order)
            vec = {i: x for i, x in vec.items() if not x.is_zero()}
        batch.append(vec)
    coords, misses = pivot_coords(space.basis, space.pivots, _batch(batch, dim, order))
    assert misses == off
    assert [coords.col(j) for j in range(len(batch))] == want
    assert {j for j in range(len(batch)) if not coords.col(j)} == outside


def test_pivot_coords_rejects_a_vector_that_agrees_at_the_pivots():
    # (1, 0, 1) and (0, 1, 1) have pivots 0 and 1; (1, 1, 0) reads coordinates
    # (1, 1) there, but their combination is (1, 1, 2)
    basis = Matrix.from_cols([sparse([q(1), q(0), q(1)]), sparse([q(0), q(1), q(1)])], 3, 1)
    inside = {0: q(1), 1: q(1), 2: q(2)}
    assert pivot_coords(basis, [0, 1], _batch([inside], 3, 1)) == (
        _batch([{0: q(1), 1: q(1)}], 2, 1), 0)
    coords, misses = pivot_coords(basis, [0, 1], _batch([{0: q(1), 1: q(1)}, inside], 3, 1))
    assert misses == 1
    assert coords == _batch([{}, {0: q(1), 1: q(1)}], 2, 1)


# -- growing words stops when their span is full -----------------------------------


def _breadth_first_closure(seeds, maps, key):
    """Round by round, each map on each item of the round before, with no bound;
    returns the kept items."""
    span = Echelon()
    kept = [s for s in seeds if span.add(key(s))]
    frontier = kept
    while frontier:
        frontier = [new for item in frontier for f in maps if span.add(key(new := f(item)))]
        kept = kept + frontier
    return kept


def test_generated_words_of_the_e1_operator_algebra_stop_at_the_full_space(e1):
    from dyntwist.comod import costable_operators
    ops = costable_operators(e1.k)
    dim, order = e1.k.dim, e1.k.order
    ident = Matrix.identity(dim, order)
    products = []

    def multiply(a, b):
        products.append((b, a * b))
        return products[-1][1]

    gens, words = generated_words(ident, ops, multiply, dim * dim, key=flatten)
    oracle = _breadth_first_closure([ident] + ops, [lambda a, b=b: a * b for b in ops], flatten)
    assert len(words) == len(oracle) == dim * dim == 64
    assert all(any(b is g for g in gens) for b, _ in products)
    # the last product filled the space: nothing was multiplied after it
    assert words[-1] is products[-1][1]
    # an operator is a generator exactly when it lies outside the closure of
    # the generators before it
    for i, op in enumerate(ops):
        before = [g for g in gens if any(g is o for o in ops[:i])]
        closure = _breadth_first_closure([ident] + before,
                                         [lambda a, b=b: a * b for b in before], flatten)
        span = Subspace.from_vectors([flatten(m) for m in closure], dim * dim, order)
        outside = pivot_coords(span.basis, span.pivots, _batch([flatten(op)], dim * dim, order))[1]
        assert any(op is g for g in gens) == (outside == 1)


# -- the indexed echelon against a scan over every stored row --------------------


class _ScanEchelon:
    """The echelon engine without a column index: a new pivot column is looked
    for in every stored row.  Plain Cyclo arithmetic, entries updated in
    place in the order the engine uses, so values and dict order compare."""

    def __init__(self):
        self.pivots = {}
        self.cancelled = 0  # stored entries that an elimination cancelled

    @staticmethod
    def _subtract(row, c, prow):
        coeff = row.pop(c)
        cancelled = 0
        for cc, vv in prow.items():
            if cc == c:
                continue
            nv = row[cc] - coeff * vv if cc in row else -(coeff * vv)
            if nv.is_zero():
                cancelled += row.pop(cc, None) is not None
            else:
                row[cc] = nv
        return cancelled

    def add(self, row):
        for c in [c for c in row if c in self.pivots]:
            self._subtract(row, c, self.pivots[c])
        rest = {c: v for c, v in row.items() if not v.is_zero()}
        if not rest:
            return rest
        pcol = min(rest)
        inv = rest[pcol].inverse()
        new = {c: v * inv for c, v in rest.items()}
        for prow in self.pivots.values():
            if pcol in prow:
                self.cancelled += self._subtract(prow, pcol, new)
        self.pivots[pcol] = new
        return rest


def _holders_of(pivots):
    out = {}
    for p, row in pivots.items():
        for c in row:
            out.setdefault(c, set()).add(p)
    return out


def _assert_same_echelon(rows):
    ech, ref = Echelon(), _ScanEchelon()
    for row in rows:
        got, want = ech.add(dict(row)), ref.add(dict(row))
        assert list(got.items()) == list(want.items())
        assert [(p, list(r.items())) for p, r in ech.pivots.items()] == \
            [(p, list(r.items())) for p, r in ref.pivots.items()]
        assert {c: s for c, s in ech._holders.items() if s} == _holders_of(ech.pivots)
    return ref


def test_the_column_index_drops_a_cancelled_entry():
    one = Cyclo.one(1)
    # pivot 2 is eliminated from the row of pivot 0, and its entry at 3 cancels
    ref = _assert_same_echelon([{0: one, 2: one, 3: one}, {2: one, 3: one}])
    assert ref.cancelled == 1


@pytest.mark.parametrize("order", [1, 3, 4])
@pytest.mark.parametrize("seed", range(6))
def test_indexed_echelon_equals_a_scan_over_the_stored_rows(order, seed):
    rng = random.Random("echelon:%d:%d" % (order, seed))
    ncols = rng.randint(6, 14)
    rows = [sparse(r) for r in _rand_dense(rng, rng.randint(8, 18), ncols, order)]
    for _ in range(4):
        # a combination of rows already given reduces to zero
        rows.insert(rng.randint(len(rows) // 2, len(rows)),
                    _combination(rng, rng.sample(rows, 3), order))
    # small integer entries, so stored entries cancel often
    for _ in range(6):
        rows.append({c: Cyclo.from_rational(rng.choice([-1, 1]), order)
                     for c in rng.sample(range(ncols), rng.randint(2, 4))})
    rng.shuffle(rows)
    # on three fresh columns a < b < c: a row holding (x, y) at (b, c), then a
    # row with the same ratio, whose pivot b cancels the first row's entry at c
    a, b, c = ncols, ncols + 1, ncols + 2
    x, y, w = (_field_scalar(rng, order) for _ in range(3))
    x, y, w = (v if not v.is_zero() else Cyclo.one(order) for v in (x, y, w))
    first = _combination(rng, rng.sample(rows, 2), order)
    first.update({a: Cyclo.one(order), b: x, c: y})
    rows += [first, {b: x * w, c: y * w}]
    ref = _assert_same_echelon(rows)
    assert len(ref.pivots) < len(rows)  # some rows reduced to zero
    assert ref.cancelled > 0
