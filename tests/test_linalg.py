import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dyntwist.linalg import (
    LinAlgError,
    Matrix,
    Subspace,
    identity_residual,
    intersect,
    inverse,
    kernel,
    kron,
    quotient,
    rank,
    solve,
)
from dyntwist.scalar import Cyclo


def q(x, order=1):
    return Cyclo.from_rational(Fraction(x), order)


def mat(rows, order=1):
    return Matrix.from_rows([[q(x, order) for x in r] for r in rows], order)


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
        assert all(e.is_zero() for e in m.apply(k.vector(j)))


def test_solve_exact_residual():
    m = mat([[2, 1], [1, 3]])
    rhs = [q(5), q(10)]
    x = solve(m, rhs)
    assert m.apply(x) == rhs


def test_solve_inconsistent_raises():
    m = mat([[1, 1], [1, 1]])
    with pytest.raises(LinAlgError):
        solve(m, [q(0), q(1)])


def test_inverse_roundtrip():
    m = mat([[1, 2], [3, 5]])
    assert m * inverse(m) == Matrix.identity(2, 1)


def test_inverse_singular_raises():
    with pytest.raises(LinAlgError):
        inverse(mat([[1, 2], [2, 4]]))


def test_intersect_same_space():
    u = Subspace.from_vectors([[q(1), q(0)], [q(1), q(1)]], 2, 1)
    assert intersect(u, u) == u


def test_intersect_with_zero():
    u = Subspace.from_vectors([[q(1), q(0)]], 2, 1)
    z = Subspace.from_vectors([], 2, 1)
    assert intersect(u, z).dim == 0


def test_intersect_planes_in_q3():
    e1 = [q(1), q(0), q(0)]
    e2 = [q(0), q(1), q(0)]
    e3 = [q(0), q(0), q(1)]
    u = Subspace.from_vectors([e1, e2], 3, 1)
    v = Subspace.from_vectors([e2, e3], 3, 1)
    w = intersect(u, v)
    assert w.dim == 1 and w.contains(e2)


def test_quotient_by_zero_is_identity():
    proj, sec = quotient(3, Subspace.from_vectors([], 3, 1))
    assert proj == Matrix.identity(3, 1)
    assert sec == Matrix.identity(3, 1)


def test_quotient_by_full_space():
    w = Subspace.from_vectors([[q(1), q(0)], [q(0), q(1)]], 2, 1)
    proj, sec = quotient(2, w)
    assert proj.rows == 0 and sec.cols == 0


def test_quotient_diagonal_line():
    w = Subspace.from_vectors([[q(1), q(1)]], 2, 1)
    proj, sec = quotient(2, w)
    assert proj.rows == 1
    assert all(e.is_zero() for e in proj.apply([q(1), q(1)]))
    assert proj * sec == Matrix.identity(1, 1)
    # projection composed with inclusion of W vanishes exactly
    assert all(e.is_zero() for e in (proj * w.basis).data[0])


def test_kron_identities():
    assert kron(Matrix.identity(2, 1), Matrix.identity(3, 1)) == Matrix.identity(6, 1)
    assert kron(mat([[2]]), mat([[3]])) == mat([[6]])
    assert kron(mat([[1, 2]]), Matrix.zero(2, 2, 1)).is_zero()


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


def test_subspace_equality_is_canonical():
    u = Subspace.from_vectors([[q(1), q(1)], [q(1), q(-1)]], 2, 1)
    v = Subspace.from_vectors([[q(2), q(0)], [q(0), q(3)]], 2, 1)
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
