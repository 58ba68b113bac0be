"""Finite-dimensional algebras, coalgebras and Hopf algebras by structure constants.

Elements are sparse dicts {basis index: Cyclo}.  Multiplication tensors are
stored as ``mult[i][j] = {k: c}`` meaning e_i e_j = sum_k c e_k, comultiplication
as ``comult[k] = {(i, j): c}`` meaning Delta(e_k) = sum c e_i (x) e_j.

Elements of a tensor product of algebras are sparse dicts keyed by index
tuples, one index per leg.  The sparse tensor-element kernel here (products,
a leg split by Delta or a coaction or mapped by a linear map, the counit on a
leg, unit legs) is what coassociativity, the counit laws, the embedding's
comultiplication check, the twist equations and the twisted product are
written with.  Every "is an algebra map" check (Delta, eps, S as an
anti-map, a coaction, a subalgebra embedding, a module action) is instead one
column identity of matrices, counted by ``algebra_map_failures``.

Associativity and the algebra-map identities are checked on a generating set
X once their preconditions are certified (Light's test, ``AlgebraData.certified``
and ``algebra_map_failures``): the elements that pass form a subalgebra that
holds 1 and X, so a pass on X is a pass everywhere.  A failure found on X,
or a missing precondition, counts over the whole basis, so every count is
the number of failing basis triples or pairs.
"""

from __future__ import annotations

from .linalg import (LinAlgError, Matrix, _reshape, differing_columns, differing_keys,
                     generated_words, identity_residual, inverse, kron_id_mul, kron_sum,
                     mul_id_kron, sparse_solve, unflatten)
from .report import CheckReport
from .scalar import Cyclo, lcm


class StructureError(ValueError):
    """Shape or consistency error in supplied structure constants."""


class ValidationError(ValueError):
    """A supplied datum violates one of its defining conditions."""


# -- sparse element helpers --------------------------------------------------


def add_into(acc: dict, key, value: Cyclo) -> None:
    cur = acc.get(key)
    nv = value if cur is None else cur + value
    if nv.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = nv


# -- sparse tensor-element kernel --------------------------------------------


def tensor_mult(legs, a: dict, b: dict) -> dict:
    """Product in a tensor product of algebras; keys are index tuples."""
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            c = ca * cb
            _accumulate(legs, ka, kb, c, out)
    return out


def _accumulate(legs, ka, kb, coeff, out, pos=0, prefix=()):
    if pos == len(legs):
        add_into(out, prefix, coeff)
        return
    alg = legs[pos]
    for t, m in alg.mult[ka[pos]][kb[pos]].items():
        _accumulate(legs, ka, kb, coeff * m, out, pos + 1, prefix + (t,))


def unit_tensor(legs) -> dict:
    out: dict = {}

    def rec(pos, prefix, c):
        if pos == len(legs):
            out[prefix] = c
            return
        for i, v in legs[pos].unit.items():
            rec(pos + 1, prefix + (i,), v if c is None else c * v)

    rec(0, (), None)
    return out


def split_leg(table, elem: dict, leg: int) -> dict:
    """Replace tensor leg ``leg`` by its image under the linear map ``table``.

    ``table[k] = {sub: c}`` sends basis index k to sum c e_sub, where ``sub``
    is an index tuple of any length: a comultiplication ``h.comult`` or a
    coaction ``s.coaction`` (H index, then S index) splits the leg in two,
    and a table of one-index keys ``{(i,): c}`` maps it into another algebra.
    """
    out: dict = {}
    for key, c in elem.items():
        for sub, d in table[key[leg]].items():
            add_into(out, key[:leg] + sub + key[leg + 1:], c * d)
    return out


def insert_unit_leg(alg: AlgebraData, elem: dict, position: int) -> dict:
    out: dict = {}
    for key, c in elem.items():
        for u, v in alg.unit.items():
            add_into(out, key[:position] + (u,) + key[position:], c * v)
    return out


def apply_counit(h: HopfAlgebraData, elem: dict, leg: int) -> dict:
    out: dict = {}
    for key, c in elem.items():
        e = h.counit[key[leg]]
        if not e.is_zero():
            add_into(out, key[:leg] + key[leg + 1:], c * e)
    return out


class AlgebraData:
    """Associative unital algebra on a finite basis.

    Treated as immutable: ``generating_set`` and ``certified`` are computed
    once and kept.
    """

    def __init__(self, dim: int, mult, unit: dict, order: int, name: str = "A",
                 generators: list[int] | None = None):
        if len(mult) != dim or any(len(r) != dim for r in mult):
            raise StructureError("multiplication tensor has wrong shape")
        self.dim = dim
        self.mult = mult
        self.unit = {i: c for i, c in unit.items() if not c.is_zero()}
        self.order = order
        self.name = name
        self.generators = generators
        self._certified: bool | None = None
        self._generating_set: list[int] | None = None

    def multiply(self, a: dict, b: dict) -> dict:
        out: dict = {}
        for i, ca in a.items():
            row = self.mult[i]
            for j, cb in b.items():
                c = ca * cb
                if c.is_zero():
                    continue
                for k, m in row[j].items():
                    add_into(out, k, c * m)
        return out

    def left_mult_matrix(self, a: dict) -> Matrix:
        rows = [{} for _ in range(self.dim)]
        for j in range(self.dim):
            for i, ca in a.items():
                for k, m in self.mult[i][j].items():
                    add_into(rows[k], j, ca * m)
        return Matrix(self.dim, self.dim, rows, self.order)

    def right_mult_matrix(self, a: dict) -> Matrix:
        rows = [{} for _ in range(self.dim)]
        for i in range(self.dim):
            for j, ca in a.items():
                for k, m in self.mult[i][j].items():
                    add_into(rows[k], i, ca * m)
        return Matrix(self.dim, self.dim, rows, self.order)

    def mult_matrix(self) -> Matrix:
        """m: A (x) A -> A as a dim x dim^2 matrix; column i*dim + j is e_i e_j."""
        d = self.dim
        rows = [{} for _ in range(d)]
        for i, row in enumerate(self.mult):
            for j, prod in enumerate(row):
                for k, c in prod.items():
                    rows[k][i * d + j] = c
        return Matrix(d, d * d, rows, self.order)

    def generating_set(self) -> list[int]:
        """Basis indices X whose words, grown from the unit by right multiplication, span A.

        The candidates are the listed ``generators`` and then every basis
        index, in order (``linalg.generated_words``).  So X is drawn from the
        listed generators when their words span, and is a greedy set
        otherwise; every candidate lies in the span of the words, so they
        span A whether or not the unit laws hold.  Computed once per algebra.
        """
        if self._generating_set is None:
            one = Cyclo.one(self.order)
            candidates = ({c: one} for c in (self.generators or []) + list(range(self.dim)))
            gens = generated_words(self.unit, candidates, self.multiply, self.dim)[0]
            self._generating_set = [min(g) for g in gens]
        return self._generating_set

    def associator_failures(self, indices) -> int:
        """The triples (i, j, k), k in ``indices``, with (e_i e_j) e_k != e_i (e_j e_k).

        For one k they are M (id (x) R_k) = R_k M: each failing triple is a
        column i*dim + j where the two sides differ.  M is folded once, as
        ``mul_id_kron`` folds it for one product.
        """
        one = Cyclo.one(self.order)
        d = self.dim
        m = self.mult_matrix()
        folded = _reshape(m, d * d, d)
        bad = 0
        for k in indices:
            right = self.right_mult_matrix({k: one})
            bad += len(differing_columns(_reshape(folded * right, d, d * d), right * m))
        return bad

    def unit_failures(self) -> int:
        """The basis elements e with 1 e != e or e 1 != e."""
        bad = 0
        for i in range(self.dim):
            e = {i: Cyclo.one(self.order)}
            if self.multiply(self.unit, e) != e or self.multiply(e, self.unit) != e:
                bad += 1
        return bad

    def certified(self) -> bool:
        """Whether A is associative with unit, by Light's test; computed once.

        The right nucleus {z : (ab)z = a(bz) for all a, b} is a subalgebra
        (Teichmuller's identity), and it holds 1 when the unit laws do.  So
        the unit laws and associativity on every triple (i, j, k) with k in
        ``generating_set()``, whose words span A, prove it for all of A.
        """
        if self._certified is None:
            self._certified = (self.unit_failures() == 0
                               and self.associator_failures(self.generating_set()) == 0)
        return self._certified

    def opposite(self, name: str) -> AlgebraData:
        """A^op (e_i e_j of A^op is e_j e_i of A, the unit is A's): it is associative
        with unit exactly when A is, so it takes A's ``certified`` verdict."""
        op = AlgebraData(self.dim, [list(col) for col in zip(*self.mult)], self.unit,
                         self.order, name=name)
        op._certified = self._certified
        return op

    def verify(self) -> CheckReport:
        """Associativity and the unit laws; both counts are over the whole basis
        unless ``certified()`` has shown them to be 0."""
        report = CheckReport("algebra %s" % self.name)
        certified = self.certified()
        bad = 0 if certified else self.associator_failures(range(self.dim))
        report.add("associativity m(m x id) = m(id x m)", bad == 0, bad)
        bad = 0 if certified else self.unit_failures()
        report.add("unit laws", bad == 0, bad)
        return report


class HopfAlgebraData:
    """Hopf algebra: algebra + comultiplication, counit, antipode."""

    def __init__(self, alg: AlgebraData, comult, counit: list,
                 antipode: Matrix | None = None, name: str = "H"):
        if len(comult) != alg.dim or len(counit) != alg.dim:
            raise StructureError("coalgebra tensors have wrong shape")
        self.alg = alg
        self.comult = comult
        self.counit = list(counit)
        self.name = name
        if antipode is None:
            antipode = solve_antipode(alg, comult, counit)
        self.antipode = antipode
        try:
            self.antipode_inv = inverse(antipode)
        except LinAlgError as exc:
            raise StructureError("antipode matrix is singular") from exc

    @property
    def dim(self) -> int:
        return self.alg.dim

    @property
    def order(self) -> int:
        return self.alg.order

    def counit_of(self, a: dict) -> Cyclo:
        out = Cyclo.zero(self.order)
        for i, c in a.items():
            out = out + c * self.counit[i]
        return out

    def counit_row(self) -> Matrix:
        """eps as a 1 x dim matrix."""
        return Matrix(1, self.dim, [dict(enumerate(self.counit))], self.order)

    def antipode_of(self, a: dict) -> dict:
        return self.antipode.apply(a)

    def antipode_inv_of(self, a: dict) -> dict:
        return self.antipode_inv.apply(a)

    def verify(self) -> CheckReport:
        return verify_hopf(self)


def solve_antipode(alg: AlgebraData, comult, counit) -> Matrix:
    """Solve m(S (x) id) Delta = u eps for S; the right axiom is checked later.

    The antipode of a finite-dimensional Hopf algebra is unique when it
    exists, so a unique-solution solve either finds it or raises.
    """
    dim, order = alg.dim, alg.order
    # unknowns: S[r][i] (entry of column i at row r), flattened r*dim + i
    rows: list[dict] = []
    rhs: dict = {}
    for k in range(dim):
        # sum over Delta(e_k) = sum c e_i (x) e_j: c * S(e_i) e_j = eps(e_k) 1
        for t in range(dim):  # coordinate t of the output
            row: dict = {}
            for (i, j), c in comult[k].items():
                # S(e_i) = sum_r S[r][i] e_r; e_r e_j contributes mult[r][j]
                for r in range(dim):
                    m = alg.mult[r][j].get(t)
                    if m is not None:
                        add_into(row, r * dim + i, c * m)
            u = alg.unit.get(t)
            if u is not None and not counit[k].is_zero():
                rhs[len(rows)] = counit[k] * u
            rows.append(row)
    try:
        sol = sparse_solve(rows, [rhs], dim * dim, order, require_unique=True)[0]
    except LinAlgError as exc:
        raise StructureError("antipode equation has no unique solution") from exc
    return unflatten(sol, dim, dim, order)


def algebra_map_failures(f: Matrix, src: AlgebraData, image_products, unit: dict,
                         targets: tuple) -> int:
    """The number of basis pairs (i, j) of ``src`` with f(e_i e_j) != f(e_i) f(e_j).

    Column j of f is f(e_j), so column j of f L_i is f(e_i e_j).
    ``image_products(i)`` is the matrix with column j equal to f(e_i) f(e_j),
    the multiplication by f(e_i) times f (or f(e_j) f(e_i) for an anti-map).
    Each failing pair is a column j where the two differ.

    The target has unit ``unit`` and is associative with unit when every
    algebra in ``targets`` is (a tensor product of them, or its opposite;
    none for a matrix algebra or the field).  Light's test: when f(1) = 1,
    ``src`` has already been certified (by its ``verify``) and every target
    is ``certified()``, the a with f(ab) = f(a) f(b) for all b form a
    subalgebra holding 1, so only i in ``src.generating_set()`` are checked.
    A failure there, or a missing precondition, counts over every i.
    """
    one = Cyclo.one(src.order)

    def failures(indices) -> int:
        return sum(len(differing_columns(f * src.left_mult_matrix({i: one}), image_products(i)))
                   for i in indices)

    if (src._certified and f.apply(src.unit) == unit and all(t.certified() for t in targets)
            and failures(src.generating_set()) == 0):
        return 0
    return failures(range(src.dim))


def tensor_map_matrix(table, d1: int, d2: int, order: int) -> Matrix:
    """The linear map e_k -> table[k] = {(a, b): c} into a tensor product of
    dimensions d1, d2 (a comultiplication or a coaction), left-major rows a*d2 + b."""
    rows = [{} for _ in range(d1 * d2)]
    for k, elem in enumerate(table):
        for (a, b), c in elem.items():
            rows[a * d2 + b][k] = c
    return Matrix(d1 * d2, len(table), rows, order)


def tensor_map_failures(table, src: AlgebraData, alg1: AlgebraData, alg2: AlgebraData) -> int:
    """``algebra_map_failures`` of e_k -> table[k] from ``src`` into alg1 (x) alg2.

    The multiplication by table[i] is sum c L_a (x) L_b over its terms
    c e_a (x) e_b; L_a and L_b are built once, for the indices that occur.
    """
    one = Cyclo.one(src.order)
    size = alg1.dim * alg2.dim
    f = tensor_map_matrix(table, alg1.dim, alg2.dim, src.order)
    left1, left2 = {}, {}

    def left(alg, cache, a):
        if a not in cache:
            cache[a] = alg.left_mult_matrix({a: one})
        return cache[a]

    unit = {a * alg2.dim + b: c for (a, b), c in unit_tensor([alg1, alg2]).items()}
    return algebra_map_failures(
        f, src, lambda i: kron_sum(((c, left(alg1, left1, a), left(alg2, left2, b))
                                    for (a, b), c in table[i].items()), size, size, src.order) * f,
        unit, (alg1, alg2))


def verify_hopf(h: HopfAlgebraData) -> CheckReport:
    """Itemised exact check of every Hopf axiom family.

    Coassociativity, the counit laws and Delta(1) compare tensor elements
    (``split_leg``, ``apply_counit``).  Every other check is one column
    identity of matrices: associativity (``AlgebraData.verify``), Delta, eps
    and S as algebra maps or anti-maps (``algebra_map_failures``, with S(e_j)
    S(e_i) as the right multiplication by S(e_i)), the antipode axioms as
    m(S (x) id)Delta and m(id (x) S)Delta against u eps, and S S^-1 = id.
    """
    alg = h.alg
    dim, order = alg.dim, alg.order
    one = Cyclo.one(order)
    report = CheckReport("hopf %s" % h.name)
    report.merge(alg.verify())

    # coassociativity: (Delta x id) Delta = (id x Delta) Delta
    bad = 0
    for k in range(dim):
        if split_leg(h.comult, h.comult[k], 0) != split_leg(h.comult, h.comult[k], 1):
            bad += 1
    report.add("coassociativity", bad == 0, bad)

    # counit axioms
    bad = 0
    for k in range(dim):
        target = {(k,): one}
        if (apply_counit(h, h.comult[k], 0) != target
                or apply_counit(h, h.comult[k], 1) != target):
            bad += 1
    report.add("counit axioms", bad == 0, bad)

    bad = tensor_map_failures(h.comult, alg, alg, alg)
    report.add("comultiplication is an algebra map", bad == 0, bad)
    unit = {(u,): c for u, c in alg.unit.items()}
    bad = differing_keys(split_leg(h.comult, unit, 0), unit_tensor([alg, alg]))
    report.add("Delta(1) = 1 x 1", bad == 0, bad)

    eps = h.counit_row()
    bad = algebra_map_failures(eps, alg, lambda i: eps.scaled(h.counit[i]), {0: one}, ())
    if h.counit_of(alg.unit) != one:
        bad += 1
    report.add("counit is an algebra map", bad == 0, bad)

    # column k of each side is sum c S(e_i) e_j, resp. sum c e_i S(e_j), over
    # the terms c e_i (x) e_j of Delta(e_k); column k of u eps is eps(e_k) 1
    m, s = alg.mult_matrix(), h.antipode
    delta = tensor_map_matrix(h.comult, dim, dim, order)
    unit_eps = Matrix.from_cols([alg.unit], dim, order) * eps
    bad = len(differing_columns(m * kron_id_mul(s, dim, delta), unit_eps))
    report.add("antipode axiom m(S x id)Delta = u eps", bad == 0, bad)
    bad = len(differing_columns(mul_id_kron(m, dim, s) * delta, unit_eps))
    report.add("antipode axiom m(id x S)Delta = u eps", bad == 0, bad)

    bad = identity_residual(s * h.antipode_inv)
    report.add("S S^-1 = id", bad == 0, bad)

    # consequence: S is an algebra anti-homomorphism
    bad = algebra_map_failures(s, alg, lambda i: alg.right_mult_matrix(s.col(i)) * s,
                               alg.unit, (alg,))
    report.add("S(ab) = S(b)S(a)", bad == 0, bad)
    return report


def dual_hopf(h: HopfAlgebraData) -> HopfAlgebraData:
    """Dual Hopf algebra on the dual basis.

    mult of H* is the transpose of Delta of H, Delta of H* the transpose of
    mult, unit is the counit, counit is evaluation at 1, antipode is S^T.
    """
    dim, order = h.dim, h.order
    mult = [[dict() for _ in range(dim)] for _ in range(dim)]
    for k in range(dim):
        for (i, j), c in h.comult[k].items():
            add_into(mult[i][j], k, c)
    unit = {i: h.counit[i] for i in range(dim) if not h.counit[i].is_zero()}
    alg = AlgebraData(dim, mult, unit, order, name=h.name + "*")
    comult = [dict() for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for k, c in h.alg.mult[i][j].items():
                add_into(comult[k], (i, j), c)
    counit = [h.alg.unit.get(i, Cyclo.zero(order)) for i in range(dim)]
    return HopfAlgebraData(alg, comult, counit, antipode=h.antipode.transpose(), name=alg.name)


def harpoon(h: HopfAlgebraData, elem: dict, gamma: dict) -> dict:
    """Left action of H on H*: < h harpoon gamma, t > = < gamma, S^-1(h) t >."""
    return harpoon_matrix(h, elem).apply(gamma)


def harpoon_matrix(h: HopfAlgebraData, elem: dict) -> Matrix:
    return h.alg.left_mult_matrix(h.antipode_inv_of(elem)).transpose()


def group_algebra(table: list[list[int]], order: int,
                  name: str = "kG") -> HopfAlgebraData:
    """Group algebra as a Hopf algebra from a multiplication table.

    ``table[i][j]`` is the index of g_i g_j; index 0 need not be the identity.
    """
    n = len(table)
    identity = _group_identity(table)
    one = Cyclo.one(order)
    mult = [[{table[i][j]: one} for j in range(n)] for i in range(n)]
    alg = AlgebraData(n, mult, {identity: one}, order, name=name,
                      generators=group_generators(table))
    comult = [{(k, k): one} for k in range(n)]
    counit = [one] * n
    inv = _group_inverses(table)
    s = Matrix(n, n, [{inv[i]: one} for i in range(n)], order)  # inv is an involution
    return HopfAlgebraData(alg, comult, counit, antipode=s, name=name)


def _group_identity(table: list[list[int]]) -> int:
    n = len(table)
    for e in range(n):
        if all(table[e][j] == j and table[j][e] == j for j in range(n)):
            return e
    raise StructureError("multiplication table has no identity")


def _group_inverses(table: list[list[int]]) -> list[int]:
    n = len(table)
    e = _group_identity(table)
    inv = [-1] * n
    for i in range(n):
        for j in range(n):
            if table[i][j] == e:
                inv[i] = j
                break
        if inv[i] < 0:
            raise StructureError("element %d has no inverse" % i)
    return inv


def group_closure(table: list[list[int]], gens: list[int]) -> set[int]:
    e = _group_identity(table)
    closure = {e}
    changed = True
    while changed:
        changed = False
        for a in sorted(closure):
            for g in gens:
                for c in (table[a][g], table[g][a]):
                    if c not in closure:
                        closure.add(c)
                        changed = True
    return closure


def group_generators(table: list[list[int]]) -> list[int]:
    """A small generating set of the group, greedily chosen; deterministic."""
    n = len(table)
    e = _group_identity(table)
    gens: list[int] = []
    covered = {e}
    for i in range(n):
        if i in covered:
            continue
        gens.append(i)
        covered = group_closure(table, gens)
        if len(covered) == n:
            break
    return gens if gens else [e]


def group_exponent(table: list[list[int]]) -> int:
    return lcm(*(element_order(table, i) for i in range(len(table))))


def element_order(table: list[list[int]], i: int) -> int:
    e = _group_identity(table)
    k, acc = 1, i
    while acc != e:
        acc = table[acc][i]
        k += 1
    return k
