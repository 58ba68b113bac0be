"""The monomial Hopf algebra family and its distinguished comodule algebras.

Everything here is parametrised by a finite group G (multiplication table),
a character chi of G, a central element g of order n with chi(g) of order n
and chi^n = 1.  The Hopf algebra lives on the basis {h x^i : h in G, i < n},
group-major; the comodule algebra on {e_h y^i : h in F, i < n} with y^n a
nonzero scalar.
"""

from __future__ import annotations


from .hopf import (
    AlgebraData,
    ComoduleAlgebraData,
    HopfAlgebraData,
    ValidationError,
    add_into,
    element_order,
    group_generators,
    tensor_mult,
    _group_identity,
)
from .linalg import Matrix, kron, rank
from .rep import ModuleRep, SubHopfEmbedding
from .scalar import Cyclo


def gauss_binomial(i: int, k: int, q: Cyclo) -> Cyclo:
    """Gaussian binomial coefficient via the addition recursion (division free)."""
    order = q.order
    if k < 0 or k > i:
        return Cyclo.zero(order)
    row = [Cyclo.one(order)]
    for m in range(1, i + 1):
        new = [Cyclo.one(order)]
        qpow = Cyclo.one(order)
        for j in range(1, m):
            qpow = qpow * q
            new.append(row[j - 1] + qpow * row[j])
        new.append(Cyclo.one(order))
        row = new
    return row[k]


class MonomialHopfSpec:
    def __init__(self, table: list[list[int]], chi: list[Cyclo], g: int, n: int):
        self.table = table       # group multiplication table
        self.chi = chi           # character values per group index
        self.g = g               # index of the distinguished central element
        self.n = n

    def validate(self) -> None:
        size = len(self.table)
        if len(self.chi) != size:
            raise ValidationError("character must assign a value to every element")
        for h in range(size):
            if self.table[self.g][h] != self.table[h][self.g]:
                raise ValidationError("g is not central")
        if element_order(self.table, self.g) != self.n:
            raise ValidationError(
                "n = |g| fails: |g| = %d, n = %d"
                % (element_order(self.table, self.g), self.n))
        if self.chi[self.g].multiplicative_order() != self.n:
            raise ValidationError("n = |chi(g)| fails")
        for h in range(size):
            if not (self.chi[h] ** self.n).is_one():
                raise ValidationError("chi^n = 1 fails")
        e = _group_identity(self.table)
        if self.chi[e] != Cyclo.one(self.chi[e].order):
            raise ValidationError("chi(1) must be 1")
        # the |G|^2 check runs last, so a datum failing a cheap one exits early
        for a in range(size):
            for b in range(size):
                if self.chi[self.table[a][b]] != self.chi[a] * self.chi[b]:
                    raise ValidationError("chi is not a homomorphism")


def sub_table(table: list[list[int]], indices) -> list[list[int]]:
    """The multiplication table of the subgroup on ``indices``, relabelled
    0, 1, ... in ascending order of the indices."""
    sub = sorted(indices)
    pos = {v: i for i, v in enumerate(sub)}
    return [[pos[table[a][b]] for b in sub] for a in sub]


def _skew_algebra(table, elements, chi, n: int, wrap: Cyclo, order: int,
                  name: str) -> AlgebraData:
    """The algebra on {h x^i : h in elements, i < n}, element-major in ascending
    order, with x h = chi(h) h x and x^n = wrap; generated by the subgroup's
    generators and x."""
    elements = sorted(elements)
    sub = sub_table(table, elements)
    dim = len(elements) * n
    chi_pow = [[chi[f] ** i for i in range(n)] for f in elements]
    # (a x^i)(b x^j) = chi(b)^i ab x^(i+j), and x^(i+j) = wrap x^(i+j-n) past n
    mult = [[dict() for _ in range(dim)] for _ in range(dim)]
    for a, row in enumerate(sub):
        for i in range(n):
            for b, ab in enumerate(row):
                c = chi_pow[b][i]
                for j in range(n):
                    cell = mult[a * n + i][b * n + j]
                    if i + j < n:
                        cell[ab * n + i + j] = c
                    elif not wrap.is_zero():
                        cell[ab * n + i + j - n] = c * wrap
    e = _group_identity(sub)
    gens = [b * n for b in group_generators(sub)]
    if n > 1:
        gens.append(e * n + 1)
    return AlgebraData(dim, mult, {e * n: Cyclo.one(order)}, order, name=name,
                       generators=gens)


def make_monomial_hopf(spec: MonomialHopfSpec, order: int,
                       name: str = "H") -> HopfAlgebraData:
    """Hopf algebra on {h x^i} with x^n = 0, xh = chi(h) hx, Delta(x) = 1(x)x + x(x)g."""
    spec.validate()
    table = spec.table
    size, n = len(table), spec.n
    dim = size * n
    chi = [c.embed(order) for c in spec.chi]
    q = chi[spec.g]
    one = Cyclo.one(order)
    e = _group_identity(table)
    alg = _skew_algebra(table, range(size), chi, n, Cyclo.zero(order), order, name)
    comult = [dict() for _ in range(dim)]
    gpow = [e]
    for _ in range(n - 1):
        gpow.append(table[gpow[-1]][spec.g])
    # Delta(h x^i) = sum_k binom(i, k)_q h x^k (x) h g^k x^(i-k)
    for h in range(size):
        for i in range(n):
            for k in range(i + 1):
                c = gauss_binomial(i, k, q)
                if not c.is_zero():
                    add_into(comult[h * n + i], (h * n + k, table[h][gpow[k]] * n + i - k), c)
    counit = [one if i % n == 0 else Cyclo.zero(order) for i in range(dim)]
    return HopfAlgebraData(alg, comult, counit, name=name)


def check_subgroup(table: list[list[int]], indices: list[int]) -> None:
    s = set(indices)
    e = _group_identity(table)
    if e not in s:
        raise ValidationError("subgroup must contain the identity")
    for a in indices:
        for b in indices:
            if table[a][b] not in s:
                raise ValidationError("index set is not closed under products")


def make_monomial_comodule(hopf_spec: MonomialHopfSpec, f_indices: list[int], mu: Cyclo,
                  h: HopfAlgebraData, name: str = "K") -> ComoduleAlgebraData:
    """The comodule algebra on {e_h y^i : h in F} with y^n = mu^n.

    Coaction: delta(y) = g^-1 (x) y - x g^-1 (x) 1, delta(e_h) = h (x) e_h,
    extended multiplicatively (computed, not hand-expanded).
    """
    table = hopf_spec.table
    n = hopf_spec.n
    order = h.order
    check_subgroup(table, f_indices)
    if hopf_spec.g not in f_indices:
        raise ValidationError("F must contain g")
    mu = mu.embed(order)
    lam = mu ** n
    if lam.is_zero():
        raise ValidationError("lambda = mu^n must be nonzero")
    chi = [c.embed(order) for c in hopf_spec.chi]
    f_sorted = sorted(f_indices)
    pos = {fidx: p for p, fidx in enumerate(f_sorted)}
    one = Cyclo.one(order)
    e = _group_identity(table)

    def idx(fh: int, i: int) -> int:
        return pos[fh] * n + i

    alg = _skew_algebra(table, f_sorted, chi, n, lam, order, name)

    # delta(y) = g^-1 (x) y - x g^-1 (x) 1, then powers by tensor multiplication;
    # on the basis x g^-1 = chi(g^-1) g^-1 x
    g_inv = _power(table, hopf_spec.g, element_order(table, hopf_spec.g) - 1)
    minus_one = Cyclo.from_rational(-1, order)
    delta_y: dict = {}
    if n > 1:
        add_into(delta_y, (g_inv * n, idx(e, 1)), one)
        add_into(delta_y, (g_inv * n + 1, idx(e, 0)), minus_one * chi[g_inv])

    legs = [h.alg, alg]
    delta_y_pow = [{(e * n, idx(e, 0)): one}]
    for _ in range(n - 1):
        delta_y_pow.append(tensor_mult(legs, delta_y_pow[-1], delta_y))
    # delta(e_h y^i) = (h (x) e_h) delta(y)^i, listed in basis order
    coaction = [tensor_mult(legs, {(fh * n, idx(fh, 0)): one}, delta_y_pow[i])
                for fh in f_sorted for i in range(n)]
    return ComoduleAlgebraData(alg, h, coaction, name=name)


def _power(table, a, k):
    e = _group_identity(table)
    acc = e
    for _ in range(k):
        acc = table[acc][a]
    return acc


def _basis_embedding(small: HopfAlgebraData, big: HopfAlgebraData,
                     images: list[int]) -> SubHopfEmbedding:
    """The embedding sending basis element p of ``small`` to basis element
    ``images[p]`` of ``big``."""
    one = Cyclo.one(big.order)
    data = [{} for _ in range(big.dim)]
    for p, image in enumerate(images):
        data[image][p] = one
    return SubHopfEmbedding(small, big, Matrix(big.dim, small.dim, data, big.order))


def monomial_sub_embedding(h_big: HopfAlgebraData, spec_big: MonomialHopfSpec,
                           h_small: HopfAlgebraData, f_indices: list[int]) -> SubHopfEmbedding:
    """Embed the monomial Hopf algebra on F into the one on G, basis to basis."""
    n = spec_big.n
    return _basis_embedding(h_small, h_big,
                            [fh * n + i for fh in sorted(f_indices) for i in range(n)])


def group_sub_embedding(h_big: HopfAlgebraData, spec_big: MonomialHopfSpec,
                        kb: HopfAlgebraData, b_indices: list[int]) -> SubHopfEmbedding:
    """Embed the group algebra of B into the monomial Hopf algebra, b -> b x^0."""
    return _basis_embedding(kb, h_big, [b * spec_big.n for b in sorted(b_indices)])


class CosetData:
    def __init__(self, reps: list[int], g_powers: list[int], b_part: dict[int, int],
                 g_exponent: dict[int, int]):
        self.reps = reps                  # right coset representatives: G = U F c_l
        self.g_powers = g_powers          # g^0 .. g^(n-1) as group indices
        self.b_part = b_part              # h in F -> index b with h = b g^j
        self.g_exponent = g_exponent      # h in F -> that j


def coset_data(table: list[list[int]], f_indices: list[int], b_indices: list[int],
               g: int, n: int) -> CosetData:
    """Deterministic coset representatives plus the B g^j decomposition of F.

    Requires B cap <g> = {1} and F = U_j B g^j; the products {b g^j x^i c_l}
    are checked to span the monomial Hopf algebra by the caller.
    """
    size = len(table)
    e = _group_identity(table)
    check_subgroup(table, f_indices)
    check_subgroup(table, b_indices)
    fset, bset = set(f_indices), set(b_indices)
    if not bset <= fset:
        raise ValidationError("B must be a subgroup of F")
    gpow = [e]
    for _ in range(n - 1):
        gpow.append(table[gpow[-1]][g])
    if bset & set(gpow) != {e}:
        raise ValidationError("B and <g> must intersect trivially")
    if len(bset) * n != len(fset):
        raise ValidationError("F must decompose as B<g>")
    b_part: dict[int, int] = {}
    g_exp: dict[int, int] = {}
    g_inv_pow = [_power(table, g, (n - j) % element_order(table, g)) for j in range(n)]
    for h in sorted(fset):
        found = None
        for j in range(n):
            cand = table[h][g_inv_pow[j]]
            if cand in bset:
                if found is not None:
                    raise ValidationError("B g^j decomposition is not unique")
                found = (cand, j)
        if found is None:
            raise ValidationError("element %d of F is not in B<g>" % h)
        b_part[h], g_exp[h] = found
    covered: set[int] = set()
    reps = []
    for t in range(size):
        if t in covered:
            continue
        reps.append(t)
        covered |= {table[f][t] for f in fset}
    return CosetData(reps, gpow, b_part, g_exp)


def make_t_module(spec: MonomialHopfSpec, k: ComoduleAlgebraData,
                  f_indices: list[int], b_indices: list[int], cosets: CosetData,
                  mu: Cyclo, v: ModuleRep, name: str | None = None) -> ModuleRep:
    """The K-module T(V) = k^n (x) V, the n slices of V.

    y acts as Y (x) id_V, where Y shifts the slices down cyclically with
    factor mu; e_h acts as D_h (x) rho_V(b), where D_h scales slice s by
    chi(h)^s and b is the B-part of h.  So e_h y^i acts as
    (D_h Y^i) (x) rho_V(b).  Module axioms (y^n acts by lambda, the
    commutation with each e_h) follow and are testable via ModuleRep.verify.
    """
    n = spec.n
    order = k.order
    chi = [c.embed(order) for c in spec.chi]
    mu = mu.embed(order)
    y_shift = Matrix(n, n, [{(s + 1) % n: mu} for s in range(n)], order)
    y_pow = [Matrix.identity(n, order)]
    for _ in range(n - 1):
        y_pow.append(y_pow[-1] * y_shift)
    b_sorted = sorted(b_indices)
    action = []
    for fh in sorted(f_indices):
        rho_b = v.action[b_sorted.index(cosets.b_part[fh])]
        scale = Matrix(n, n, [{s: chi[fh] ** s} for s in range(n)], order)
        action += [kron(scale * y_i, rho_b) for y_i in y_pow]
    return ModuleRep(k.alg, n * v.dim, action, name=name or ("T(%s)" % v.name))


def verify_coset_basis(h: HopfAlgebraData, spec: MonomialHopfSpec,
                       cosets: CosetData, b_indices: list[int]) -> bool:
    """Rank check: {b g^j x^i c_l} is a basis of the monomial Hopf algebra."""
    table = spec.table
    n = spec.n
    one = Cyclo.one(h.order)
    cols = []
    for b in sorted(b_indices):
        for j, gp in enumerate(cosets.g_powers):
            for i in range(n):
                for c in cosets.reps:
                    bg = table[b][gp]
                    cols.append(h.alg.multiply({bg * n + i: one}, {c * n: one}))
    return rank(Matrix.from_cols(cols, h.dim, h.order)) == h.dim
