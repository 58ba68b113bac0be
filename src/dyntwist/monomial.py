"""The monomial Hopf algebra family and its distinguished comodule algebras.

Everything here is parametrised by a finite group G (multiplication table),
a character chi of G, a central element g of order n with chi(g) of order n
and chi^n = 1.  The Hopf algebra lives on the basis {h x^i : h in G, i < n},
group-major; the comodule algebra on {e_h y^i : h in F, i < n} with y^n a
nonzero scalar.
"""

from __future__ import annotations

from dataclasses import dataclass

from .comod import ComoduleAlgebraData
from .hopf import (
    AlgebraData,
    HopfAlgebraData,
    ValidationError,
    add_into,
    element_order,
    group_generators,
    _group_identity,
)
from .linalg import Matrix, rank
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


@dataclass
class MonomialHopfSpec:
    table: list[list[int]]       # group multiplication table
    chi: list[Cyclo]             # character values per group index
    g: int                       # index of the distinguished central element
    n: int

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

    def idx(h: int, i: int) -> int:
        return h * n + i

    mult = [[dict() for _ in range(dim)] for _ in range(dim)]
    for h in range(size):
        for i in range(n):
            for f in range(size):
                for j in range(n):
                    if i + j < n:
                        c = chi[f] ** i
                        mult[idx(h, i)][idx(f, j)][idx(table[h][f], i + j)] = c
    unit = {idx(e, 0): one}
    gens = [idx(h, 0) for h in group_generators(table)]
    if n > 1:
        gens.append(idx(e, 1))
    alg = AlgebraData(dim, mult, unit, order, name=name, generators=gens)

    comult = [dict() for _ in range(dim)]
    gpow = [e]
    for _ in range(n - 1):
        gpow.append(table[gpow[-1]][spec.g])
    for h in range(size):
        for i in range(n):
            d = comult[idx(h, i)]
            for k in range(i + 1):
                c = gauss_binomial(i, k, q)
                if c.is_zero():
                    continue
                left = idx(h, k)
                right = idx(table[h][gpow[k]], i - k)
                add_into(d, (left, right), c)
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
    size_f = len(f_sorted)
    dim = size_f * n
    one = Cyclo.one(order)
    e = _group_identity(table)

    def idx(fh: int, i: int) -> int:
        return pos[fh] * n + i

    mult = [[dict() for _ in range(dim)] for _ in range(dim)]
    for fh in f_sorted:
        for i in range(n):
            for ff in f_sorted:
                for j in range(n):
                    c = chi[ff] ** i
                    target_h = table[fh][ff]
                    if i + j < n:
                        mult[idx(fh, i)][idx(ff, j)][idx(target_h, i + j)] = c
                    else:
                        mult[idx(fh, i)][idx(ff, j)][idx(target_h, i + j - n)] = c * lam
    unit = {idx(e, 0): one}
    gens = [idx(b, 0) for b in group_generators_of_subgroup(table, f_sorted)]
    if n > 1:
        gens.append(idx(e, 1))
    alg = AlgebraData(dim, mult, unit, order, name=name, generators=gens)

    # delta(y) = g^-1 (x) y - x g^-1 (x) 1, then powers by tensor multiplication;
    # on the basis x g^-1 = chi(g^-1) g^-1 x
    g_inv = _power(table, hopf_spec.g, element_order(table, hopf_spec.g) - 1)
    minus_one = Cyclo.from_rational(-1, order)
    delta_y: dict = {}
    if n > 1:
        add_into(delta_y, (g_inv * n, idx(e, 1)), one)
        add_into(delta_y, (g_inv * n + 1, idx(e, 0)), minus_one * chi[g_inv])

    def tensor_mul(a: dict, b: dict) -> dict:
        out: dict = {}
        for (h1, k1), c1 in a.items():
            for (h2, k2), c2 in b.items():
                c = c1 * c2
                for ht, cm in h.alg.mult[h1][h2].items():
                    for kt, km in alg.mult[k1][k2].items():
                        add_into(out, (ht, kt), c * cm * km)
        return out

    delta_y_pow = [{(e * n, idx(e, 0)): one}]
    for _ in range(n - 1):
        delta_y_pow.append(tensor_mul(delta_y_pow[-1], delta_y))
    coaction = [dict() for _ in range(dim)]
    for fh in f_sorted:
        base = {(fh * n, idx(fh, 0)): one}
        for i in range(n):
            coaction[idx(fh, i)] = tensor_mul(base, delta_y_pow[i])
    return ComoduleAlgebraData(alg, h, coaction, name=name)


def group_generators_of_subgroup(table, indices):
    sub = sorted(indices)
    pos = {v: i for i, v in enumerate(sub)}
    sub_table = [[pos[table[a][b]] for b in sub] for a in sub]
    return [sub[i] for i in group_generators(sub_table)]


def _power(table, a, k):
    e = _group_identity(table)
    acc = e
    for _ in range(k):
        acc = table[acc][a]
    return acc


def monomial_sub_embedding(h_big: HopfAlgebraData, spec_big: MonomialHopfSpec,
                           h_small: HopfAlgebraData, f_indices: list[int]) -> SubHopfEmbedding:
    """Embed the monomial Hopf algebra on F into the one on G, basis to basis."""
    n = spec_big.n
    f_sorted = sorted(f_indices)
    order = h_big.order
    one = Cyclo.one(order)
    data = [{} for _ in range(h_big.dim)]
    for p, fh in enumerate(f_sorted):
        for i in range(n):
            data[fh * n + i][p * n + i] = one
    return SubHopfEmbedding(h_small, h_big, Matrix(h_big.dim, h_small.dim, data, order))


def group_sub_embedding(h_big: HopfAlgebraData, spec_big: MonomialHopfSpec,
                        kb: HopfAlgebraData, b_indices: list[int]) -> SubHopfEmbedding:
    """Embed the group algebra of B into the monomial Hopf algebra, b -> b x^0."""
    n = spec_big.n
    b_sorted = sorted(b_indices)
    order = h_big.order
    one = Cyclo.one(order)
    data = [{} for _ in range(h_big.dim)]
    for p, b in enumerate(b_sorted):
        data[b * n][p] = one
    return SubHopfEmbedding(kb, h_big, Matrix(h_big.dim, kb.dim, data, order))


@dataclass
class CosetData:
    reps: list[int]              # right coset representatives: G = U F c_l
    g_powers: list[int]          # g^0 .. g^(n-1) as group indices
    b_part: dict[int, int]       # h in F -> index b with h = b g^j
    g_exponent: dict[int, int]   # h in F -> that j


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
    """The K-module T(V) = slices v_0..v_(n-1) tensor V.

    y shifts slices down cyclically with factor mu; e_h scales slice s by
    chi(h)^s and acts through the B-part of h on V.  Module axioms (y^n acts
    by lambda, the commutation with each e_h) follow and are testable via
    ModuleRep.verify.
    """
    n = spec.n
    order = k.order
    chi = [c.embed(order) for c in spec.chi]
    mu = mu.embed(order)
    f_sorted = sorted(f_indices)
    dim = n * v.dim

    y_rows = [{} for _ in range(dim)]
    for s in range(n):
        dst = (s - 1) % n
        for t in range(v.dim):
            y_rows[dst * v.dim + t][s * v.dim + t] = mu
    y_matrix = Matrix(dim, dim, y_rows, order)

    b_sorted = sorted(b_indices)
    e_mats = {}
    for fh in f_sorted:
        b = cosets.b_part[fh]
        rho_b = v.action[b_sorted.index(b)]
        data = [{} for _ in range(dim)]
        for s in range(n):
            c = chi[fh] ** s
            for t_out, t_in, val in rho_b.nonzeros():
                data[s * v.dim + t_out][s * v.dim + t_in] = c * val
        e_mats[fh] = Matrix(dim, dim, data, order)

    action = []
    y_pow = [Matrix.identity(dim, order)]
    for _ in range(n - 1):
        y_pow.append(y_pow[-1] * y_matrix)
    for fh in f_sorted:
        for i in range(n):
            action.append(e_mats[fh] * y_pow[i])
    return ModuleRep(k.alg, dim, action, name=name or ("T(%s)" % v.name))


def t_on_morphism(n: int, f: Matrix) -> Matrix:
    """T on morphisms: identity on the slice leg, f on the module leg."""
    from .linalg import kron, Matrix as _M
    return kron(_M.identity(n, f.order), f)


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
