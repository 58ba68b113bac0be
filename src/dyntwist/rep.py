"""Left modules over finite-dimensional algebras and the Hom machinery.

Covers: intertwiner spaces, coaction-twisted tensor action of an H-module on
a K-module, restriction and induction along a Hopf subalgebra, duals, and
the mutually inverse natural maps between (Ind_A^H V)* and Hom_A(H, V*).
"""

from __future__ import annotations

from .hopf import AlgebraData, HopfAlgebraData, StructureError, add_into
from .linalg import (
    Matrix,
    Subspace,
    flatten,
    identity_residual,
    kron,
    kron_sum,
    quotient,
    rank,
    solve,
    sparse_cols,
    sparse_kernel_basis,
    unflatten,
)
from .report import CheckReport
from .scalar import Cyclo


class ModuleRep:
    """Left module over a fixed algebra: one action matrix per basis element."""

    def __init__(self, algebra: AlgebraData, dim: int, action: list[Matrix],
                 name: str = "V"):
        if len(action) != algebra.dim:
            raise StructureError("need one action matrix per algebra basis element")
        for m in action:
            if m.rows != dim or m.cols != dim:
                raise StructureError("action matrix shape mismatch")
        self.algebra = algebra
        self.dim = dim
        self.action = action
        self.name = name

    @property
    def order(self) -> int:
        return self.algebra.order

    def act_matrix(self, elem: dict) -> Matrix:
        out = Matrix.zero(self.dim, self.dim, self.order)
        for i, c in elem.items():
            out = out + self.action[i].scaled(c)
        return out

    def verify(self) -> CheckReport:
        report = CheckReport("module %s" % self.name)
        alg = self.algebra
        bad = identity_residual(self.act_matrix(alg.unit))
        report.add("unit acts as identity", bad == 0, bad)
        bad = 0
        for i in range(alg.dim):
            for j in range(alg.dim):
                lhs = self.action[i] * self.action[j]
                rhs = self.act_matrix(alg.mult[i][j])
                if lhs != rhs:
                    bad += 1
        report.add("rho(e_i)rho(e_j) = rho(e_i e_j)", bad == 0, bad)
        return report


def trivial_module(h: HopfAlgebraData, name: str = "triv") -> ModuleRep:
    one_by_one = [Matrix.from_rows([[h.counit[i]]], h.order) for i in range(h.dim)]
    return ModuleRep(h.alg, 1, one_by_one, name=name)


def regular_module(alg: AlgebraData, name: str | None = None) -> ModuleRep:
    one = Cyclo.one(alg.order)
    mats = [alg.left_mult_matrix({i: one}) for i in range(alg.dim)]
    return ModuleRep(alg, alg.dim, mats, name=name or (alg.name + "_reg"))


def character_module(h: HopfAlgebraData, values: list[Cyclo],
                     name: str = "chi") -> ModuleRep:
    """One-dimensional module from an algebra map given by basis values."""
    mats = [Matrix.from_rows([[values[i]]], h.order) for i in range(h.dim)]
    m = ModuleRep(h.alg, 1, mats, name=name)
    rep = m.verify()
    if not rep.ok:
        raise StructureError("values do not define an algebra map")
    return m


class HomSpace:
    """All intertwiners between two modules over the same algebra."""

    def __init__(self, source: ModuleRep, target: ModuleRep, basis: list[Matrix]):
        self.source = source
        self.target = target
        self.basis = basis

    @property
    def dim(self) -> int:
        return len(self.basis)

    def element(self, coords: list) -> Matrix:
        out = Matrix.zero(self.target.dim, self.source.dim, self.source.order)
        for c, b in zip(coords, self.basis):
            out = out + b.scaled(c)
        return out


def intertwiner_basis(source_mats: list[Matrix], target_mats: list[Matrix],
                      rows: int, cols: int, order: int) -> list[Matrix]:
    """Basis of {T : T S_a = T_a T for each supplied pair}, T of shape rows x cols."""
    eq_rows: list[dict] = []
    for s_m, t_m in zip(source_mats, target_mats):
        s_cols = sparse_cols(s_m)
        # (T * s_m - t_m * T)[i][j] = 0
        for i in range(rows):
            t_row = t_m.row(i)
            for j in range(cols):
                row: dict = {}
                for k, c in s_cols[j].items():
                    add_into(row, i * cols + k, c)
                for k, c in t_row.items():
                    add_into(row, k * cols + j, -c)
                if row:
                    eq_rows.append(row)
    basis_vecs = sparse_kernel_basis(eq_rows, rows * cols, order)
    return [unflatten(v, rows, cols, order) for v in basis_vecs]


def hom_space(v: ModuleRep, w: ModuleRep) -> HomSpace:
    if v.algebra is not w.algebra and v.algebra.name != w.algebra.name:
        raise StructureError("modules live over different algebras")
    gens = v.algebra.generator_indices()
    basis = intertwiner_basis([v.action[g] for g in gens],
                              [w.action[g] for g in gens],
                              w.dim, v.dim, v.order)
    return HomSpace(v, w, basis)


def tensor_reps(h: HopfAlgebraData, x: ModuleRep, y: ModuleRep,
                name: str | None = None) -> ModuleRep:
    """X (x) Y over a Hopf algebra via the comultiplication, left-major index."""
    dim = x.dim * y.dim
    mats = [kron_sum(((c, x.action[i], y.action[j]) for (i, j), c in h.comult[k].items()),
                     dim, dim, h.order) for k in range(h.dim)]
    return ModuleRep(h.alg, dim, mats,
                     name=name or "%s(x)%s" % (x.name, y.name))


def tensor_action(k_comod, x: ModuleRep, v: ModuleRep,
                  name: str | None = None) -> ModuleRep:
    """K-module X (x) V with k.(x (x) w) = k_(-1).x (x) k_(0).w.

    ``k_comod`` is a comodule-algebra object carrying ``alg`` (K) and
    ``coaction`` (list of dicts keyed (H index, K index)); X is a module over
    the Hopf algebra K coacts along, V a K-module.
    """
    kalg = k_comod.alg
    order = kalg.order
    dim = x.dim * v.dim
    mats = [kron_sum(((c, x.action[hi], v.action[ki])
                      for (hi, ki), c in k_comod.coaction[k].items()), dim, dim, order)
            for k in range(kalg.dim)]
    return ModuleRep(kalg, dim, mats, name=name or "%s(x)%s" % (x.name, v.name))


def restrict_module(embed: "SubHopfEmbedding", x: ModuleRep,
                    name: str | None = None) -> ModuleRep:
    mats = [x.act_matrix(embed.embed_elem({i: Cyclo.one(x.order)}))
            for i in range(embed.small.dim)]
    return ModuleRep(embed.small.alg, x.dim, mats, name=name or ("R(%s)" % x.name))


def dual_module(h: HopfAlgebraData, v: ModuleRep, name: str | None = None) -> ModuleRep:
    """Contragredient module (h.f)(x) = f(S(h) x)."""
    mats = [v.act_matrix(h.antipode.col(i)).transpose() for i in range(h.dim)]
    return ModuleRep(h.alg, v.dim, mats, name=name or (v.name + "*"))


class SubHopfEmbedding:
    """Hopf subalgebra A of H given by an injective structure-preserving matrix."""

    def __init__(self, small: HopfAlgebraData, big: HopfAlgebraData, embed: Matrix):
        if embed.rows != big.dim or embed.cols != small.dim:
            raise StructureError("embedding matrix has wrong shape")
        self.small = small
        self.big = big
        self.embed = embed

    def embed_elem(self, a: dict) -> dict:
        return self.embed.apply(a)

    def verify(self) -> CheckReport:
        report = CheckReport("embedding %s in %s" % (self.small.name, self.big.name))
        order = self.small.order
        one = Cyclo.one(order)
        bad = self.small.dim - rank(self.embed)
        report.add("embedding injective", bad == 0, bad)
        bad = 0
        for i in range(self.small.dim):
            for j in range(self.small.dim):
                lhs = self.embed_elem(self.small.alg.mult[i][j])
                rhs = self.big.alg.multiply(self.embed_elem({i: one}),
                                            self.embed_elem({j: one}))
                if lhs != rhs:
                    bad += 1
        if self.embed_elem(self.small.alg.unit) != self.big.alg.unit:
            bad += 1
        report.add("embedding is an algebra map", bad == 0, bad)
        bad = 0
        for k in range(self.small.dim):
            lhs: dict = {}
            for (i, j), c in self.small.comult[k].items():
                ei = self.embed_elem({i: one})
                ej = self.embed_elem({j: one})
                for a, ca in ei.items():
                    for b, cb in ej.items():
                        add_into(lhs, (a, b), c * ca * cb)
            if lhs != self.big.comult_of(self.embed_elem({k: one})):
                bad += 1
        report.add("embedding intertwines comultiplication", bad == 0, bad)
        bad = 0
        for k in range(self.small.dim):
            if self.big.counit_of(self.embed_elem({k: one})) != self.small.counit[k]:
                bad += 1
            lhs = self.embed_elem(self.small.antipode_of({k: one}))
            rhs = self.big.antipode_of(self.embed_elem({k: one}))
            if lhs != rhs:
                bad += 1
        report.add("embedding intertwines counit and antipode", bad == 0, bad)
        return report


def induce(embed: SubHopfEmbedding, v: ModuleRep):
    """Induced module H (x)_A V with left-regular H-action.

    Returns (module, projection, section) where projection/section realise
    the quotient of H (x) V by span{ha (x) w - h (x) aw}.
    """
    h, a = embed.big, embed.small
    order = h.order
    one = Cyclo.one(order)
    dim_hv = h.dim * v.dim
    a_cols = [sparse_cols(m) for m in v.action]
    relations = []
    for hi in range(h.dim):
        for ai in range(a.dim):
            ha = h.alg.multiply({hi: one}, embed.embed_elem({ai: one}))
            for vi in range(v.dim):
                vec: dict = {}
                for t, c in ha.items():
                    add_into(vec, t * v.dim + vi, c)
                for t, c in a_cols[ai][vi].items():
                    add_into(vec, hi * v.dim + t, -c)
                if vec:
                    relations.append(vec)
    rel = Subspace.from_vectors(relations, dim_hv, order)
    proj, sec = quotient(dim_hv, rel)
    qdim = proj.rows
    mats = []
    idv = Matrix.identity(v.dim, order)
    for i in range(h.dim):
        lm = kron(h.alg.left_mult_matrix({i: one}), idv)
        mats.append(proj * lm * sec)
    mod = ModuleRep(h.alg, qdim, mats, name="Ind(%s)" % v.name)
    return mod, proj, sec


def hom_module(embed: SubHopfEmbedding, v: ModuleRep):
    """Hom_A(H, V) with the right-translation action (h.T)(t) = T(t h).

    Returns (module, basis) where basis lists the maps as dimV x dimH matrices
    and the module's coordinates refer to that basis.
    """
    h, a = embed.big, embed.small
    order = h.order
    one = Cyclo.one(order)
    gens = a.alg.generator_indices()
    src = [h.alg.left_mult_matrix(embed.embed_elem({g: one})) for g in gens]
    tgt = [v.action[g] for g in gens]
    basis = intertwiner_basis(src, tgt, v.dim, h.dim, order)
    basis_mat = Matrix.from_cols([flatten(b) for b in basis], v.dim * h.dim, order)
    mats = []
    for i in range(h.dim):
        rm = h.alg.right_mult_matrix({i: one})
        cols = [solve(basis_mat, flatten(b * rm)) for b in basis]
        mats.append(Matrix.from_cols(cols, len(basis), order))
    mod = ModuleRep(h.alg, len(basis), mats, name="Hom_A(H,%s)" % v.name)
    return mod, basis


def theta_maps(embed: SubHopfEmbedding, v: ModuleRep):
    """The mutually inverse H-maps between (Ind_A^H V)* and Hom_A(H, V*).

    Returns a dict with the matrices, the modules on both sides and a report
    verifying invertibility and H-equivariance exactly.
    """
    h = embed.big
    order = h.order
    one = Cyclo.one(order)
    ind, proj, sec = induce(embed, v)
    vstar = dual_module(embed.small, v)
    homav, hom_basis = hom_module(embed, vstar)
    ind_dual = ModuleRep(h.alg, ind.dim,
                         [ind.act_matrix(h.antipode_of({i: one})).transpose()
                          for i in range(h.dim)],
                         name="(%s)*" % ind.name)

    # theta(alpha)(t) = sum_i alpha(class(S(t) (x) v_i)) v^i
    hom_basis_mat = Matrix.from_cols([flatten(b) for b in hom_basis], vstar.dim * h.dim,
                                     order)
    # the map t -> sum_i alpha_r(class(S(t) (x) v_i)) v^i, flattened row-major,
    # for every induced basis vector alpha_r at once
    flats = [{} for _ in range(ind.dim)]
    for t in range(h.dim):
        st = h.antipode_of({t: one})
        for vi in range(v.dim):
            cls = proj.apply({hh * v.dim + vi: c for hh, c in st.items()})
            for r, c in cls.items():
                flats[r][vi * h.dim + t] = c
    theta = Matrix.from_cols([solve(hom_basis_mat, f) for f in flats], len(hom_basis), order)

    # theta_tilde(T) evaluated on the r-th induced basis vector via the section
    s_inv = [h.antipode_inv_of({hh: one}) for hh in range(h.dim)]
    ttilde_rows = []
    for r in range(ind.dim):
        row: dict = {}
        for idx, c in sec.col(r).items():
            hh, vi = divmod(idx, v.dim)
            for bi, b in enumerate(hom_basis):
                x = b.apply(s_inv[hh]).get(vi)
                if x is not None:
                    add_into(row, bi, c * x)
        ttilde_rows.append(row)
    theta_tilde = Matrix(ind.dim, len(hom_basis), ttilde_rows, order)

    report = CheckReport("theta maps for %s" % v.name)
    free_dim = h.dim * v.dim // embed.small.dim
    bad = abs(ind.dim - free_dim)
    report.add("induced dimension matches free rank dim H dim V / dim A", bad == 0, bad)
    bad = identity_residual(theta_tilde * theta)
    report.add("theta_tilde . theta = id", bad == 0, bad)
    bad = identity_residual(theta * theta_tilde)
    report.add("theta . theta_tilde = id", bad == 0, bad)
    bad = 0
    for i in range(h.dim):
        if theta * ind_dual.action[i] != homav.action[i] * theta:
            bad += 1
        if theta_tilde * homav.action[i] != ind_dual.action[i] * theta_tilde:
            bad += 1
    report.add("theta and theta_tilde are H-linear", bad == 0, bad)
    return {
        "theta": theta,
        "theta_tilde": theta_tilde,
        "induced": ind,
        "induced_dual": ind_dual,
        "hom_module": homav,
        "hom_basis": hom_basis,
        "projection": proj,
        "section": sec,
        "report": report,
    }
