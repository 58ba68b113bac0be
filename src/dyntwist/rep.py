"""Left modules over finite-dimensional algebras and the Hom machinery.

Covers: intertwiner spaces, coaction-twisted tensor action of an H-module on
a K-module, restriction and induction along a Hopf subalgebra, duals, and
the mutually inverse natural maps between (Ind_A^H V)* and Hom_A(H, V*).

A Hopf subalgebra embedding carries its matrix as a leg map, so its
comultiplication check is two ``hopf.split_leg`` calls; induction divides
H (x) V by ``linalg.balanced_relations``.

Every intertwiner equation f S(g) = T(g) f, here and in xi^-1, is written by
``_orbit_reduction``: the generators acting monomially on both sides are
solved exactly into orbits of unknowns, grown breadth-first from the
generators with one weight per unknown, and only the others become rows.
Orbits are numbered by their highest unknown, so the canonical kernel basis
over the orbits is already the canonical intertwiner basis over the entries.
"""

from __future__ import annotations

from .hopf import (AlgebraData, HopfAlgebraData, StructureError, add_into, algebra_map_failures,
                   split_leg)
from .linalg import (
    LinAlgError,
    Matrix,
    balanced_relations,
    differing_columns,
    flatten,
    identity_residual,
    kron,
    kron_id_mul,
    kron_sum,
    pivot_coords,
    quotient,
    rank,
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
        return kron_sum(((c, self.action[i]) for i, c in elem.items()),
                        self.dim, self.dim, self.order)

    def verify(self) -> CheckReport:
        report = CheckReport("module %s" % self.name)
        alg = self.algebra
        bad = identity_residual(self.act_matrix(alg.unit))
        report.add("unit acts as identity", bad == 0, bad)
        # column i of f is rho(e_i) flattened, and rho(e_i) rho(e_j) flattened
        # is (rho(e_i) (x) id_V) times rho(e_j) flattened
        n = self.dim
        f = Matrix.from_cols([flatten(a) for a in self.action], n * n, self.order)
        bad = algebra_map_failures(f, alg, lambda i: kron_id_mul(self.action[i], n, f),
                                   flatten(Matrix.identity(n, self.order)), ())
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
        return kron_sum(zip(coords, self.basis), self.target.dim, self.source.dim,
                        self.source.order)


def intertwiner_basis(source_mats: list[Matrix], target_mats: list[Matrix],
                      rows: int, cols: int, order: int) -> list[Matrix]:
    """Basis of {T : T S_a = T_a T for each supplied pair}, T of shape rows x cols.

    Solved over the orbits of ``_orbit_reduction``.  The canonical kernel
    basis over the orbits expands to the canonical basis over the flattened
    entries: each vector is 1 at its last nonzero entry, the highest unknown
    of its free orbit, which every other vector leaves zero, in ascending
    order.
    """
    orbit, ncols, eq_rows = _orbit_reduction(list(zip(source_mats, target_mats)), rows, cols)
    return [unflatten(_expand_orbits(orbit, vec), rows, cols, order)
            for vec in sparse_kernel_basis(eq_rows, ncols, order)]


def intertwiner_coords(basis: list[Matrix], vectors: Matrix) -> tuple[Matrix, int]:
    """The coordinates of the flattened maps in the columns of ``vectors`` in a
    basis from ``intertwiner_basis``, and the number of columns outside its span.

    Each basis vector is 1 at its last entry, which the others leave 0, so
    ``pivot_coords`` reads the coordinates there and certifies them.
    """
    flats = [flatten(b) for b in basis]
    return pivot_coords(Matrix.from_cols(flats, vectors.rows, vectors.order),
                        [max(f) for f in flats], vectors)


def translation_action(basis: list[Matrix], movers: list[Matrix]) -> list[Matrix]:
    """The action b -> b m of each mover m on the span of a basis from
    ``intertwiner_basis``, as matrices on its coordinates.

    The basis maps are stacked once, one above the next, so one product with
    a mover moves all of them, and one read-off gives the coordinates of the
    moved maps.  Raises LinAlgError when a moved map leaves the span.
    """
    if not basis:
        return [Matrix.zero(0, 0, m.order) for m in movers]
    n, rows, cols, order = len(basis), basis[0].rows, basis[0].cols, basis[0].order
    stacked = Matrix(n * rows, cols, [dict(b.row(i)) for b in basis for i in range(rows)], order)
    action = []
    for m in movers:
        # row j of the reshaped product is the flattened b_j m
        moved = unflatten(flatten(stacked * m), n, rows * cols, order).transpose()
        coords, misses = intertwiner_coords(basis, moved)
        if misses:
            raise LinAlgError("inconsistent linear system")
        action.append(coords)
    return action


def _monomial_form(m: Matrix):
    """(column, value) of the one nonzero of each row of m, or None unless m
    is monomial: square, with exactly one nonzero in every row and column."""
    cols, vals = [], []
    for i in range(m.rows):
        row = m.row(i)
        if len(row) != 1:
            return None
        (c, val), = row.items()
        cols.append(c)
        vals.append(val)
    if m.rows != m.cols or len(set(cols)) != m.cols:
        return None
    return cols, vals


def _orbit_reduction(pairs, t_dim: int, s_dim: int):
    """The equations f S = T f of the pairs (S, T), written over orbits.

    The unknown f[i][j] of a t_dim x s_dim matrix f has index i*s_dim + j.
    Where both S and T are monomial, with a_j the one nonzero of column j
    of S, in row sigma(j), and b_i the one nonzero of row i of T, in
    column tau(i), the equation at (i, j) reads
    f[tau(i)][j] = (a_j / b_i) f[i][sigma(j)].  These are solved exactly by
    the orbit algorithm: scanning the unknowns from the highest index down,
    each one not yet reached starts an orbit with weight 1, which grows
    breadth-first through the moves (i, sigma(j)) -> (tau(i), j) with factor
    a_j / b_i; an orbit that reaches one of its unknowns with two different
    weights is forced to zero.  Every solution of the monomial equations is
    then determined by free values y_c, one per surviving orbit c, and every
    choice of them is a solution.  This is Reynolds / Schur symmetry
    reduction.

    Returns (orbit, ncols, equation_rows): orbit[u] = (c, weight) with
    f_u = weight * y_c (weight None standing for 1), or None where f_u is
    forced to zero; ncols surviving orbits, numbered in ascending order of
    their highest unknown, which has weight None; and the equations of the
    pairs that are not monomial on both sides, as sparse rows over the y_c.
    """
    moves, general = [], []
    for s_g, t_g in pairs:
        s_form, t_form = _monomial_form(s_g), _monomial_form(t_g)
        if s_form is None or t_form is None:
            general.append((s_g, t_g))
            continue
        # row k of S holds a_j at column j = s_cols[k], so sigma(j) = k
        s_cols, s_vals = s_form
        a = [None if val.is_one() else val for val in s_vals]
        ratios: dict = {}  # b_i -> [a_j / b_i for every row k of S], once per distinct b_i
        for b_i in t_form[1]:
            if b_i not in ratios:
                b_inv = None if b_i.is_one() else b_i.inverse()
                ratios[b_i] = [_times(a_j, b_inv) for a_j in a]
        moves.append(([tau_i * s_dim for tau_i in t_form[0]], s_cols,
                      [ratios[b_i] for b_i in t_form[1]]))
    n = t_dim * s_dim
    orbit: list = [None] * n  # (k, weight) for the k-th orbit found, while the orbits grow
    consistent: list[bool] = []
    for top in reversed(range(n)):
        if orbit[top] is not None:
            continue
        k = len(consistent)
        consistent.append(True)
        orbit[top] = (k, None)
        queue = [top]
        for u in queue:  # the unknowns reached below join the end of the queue
            i, j = divmod(u, s_dim)
            w = orbit[u][1]
            for rows, cols, factors in moves:
                # f_v = c f_u: ``_times`` written out, once per unknown and move
                v, c = rows[i] + cols[j], factors[i][j]
                wv = w if c is None else c if w is None else c * w
                seen = orbit[v]
                if seen is None:
                    orbit[v] = (k, wv)
                    queue.append(v)
                elif consistent[k] and not _same(seen[1], wv):
                    consistent[k] = False
    column: list = [None] * len(consistent)
    ncols = 0
    for k in reversed(range(len(consistent))):  # the last found has the lowest highest unknown
        if consistent[k]:
            column[k], ncols = ncols, ncols + 1
    for u, (k, w) in enumerate(orbit):  # in place: a new tuple reuses the freed one's memory
        c = column[k]
        orbit[u] = None if c is None else (c, w)
    eq_rows: list[dict] = []
    for s_g, t_g in general:
        s_cols = sparse_cols(s_g)
        # (f S - T f)[i][j] = 0
        for i in range(t_dim):
            t_row = [(k, -c) for k, c in t_g.row(i).items()]
            for j in range(s_dim):
                row: dict = {}
                for k, c in s_cols[j].items():
                    _substitute(row, orbit[i * s_dim + k], c)
                for k, c in t_row:
                    _substitute(row, orbit[k * s_dim + j], c)
                if row:
                    eq_rows.append(row)
    return orbit, ncols, eq_rows


def _times(a, b):
    """a * b where None stands for 1."""
    if a is None:
        return b
    return a if b is None else a * b


def _same(a, b) -> bool:
    """a == b where None stands for 1."""
    if a is None:
        return b is None or b.is_one()
    return a.is_one() if b is None else a == b


def _substitute(row: dict, slot, c: Cyclo) -> None:
    """Add c * f_u to row, written over orbit columns; ``slot`` is orbit[u]."""
    if slot is not None:
        col, w = slot
        add_into(row, col, c if w is None else c * w)


def _expand_orbits(orbit, sol: dict) -> dict:
    """The flattened f with f_u = weight * sol[c] for orbit[u] = (c, weight)."""
    out = {}
    for u, slot in enumerate(orbit):
        if slot is not None:
            val = sol.get(slot[0])
            if val is not None:
                out[u] = val if slot[1] is None else slot[1] * val
    return out


def hom_space(v: ModuleRep, w: ModuleRep) -> HomSpace:
    if v.algebra is not w.algebra and v.algebra.name != w.algebra.name:
        raise StructureError("modules live over different algebras")
    gens = v.algebra.generating_set()
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
        # the embedding as a leg map for ``split_leg``: table[k] = {(i,): c}
        self.table = [{(i,): c for i, c in col.items()} for col in sparse_cols(embed)]

    def embed_elem(self, a: dict) -> dict:
        return self.embed.apply(a)

    def verify(self) -> CheckReport:
        small, big, phi = self.small, self.big, self.embed
        report = CheckReport("embedding %s in %s" % (small.name, big.name))
        bad = small.dim - rank(phi)
        report.add("embedding injective", bad == 0, bad)
        bad = algebra_map_failures(phi, small.alg,
                                   lambda i: big.alg.left_mult_matrix(phi.col(i)) * phi,
                                   big.alg.unit, (big.alg,))
        if self.embed_elem(small.alg.unit) != big.alg.unit:
            bad += 1
        report.add("embedding is an algebra map", bad == 0, bad)
        bad = 0
        for k in range(small.dim):
            lhs = split_leg(self.table, split_leg(self.table, small.comult[k], 0), 1)
            if lhs != split_leg(big.comult, self.table[k], 0):
                bad += 1
        report.add("embedding intertwines comultiplication", bad == 0, bad)
        # eps_H Phi = eps_A and Phi S_A = S_H Phi, a column per basis element of A
        bad = (len(differing_columns(big.counit_row() * phi, small.counit_row()))
               + len(differing_columns(phi * small.antipode, big.antipode * phi)))
        report.add("embedding intertwines counit and antipode", bad == 0, bad)
        return report


def induce(embed: SubHopfEmbedding, v: ModuleRep):
    """Induced module H (x)_A V with left-regular H-action.

    Returns (module, projection, section) where projection/section realise
    the quotient of H (x) V by span{ha (x) w - h (x) aw}.  The a run over
    ``generating_set()`` of A: the relation of a word a g telescopes into
    those of a and g, and the words span A.
    """
    h = embed.big
    order = h.order
    one = Cyclo.one(order)
    rel = balanced_relations([(h.alg.right_mult_matrix(embed.embed_elem({ai: one})), v.action[ai])
                              for ai in embed.small.alg.generating_set()], h.dim, v.dim, order)
    proj, sec = quotient(h.dim * v.dim, rel)
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
    gens = a.alg.generating_set()
    src = [h.alg.left_mult_matrix(embed.embed_elem({g: one})) for g in gens]
    tgt = [v.action[g] for g in gens]
    basis = intertwiner_basis(src, tgt, v.dim, h.dim, order)
    mats = translation_action(basis, [h.alg.right_mult_matrix({i: one}) for i in range(h.dim)])
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
    # the map t -> sum_i alpha_r(class(S(t) (x) v_i)) v^i, flattened row-major,
    # for every induced basis vector alpha_r at once
    flats = [{} for _ in range(ind.dim)]
    for t in range(h.dim):
        st = h.antipode_of({t: one})
        for vi in range(v.dim):
            cls = proj.apply({hh * v.dim + vi: c for hh, c in st.items()})
            for r, c in cls.items():
                flats[r][vi * h.dim + t] = c
    theta, misses = intertwiner_coords(hom_basis,
                                       Matrix.from_cols(flats, vstar.dim * h.dim, order))
    if misses:
        raise LinAlgError("inconsistent linear system")

    # theta_tilde(T) evaluated on the r-th induced basis vector via the section:
    # row T of ``evals`` holds T(S^-1(e_hh))_vi at hh * dim V + vi
    evals = Matrix(len(hom_basis), h.dim * v.dim,
                   [flatten((b * h.antipode_inv).transpose()) for b in hom_basis], order)
    theta_tilde = (evals * sec).transpose()

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
