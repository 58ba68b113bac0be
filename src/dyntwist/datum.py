"""Dynamical data and constructive twist extraction.

The adjunction between restriction Rep(H) -> Rep(A) and a functor
T: Rep(A) -> K-modules is realised by an explicit family of linear
bijections xi: Hom_K(X (x) T(V), T(W)) -> Hom_A(R(X) (x) V, W).  The forward
direction factors as (curry, Galois-transport reshape, a pointwise station
Hom(T(V), T(W)) -> Hom(V, W), evaluation at 1).  The station is a pair of
slice maps per module, p_V: T(V) -> V and i_V: V -> T(V), and sends Theta to
p_W Theta i_V; so xi(f) = p_W f (id_X (x) i_V), a matrix product.  The
inverse is obtained by an exact linear solve whose unique solvability
doubles as the injectivity certificate.

Everything downstream is certified rather than assumed: normalisation,
naturality, the element form of the natural transformations, invertibility,
and finally the twist axioms through the independent verifier.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .hopf import (ComoduleAlgebraData, HopfAlgebraData, StructureError, ValidationError,
                   _group_inverses, element_action, flatten_key, group_algebra, group_exponent,
                   left_mult_matrix_tensor, subhopf_comodule, unflatten_key)
from .linalg import (LinAlgError, Matrix, differing_columns, differing_entries, flatten,
                     identity_residual, inverse, kron, kron_sum, mul_id_kron, rank,
                     sparse_cols, sparse_solve, unflatten)
from .monomial import (
    MonomialHopfSpec,
    coset_data,
    group_sub_embedding,
    make_monomial_hopf,
    make_monomial_comodule,
    make_t_module,
    monomial_sub_embedding,
    sub_table,
    verify_coset_basis,
)
from .rep import (
    ModuleRep,
    SubHopfEmbedding,
    _expand_orbits,
    _orbit_reduction,
    _substitute,
    character_module,
    dual_module,
    hom_space,
    induce,
    intertwiner_basis,
    intertwiner_coords,
    regular_module,
    restrict_module,
    tensor_action,
    tensor_reps,
    trivial_module,
)
from .report import CheckReport
from .scalar import Cyclo, format_scalar, lcm

# comod's algorithms and the twist layer load in the functions that run them
if TYPE_CHECKING:
    from .twist import GaugeElement, TwistElement


class PipelineError(RuntimeError):
    """The constructive hypothesis failed on a concrete instance."""


# -- the engine ----------------------------------------------------------------


class AdjunctionEngine:
    """xi and its inverse for a concrete dynamical datum.

    Parameters: the Hopf algebra ``h``; the twist base as a Hopf-subalgebra
    embedding ``embed_b`` (a group algebra kB for the monomial family); the
    comodule algebra ``k``; ``t_functor`` mapping A-modules to K-modules;
    ``station(v)`` giving the slice maps (p_V, i_V), p_V: T(V) -> V and
    i_V: V -> T(V), so that the station of Theta: T(V) -> T(W) is
    p_W Theta i_V; and an optional one-dimensional H-module
    ``h_character_module`` that joins the certification batteries.
    """

    def __init__(self, h: HopfAlgebraData, embed_b: SubHopfEmbedding,
                 k: ComoduleAlgebraData, t_functor, station,
                 h_character_module: ModuleRep | None = None):
        self.h = h
        self.embed_b = embed_b
        self.kb = embed_b.small
        self.k = k
        self.t_functor = t_functor
        self.station = station
        self.h_character_module = h_character_module
        self.order = h.order
        self._t_cache: list[tuple[ModuleRep, ModuleRep]] = []
        self._xi_memo: dict = {}
        self._slice_units: dict[int, list[Matrix]] = {}  # E_sk by number of slices
        # built once, so T of each is computed once through the cache
        self.triv_h = trivial_module(h, name="triv_H")
        self.triv_a = trivial_module(self.kb, name="triv_A")
        self.h_reg = regular_module(h.alg, name="H_reg")
        self.a_reg = regular_module(self.kb.alg, name="A_reg")

    # T with caching by module identity (strong refs keep id() stable)
    def t(self, v: ModuleRep) -> ModuleRep:
        for held, tv in self._t_cache:
            if held is v:
                return tv
        tv = self.t_functor(v)
        self._t_cache.append((v, tv))
        return tv

    def restrict(self, x: ModuleRep) -> ModuleRep:
        return restrict_module(self.embed_b, x)

    def a_tensor(self, v: ModuleRep, w: ModuleRep) -> ModuleRep:
        return tensor_reps(self.kb, v, w)

    # -- forward xi -------------------------------------------------------

    def xi_forward(self, x: ModuleRep, v: ModuleRep, w: ModuleRep,
                   f: Matrix) -> Matrix:
        """xi(f) = p_W f (id_X (x) i_V); output dim W x (dim X * dim V)."""
        return self.station(w)[0] * mul_id_kron(f, x.dim, self.station(v)[1])

    # -- inverse xi by exact solve -----------------------------------------

    def xi_inverse(self, x: ModuleRep, v: ModuleRep, w: ModuleRep,
                   fprime: Matrix) -> Matrix:
        """Unique K-linear f with xi(f) = fprime; unique solvability certified.

        The unknowns are the entries of f: X (x) T(V) -> T(W), subject to
        f S(g) = T(g) f for every generator g of K and to the station.  The
        generators acting monomially on both sides are substituted away
        exactly (``_orbit_reduction``); the rest is solved over the orbits,
        and the expanded f is re-checked against every generator and the
        station before it is returned.

        The system is built from x's action, T(V)'s and T(W)'s, the slice
        maps p_W and i_V, and fprime (k and the order are fixed per engine),
        so the solution is memoised under exactly those inputs: an identical
        system returns the result of its one solve, and a failed solve stores
        nothing.
        """
        tv, tw = self.t(v), self.t(w)
        p_w, i_v = self.station(w)[0], self.station(v)[1]
        key = (tuple(x.action), tuple(tv.action), tuple(tw.action), p_w, i_v, fprime)
        f = self._xi_memo.get(key)
        if f is not None:
            return f
        order = self.order
        source = tensor_action(self.k, x, tv)
        sdim = source.dim
        pairs = [(source.action[g], tw.action[g]) for g in self.k.alg.generating_set()]
        orbit, ncols, rows = _orbit_reduction(pairs, tw.dim, sdim)
        rhs: dict = {}
        # station: entry (w, v) of p_W f(x_i (x) -) i_V is fprime(x_i (x) v) at w;
        # an entry 1 of i_V reuses p, so the rows share the weights, not copies
        i_cols = sparse_cols(i_v)
        for xi in range(x.dim):
            for wt in range(w.dim):
                for vi, i_col in enumerate(i_cols):
                    row = {}
                    for r, p in p_w.row(wt).items():
                        for c, i in i_col.items():
                            _substitute(row, orbit[r * sdim + xi * tv.dim + c],
                                        p if i.is_one() else p * i)
                    val = fprime.row(wt).get(xi * v.dim + vi)
                    if val is not None:
                        rhs[len(rows)] = val
                    rows.append(row)
        try:
            sol = sparse_solve(rows, [rhs], ncols, order, require_unique=True)[0]
        except LinAlgError as exc:
            raise PipelineError(
                "xi is not uniquely invertible on (%s, %s, %s): %s"
                % (x.name, v.name, w.name, exc)) from exc
        f = unflatten(_expand_orbits(orbit, sol), tw.dim, sdim, order)
        bad = sum(differing_entries(f * s_g, t_g * f) for s_g, t_g in pairs)
        bad += differing_entries(self.xi_forward(x, v, w, f), fprime)
        if bad:
            raise PipelineError(
                "xi^-1 certificate failed on (%s, %s, %s): %d nonzero residuals"
                % (x.name, v.name, w.name, bad))
        self._xi_memo[key] = f
        return f

    def xi_inverse_id(self, x: ModuleRep, m: ModuleRep) -> tuple[Matrix, ModuleRep]:
        """xi^-1(id) on (X, M): the map X (x) T(M) -> T(R(X) (x) M)."""
        n = self.a_tensor(self.restrict(x), m)
        ident = Matrix.identity(x.dim * m.dim, self.order)
        return self.xi_inverse(x, m, n, ident), n

    # -- element form of xi^-1(id) ----------------------------------------

    def obstruction_element(self):
        """The natural family xi^-1(id) as an element of H (x) End(slices) (x) A.

        Solved once on regular modules; naturality makes it multiplication by
        an element, which is certified against xi^-1(id) solved on small
        non-regular instances.  The slice leg is keyed s * nslices + k for
        the matrix unit E_sk, which sends slice k of T(M) to slice s of
        T(R(X) (x) M).
        """
        h_reg, a_reg = self.h_reg, self.a_reg
        f, _ = self.xi_inverse_id(h_reg, a_reg)
        nslices = self.t(a_reg).dim // a_reg.dim
        u_h, u_a = _unit_index(self.h.alg), _unit_index(self.kb.alg)
        # rows (s, h, a) of T(R(H) (x) A); columns (h, k, a) of H (x) T(A)
        row_dims = (nslices, self.h.dim, self.kb.dim)
        col_dims = (self.h.dim, nslices, self.kb.dim)
        xi_elem: dict = {}
        for k in range(nslices):
            for r, c in f.col(flatten_key((u_h, k, u_a), col_dims)).items():
                s, hh, aa = unflatten_key(r, row_dims)
                xi_elem[(hh, s * nslices + k, aa)] = c
        rebuilt = self.contract_obstruction(xi_elem, h_reg, a_reg)
        if rebuilt != f:
            raise PipelineError(
                "xi^-1(id) is not multiplication by an element on regulars")
        for x, m in self._certification_pairs():
            direct, _ = self.xi_inverse_id(x, m)
            if self.contract_obstruction(xi_elem, x, m) != direct:
                raise PipelineError(
                    "element certificate failed on (%s, %s)" % (x.name, m.name))
        return xi_elem, nslices

    def contract_obstruction(self, xi_elem: dict, x: ModuleRep,
                             m: ModuleRep) -> Matrix:
        """Apply the element: x (x) v_k (x) m -> sum v_s (x) h.x (x) a.m."""
        order = self.order
        nslices = self.t(m).dim // m.dim
        units = self._slice_units.get(nslices)
        if units is None:
            units = self._slice_units[nslices] = [
                _matrix_unit(nslices, nslices, s, k, order)
                for s in range(nslices) for k in range(nslices)]
        act = element_action(xi_elem, [x.action, units, m.action], order)
        # rows (x, s, m) -> (s, x, m): T(R(X) (x) M) keeps its slice leg in front
        rows = [act.row((xo * nslices + s) * m.dim + mo)
                for s in range(nslices) for xo in range(x.dim) for mo in range(m.dim)]
        return Matrix(act.rows, act.cols, rows, order)

    def _certification_pairs(self):
        pairs = [(self.triv_h, self.triv_a), (self.triv_h, self.a_reg)]
        if self.h_character_module is not None:
            pairs.append((self.h_character_module, self.a_reg))
        return pairs

    # -- the twist ----------------------------------------------------------

    def compute_i(self, x: ModuleRep, y: ModuleRep, m: ModuleRep,
                  xi_elem=None) -> Matrix:
        """I_{X,Y,M} = xi( xi^-1(id)_{X, RY (x) M} o (id_X (x) xi^-1(id)_{Y,M}) )."""
        if xi_elem is None:
            f_y, n_y = self.xi_inverse_id(y, m)
            f_x, _ = self.xi_inverse_id(x, n_y)
        else:
            n_y = self.a_tensor(self.restrict(y), m)
            f_y = self.contract_obstruction(xi_elem, y, m)
            f_x = self.contract_obstruction(xi_elem, x, n_y)
        # forward xi on (X (x) Y, M): p_out f_x (id_X (x) f_y) (id_XY (x) i_M), with
        # the slice maps taken in first so the composite is never formed
        n_out = self.a_tensor(self.a_tensor(self.restrict(x), self.restrict(y)), m)
        f_y_i = mul_id_kron(f_y, y.dim, self.station(m)[1])
        return mul_id_kron(self.station(n_out)[0] * f_x, x.dim, f_y_i)

    def s_base(self) -> ComoduleAlgebraData:
        return subhopf_comodule(self.embed_b, name="A_base")

    def extract_twist(self) -> tuple[TwistElement, CheckReport]:
        from .twist import TwistElement, invert_element, verify_twist
        report = CheckReport("twist extraction")
        xi_elem, _ = self.obstruction_element()
        i_mat = self.compute_i(self.h_reg, self.h_reg, self.a_reg, xi_elem=xi_elem)
        legs = [self.h.alg, self.h.alg, self.kb.alg]
        # I from xi^-1(id) solves on the battery modules, not from the element
        e_elem = _certified_element(
            legs, i_mat, self._extraction_battery(), self.compute_i, report,
            ("I on regulars is left multiplication by an element",
             "element reproduces I on independent modules"), "extraction")
        # i_mat is certified to be the left multiplication by e_elem
        j_elem = invert_element(legs, e_elem, i_mat)
        twist = TwistElement(self.h, self.s_base(), j_elem, inverse=e_elem)
        tw_report = verify_twist(twist)
        report.merge(tw_report, prefix="verify: ")
        return twist, report

    def _extraction_battery(self):
        triv_h, triv_a, h_reg, a_reg = self.triv_h, self.triv_a, self.h_reg, self.a_reg
        battery = [
            (triv_h, triv_h, triv_a),
            (h_reg, triv_h, a_reg),
            (triv_h, h_reg, a_reg),
        ]
        if self.h_character_module is not None:
            battery.append((self.h_character_module, h_reg, triv_a))
        return battery

    # -- contract validation -------------------------------------------------

    def validate(self) -> CheckReport:
        """Certify the xi contract: normalisation, naturality, bijectivity."""
        report = CheckReport("adjunction contract")
        triv_a, a_reg = self.triv_a, self.a_reg
        # req1: station(id_T(M)) = p_M i_M = id_M, which is xi(l_{T(M)}) = l'_M
        bad = sum(1 for p_m, i_m in map(self.station, (triv_a, a_reg))
                  if identity_residual(p_m * i_m))
        report.add("normalisation xi(id_T(M)) = id_M", bad == 0, bad)
        # naturality and bijectivity on a small instance
        pairs = [(self.triv_h, triv_a, triv_a), (self.h_reg, triv_a, a_reg)]
        bad_nat = 0
        bad_bij = 0
        for x, v, w in pairs:
            nat, bij = self._check_instance(x, v, w)
            bad_nat += nat
            bad_bij += bij
        report.add("naturality of xi on sample instances", bad_nat == 0, bad_nat)
        report.add("xi bijective on sample instances", bad_bij == 0, bad_bij)
        return report

    def _check_instance(self, x, v, w) -> tuple[int, int]:
        """(non-A-linear images, dimension gap + rank deficit of xi) on one instance."""
        tv, tw = self.t(v), self.t(w)
        source = tensor_action(self.k, x, tv)
        hk = hom_space(source, tw).basis
        target_src = self.a_tensor(self.restrict(x), v)
        ha = hom_space(target_src, w).basis
        images = [self.xi_forward(x, v, w, f) for f in hk]
        deficit = len(hk) - rank(Matrix.from_cols([flatten(m) for m in images],
                                                  w.dim * x.dim * v.dim, self.order))
        # outputs are A-linear
        bad_nat = 0
        for img in images:
            for g in self.kb.alg.generating_set():
                if img * target_src.action[g] != w.action[g] * img:
                    bad_nat += 1
        # natxi3: precomposition with an H-morphism commutes (x-pointwise by
        # construction); exercised through the element certificate instead.
        return bad_nat, abs(len(hk) - len(ha)) + deficit


def _unit_index(alg) -> int:
    unit = alg.unit
    if len(unit) != 1:
        raise StructureError("unit is not a basis element")
    (idx, c), = unit.items()
    if not c.is_one():
        raise StructureError("unit basis coefficient is not 1")
    return idx


def _matrix_unit(rows: int, cols: int, r: int, c: int, order: int) -> Matrix:
    """The rows x cols matrix E_rc, with one 1 at (r, c)."""
    return Matrix(rows, cols, [{c: Cyclo.one(order)} if i == r else {} for i in range(rows)],
                  order)


def _certified_element(legs, reg_map: Matrix, battery, direct, report: CheckReport,
                       checks: tuple[str, str], what: str) -> dict:
    """The element of the tensor algebra of ``legs`` whose action is reg_map, certified.

    reg_map is the map on the regular modules; the element is its column at
    the unit.  It must act as reg_map (left multiplication) and as
    ``direct(*modules)`` on every module tuple of the battery; the two
    residuals are added to the report under ``checks``, and a nonzero one
    raises PipelineError.
    """
    order = reg_map.order
    dims = [alg.dim for alg in legs]
    col = flatten_key([_unit_index(alg) for alg in legs], dims)
    elem = {unflatten_key(r, dims): c for r, c in reg_map.col(col).items()}
    bad = differing_entries(left_mult_matrix_tensor(legs, elem, order), reg_map)
    report.add(checks[0], bad == 0, bad)
    if bad:
        raise PipelineError("%s certificate failed on regulars" % what)
    bad = sum(1 for mods in battery
              if direct(*mods) != element_action(elem, [mod.action for mod in mods], order))
    report.add(checks[1], bad == 0, bad)
    if bad:
        raise PipelineError("%s certificate failed on battery" % what)
    return elem


# -- the monomial-family datum ---------------------------------------------------


STATION_WEIGHT_FAMILIES = (
    lambda n: [1] * n,
    lambda n: [2 ** s for s in range(n)],
    lambda n: [1] + [-1 if s % 2 else 1 for s in range(1, n)],
    lambda n: [3 ** s for s in range(n)],
)


class DatumSpec:
    """JSON-facing description of a monomial-family dynamical datum."""

    def __init__(self, table: list[list[int]], chi: list[Cyclo], g: int, n: int,
                 f_indices: list[int], b_indices: list[int], mu: Cyclo):
        self.table = table
        self.chi = chi
        self.g = g
        self.n = n
        self.f_indices = f_indices
        self.b_indices = b_indices
        self.mu = mu

    def __eq__(self, other):
        return isinstance(other, DatumSpec) and vars(self) == vars(other)


class MonomialDatum:
    """The dynamical datum (K, T) of the monomial family, fully assembled."""

    def __init__(self, spec: DatumSpec, order: int | None = None):
        if order is None:
            order = lcm(group_exponent(spec.table), spec.n, spec.mu.order)
        self.order = order
        self.spec = spec
        hopf_spec = MonomialHopfSpec(
            table=spec.table,
            chi=[c.embed(order) for c in spec.chi],
            g=spec.g,
            n=spec.n,
        )
        hopf_spec.validate()
        # F, B and g are checked before anything of size |G| n is built
        self.cosets = coset_data(spec.table, spec.f_indices, spec.b_indices,
                                 spec.g, spec.n)
        self.hopf_spec = hopf_spec
        self.h = make_monomial_hopf(hopf_spec, order)
        self.k = make_monomial_comodule(hopf_spec, spec.f_indices, spec.mu, self.h)
        f_sorted = sorted(spec.f_indices)
        f_spec = MonomialHopfSpec(
            table=sub_table(spec.table, f_sorted),
            chi=[hopf_spec.chi[i] for i in f_sorted],
            g=f_sorted.index(spec.g),
            n=spec.n,
        )
        self.hf = make_monomial_hopf(f_spec, order, name="H_F")
        self.embed_f = monomial_sub_embedding(self.h, hopf_spec, self.hf,
                                              spec.f_indices)
        self.kb = group_algebra(sub_table(spec.table, spec.b_indices), order,
                                name="kB")
        self.embed_b = group_sub_embedding(self.h, hopf_spec, self.kb,
                                           spec.b_indices)
        if not verify_coset_basis(self.h, hopf_spec, self.cosets, spec.b_indices):
            raise ValidationError("coset products do not span the Hopf algebra")
        self.mu = spec.mu.embed(order)
        self.engine = AdjunctionEngine(
            self.h, self.embed_b, self.k,
            t_functor=self._t_functor,
            station=self._station,
            h_character_module=self._h_character_module(),
        )
        self.weights = self._select_weights()
        self._galois_f = None

    def _t_functor(self, v: ModuleRep) -> ModuleRep:
        return make_t_module(self.hopf_spec, self.k, self.spec.f_indices,
                             self.spec.b_indices, self.cosets, self.mu, v)

    @property
    def galois_f(self):
        """Galois data of K over the monomial subalgebra on F (cached)."""
        if self._galois_f is None:
            from .comod import canonical_map, coinvariants, corestrict_coaction
            k_over_f = corestrict_coaction(self.k, self.embed_f)
            self._galois_f = canonical_map(k_over_f, coinvariants(k_over_f))
            if not self._galois_f.bijective:
                raise PipelineError("K is not Galois over the F-subalgebra")
        return self._galois_f

    def _select_weights(self) -> list[Cyclo]:
        """The first weight family whose station makes xi^-1(id) uniquely
        solvable on (H_reg, A_reg); the engine's memo keeps that solution.

        Every family has weight 1 at slice 0 and no zero weight, so one test
        decides admissibility for all of them: chi(b)^s = 1 for b in B, s < n,
        which for n >= 2 is chi(b) = 1 on B.  A rejection names the first b
        of B that fails it.
        """
        n = self.spec.n
        chi = self.hopf_spec.chi
        bad = next((b for b in self.spec.b_indices
                    if not all((chi[b] ** s).is_one() for s in range(n))), None)
        if bad is not None:
            raise PipelineError(
                "no admissible station weights found: this realisation needs chi(b) = 1 "
                "for every b in B, and chi is nontrivial on B: chi(b) = %s != 1 at the "
                "group element b = %d" % (format_scalar(chi[bad]), bad))
        for family in STATION_WEIGHT_FAMILIES:
            # the station reads them when called
            self.weights = [Cyclo.from_rational(r, self.order) for r in family(n)]
            try:
                self.engine.xi_inverse_id(self.engine.h_reg, self.engine.a_reg)
            except PipelineError:
                continue
            return self.weights
        raise PipelineError("no station weight family makes xi^-1(id) uniquely "
                            "solvable on (H_reg, A_reg)")

    def _station(self, v: ModuleRep) -> tuple[Matrix, Matrix]:
        """The slice maps of T(V) = k^n (x) V: p_V = (c_0 ... c_(n-1)) (x) id_V sums
        the slices with the weights, and i_V = e_0 (x) id_V puts V into slice 0."""
        n, order = self.spec.n, self.order
        id_v = Matrix.identity(v.dim, order)
        weights = Matrix(1, n, [dict(enumerate(self.weights))], order)
        return kron(weights, id_v), kron(_matrix_unit(n, 1, 0, 0, order), id_v)

    def _h_character_module(self):
        values = []
        chi = self.hopf_spec.chi
        n = self.spec.n
        for h in range(len(self.spec.table)):
            for i in range(n):
                values.append(chi[h] if i == 0 else Cyclo.zero(self.order))
        try:
            return character_module(self.h, values, name="chi_H")
        except StructureError:
            return None

    # -- public pipeline entry points -------------------------------------

    def validate_datum(self, check_simplicity: bool = True) -> CheckReport:
        from .comod import coinvariants, is_h_simple
        report = CheckReport("dynamical datum")
        report.merge(self.k.verify(), prefix="K: ")
        c = coinvariants(self.k)
        report.add("K has trivial coinvariants", c.dim == 1,
                   0 if c.dim == 1 else c.dim)
        if check_simplicity:
            report.add_status("K is H-simple", is_h_simple(self.k).status)
        bad = 0
        for v in (self.engine.triv_a, self.engine.a_reg):
            tv = self.engine.t(v)
            if self.kb.dim * tv.dim ** 2 != self.k.dim * v.dim ** 2:
                bad += 1
        report.add("dimension identity dim A (dim T V)^2 = dim K (dim V)^2",
                   bad == 0, bad)
        report.merge(self.engine.validate(), prefix="xi: ")
        report.merge(self.omega_normalisation(), prefix="omega: ")
        return report

    def omega_normalisation(self) -> CheckReport:
        """req12 on omega: the stabilizer unit maps to eps(h) <f, v>.

        omega is assembled as theta-tilde after the station, so its value on
        the class of h (x) v (x) f at the unit u(t (x) w) = eps(t) w is
        <f, station(eps(S^-1 h) id_T(V))(v)> = eps(S^-1 h) (p_V i_V)[f, v], since
        the station is linear.  eps S = eps in every Hopf algebra and S is
        bijective here, so eps S^-1 = eps, and the check compares the row eps (x)
        vec(p_V i_V)^T with eps (x) vec(id_V) on the induced module's basis
        through the quotient section, and counts the basis vectors where they
        differ, V in {trivial, regular}.
        """
        report = CheckReport("omega normalisation")
        order = self.order
        eps = self.h.counit_row()
        for v in (self.engine.triv_a, self.engine.a_reg):
            sec = induce(self.embed_b, tensor_reps(self.kb, v, dual_module(self.kb, v)))[2]
            p_v, i_v = self._station(v)
            # vec(p_V i_V)^T and vec(id_V) as rows on V (x) V*, (v, f) -> v dim V + f
            station_row = Matrix(1, v.dim ** 2, [flatten((p_v * i_v).transpose())], order)
            id_row = Matrix(1, v.dim ** 2, [flatten(Matrix.identity(v.dim, order))], order)
            bad = len(differing_columns(kron(eps, station_row) * sec,
                                        kron(eps, id_row) * sec))
            report.add("req12 normalisation (V = %s)" % v.name, bad == 0, bad)
        return report

    def compute_twist(self):
        return self.engine.extract_twist()


# -- generic Galois datum ---------------------------------------------------------


def generic_galois_datum(embed_a: SubHopfEmbedding, k: ComoduleAlgebraData,
                         t_functor, station,
                         check_simplicity: bool = True):
    """Datum from an A-Galois comodule algebra with supplied Hom-isomorphisms.

    ``station(v)`` must return slice maps (p_V, i_V), p_V: T(V) -> V and
    i_V: V -> T(V), such that Theta -> p_W Theta i_V is an isomorphism from
    Hom(T(V), T(W)) (carrying the gamma-twisted A-action) to Hom(V, W)
    (standard A-action); this forces dim T(V) = dim V.  The chain through
    the Galois transport then realises the stabilizers as duals of induced
    modules, and the returned engine computes twists the same way as the
    monomial family.  Returns (engine, report); a non-A-linear iso is
    rejected with the exact residual count.
    """
    from .comod import canonical_map, coinvariants, corestrict_coaction, is_h_simple
    from .stab import galois_twisted_action

    report = CheckReport("generic Galois datum")
    h = embed_a.big
    a = embed_a.small
    k_over_a = corestrict_coaction(k, embed_a)
    r = coinvariants(k_over_a)
    report.add("coinvariants K^coA trivial", r.dim == 1,
               0 if r.dim == 1 else r.dim)
    gal = canonical_map(k_over_a, r)
    report.add("can bijective", gal.bijective, gal.can_deficit)
    if not gal.bijective:
        raise PipelineError("K is not A-Galois")
    c_h = coinvariants(k)
    report.add("coinvariants K^coH trivial", c_h.dim == 1,
               0 if c_h.dim == 1 else c_h.dim)
    if check_simplicity:
        report.add_status("K is H-simple", is_h_simple(k).status)

    engine = AdjunctionEngine(h, embed_a, k, t_functor, station)

    # supplied isos must be A-linear: gamma-twisted source, standard target
    gens = a.alg.generating_set()
    bad = 0
    v_samples = [engine.triv_a, engine.a_reg]
    for v in v_samples:
        for w in v_samples:
            tv, tw = engine.t(v), engine.t(w)
            # the iso on flattened Hom spaces: p_W Theta i_V, row-major
            eta = kron(station(w)[0], station(v)[1].transpose())
            for g in gens:
                src = galois_twisted_action(gal, tv, tw, g)
                tgt = _standard_hom_action(a, v, w, g)
                if eta * src != tgt * eta:
                    bad += 1
    report.add("supplied isomorphisms are A-linear", bad == 0, bad)
    if bad:
        raise PipelineError("supplied isomorphism family is not A-linear")
    report.merge(engine.validate(), prefix="xi: ")
    if not report.ok:
        raise PipelineError("generic datum validation failed")
    return engine, report


def _standard_hom_action(a: HopfAlgebraData, v: ModuleRep, w: ModuleRep,
                         gen: int) -> Matrix:
    """(a.T)(x) = a_1 . T(S(a_2) x) on flattened Hom(V, W), row-major."""
    one = Cyclo.one(a.order)
    dim = w.dim * v.dim
    return kron_sum(((c, w.action[i], v.act_matrix(a.antipode_of({j: one})).transpose())
                     for (i, j), c in a.comult[gen].items()), dim, dim, a.order)


# -- gauge extraction -----------------------------------------------------------


def gauge_from_equivalence(datum: MonomialDatum, datum2: MonomialDatum,
                           phi_of) -> tuple[GaugeElement, CheckReport]:
    """Gauge element between the twists of two data sharing K.

    ``phi_of(v)`` returns the K-module isomorphism T(V) -> T'(V); naturality
    and K-linearity are verified on the modules actually used.  The element is
    extracted on regular modules, certified on a battery, and inverted: the
    inverse gauges J_T into J_T'.
    """
    from .twist import GaugeElement, invert_element
    report = CheckReport("gauge extraction")
    eng, eng2 = datum.engine, datum2.engine
    h_reg, a_reg, triv_a, triv_h = eng.h_reg, eng.a_reg, eng.triv_a, eng.triv_h

    bad = 0
    for v in (triv_a, a_reg):
        t1, t2 = eng.t(v), eng2.t(v)
        phi = phi_of(v)
        for g in datum.k.alg.generating_set():
            if phi * t1.action[g] != t2.action[g] * phi:
                bad += 1
    report.add("phi_V is K-linear", bad == 0, bad)
    if bad:
        raise PipelineError("supplied equivalence is not K-linear")

    def t_map(x: ModuleRep, v: ModuleRep) -> Matrix:
        """t_{X,V} = zeta(sigma_{X,V}) with sigma = phi . xi^-1(id) . (id (x) phi^-1)."""
        f, n_mod = eng.xi_inverse_id(x, v)
        phi_out = phi_of(n_mod)
        phi_in = phi_of(v)
        sigma = mul_id_kron(phi_out * f, x.dim, inverse(phi_in))
        return eng2.xi_forward(x, v, n_mod, sigma)

    legs = [datum.h.alg, datum.kb.alg]
    t_reg = t_map(h_reg, a_reg)
    t_elem = _certified_element(
        legs, t_reg, ((triv_h, triv_a), (triv_h, a_reg), (h_reg, triv_a)),
        t_map, report,
        ("t is left multiplication by an element",
         "element reproduces t on independent modules"), "gauge extraction")
    # t_reg is certified to be the left multiplication by t_elem
    gauge = GaugeElement(datum.h, eng.s_base(), invert_element(legs, t_elem, t_reg))
    return gauge, report


# -- the coset-representative maps between the two Hom spaces --------------------


def phi_psi(datum: MonomialDatum, v: ModuleRep, w: ModuleRep) -> dict:
    """The mutually inverse maps between Hom_kB(H, Hom(V,W)) and
    Hom_{A(F)}(H, Hom(T(V),T(W))).

    phi is given on coset representatives by value slices at the elements
    g^s x^k c_l and extended A(F)-linearly through the Galois-twisted action;
    psi extracts the (j, i) slice of the value at c_l and extends
    kB-linearly.  Both are computed as matrices with respect to intertwiner
    bases of the two constrained spaces; membership of each image in the
    target space and both compositions are verified exactly.
    """
    from .stab import galois_twisted_action

    eng = datum.engine
    h = datum.h
    order = datum.order
    one = Cyclo.one(order)
    n = datum.spec.n
    table = datum.spec.table
    chi = datum.hopf_spec.chi
    cosets = datum.cosets
    tv, tw = eng.t(v), eng.t(w)
    gal = datum.galois_f
    report = CheckReport("phi/psi")

    # constrained spaces as intertwiner bases
    cb_gens = datum.kb.alg.generating_set()
    cb_src = [h.alg.left_mult_matrix(datum.embed_b.embed_elem({g: one}))
              for g in cb_gens]
    cb_tgt = [_standard_hom_action(datum.kb, v, w, g) for g in cb_gens]
    homcb = intertwiner_basis(cb_src, cb_tgt, w.dim * v.dim, h.dim, order)

    af_gens = datum.hf.alg.generating_set()
    af_src = [h.alg.left_mult_matrix(datum.embed_f.embed_elem({g: one}))
              for g in af_gens]
    af_tgt = [galois_twisted_action(gal, tv, tw, g) for g in af_gens]
    homaf = intertwiner_basis(af_src, af_tgt, tw.dim * tv.dim, h.dim, order)
    bad = abs(len(homcb) - len(homaf))
    report.add("spaces have equal dimension (%d vs %d)" % (len(homcb), len(homaf)),
               bad == 0, bad)

    # twisted action of every A(F) basis element on flattened Hom(TV, TW)
    f_sorted = sorted(datum.spec.f_indices)
    af_action = {}
    for p, fh in enumerate(f_sorted):
        for i in range(n):
            af_action[(fh, i)] = galois_twisted_action(gal, tv, tw, p * n + i)
    # decomposition data of every H basis element h x^i = chi^-i(c_l) (f x^i) c_l
    decomp = []
    inverses = _group_inverses(table)
    for hh in range(len(table)):
        l = next(li for li, c in enumerate(cosets.reps)
                 if hh in {table[f][c] for f in f_sorted})
        c_l = cosets.reps[l]
        decomp.append((l, c_l, table[hh][inverses[c_l]]))

    def extend_af(values_at_reps):
        """Full matrix of the A(F)-linear map with the given values at c_l."""
        cols = {}
        for hh in range(len(table)):
            l, c_l, f_part = decomp[hh]
            for i in range(n):
                scale = (chi[c_l] ** i).inverse()
                acted = af_action[(f_part, i)].apply(values_at_reps[l])
                cols[hh * n + i] = {r: scale * x for r, x in acted.items()}
        ordered = [cols[j] for j in range(h.dim)]
        return Matrix.from_cols(ordered, tw.dim * tv.dim, order)

    # T(V) = k^n (x) V: E_sk (x) a puts a: V -> W at slice (s, k) of T(V) -> T(W),
    # and (e_j^T (x) id_W) Theta (e_i (x) id_V) reads slice (j, i) of Theta
    slice_out = [kron(_matrix_unit(1, n, 0, j, order), Matrix.identity(w.dim, order))
                 for j in range(n)]
    slice_in = [kron(_matrix_unit(n, 1, i, 0, order), Matrix.identity(v.dim, order))
                for i in range(n)]

    def phi_map(xi_mat: Matrix) -> Matrix:
        values = []
        for c_l in cosets.reps:
            # slice (s, k) is the value at g^s x^k c_l = chi^k(c_l) (g^s c_l) x^k
            terms = [(chi[c_l] ** kk, _matrix_unit(n, n, s, kk, order),
                      unflatten(xi_mat.col(table[gs][c_l] * n + kk), w.dim, v.dim, order))
                     for s, gs in enumerate(cosets.g_powers) for kk in range(n)]
            values.append(flatten(kron_sum(terms, tw.dim, tv.dim, order)))
        return extend_af(values)

    def extend_cb(values_at_jil):
        """Full matrix of the kB-linear map with values at g^j x^i c_l."""
        b_sorted = sorted(datum.spec.b_indices)
        cols = {}
        for hh in range(len(table)):
            l, c_l, f_part = decomp[hh]
            b = cosets.b_part[f_part]
            j = cosets.g_exponent[f_part]
            b_act = _standard_hom_action(datum.kb, v, w, b_sorted.index(b))
            for i in range(n):
                scale = (chi[c_l] ** i).inverse()
                acted = b_act.apply(values_at_jil[(j, i, l)])
                cols[hh * n + i] = {r: scale * x for r, x in acted.items()}
        ordered = [cols[j] for j in range(h.dim)]
        return Matrix.from_cols(ordered, w.dim * v.dim, order)

    def psi_map(alpha_mat: Matrix) -> Matrix:
        # the (j, i) slice of the value at c_l, for every j, i < n
        values = {}
        for l, c_l in enumerate(cosets.reps):
            theta = unflatten(alpha_mat.col(c_l * n), tw.dim, tv.dim, order)
            for j in range(n):
                for i in range(n):
                    values[(j, i, l)] = flatten(slice_out[j] * theta * slice_in[i])
        return extend_cb(values)

    phi, bad = intertwiner_coords(homaf, Matrix.from_cols(
        [flatten(phi_map(b)) for b in homcb], tw.dim * tv.dim * h.dim, order))
    report.add("phi image is A(F)-linear", bad == 0, bad)
    psi, bad = intertwiner_coords(homcb, Matrix.from_cols(
        [flatten(psi_map(b)) for b in homaf], w.dim * v.dim * h.dim, order))
    report.add("psi image is kB-linear", bad == 0, bad)
    bad = identity_residual(psi * phi)
    report.add("psi . phi = id", bad == 0, bad)
    bad = identity_residual(phi * psi)
    report.add("phi . psi = id", bad == 0, bad)
    return {"phi": phi, "psi": psi, "homcb": homcb, "homaf": homaf,
            "report": report}
