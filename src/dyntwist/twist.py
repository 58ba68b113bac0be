"""Dynamical twist elements: verification, gauge checks, the twisted algebra.

A twist lives in H (x) H (x) S for a left H-comodule algebra S; elements of
tensor algebras are sparse dicts keyed by index tuples.  The three defining
equations are evaluated exactly as tensor identities with the sparse
tensor-element kernel of ``hopf`` (``tensor_mult``, ``split_leg`` and
friends), and so is the twisted product on H* (x) S; invertibility is decided
through the left-regular matrix and the inverse is verified two-sided.

An element acts on a tensor product of modules by ``element_action``, one
``linalg.kron_sum``; the left-regular matrix is that action on the regular
modules, and the module-level pentagon builds its four operators the same way.
"""

from __future__ import annotations


from .comod import ComoduleAlgebraData, canonical_map, coinvariants, verify_comodule_algebra
from .hopf import (AlgebraData, HopfAlgebraData, StructureError, add_into, apply_counit,
                   dual_hopf, insert_unit_leg, split_leg, tensor_mult, unit_tensor)
from .linalg import (LinAlgError, Matrix, Subspace, differing_columns, differing_entries,
                     differing_keys, kron_sum, pivot_coords, solve)
from .report import CheckReport
from .scalar import Cyclo


# -- flattened keys and element actions -------------------------------------


def flatten_key(key, dims) -> int:
    idx = 0
    for k, d in zip(key, dims):
        idx = idx * d + k
    return idx


def unflatten_key(idx, dims):
    out = []
    for d in reversed(dims):
        idx, r = divmod(idx, d)
        out.append(r)
    return tuple(reversed(out))


def element_action(elem: dict, actions, order: int) -> Matrix:
    """The action of an element of a tensor product of algebras on modules.

    ``actions`` holds one action-matrix list per leg (a module's ``action``);
    the result is sum c (actions_1[k_1] (x) ... (x) actions_n[k_n]) over the
    entries c of ``elem`` at (k_1, ..., k_n), legs flattened left-major.
    """
    rows = cols = 1
    for leg in actions:
        rows, cols = rows * leg[0].rows, cols * leg[0].cols
    return kron_sum(((c, *(leg[k] for leg, k in zip(actions, key))) for key, c in elem.items()),
                    rows, cols, order)


def left_mult_matrix_tensor(legs, elem: dict, order: int) -> Matrix:
    """Left multiplication by elem: its action on the left-regular module of every leg."""
    one = Cyclo.one(order)
    return element_action(elem, [[alg.left_mult_matrix({i: one}) for i in range(alg.dim)]
                                 for alg in legs], order)


# -- twist element -------------------------------------------------------------


class TwistElement:
    def __init__(self, h: HopfAlgebraData, s: ComoduleAlgebraData, coeffs: dict,
                 inverse: dict | None = None):
        self.h = h
        self.s = s
        self.coeffs = coeffs          # keys (i, j, k)
        self.inverse = inverse        # two-sided inverse in H (x) H (x) S

    @property
    def legs(self):
        return [self.h.alg, self.h.alg, self.s.alg]

    @property
    def order(self) -> int:
        return self.h.order

    @property
    def dynamical_support(self) -> list[int]:
        """The sorted S-basis indices that the third leg of J touches."""
        return sorted({k for _, _, k in self.coeffs})

    def ensure_inverse(self) -> dict:
        if self.inverse is None:
            lm = left_mult_matrix_tensor(self.legs, self.coeffs, self.order)
            self.inverse = invert_element(self.legs, self.coeffs, lm)
        return self.inverse


def two_sided(legs, elem: dict, inv: dict) -> bool:
    """elem inv = inv elem = 1 exactly."""
    unit = unit_tensor(legs)
    return tensor_mult(legs, inv, elem) == unit and tensor_mult(legs, elem, inv) == unit


def invert_element(legs, elem: dict, lm: Matrix) -> dict:
    """Two-sided inverse in a tensor product of algebras, verified.

    ``lm`` is the left multiplication by ``elem`` (``left_mult_matrix_tensor``,
    or a map already certified equal to it); the inverse is the solution of
    lm x = 1, accepted only when elem x = x elem = 1 exactly.
    """
    dims = [l.dim for l in legs]
    try:
        sol = solve(lm, {flatten_key(k, dims): c for k, c in unit_tensor(legs).items()},
                    require_unique=True)
    except LinAlgError as exc:
        raise StructureError("element is not invertible") from exc
    inv = {unflatten_key(i, dims): c for i, c in sol.items()}
    if not two_sided(legs, elem, inv):
        raise StructureError("inverse is not two-sided")
    return inv


class GaugeElement:
    def __init__(self, h: HopfAlgebraData, s: ComoduleAlgebraData, coeffs: dict):
        self.h = h
        self.s = s
        self.coeffs = coeffs          # keys (i, k) in H (x) S

    @property
    def legs(self):
        return [self.h.alg, self.s.alg]


def verify_twist(t: TwistElement) -> CheckReport:
    """Exact verification of the three dynamical twist equations + invertibility."""
    h, s = t.h, t.s
    legs3 = t.legs
    report = CheckReport("dynamical twist")
    try:
        t.ensure_inverse()
        report.add("invertible in H (x) H (x) S", True)
    except StructureError:
        report.add("invertible in H (x) H (x) S", False, 1)

    # base compatibility: J . (Delta x id)(delta(s)) = (Delta x id)(delta(s)) . J
    bad = 0
    for si in range(s.dim):
        sigma = split_leg(h.comult, s.coaction[si], 0)
        lhs = tensor_mult(legs3, t.coeffs, sigma)
        rhs = tensor_mult(legs3, sigma, t.coeffs)
        if lhs != rhs:
            bad += 1
    report.add("base-shift equation (per basis element of S)", bad == 0, bad)

    # shifted cocycle equation in H (x) H (x) H (x) S
    legs4 = [h.alg, h.alg, h.alg, s.alg]
    outer_l = split_leg(h.comult, t.coeffs, 0)
    inner_l = split_leg(s.coaction, t.coeffs, 2)
    lhs = tensor_mult(legs4, outer_l, inner_l)
    outer_r = split_leg(h.comult, t.coeffs, 1)
    inner_r = insert_unit_leg(h.alg, t.coeffs, 0)
    rhs = tensor_mult(legs4, outer_r, inner_r)
    bad = differing_keys(lhs, rhs)
    report.add("shifted two-cocycle equation", bad == 0, bad)

    # counit normalisations
    unit2 = unit_tensor([h.alg, s.alg])
    bad = differing_keys(apply_counit(h, t.coeffs, 0), unit2)
    report.add("(eps x id x id)J = 1 x 1", bad == 0, bad)
    bad = differing_keys(apply_counit(h, t.coeffs, 1), unit2)
    report.add("(id x eps x id)J = 1 x 1", bad == 0, bad)
    return report


def trivial_twist(h: HopfAlgebraData, s: ComoduleAlgebraData) -> TwistElement:
    legs = [h.alg, h.alg, s.alg]
    coeffs = unit_tensor(legs)
    return TwistElement(h, s, coeffs, inverse=dict(coeffs))


def gauge_check(t1: TwistElement, t2: TwistElement, g: GaugeElement) -> CheckReport:
    """Exact check that g gauges t1 into t2 (t2 quadratic in g on the right side)."""
    h, s = t1.h, t1.s
    report = CheckReport("gauge equivalence")
    legs3 = t1.legs
    # normalisation (eps x id) g = 1
    bad = differing_keys(apply_counit(h, g.coeffs, 0), unit_tensor([s.alg]))
    report.add("normalisation (eps x id)t = 1", bad == 0, bad)

    lhs = tensor_mult(legs3, split_leg(h.comult, g.coeffs, 0), t1.coeffs)
    rhs = tensor_mult(legs3, t2.coeffs, insert_unit_leg(h.alg, g.coeffs, 0))
    rhs = tensor_mult(legs3, rhs, split_leg(s.coaction, g.coeffs, 1))
    bad = differing_keys(lhs, rhs)
    report.add("gauge transformation identity", bad == 0, bad)
    return report


def gauge_transform(t1: TwistElement, g: GaugeElement) -> TwistElement:
    """The twist obtained by re-dressing t1 with the normalised invertible g.

    Solves the gauge identity for the new twist:
    J' = (Delta x id)(g) . J . ((1 x g) (id x delta)(g))^-1.
    The result is returned with its verified inverse; gauge_check(t1, out, g)
    holds by construction and verify_twist(out) is the caller's oracle.
    """
    h, s = t1.h, t1.s
    legs3 = t1.legs
    left = tensor_mult(legs3, split_leg(h.comult, g.coeffs, 0), t1.coeffs)
    right = tensor_mult(legs3, insert_unit_leg(h.alg, g.coeffs, 0),
                        split_leg(s.coaction, g.coeffs, 1))
    right_inv = invert_element(legs3, right, left_mult_matrix_tensor(legs3, right, t1.order))
    coeffs = tensor_mult(legs3, left, right_inv)
    return TwistElement(h, s, coeffs)


# -- the twisted algebra B = H* (x) S -----------------------------------------


def build_twisted_galois(t: TwistElement) -> tuple:
    """The algebra B = H* (x) S with the twist-deformed product.

    Verifies associativity and unit, then B's right H*cop coaction
    alpha (x) s -> alpha_2 (x) s (x) alpha_1 through comod's left-comodule
    code: flipped, it is the left coaction alpha (x) s -> alpha_1 (x) (alpha_2
    (x) s) over H*cop^cop = H*.  Checks the comodule-algebra axioms, that the
    coinvariants are exactly S, that the canonical map is bijective (on B^op,
    where the left canonical map is the flipped right one), and that the
    displayed closed-form inverse F of can is its inverse.  The product
    can * F = I certifies both at once; only when it fails is can inverted by
    elimination, and F compared with that inverse entry by entry.
    Returns ((B as a left H*-comodule algebra, Galois data of B^op), report).
    """
    h, s = t.h, t.s
    order = t.order
    one = Cyclo.one(order)
    hdual = dual_hopf(h)
    report = CheckReport("twisted algebra H* (x) S")
    hdim, sdim = h.dim, s.dim
    dim = hdim * sdim

    # hit_cols[j][a] = (e_j -> alpha_a) with <h -> alpha, x> = <alpha, x h>
    hit_cols = [[dict(m.row(a)) for a in range(hdim)]
                for m in (h.alg.right_mult_matrix({j: one}) for j in range(hdim))]
    dualmult = hdual.alg.mult

    def bidx(a, k):
        return a * sdim + k

    # (alpha_a (x) k)(beta_b (x) s) = sum (x1 -> alpha_a)(x2 -> beta_b) (x) x3 s
    # over X_k = J (1 (x) delta(k)) = sum J1 (x) J2 k_-1 (x) J3 k_0
    mult = [[dict() for _ in range(dim)] for _ in range(dim)]
    for k in range(sdim):
        xk = tensor_mult(t.legs, t.coeffs, insert_unit_leg(h.alg, s.coaction[k], 0))
        for a in range(hdim):
            for b in range(hdim):
                for ss in range(sdim):
                    acc: dict = {}
                    for (x1, x2, x3), cx in xk.items():
                        spart = s.alg.mult[x3][ss]
                        for a1, c1 in hit_cols[x1][a].items():
                            for b1, c2 in hit_cols[x2][b].items():
                                coeff = cx * c1 * c2
                                for prod_idx, cp in dualmult[a1][b1].items():
                                    for s_idx, cs in spart.items():
                                        add_into(acc, bidx(prod_idx, s_idx), coeff * cp * cs)
                    mult[bidx(a, k)][bidx(b, ss)] = acc
    counit_unit = {bidx(a, k): c for (a, k), c in unit_tensor([hdual.alg, s.alg]).items()}
    b_alg = AlgebraData(dim, mult, counit_unit, order, name="B")
    report.merge(b_alg.verify(), prefix="B: ")

    coaction = [dict() for _ in range(dim)]
    for a in range(hdim):
        for k in range(sdim):
            for (a1, a2), c in hdual.comult[a].items():
                add_into(coaction[bidx(a, k)], (a1, bidx(a2, k)), c)
    b_comod = ComoduleAlgebraData(b_alg, hdual, coaction, name="B")
    report.merge(verify_comodule_algebra(b_comod), prefix="B: ")

    # coinvariants = eps (x) S
    expected = [{bidx(a, k): h.counit[a] for a in range(hdim) if not h.counit[a].is_zero()}
                for k in range(sdim)]
    coinv = coinvariants(b_comod)
    bad = abs(coinv.dim - sdim) + pivot_coords(coinv.basis, coinv.pivots,
                                               Matrix.from_cols(expected, dim, order))[1]
    report.add("coinvariants equal S", bad == 0, bad)

    b_op = ComoduleAlgebraData(b_alg.opposite("B^op"), hdual, coaction, name="B^op")
    # the displayed can^-1 is the candidate inverse: can * F = I certifies it
    formula = []

    def candidate(proj):
        formula.append(_can_inverse_formula(t, hdual, hit_cols, proj))
        return formula[0]

    gal = canonical_map(b_op, Subspace.from_vectors(expected, dim, order), candidate)
    report.add("can bijective", gal.bijective, gal.can_deficit)
    if gal.bijective:
        bad = differing_entries(formula[0], gal.can_inverse)
        report.add("displayed can^-1 formula equals can^-1", bad == 0, bad)
    return (b_comod, gal), report


def _can_inverse_formula(t, hdual, hit_cols, proj: Matrix) -> Matrix:
    """The closed-form can^-1(gamma (x) r (x) beta) from the twist inverse.

    The formula is stated for the right coaction on B; the canonical map of
    the flipped coaction on B^op swaps its source legs (x (x) y -> y (x) x) and
    its target legs ((b, beta) -> (beta, b)).  The columns are projected to
    B (x)_S B by one product with ``proj``.
    """
    h, s = t.h, t.s
    order = t.order
    one = Cyclo.one(order)
    hdim, sdim = h.dim, s.dim
    dim = hdim * sdim
    jinv = t.ensure_inverse()
    # the comodule is over H*cop, whose antipode is the inverse transpose:
    # S(beta_b) is row b of h.antipode_inv
    cols = [None] * (hdim * dim)
    # basis of B (x) H*cop: (gamma a, r k, beta b)
    for k in range(sdim):
        # r_j3 r_k for each S-leg index j3 of J^-1
        sparts = {j3: s.alg.multiply({j3: one}, {k: one}) for j3 in {key[2] for key in jinv}}
        # the second B leg (e_j2 -> beta_b1) (x) r_j3 r_k as (flat offset, value)
        # pairs, by (j2, j3, b1)
        rights: dict = {}
        for a in range(hdim):
            for b in range(hdim):
                acc: dict = {}
                for (b1, b2), cb in hdual.comult[b].items():
                    # gamma . S(beta_2) in H*
                    gs = hdual.alg.multiply({a: one}, h.antipode_inv.row(b2))
                    # the first B leg cb (e_j1 -> gamma . S(beta_2)) (x) 1_S as
                    # (flat index, value) pairs, by j1
                    lefts: dict = {}
                    for (j1, j2, j3), cj in jinv.items():
                        left = lefts.get(j1)
                        if left is None:
                            hit: dict = {}
                            for gk, gc in gs.items():
                                for lk, lc in hit_cols[j1][gk].items():
                                    add_into(hit, lk, gc * lc)
                            left = lefts[j1] = [(lk * sdim + uk, cb * lc * uv)
                                                for lk, lc in hit.items()
                                                for uk, uv in s.alg.unit.items()]
                        right = rights.get((j2, j3, b1))
                        if right is None:
                            right = rights[j2, j3, b1] = [
                                ((rk * sdim + sk) * dim, rc * sc)
                                for rk, rc in hit_cols[j2][b1].items()
                                for sk, sc in sparts[j3].items()]
                        for bi, lv in left:
                            lv = cj * lv
                            for offset, rv in right:
                                add_into(acc, offset + bi, lv * rv)
                cols[b * dim + a * sdim + k] = acc
    return proj * Matrix.from_cols(cols, dim * dim, order)


# -- module-level pentagon ------------------------------------------------------


def twisted_pentagon_check(t: TwistElement, x, y, z, m) -> CheckReport:
    """Strict-associator pentagon for the module-level twist action.

    Checks J_{XY,Z,M} . J_{X,Y,Z(x)M} = J_{X,YZ,M} . (id_X (x) J_{Y,Z,M})
    exactly on X (x) Y (x) Z (x) M; the residual counts the basis vectors
    on which the two sides differ.
    """
    h, s = t.h, t.s
    order = t.order
    dim = x.dim * y.dim * z.dim * m.dim
    xs, ys, zs, ms = x.action, y.action, z.action, m.action
    coeffs = t.coeffs.items()
    # J_{X (x) Y, Z, M}
    op1 = kron_sum(((c * d, xs[a], ys[b], zs[j2], ms[j3]) for (j1, j2, j3), c in coeffs
                    for (a, b), d in h.comult[j1].items()), dim, dim, order)
    # J_{X, Y, Z (x) M}
    op2 = kron_sum(((c * d, xs[j1], ys[j2], zs[hi], ms[si]) for (j1, j2, j3), c in coeffs
                    for (hi, si), d in s.coaction[j3].items()), dim, dim, order)
    # J_{X, Y (x) Z, M}
    op3 = kron_sum(((c * d, xs[j1], ys[a], zs[b], ms[j3]) for (j1, j2, j3), c in coeffs
                    for (a, b), d in h.comult[j2].items()), dim, dim, order)
    # id_X (x) J_{Y, Z, M}
    id_x = Matrix.identity(x.dim, order)
    op4 = kron_sum(((c, id_x, ys[j1], zs[j2], ms[j3]) for (j1, j2, j3), c in coeffs),
                   dim, dim, order)
    bad = len(differing_columns(op1 * op2, op3 * op4))
    report = CheckReport("twisted pentagon")
    report.add("pentagon on X (x) Y (x) Z (x) M", bad == 0, bad)
    return report
