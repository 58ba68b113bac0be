"""Dynamical twist elements: verification, gauge checks, the twisted algebra.

A twist lives in H (x) H (x) S for a left H-comodule algebra S; elements of
tensor algebras are sparse dicts keyed by index tuples.  The three defining
equations are evaluated exactly as tensor identities with the sparse
tensor-element kernel of ``hopf`` (``tensor_mult``, ``split_leg`` and
friends); invertibility is decided through the left-regular matrix and the
inverse is verified two-sided.

An element acts on a tensor product of modules by ``element_action``, one
``linalg.kron_sum``; the left-regular matrix is that action on the regular
modules, and the module-level pentagon builds its four operators the same way.
So do the product of the twisted algebra B = H* (x) S and the displayed
inverse of its canonical map: element actions on H* (x) H* (x) S followed by
matrix products.
"""

from __future__ import annotations

from itertools import product

from .comod import ComoduleAlgebraData, canonical_map, coinvariants, verify_comodule_algebra
from .hopf import (AlgebraData, HopfAlgebraData, StructureError, add_into, apply_counit,
                   dual_hopf, insert_unit_leg, split_leg, tensor_map_matrix, tensor_mult,
                   unit_tensor)
from .linalg import (LinAlgError, Matrix, Subspace, differing_columns, differing_entries,
                     differing_keys, kron, kron_id_mul, kron_sum, pivot_coords, solve,
                     sparse_cols)
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

    The product and the displayed inverse of the canonical map are element
    actions and matrix products: H acts on H* by the hit matrices, the
    transposed right multiplications, and S on itself from the left.
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

    # column a of hits[j] is e_j -> alpha_a, with <h -> alpha, x> = <alpha, x h>
    hits = [h.alg.right_mult_matrix({j: one}).transpose() for j in range(hdim)]
    lefts = [s.alg.left_mult_matrix({k: one}) for k in range(sdim)]

    def bidx(a, k):
        return a * sdim + k

    # (alpha_a (x) k)(beta_b (x) s) = sum (x1 -> alpha_a)(x2 -> beta_b) (x) x3 s
    # over X_k = J (1 (x) delta(k)) = sum x1 (x) x2 (x) x3: X_k acting on
    # H* (x) H* (x) S, then m_H* (x) id, has it as column (a, b, s)
    m_dual = hdual.alg.mult_matrix()
    by_k = [sparse_cols(kron_id_mul(m_dual, sdim, element_action(
        tensor_mult(t.legs, t.coeffs, insert_unit_leg(h.alg, s.coaction[k], 0)),
        [hits, hits, lefts], order))) for k in range(sdim)]
    mult = [by_k[k][a * dim:(a + 1) * dim] for a, k in product(range(hdim), range(sdim))]
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
        formula.append(_can_inverse_formula(t, hdual, hits, lefts, proj))
        return formula[0]

    gal = canonical_map(b_op, Subspace.from_vectors(expected, dim, order), candidate)
    report.add("can bijective", gal.bijective, gal.can_deficit)
    if gal.bijective:
        bad = differing_entries(formula[0], gal.can_inverse)
        report.add("displayed can^-1 formula equals can^-1", bad == 0, bad)
    return (b_comod, gal), report


def _can_inverse_formula(t, hdual, hits, lefts, proj: Matrix) -> Matrix:
    """The closed-form can^-1(gamma (x) r (x) beta) from the twist inverse.

    The formula is stated for the right coaction on B; the canonical map of
    the flipped coaction on B^op swaps its source legs (x (x) y -> y (x) x) and
    its target legs ((b, beta) -> (beta, b)).  On the legs (beta, gamma, r) of
    H* (x) B it is ``split`` = (id (x) gs (x) id)(Delta_H* (x) id), with
    gs(beta_2 (x) gamma) = gamma S(beta_2); then J^-1 = sum j1 (x) j2 (x) j3
    acting as j2 (x) j1 (x) j3; then the placement (x, y, r) ->
    (x (x) r) (x) (y (x) 1) on the legs of B^op (x) B^op, and ``proj`` onto
    B (x)_S B.  The placement holds one entry per row, so ``proj`` times it
    is a relabelling.  The product runs from that end, and no factor is
    named, so each is freed once it is multiplied in.
    """
    h, s = t.h, t.s
    order = t.order
    hdim, sdim = h.dim, s.dim
    dim = hdim * sdim
    id_h = Matrix.identity(hdim, order)
    # the comodule is over H*cop, whose antipode is the inverse of H*'s
    gs = hdual.alg.opposite("H*^op").mult_matrix() * kron(hdual.antipode_inv, id_h)
    delta = tensor_map_matrix(hdual.comult, hdim, hdim, order)
    split = kron(kron(id_h, gs) * kron(delta, id_h), Matrix.identity(sdim, order))
    jinv = {(j2, j1, j3): c for (j1, j2, j3), c in t.ensure_inverse().items()}
    unit = s.alg.unit.items()
    legs = product(range(hdim), range(hdim), range(sdim))
    return (proj * Matrix.from_cols([{((x * sdim + r) * hdim + y) * sdim + u: c for u, c in unit}
                                     for x, y, r in legs], dim * dim, order)
            * element_action(jinv, [hits, hits, lefts], order) * split)


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
