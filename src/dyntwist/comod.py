"""Left H-comodule algebras: coinvariants, costable ideals, Galois machinery.

H-simplicity is certified, never assumed: the certificate works in the
operator algebra generated by both multiplications and the coaction
components, whose submodules are exactly the H-costable two-sided ideals.
All field arithmetic is characteristic zero by construction (cyclotomic),
which the radical-by-trace-form criterion relies on.

The record ``ComoduleAlgebraData`` and ``subhopf_comodule`` are in ``hopf``,
so a command that only builds or reads comodule algebras does not load this
module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .hopf import (ComoduleAlgebraData, StructureError, add_into, apply_counit, split_leg,
                   tensor_map_failures, tensor_map_matrix, unit_tensor)
from .linalg import (
    Echelon,
    LinAlgError,
    Matrix,
    Subspace,
    balanced_relations,
    differing_entries,
    differing_keys,
    flatten,
    generated_words,
    identity_residual,
    inverse,
    kernel,
    kron,
    kron_sum,
    pivot_coords,
    quotient,
    rank,
    solve,
    sparse_cols,
    sparse_kernel_basis,
)
from .report import FAIL, INCONCLUSIVE, PASS, CheckReport
from .scalar import Cyclo, euler_phi

if TYPE_CHECKING:
    from .rep import SubHopfEmbedding


def verify_comodule_algebra(k: ComoduleAlgebraData) -> CheckReport:
    h = k.over
    report = CheckReport("comodule algebra %s" % k.name)
    one = Cyclo.one(k.order)

    bad = 0
    for j in range(k.dim):
        delta = k.coaction[j]
        if split_leg(h.comult, delta, 0) != split_leg(k.coaction, delta, 1):
            bad += 1
    report.add("coassociativity (Delta x id)delta = (id x delta)delta", bad == 0, bad)

    bad = 0
    for j in range(k.dim):
        if apply_counit(h, k.coaction[j], 0) != {(j,): one}:
            bad += 1
    report.add("counit law (eps x id)delta = id", bad == 0, bad)

    bad = tensor_map_failures(k.coaction, k.alg, h.alg, k.alg)
    report.add("coaction is an algebra map", bad == 0, bad)

    unit = {(u,): c for u, c in k.alg.unit.items()}
    bad = differing_keys(split_leg(k.coaction, unit, 0), unit_tensor([h.alg, k.alg]))
    report.add("delta(1) = 1 x 1", bad == 0, bad)
    return report


def coinvariants(k: ComoduleAlgebraData) -> Subspace:
    """{x in K : delta(x) = 1 (x) x} as the kernel of delta - unit_H (x) id."""
    unit_h = Matrix.from_cols([k.over.alg.unit], k.over.dim, k.order)
    delta = tensor_map_matrix(k.coaction, k.over.dim, k.dim, k.order)
    return kernel(delta - kron(unit_h, Matrix.identity(k.dim, k.order)))


def costable_operators(k: ComoduleAlgebraData) -> list[Matrix]:
    """Left/right multiplications and coaction components; submodule = costable ideal."""
    one = Cyclo.one(k.order)
    ops = []
    for i in range(k.dim):
        ops.append(k.alg.left_mult_matrix({i: one}))
    for i in range(k.dim):
        ops.append(k.alg.right_mult_matrix({i: one}))
    for a in range(k.over.dim):
        ops.append(k.coaction_component(a))
    return ops


def costable_closure(k: ComoduleAlgebraData, v: dict) -> Subspace:
    """Smallest H-costable two-sided ideal containing the vector v: the
    operator algebra of ``costable_operators`` applied to v."""
    algebra = _close_under_products(costable_operators(k), k.dim, k.order)
    return Subspace.from_vectors([op.apply(v) for op in algebra], k.dim, k.order)


class SimplicityCertificate:
    SIMPLE = "SimpleCertified"
    NOT_SIMPLE = "NotSimpleCertified"
    INCONCLUSIVE = "Inconclusive"

    def __init__(self, verdict: str, witness: Subspace | None = None, detail: str = ""):
        self.verdict = verdict    # SimpleCertified | NotSimpleCertified | Inconclusive
        self.witness = witness
        self.detail = detail

    @property
    def status(self) -> str:
        """The report status of the verdict: PASS, FAIL or INCONCLUSIVE."""
        return {self.SIMPLE: PASS, self.NOT_SIMPLE: FAIL}.get(self.verdict, INCONCLUSIVE)


def _close_under_products(seed: list[Matrix], dim: int, order: int) -> list[Matrix]:
    # the words in the seed operators that enlarge the span: it holds I and
    # every seed, and is closed under right products by those that grew it
    return generated_words(Matrix.identity(dim, order), seed, Matrix.__mul__, dim * dim,
                           key=flatten)[1]


def _trace_form(basis: list[Matrix]) -> Matrix:
    """The Gram matrix tr(b_i b_j) of a nonempty list of square matrices.

    tr(b_i b_j) is the dot product of flatten(b_i) with flatten(b_j^T), so the
    Gram matrix is the rows flatten(b_i) times the columns flatten(b_j^T).
    """
    size, order = basis[0].rows * basis[0].cols, basis[0].order
    flats = Matrix(len(basis), size, [flatten(b) for b in basis], order)
    return flats * Matrix.from_cols([flatten(b.transpose()) for b in basis], size, order)


def _radical_basis(basis: list[Matrix], order: int) -> list[dict]:
    """Kernel of the trace Gram form on the span (valid: faithful module, char 0)."""
    gram = _trace_form(basis)
    return sparse_kernel_basis([dict(gram.row(i)) for i in range(gram.rows)], gram.cols, order)


def _combine(basis: list[Matrix], coords: dict) -> Matrix:
    return kron_sum(((c, basis[j]) for j, c in coords.items()),
                    basis[0].rows, basis[0].cols, basis[0].order)


def _rational_minpoly(z: Matrix, max_deg: int) -> list[Fraction]:
    """Minimal polynomial over Q of a matrix over Q(zeta_N): the first power
    of z that the echelon finds dependent on the lower ones, read off marker
    columns.

    Realification is an injective Q-algebra map to rational matrices, so a
    rational polynomial vanishes on z exactly when it does on z's
    realification; each power enters as its rational coordinates, coefficient
    s of flat entry i at column i*phi + s.
    """
    phi = euler_phi(z.order)
    marker = z.rows * z.cols * phi  # column marker + k tracks the coefficient of z^k
    span = Echelon()
    power = Matrix.identity(z.rows, z.order)
    for deg in range(max_deg + 1):
        row = {i * phi + s: Cyclo.from_rational(c) for i, v in flatten(power).items()
               for s, c in enumerate(v.coeffs) if c}
        row[marker + deg] = Cyclo.one(1)
        rest = span.add(row)
        if min(rest) >= marker:
            return [rest[marker + k].coeffs[0] if marker + k in rest else Fraction(0)
                    for k in range(deg)] + [Fraction(1)]
        power = power * z
    raise AssertionError("minimal polynomial not found within bound")


MAX_PRIMITIVE_TRIALS = 24


def is_h_simple(k: ComoduleAlgebraData) -> SimplicityCertificate:
    """Certify (non-)existence of proper nonzero H-costable ideals.

    Procedure: close the operator algebra; its Jacobson radical is the trace
    form radical (faithful module, characteristic zero).  A nonzero radical
    yields a witness ideal.  Otherwise the commutant is computed; it is
    commutative, so K is H-simple exactly when the commutant is a field,
    certified by a primitive element z with irreducible minimal polynomial
    over Q.  A reducible minimal polynomial instead splits off an idempotent
    e(z) of the commutant whose image is a verified witness ideal.  Both the
    minimal polynomial and e(z) are computed on z itself over Q(zeta_N).
    """
    from .polys import (FactorUnknown, factor_rational, is_squarefree, poly_divmod, poly_mul,
                        poly_xgcd)
    from .rep import intertwiner_basis
    order = k.order
    dim = k.dim
    seed = costable_operators(k)
    algebra = _close_under_products(seed, dim, order)
    rad = _radical_basis(algebra, order)
    if rad:
        vectors = [col for coords in rad for col in sparse_cols(_combine(algebra, coords))]
        witness = Subspace.from_vectors(vectors, dim, order)
        ok, why = _verify_witness(k, witness)
        if ok:
            return SimplicityCertificate(
                SimplicityCertificate.NOT_SIMPLE, witness=witness,
                detail="radical of the operator algebra acts nontrivially")
        return SimplicityCertificate(
            SimplicityCertificate.INCONCLUSIVE,
            detail="radical witness failed verification: " + why)

    commutant = intertwiner_basis(seed, seed, dim, dim, order)
    crad = _radical_basis(commutant, order)
    if crad:
        return SimplicityCertificate(
            SimplicityCertificate.INCONCLUSIVE,
            detail="commutant trace form is degenerate")
    # the commutant is its own centre: the seed holds every L_a and R_b, so each
    # f in it has f(a) = a f(1) = f(1) a, i.e. f = R_f(1) with f(1) central
    dim_q = len(commutant) * euler_phi(order)

    for trial in range(MAX_PRIMITIVE_TRIALS):
        z = _primitive_candidate(commutant, trial, order)
        minpoly = _rational_minpoly(z, dim_q + 1)
        if len(minpoly) - 1 < dim_q or not is_squarefree(minpoly):
            continue  # not primitive, or not a valid certificate
        try:
            factors = factor_rational(minpoly)
        except FactorUnknown as exc:
            return SimplicityCertificate(
                SimplicityCertificate.INCONCLUSIVE,
                detail="factoring gave up: %s" % exc)
        if len(factors) == 1:
            return SimplicityCertificate(
                SimplicityCertificate.SIMPLE, detail="commutant centre is a field")
        # reducible: split a central idempotent e = v*q (z) with p = p1*q
        p1 = factors[0]
        q, rem = poly_divmod(minpoly, p1)
        assert not rem
        g, u, v = poly_xgcd(p1, q)
        assert g == [Fraction(1)]
        e_poly = poly_mul(v, q)
        _, e_poly = poly_divmod(e_poly, minpoly)
        e_mat = _poly_eval_matrix(e_poly, z)
        image = Subspace.from_vectors(sparse_cols(e_mat), dim, order)
        ok, why = _verify_witness(k, image)
        if ok:
            return SimplicityCertificate(
                SimplicityCertificate.NOT_SIMPLE, witness=image,
                detail="central idempotent of the commutant splits K")
        return SimplicityCertificate(
            SimplicityCertificate.INCONCLUSIVE,
            detail="idempotent witness failed verification: " + why)
    return SimplicityCertificate(
        SimplicityCertificate.INCONCLUSIVE,
        detail="no primitive element found in %d trials" % MAX_PRIMITIVE_TRIALS)


def _poly_eval_matrix(p, mat: Matrix) -> Matrix:
    """sum p[k] mat^k for rational coefficients p, constant term first."""
    powers = [Matrix.identity(mat.rows, mat.order)]
    for _ in p[1:]:
        powers.append(powers[-1] * mat)
    return kron_sum(((Cyclo.from_rational(c, mat.order), m) for c, m in zip(p, powers)),
                    mat.rows, mat.cols, mat.order)


def _primitive_candidate(commutant: list[Matrix], trial: int, order: int) -> Matrix:
    """Deterministic integer-weight combinations, mixed with powers of zeta.

    The zeta powers rotate with the trial index so that even a single-element
    commutant over a nontrivial cyclotomic field gets non-rational candidates.
    """
    phi = euler_phi(order)
    terms = []
    w = 1
    for idx, m in enumerate(commutant):
        c = Cyclo.from_rational(w, order)
        if phi > 1:
            c = c * Cyclo.zeta(order, (idx + trial) % order)
        terms.append((c, m))
        w = w * (trial + 2) % 1009
    return kron_sum(terms, commutant[0].rows, commutant[0].cols, order)


def _verify_witness(k: ComoduleAlgebraData, w: Subspace) -> tuple[bool, str]:
    if w.dim == 0:
        return False, "witness is zero"
    if w.dim >= k.dim:
        return False, "witness is not proper"
    # the first 2 dim K operators are the multiplications, then the coaction
    for i, op in enumerate(costable_operators(k)):
        if pivot_coords(w.basis, w.pivots, op * w.basis)[1]:
            return False, "not a two-sided ideal" if i < 2 * k.dim else "not costable"
    return True, ""


# -- Hopf-Galois canonical map ------------------------------------------------


class GaloisData:
    def __init__(self, comodule: ComoduleAlgebraData, coinvariant_basis: Subspace,
                 projection: Matrix, section: Matrix, can_matrix: Matrix,
                 can_inverse: Matrix | None, can_deficit: int, report: CheckReport):
        self.comodule = comodule                # K with corestricted coaction over A
        self.coinvariant_basis = coinvariant_basis    # R
        self.projection = projection            # K (x) K -> K (x)_R K
        self.section = section
        self.can_matrix = can_matrix            # K (x)_R K -> A (x) K
        self.can_inverse = can_inverse
        self.can_deficit = can_deficit          # max(rows, cols) - rank of can; 0 iff bijective
        self.report = report

    @property
    def bijective(self) -> bool:
        return self.can_inverse is not None


def corestrict_coaction(k: ComoduleAlgebraData, embed: SubHopfEmbedding,
                        name: str | None = None) -> ComoduleAlgebraData:
    """View K as a comodule algebra over the subalgebra A when delta lands in A (x) K."""
    a = embed.small
    new_coaction = []
    for j in range(k.dim):
        out: dict = {}
        per_h: dict = {}
        for (hi, ki), c in k.coaction[j].items():
            per_h.setdefault(ki, {})[hi] = c
        for ki, hvec in per_h.items():
            # express the H-leg in the A-basis through the embedding
            try:
                coords = solve(embed.embed, hvec)
            except LinAlgError as exc:
                raise StructureError(
                    "coaction does not corestrict to %s" % a.name) from exc
            for ai, c in coords.items():
                add_into(out, (ai, ki), c)
        new_coaction.append(out)
    return ComoduleAlgebraData(k.alg, a, new_coaction,
                               name=name or (k.name + "|" + a.name))


def canonical_map(k_over_a: ComoduleAlgebraData, r: Subspace,
                  candidate=None) -> GaloisData:
    """can(k (x) s) = k_(-1) (x) k_(0) s on K (x)_R K, with inverse when bijective.

    ``candidate``, when given, maps the projection K (x) K -> K (x)_R K to a
    candidate inverse F of can.  A square can with can * F = I exactly has F
    as its unique two-sided inverse (over a field), so F is taken as is;
    otherwise can is inverted by elimination.
    """
    dim = k_over_a.dim
    order = k_over_a.order
    kk = dim * dim
    # relation subspace span{k r (x) s - k (x) r s}; when K is associative with
    # unit, the relations of a word w g in generators of R telescope into those
    # of w and g, so generators whose words hold R give the same subspace
    alg = k_over_a.alg
    gens = r.vectors()
    if alg.certified():
        gens = generated_words(alg.unit, gens, alg.multiply, dim)[0]
    rel = balanced_relations([(alg.right_mult_matrix(g), alg.left_mult_matrix(g)) for g in gens],
                             dim, dim, order)
    proj, sec = quotient(kk, rel)
    can_full = k_over_a.canonical_matrix()
    can_q = can_full * sec
    report = CheckReport("canonical map for %s" % k_over_a.name)
    residual = can_full * rel.basis
    bad = differing_entries(residual, Matrix.zero(residual.rows, residual.cols, order))
    report.add("can well defined on K (x)_R K", bad == 0, bad)
    # the full map on K (x) K is the largest matrix here; the inverse needs only can_q
    del can_full, residual
    can_inv = None
    if can_q.rows == can_q.cols:
        if candidate is not None:
            inv = candidate(proj)
            if identity_residual(can_q * inv) == 0:
                can_inv = inv
        if can_inv is None:
            try:
                can_inv = inverse(can_q)
            except LinAlgError:
                can_inv = None
    # the rank is computed only when can is not invertible
    deficit = 0 if can_inv is not None else max(can_q.rows, can_q.cols) - rank(can_q)
    report.add("can bijective", deficit == 0, deficit)
    return GaloisData(k_over_a, r, proj, sec, can_q, can_inv, deficit, report)


def galois_gamma(g: GaloisData, a_elem: dict) -> dict:
    """gamma(a) = can^-1(a (x) 1) as an element of K (x) K via the section.

    Verifies can(gamma(a)) = a (x) 1, i.e. a^[1]_(-1) (x) a^[1]_(0) a^[2] = a (x) 1.
    """
    if not g.bijective:
        raise StructureError("extension is not Galois: can is not bijective")
    k = g.comodule
    dim = k.dim
    target: dict = {}
    for ai, c in a_elem.items():
        for t, u in k.alg.unit.items():
            add_into(target, ai * dim + t, c * u)
    gamma = g.can_inverse.apply(target)
    # verify the defining property: can_matrix is the full canonical map times the section
    if g.can_matrix.apply(gamma) != target:
        raise AssertionError("gamma verification failed")
    return g.section.apply(gamma)
