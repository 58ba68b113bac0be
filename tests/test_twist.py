import itertools
import random
from functools import lru_cache

import pytest

import dyntwist.twist as twist_module
from conftest import e0_spec, e1_spec, z3_spec
from dyntwist import comod
from dyntwist.comod import ComoduleAlgebraData
from dyntwist.datum import DatumSpec, MonomialDatum
from dyntwist.hopf import AlgebraData, StructureError, group_algebra
from dyntwist.linalg import Matrix, balanced_relations, generated_words, inverse, quotient
from dyntwist.rep import regular_module, trivial_module
from dyntwist.scalar import Cyclo
from dyntwist.twist import (
    GaugeElement,
    TwistElement,
    build_twisted_galois,
    element_action,
    gauge_check,
    gauge_transform,
    invert_element,
    left_mult_matrix_tensor,
    tensor_mult,
    trivial_twist,
    twisted_pentagon_check,
    unit_tensor,
    verify_twist,
)


def test_trivial_twist_passes(e0_datum):
    tw = trivial_twist(e0_datum.h, e0_datum.engine.s_base())
    report = verify_twist(tw)
    assert report.ok, str(report)


def test_computed_twists_pass_independent_verifier(e0_twist, e1_twist):
    assert verify_twist(e0_twist).ok
    assert verify_twist(e1_twist).ok


def test_e1_twist_lives_in_128_dims(e1_twist):
    assert e1_twist.h.dim * e1_twist.h.dim * e1_twist.s.dim == 128


def test_corrupted_twist_fails_cocycle(e0_datum):
    # J = 1 x 1 x 1 + x (x) x (x) 1 is invertible but not a twist
    tw = trivial_twist(e0_datum.h, e0_datum.engine.s_base())
    coeffs = dict(tw.coeffs)
    one = Cyclo.one(2)
    coeffs[(1, 1, 0)] = one  # x (x) x (x) 1
    broken = TwistElement(e0_datum.h, e0_datum.engine.s_base(), coeffs)
    report = verify_twist(broken)
    failed = [c.name for c in report.failures()]
    assert "shifted two-cocycle equation" in failed


def _ordinary_cocycle_residual(h, j0: dict) -> int:
    """Keys where (Delta x id)(J0)(J0 x 1) and (id x Delta)(J0)(1 x J0) differ in H^(x)3.

    Delta and the unit legs are written here from h.comult and h.alg.unit, so
    the check shares nothing with verify_twist but tensor_mult.
    """
    def add(acc, key, value):
        acc[key] = acc[key] + value if key in acc else value

    delta_left, delta_right, j0_one, one_j0 = {}, {}, {}, {}
    for (i, j), c in j0.items():
        for (a, b), d in h.comult[i].items():
            add(delta_left, (a, b, j), c * d)
        for (a, b), d in h.comult[j].items():
            add(delta_right, (i, a, b), c * d)
        for u, e in h.alg.unit.items():
            add(j0_one, (i, j, u), c * e)
            add(one_j0, (u, i, j), c * e)
    legs = [h.alg] * 3
    lhs = tensor_mult(legs, delta_left, j0_one)
    rhs = tensor_mult(legs, delta_right, one_j0)
    return sum(1 for key in lhs.keys() | rhs.keys() if lhs.get(key) != rhs.get(key))


@pytest.mark.parametrize("make_spec", [e0_spec, e1_spec, z3_spec])
def test_a_constant_twist_is_an_ordinary_twist(make_spec):
    # J = J0 (x) 1_S: the shifted cocycle equation then says that J0 is an
    # ordinary twist of H, which is checked here independently
    twist, report = MonomialDatum(make_spec()).compute_twist()
    assert report.ok, str(report)
    assert twist.dynamical_support == [0]
    assert twist.s.alg.unit == {0: Cyclo.one(twist.order)}
    j0 = {(i, j): c for (i, j, _), c in twist.coeffs.items()}
    assert _ordinary_cocycle_residual(twist.h, j0) == 0


def test_the_ordinary_twist_oracle_sees_a_corrupted_twist(e0_twist):
    j0 = {(i, j): c for (i, j, _), c in e0_twist.coeffs.items()}
    j0[(1, 1)] = j0.get((1, 1), Cyclo.zero(2)) + Cyclo.one(2)  # add x (x) x
    assert _ordinary_cocycle_residual(e0_twist.h, j0) > 0


def test_inverse_is_two_sided(e1_twist):
    legs = e1_twist.legs
    unit = unit_tensor(legs)
    inv = e1_twist.ensure_inverse()
    assert tensor_mult(legs, inv, e1_twist.coeffs) == unit
    assert tensor_mult(legs, e1_twist.coeffs, inv) == unit


def test_non_invertible_element_rejected(e0_datum):
    legs = [e0_datum.h.alg, e0_datum.h.alg, e0_datum.kb.alg]
    elem = {(1, 1, 0): Cyclo.one(2)}  # x (x) x nilpotent
    with pytest.raises(StructureError):
        invert_element(legs, elem, left_mult_matrix_tensor(legs, elem, 2))


def test_gauge_reflexive(e1_twist, e1_datum):
    t = GaugeElement(e1_datum.h, e1_datum.engine.s_base(),
                     unit_tensor([e1_datum.h.alg, e1_datum.kb.alg]))
    report = gauge_check(e1_twist, e1_twist, t)
    assert report.ok, str(report)


def test_gauge_unnormalised_fails(e1_twist, e1_datum):
    coeffs = unit_tensor([e1_datum.h.alg, e1_datum.kb.alg])
    coeffs = {k: v + v for k, v in coeffs.items()}  # 2 (x) 1: not normalised
    t = GaugeElement(e1_datum.h, e1_datum.engine.s_base(), coeffs)
    report = gauge_check(e1_twist, e1_twist, t)
    failed = [c.name for c in report.failures()]
    assert any("normalisation" in n for n in failed)


def test_twisted_galois_trivial_twist_is_smash(e1_datum):
    tw = trivial_twist(e1_datum.h, e1_datum.engine.s_base())
    _, report = build_twisted_galois(tw)
    assert report.ok, str(report)


def test_twisted_galois_on_computed_twists(e0_twist, e1_twist):
    _, report0 = build_twisted_galois(e0_twist)
    assert report0.ok, str(report0)
    _, report1 = build_twisted_galois(e1_twist)
    assert report1.ok, str(report1)


def test_twisted_galois_corrupted_twist_breaks_associativity(e0_datum):
    tw = trivial_twist(e0_datum.h, e0_datum.engine.s_base())
    coeffs = dict(tw.coeffs)
    coeffs[(1, 1, 0)] = Cyclo.one(2)
    broken = TwistElement(e0_datum.h, e0_datum.engine.s_base(), coeffs)
    assert not verify_twist(broken).ok
    _, report = build_twisted_galois(broken)
    failed = [c.name for c in report.failures()]
    assert any("associativity" in n for n in failed)


@pytest.mark.parametrize("instance", ["e0", "e1"])
@pytest.mark.parametrize("kind", ["computed", "trivial", "corrupted"])
def test_twisted_galois_verdicts(instance, kind, request, monkeypatch):
    datum = request.getfixturevalue(instance + "_datum")
    if kind == "computed":
        twist = request.getfixturevalue(instance + "_twist")
    else:
        twist = trivial_twist(datum.h, datum.engine.s_base())
        if kind == "corrupted":
            coeffs = dict(twist.coeffs)
            coeffs[(1, 1, 0)] = Cyclo.one(2)
            twist = TwistElement(datum.h, datum.engine.s_base(), coeffs)
    pairs = []
    real = comod.balanced_relations
    monkeypatch.setattr(comod, "balanced_relations",
                        lambda p, *rest: pairs.append(len(p)) or real(p, *rest))
    _, report = build_twisted_galois(twist)
    failures = {c.name: c.residual_nonzero_count for c in report.failures()}
    expected = {}
    if kind == "corrupted":
        expected = {"B: associativity m(m x id) = m(id x m)":
                    {"e0": 12, "e1": 192}[instance]}
    assert failures == expected, str(report)
    # B^op takes B's verdict: a certified B relates K (x) K over the generators
    # of R = eps (x) S (none for S = k, one of E1's two), a corrupted B over
    # R's whole basis
    assert pairs == [twist.s.dim if kind == "corrupted" else {"e0": 0, "e1": 1}[instance]]


def _relations(alg, elems):
    return balanced_relations([(alg.right_mult_matrix(x), alg.left_mult_matrix(x)) for x in elems],
                              alg.dim, alg.dim, alg.order)


def _assert_generators_of_r_give_its_relations(gal):
    alg, r = gal.comodule.alg, gal.coinvariant_basis
    gens = generated_words(alg.unit, r.vectors(), alg.multiply, alg.dim)[0]
    assert alg.certified() and len(gens) < r.dim
    full = _relations(alg, r.vectors())
    assert _relations(alg, gens) == full
    assert (gal.projection, gal.section) == quotient(alg.dim * alg.dim, full)


@pytest.mark.parametrize("make_spec", [e0_spec, e1_spec, z3_spec])
def test_relations_of_b_op_over_generators_of_r_equal_those_over_its_basis(make_spec):
    (_, gal), report = build_twisted_galois(_twist_of(make_spec))
    assert report.ok and gal.comodule.alg.name == "B^op"
    _assert_generators_of_r_give_its_relations(gal)


def test_relations_of_k_over_f_over_generators_of_r_equal_those_over_its_basis(e1_datum):
    _assert_generators_of_r_give_its_relations(e1_datum.galois_f)


def test_pentagon_trivial(e1_datum):
    tw = trivial_twist(e1_datum.h, e1_datum.engine.s_base())
    x = regular_module(e1_datum.h.alg, name="X")
    m = regular_module(e1_datum.kb.alg, name="M")
    assert twisted_pentagon_check(tw, x, x, x, m).ok


def test_pentagon_computed_e1(e1_twist, e1_datum):
    x = regular_module(e1_datum.h.alg, name="X")
    m = regular_module(e1_datum.kb.alg, name="M")
    report = twisted_pentagon_check(e1_twist, x, x, x, m)
    assert report.ok, str(report)


def test_pentagon_corrupted_fails(e0_datum):
    tw = trivial_twist(e0_datum.h, e0_datum.engine.s_base())
    coeffs = dict(tw.coeffs)
    coeffs[(1, 1, 0)] = Cyclo.one(2)
    broken = TwistElement(e0_datum.h, e0_datum.engine.s_base(), coeffs)
    x = regular_module(e0_datum.h.alg, name="X")
    m = regular_module(e0_datum.kb.alg, name="M")
    report = twisted_pentagon_check(broken, x, x, x, m)
    # 24 of the 128 basis vectors of X (x) X (x) X (x) M see the two sides differ
    assert _residual(report, "pentagon on X (x) Y (x) Z (x) M") == ("FAIL", 24)


def test_gauge_transform_with_nontrivial_base_leg(e1_twist, e1_datum):
    # re-dress by t = 1 x 1 + x (x) (b - 1): normalised, invertible, and the
    # resulting twist has a genuinely nontrivial base leg, so the base-shift
    # equation is exercised with a nonscalar third component
    from dyntwist.twist import gauge_transform
    one = Cyclo.one(2)
    coeffs = dict(unit_tensor([e1_datum.h.alg, e1_datum.kb.alg]))
    # H basis (h, i) -> h*2 + i: x = index 1; kB basis: 0 = e, 1 = b
    coeffs[(1, 1)] = one
    coeffs[(1, 0)] = coeffs.get((1, 0), Cyclo.zero(2)) - one
    coeffs = {k: v for k, v in coeffs.items() if not v.is_zero()}
    t = GaugeElement(e1_datum.h, e1_datum.engine.s_base(), coeffs)
    redressed = gauge_transform(e1_twist, t)
    base_legs = {k for (_, _, k) in redressed.coeffs}
    assert len(base_legs) > 1  # nontrivial third component
    report = verify_twist(redressed)
    assert report.ok, str(report)
    assert gauge_check(e1_twist, redressed, t).ok
    # the twisted-algebra oracle must also pass on the re-dressed twist
    _, galois_report = build_twisted_galois(redressed)
    assert galois_report.ok, str(galois_report)
    # and so must the pentagon, whose J_{X,Y,Z(x)M} reads the coaction of a
    # base leg that is not the unit (Z trivial keeps X (x) Y (x) Z (x) M small)
    x = regular_module(e1_datum.h.alg, name="X")
    z = trivial_module(e1_datum.h, name="triv")
    m = regular_module(e1_datum.kb.alg, name="M")
    report = twisted_pentagon_check(redressed, x, x, z, m)
    assert report.ok, str(report)


@lru_cache(maxsize=None)
def _twist_of(make_spec) -> TwistElement:
    twist, report = MonomialDatum(make_spec()).compute_twist()
    assert report.ok, str(report)
    return twist


def _seeded_gauge(twist: TwistElement, rng: random.Random) -> GaugeElement:
    """g = 1 (x) 1 + sum c (h (x) s), c in [-2, 2], over basis h with eps(h) = 0.

    Each term (h, s) is drawn with probability 1/2.  eps(h) = 0 normalises g,
    and the sum lies in the nilpotent ideal x H (x) S, so g is invertible.
    """
    h, s = twist.h, twist.s
    coeffs = dict(unit_tensor([h.alg, s.alg]))
    for hi in range(h.dim):
        if not h.counit[hi].is_zero():
            continue
        for si in range(s.dim):
            if rng.random() < 0.5:
                c = rng.randint(-2, 2)
                if c:
                    coeffs[(hi, si)] = Cyclo.from_rational(c, twist.order)
    return GaugeElement(h, s, coeffs)


@pytest.mark.parametrize("make_spec", [e0_spec, e1_spec, z3_spec])
def test_a_seeded_gauge_transform_is_again_a_twist(make_spec):
    # metamorphic: re-dressing a twist by any normalised invertible g must
    # give a twist, gauge-equivalent to the first through g
    twist = _twist_of(make_spec)
    supports = set()
    for seed in range(4):
        g = _seeded_gauge(twist, random.Random(seed))
        redressed = gauge_transform(twist, g)
        report = verify_twist(redressed)
        assert report.ok, str(report)
        report = gauge_check(twist, redressed, g)
        assert report.ok, str(report)
        supports.add(tuple(redressed.dynamical_support))
    if twist.s.dim > 1:
        # a base of dimension > 1 lets the re-dressed twist vary with the base point
        assert any(len(support) > 1 for support in supports)


def _conjugate(c: Cyclo, k: int) -> Cyclo:
    """c with zeta_N -> zeta_N^k, from c's coefficients in the power basis."""
    out = Cyclo.zero(c.order)
    for power, q in enumerate(c.coeffs):
        if q:
            out = out + Cyclo.zeta(c.order, power * k).scaled(q)
    return out


def test_galois_conjugate_datum_gives_the_conjugate_twist():
    # sigma_2: zeta_3 -> zeta_3^2 fixes Q, so applied to every structure
    # constant of the datum it must carry the twist and its inverse along
    spec = z3_spec()
    conj_spec = DatumSpec(spec.table, [_conjugate(c, 2) for c in spec.chi], spec.g, spec.n,
                          spec.f_indices, spec.b_indices, _conjugate(spec.mu, 2))
    assert conj_spec.chi != spec.chi
    twist = _twist_of(z3_spec)
    conj, report = MonomialDatum(conj_spec).compute_twist()
    assert report.ok, str(report)
    assert conj.coeffs != twist.coeffs
    assert conj.coeffs == {key: _conjugate(c, 2) for key, c in twist.coeffs.items()}
    assert conj.ensure_inverse() == {key: _conjugate(c, 2)
                                     for key, c in twist.ensure_inverse().items()}


def test_unit_normalisations_on_modules(e1_twist, e1_datum):
    # dynt2 implies the module-level unit laws: the twist acts as the identity
    # when either H-leg is the trivial module
    h = e1_datum.h
    triv = trivial_module(h, name="triv")
    x = regular_module(h.alg, name="X")
    m = regular_module(e1_datum.kb.alg, name="M")
    for a, b in ((triv, x), (x, triv)):
        acting = element_action(e1_twist.coeffs, [a.action, b.action, m.action], 2)
        assert acting == Matrix.identity(a.dim * b.dim * m.dim, 2)


def _residual(report, name):
    check = next(c for c in report.checks if c.name == name)
    return check.status, check.residual_nonzero_count


def test_wrong_counit_leg_counts_each_differing_key_once(e0_datum):
    # J = 1 x 1 x 1 + 1 x x x 1: (eps x id x id)J = 1 x 1 + x x 1 differs from
    # 1 x 1 in one key; (id x eps x id)J = 1 x 1 since eps(x) = 0
    s = e0_datum.engine.s_base()
    coeffs = dict(trivial_twist(e0_datum.h, s).coeffs)
    coeffs[(0, 1, 0)] = Cyclo.one(2)
    report = verify_twist(TwistElement(e0_datum.h, s, coeffs))
    assert _residual(report, "(eps x id x id)J = 1 x 1") == ("FAIL", 1)
    assert _residual(report, "(id x eps x id)J = 1 x 1") == ("PASS", 0)


def test_a_twist_that_does_not_commute_with_the_base_fails_base_shift():
    # kS3 coacting on itself by Delta: (Delta x id)delta(q) = q (x) q (x) q, so
    # J = 1 (x) 1 (x) 1 + p (x) 1 (x) 1 satisfies the base-shift equation at q
    # exactly when pq = qp; a transposition p fails at the 4 elements outside
    # its centraliser {1, p}
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms]
    h = group_algebra(table, 1)
    s = ComoduleAlgebraData(h.alg, h, [dict(d) for d in h.comult])
    coeffs = dict(unit_tensor([h.alg, h.alg, s.alg]))
    coeffs[(index[(1, 0, 2)], 0, 0)] = Cyclo.one(1)
    report = verify_twist(TwistElement(h, s, coeffs))
    assert _residual(report, "base-shift equation (per basis element of S)") == ("FAIL", 4)


def test_gauge_with_wrong_counit_leg_counts_each_differing_key_once(e1_twist, e1_datum):
    # t = 1 x 1 + 1 x s with s a second basis element of the base: (eps x id)t
    # differs from 1 in the one key s
    coeffs = unit_tensor([e1_datum.h.alg, e1_datum.kb.alg])
    coeffs[(0, 1)] = Cyclo.one(2)
    t = GaugeElement(e1_datum.h, e1_datum.engine.s_base(), coeffs)
    report = gauge_check(e1_twist, e1_twist, t)
    assert _residual(report, "normalisation (eps x id)t = 1") == ("FAIL", 1)


# -- the canonical map of B: the displayed inverse as its certificate -------------


@pytest.mark.parametrize("make_spec", [e0_spec, e1_spec, z3_spec])
def test_can_inverse_equals_the_inverse_by_elimination(make_spec):
    # oracle sharing no code with the displayed formula: elimination on can
    (_, gal), report = build_twisted_galois(_twist_of(make_spec))
    assert report.ok, str(report)
    can = gal.can_matrix
    ident = Matrix.identity(can.rows, can.order)
    assert gal.can_inverse == inverse(can)
    assert can * gal.can_inverse == ident
    assert gal.can_inverse * can == ident


def _inverse_calls(monkeypatch) -> list:
    calls = []

    def counted(m):
        calls.append((m.rows, m.cols))
        return inverse(m)
    monkeypatch.setattr(comod, "inverse", counted)
    return calls


def test_the_displayed_formula_spares_the_elimination_of_can(monkeypatch):
    calls = _inverse_calls(monkeypatch)
    (_, gal), report = build_twisted_galois(_twist_of(z3_spec))
    assert report.ok, str(report)
    assert gal.can_matrix.rows == 81
    assert calls == []


@pytest.mark.parametrize("make_spec", [e0_spec, z3_spec])
def test_a_wrong_formula_falls_back_to_elimination(make_spec, monkeypatch):
    # one corrupted entry: can * F != I, so can is inverted by elimination and
    # the report keeps the parent's verdicts, can bijective and the formula not
    def corrupted(*args):
        f = displayed(*args)
        rows = [dict(f.row(i)) for i in range(f.rows)]
        rows[0][0] = f.entry(0, 0) + Cyclo.one(f.order)
        return Matrix(f.rows, f.cols, rows, f.order)
    displayed = twist_module._can_inverse_formula
    monkeypatch.setattr(twist_module, "_can_inverse_formula", corrupted)
    calls = _inverse_calls(monkeypatch)
    (_, gal), report = build_twisted_galois(_twist_of(make_spec))
    assert _residual(report, "can bijective") == ("PASS", 0)
    assert _residual(report, "displayed can^-1 formula equals can^-1") == ("FAIL", 1)
    assert calls == [(gal.can_matrix.rows, gal.can_matrix.cols)]
    assert gal.can_inverse == inverse(gal.can_matrix)


# -- associativity as M (L_i (x) id) = L_i M ----------------------------------------


def _associativity_failures(alg) -> int:
    """Basis triples (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k), by a triple loop."""
    def times(x, y):
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                for k, c in alg.mult[i][j].items():
                    out[k] = out[k] + a * b * c if k in out else a * b * c
        return {k: v for k, v in out.items() if not v.is_zero()}
    one = Cyclo.one(alg.order)
    return sum(1 for i, j, k in itertools.product(range(alg.dim), repeat=3)
               if times(alg.mult[i][j], {k: one}) != times({i: one}, alg.mult[j][k]))


def _associativity_count(alg):
    report = alg.verify()
    return _residual(report, "associativity m(m x id) = m(id x m)")[1]


# counts of "associativity m(m x id) = m(id x m)" on the corrupted copies below,
# for H and then B, as the earlier form M (L_i (x) id) = L_i M reported them
ASSOCIATIVITY_COUNTS = {
    "e0_spec": [[8, 16, 21], [16, 27, 28]],
    "e1_spec": [[16, 40, 53], [36, 96, 109]],
    "z3_spec": [[16, 37, 64], [39, 129, 157]],
}


@pytest.mark.parametrize("make_spec", [e0_spec, e1_spec, z3_spec])
def test_associativity_count_matches_a_triple_loop(make_spec):
    twist = _twist_of(make_spec)
    (b_comod, _), _ = build_twisted_galois(twist)
    for alg, pinned in zip((twist.h.alg, b_comod.alg), ASSOCIATIVITY_COUNTS[make_spec.__name__]):
        assert _associativity_count(alg) == _associativity_failures(alg) == 0
        counts = []
        for seed in range(3):
            rng = random.Random(seed)
            mult = [[dict(p) for p in row] for row in alg.mult]
            for _ in range(seed + 1):
                i, j, k = (rng.randrange(alg.dim) for _ in range(3))
                c = Cyclo.from_rational(rng.choice([-2, -1, 1, 2]), alg.order)
                mult[i][j][k] = mult[i][j][k] + c if k in mult[i][j] else c
            broken = AlgebraData(alg.dim, mult, alg.unit, alg.order, name="broken")
            expected = _associativity_failures(broken)
            assert expected > 0
            assert _associativity_count(broken) == expected
            counts.append(expected)
        assert counts == pinned


# -- the coaction as an algebra map: D L_i = delta(e_i)_L D --------------------------


def _algebra_map_failures(k) -> int:
    """Basis pairs (i, j) with delta(e_i e_j) != delta(e_i) delta(e_j), one pair at a time."""
    def add(out, key, v):
        out[key] = out[key] + v if key in out else v

    def delta(x):
        out = {}
        for i, a in x.items():
            for key, c in k.coaction[i].items():
                add(out, key, a * c)
        return {key: v for key, v in out.items() if not v.is_zero()}

    def times(x, y):
        out = {}
        for (a1, b1), c1 in x.items():
            for (a2, b2), c2 in y.items():
                for a, ca in k.over.alg.mult[a1][a2].items():
                    for b, cb in k.alg.mult[b1][b2].items():
                        add(out, (a, b), c1 * c2 * ca * cb)
        return {key: v for key, v in out.items() if not v.is_zero()}
    return sum(1 for i, j in itertools.product(range(k.dim), repeat=2)
               if delta(k.alg.mult[i][j]) != times(k.coaction[i], k.coaction[j]))


def _comodules(make_spec):
    """The datum's K over H and B = H* (x) S over H*, each with its corrupted copies."""
    (b_comod, _), _ = build_twisted_galois(_twist_of(make_spec))
    return [MonomialDatum(make_spec()).k, b_comod]


# counts of "coaction is an algebra map" on the corrupted copies below, as the
# pairwise loop that preceded the matrix identity reported them
PAIRWISE_COUNTS = {
    "e0_spec": [[7, 8, 16], [10, 12, 15]],
    "e1_spec": [[19, 32, 40], [25, 62, 56]],
    "z3_spec": [[22, 38, 45], [27, 68, 64]],
}


@pytest.mark.parametrize("make_spec", [e0_spec, e1_spec, z3_spec])
def test_algebra_map_count_matches_a_pair_loop(make_spec):
    for k, pinned in zip(_comodules(make_spec), PAIRWISE_COUNTS[make_spec.__name__]):
        assert _residual(comod.verify_comodule_algebra(k), "coaction is an algebra map") \
            == ("PASS", 0)
        assert _algebra_map_failures(k) == 0
        counts = []
        for seed in range(3):
            rng = random.Random(seed)
            coaction = [dict(d) for d in k.coaction]
            for _ in range(seed + 1):
                i, a, b = rng.randrange(k.dim), rng.randrange(k.over.dim), rng.randrange(k.dim)
                c = Cyclo.from_rational(rng.choice([-2, -1, 1, 2]), k.order)
                coaction[i][(a, b)] = coaction[i][(a, b)] + c if (a, b) in coaction[i] else c
            broken = ComoduleAlgebraData(k.alg, k.over, coaction, name="broken")
            report = comod.verify_comodule_algebra(broken)
            status, count = _residual(report, "coaction is an algebra map")
            assert count == _algebra_map_failures(broken) > 0
            assert status == "FAIL"
            counts.append(count)
        assert counts == pinned


# -- the canonical map on K (x) K from Kronecker products -------------------------------


def _canonical_columns(k) -> Matrix:
    """can(e_i (x) e_j) = sum c e_a (x) e_b e_j over the terms c e_a (x) e_b of delta(e_i)."""
    cols = []
    for i, j in itertools.product(range(k.dim), repeat=2):
        col = {}
        for (a, b), c in k.coaction[i].items():
            for t, m in k.alg.mult[b][j].items():
                key = a * k.dim + t
                col[key] = col[key] + c * m if key in col else c * m
        cols.append({key: v for key, v in col.items() if not v.is_zero()})
    return Matrix.from_cols(cols, k.over.dim * k.dim, k.order)


@pytest.mark.parametrize("make_spec", [e0_spec, e1_spec, z3_spec])
def test_canonical_matrix_equals_the_column_built_map(make_spec):
    # K over its F-subalgebra (the datum's Galois check) and B^op over H*
    (_, gal), _ = build_twisted_galois(_twist_of(make_spec))
    for k in (MonomialDatum(make_spec()).galois_f.comodule, gal.comodule):
        assert k.canonical_matrix() == _canonical_columns(k)
