"""Pair-loop oracles for the algebra-map checks of ``verify_hopf``,
``SubHopfEmbedding.verify`` and ``ModuleRep.verify``.

Each oracle walks the basis pairs (and triples) one at a time on the
structure constants, with its own sparse arithmetic and no matrix product,
and counts the failing ones.  The verifiers' counts must equal the oracle's
on seeded corruptions, and the pinned tables hold the counts the pair loops
inside the verifiers reported before every check became a column identity.
"""

import itertools
import random

import pytest

from conftest import e0_spec, e1_spec, hopf_identities, z3_spec
from dyntwist.comod import ComoduleAlgebraData, verify_comodule_algebra
from dyntwist.datum import MonomialDatum
from dyntwist.hopf import (AlgebraData, HopfAlgebraData, algebra_map_failures, dual_hopf,
                           verify_hopf)
from dyntwist.linalg import Matrix
from dyntwist.rep import ModuleRep, SubHopfEmbedding, regular_module, trivial_module
from dyntwist.scalar import Cyclo

SPECS = {"E0": e0_spec, "E1": e1_spec, "Z3": z3_spec}


@pytest.fixture(scope="module")
def datums():
    return {name: MonomialDatum(make()) for name, make in SPECS.items()}


# -- sparse arithmetic of the oracles ---------------------------------------------------


def _add(out: dict, key, v) -> None:
    out[key] = out[key] + v if key in out else v


def _clean(x: dict) -> dict:
    return {key: v for key, v in x.items() if not v.is_zero()}


def _times(alg, x: dict, y: dict) -> dict:
    out = {}
    for i, a in x.items():
        for j, b in y.items():
            for k, c in alg.mult[i][j].items():
                _add(out, k, a * b * c)
    return _clean(out)


def _image(m: Matrix, x: dict) -> dict:
    """m x, one column of m at a time."""
    out = {}
    for j, a in x.items():
        for i, c in m.col(j).items():
            _add(out, i, a * c)
    return _clean(out)


def _eps(h, x: dict):
    out = Cyclo.zero(h.order)
    for i, a in x.items():
        out = out + a * h.counit[i]
    return out


def _delta(h, x: dict) -> dict:
    out = {}
    for k, a in x.items():
        for key, c in h.comult[k].items():
            _add(out, key, a * c)
    return _clean(out)


def _tensor_times(alg, x: dict, y: dict) -> dict:
    out = {}
    for (a1, b1), c1 in x.items():
        for (a2, b2), c2 in y.items():
            for a, ca in alg.mult[a1][a2].items():
                for b, cb in alg.mult[b1][b2].items():
                    _add(out, (a, b), c1 * c2 * ca * cb)
    return _clean(out)


def _basis(alg, i) -> dict:
    return {i: Cyclo.one(alg.order)}


# -- the oracles -------------------------------------------------------------------------


def _hopf_oracle(h) -> dict:
    """The counts of the six checks of ``verify_hopf`` that are algebra-map or
    antipode identities, by loops over basis triples, pairs and elements."""
    alg, s = h.alg, h.antipode
    pairs = list(itertools.product(range(h.dim), repeat=2))
    e = [_basis(alg, i) for i in range(h.dim)]
    assoc = sum(1 for i, j, k in itertools.product(range(h.dim), repeat=3)
                if _times(alg, alg.mult[i][j], e[k]) != _times(alg, e[i], alg.mult[j][k]))
    comult = sum(1 for i, j in pairs
                 if _delta(h, alg.mult[i][j]) != _tensor_times(alg, h.comult[i], h.comult[j]))
    counit = sum(1 for i, j in pairs
                 if _eps(h, alg.mult[i][j]) != h.counit[i] * h.counit[j])
    counit += _eps(h, alg.unit) != Cyclo.one(h.order)
    left = right = 0
    for k in range(h.dim):
        lsum, rsum = {}, {}
        for (i, j), c in h.comult[k].items():
            for t, v in _times(alg, _image(s, e[i]), e[j]).items():
                _add(lsum, t, c * v)
            for t, v in _times(alg, e[i], _image(s, e[j])).items():
                _add(rsum, t, c * v)
        target = _clean({t: h.counit[k] * u for t, u in alg.unit.items()})
        left += _clean(lsum) != target
        right += _clean(rsum) != target
    anti = sum(1 for i, j in pairs
               if _image(s, alg.mult[i][j]) != _times(alg, _image(s, e[j]), _image(s, e[i])))
    return {
        "associativity m(m x id) = m(id x m)": assoc,
        "comultiplication is an algebra map": comult,
        "counit is an algebra map": counit,
        "antipode axiom m(S x id)Delta = u eps": left,
        "antipode axiom m(id x S)Delta = u eps": right,
        "S(ab) = S(b)S(a)": anti,
    }


def _embedding_oracle(emb) -> dict:
    small, big, phi = emb.small, emb.big, emb.embed
    e = [_basis(small.alg, i) for i in range(small.dim)]
    alg_map = sum(1 for i, j in itertools.product(range(small.dim), repeat=2)
                  if _image(phi, small.alg.mult[i][j])
                  != _times(big.alg, _image(phi, e[i]), _image(phi, e[j])))
    alg_map += _image(phi, small.alg.unit) != big.alg.unit
    intertwines = sum((_eps(big, _image(phi, e[k])) != small.counit[k])
                      + (_image(phi, _image(small.antipode, e[k]))
                         != _image(big.antipode, _image(phi, e[k])))
                      for k in range(small.dim))
    return {"embedding is an algebra map": alg_map,
            "embedding intertwines counit and antipode": intertwines}


def _module_oracle(m) -> int:
    """Pairs (i, j) with rho(e_i) rho(e_j) != rho(e_i e_j), compared entry by entry."""
    def act(x):
        out = {}
        for i, a in x.items():
            for r, c, v in m.action[i].nonzeros():
                _add(out, (r, c), a * v)
        return _clean(out)

    def compose(p, q):
        out = {}
        for (r, k), a in p.items():
            for (k2, c), b in q.items():
                if k == k2:
                    _add(out, (r, c), a * b)
        return _clean(out)

    alg = m.algebra
    return sum(1 for i, j in itertools.product(range(alg.dim), repeat=2)
               if compose(act(_basis(alg, i)), act(_basis(alg, j))) != act(alg.mult[i][j]))


def _counts(report, names) -> list:
    found = {c.name: c.residual_nonzero_count for c in report.checks}
    return [found[n] for n in names]


def _scalar(rng, order):
    return Cyclo.from_rational(rng.choice([-2, -1, 1, 2]), order)


# -- verify_hopf ---------------------------------------------------------------------------


def _corrupt_hopf(h, label: str, kind: str, seed: int):
    """H with seed + 1 random changes to one of its structure tensors.

    A changed antipode adds a multiple of one column to another, so it stays
    invertible.
    """
    rng = random.Random("%s %s %d" % (label, kind, seed))
    mult = [[dict(p) for p in row] for row in h.alg.mult]
    comult = [dict(x) for x in h.comult]
    counit = list(h.counit)
    cols = [h.antipode.col(j) for j in range(h.dim)]
    for _ in range(seed + 1):
        c = _scalar(rng, h.order)
        if kind == "mult":
            i, j, k = (rng.randrange(h.dim) for _ in range(3))
            _add(mult[i][j], k, c)
        elif kind == "comult":
            k, a, b = (rng.randrange(h.dim) for _ in range(3))
            _add(comult[k], (a, b), c)
        elif kind == "counit":
            i = rng.randrange(h.dim)
            counit[i] = counit[i] + c
        else:
            a, b = rng.sample(range(h.dim), 2)
            for r, v in cols[a].items():
                _add(cols[b], r, c * v)
    alg = AlgebraData(h.dim, [[_clean(p) for p in row] for row in mult], h.alg.unit, h.order)
    antipode = Matrix.from_cols([_clean(col) for col in cols], h.dim, h.order)
    return HopfAlgebraData(alg, [_clean(x) for x in comult], counit, antipode=antipode,
                           name=h.name)


def _hopfs(datums):
    """E0, E1 and Z3's H and their duals, by label."""
    out = {}
    for name, d in datums.items():
        out[name] = d.h
        out[name + "*"] = dual_hopf(d.h)
    return out


HOPF_KINDS = ("mult", "comult", "counit", "antipode")

# the counts of the six checks of _hopf_oracle, in its order, on seeds 0, 1, 2
HOPF_COUNTS = {
    "E0": {
        "mult": [(8, 5, 1, 0, 0, 2), (12, 3, 1, 1, 0, 4), (16, 5, 1, 1, 1, 4)],
        "comult": [(0, 6, 0, 1, 1, 0), (0, 15, 0, 2, 2, 0), (0, 15, 0, 3, 3, 0)],
        "counit": [(0, 0, 5, 1, 1, 0), (0, 0, 12, 2, 2, 0), (0, 0, 5, 1, 1, 0)],
        "antipode": [(0, 0, 0, 1, 1, 0), (0, 0, 0, 2, 2, 8), (0, 0, 0, 4, 4, 12)],
    },
    "E0*": {
        "mult": [(0, 6, 0, 1, 1, 2), (4, 7, 0, 1, 1, 2), (11, 9, 2, 2, 2, 4)],
        "comult": [(0, 2, 0, 0, 0, 0), (0, 5, 0, 1, 1, 0), (0, 7, 0, 2, 1, 0)],
        "counit": [(0, 0, 2, 1, 1, 0), (0, 0, 4, 2, 2, 0), (0, 0, 3, 1, 1, 0)],
        "antipode": [(0, 0, 0, 2, 2, 5), (0, 0, 0, 3, 2, 7), (0, 0, 0, 4, 3, 9)],
    },
    "E1": {
        "mult": [(18, 1, 0, 0, 0, 2), (42, 4, 1, 0, 0, 3), (54, 11, 2, 1, 0, 6)],
        "comult": [(0, 15, 0, 1, 1, 0), (0, 18, 0, 1, 1, 0), (0, 31, 0, 2, 2, 0)],
        "counit": [(0, 0, 7, 1, 1, 0), (0, 0, 15, 2, 2, 0), (0, 0, 7, 1, 1, 0)],
        "antipode": [(0, 0, 0, 1, 1, 19), (0, 0, 0, 2, 2, 31), (0, 0, 0, 4, 3, 30)],
    },
    "E1*": {
        "mult": [(5, 8, 0, 1, 1, 2), (9, 20, 0, 2, 2, 4), (15, 27, 0, 2, 2, 3)],
        "comult": [(0, 6, 0, 0, 0, 0), (0, 8, 0, 1, 1, 0), (0, 11, 0, 0, 1, 0)],
        "counit": [(0, 0, 2, 1, 1, 0), (0, 0, 4, 2, 2, 0), (0, 0, 13, 3, 3, 0)],
        "antipode": [(0, 0, 0, 1, 1, 1), (0, 0, 0, 3, 3, 10), (0, 0, 0, 3, 3, 7)],
    },
    "Z3": {
        "mult": [(15, 3, 0, 0, 0, 2), (34, 10, 0, 1, 0, 4), (51, 4, 1, 0, 0, 4)],
        "comult": [(0, 13, 0, 0, 0, 0), (0, 35, 0, 1, 1, 0), (0, 38, 0, 1, 1, 0)],
        "counit": [(0, 0, 4, 1, 1, 0), (0, 0, 15, 2, 2, 0), (0, 0, 25, 3, 3, 0)],
        "antipode": [(0, 0, 0, 1, 1, 8), (0, 0, 0, 4, 4, 37), (0, 0, 0, 5, 5, 52)],
    },
    "Z3*": {
        "mult": [(3, 15, 0, 1, 1, 2), (12, 31, 0, 2, 2, 4), (17, 40, 0, 3, 3, 6)],
        "comult": [(0, 7, 0, 0, 0, 0), (0, 10, 0, 0, 1, 0), (0, 14, 0, 0, 0, 0)],
        "counit": [(0, 0, 3, 1, 1, 0), (0, 0, 10, 2, 2, 0), (0, 0, 17, 3, 3, 0)],
        "antipode": [(0, 0, 0, 1, 1, 7), (0, 0, 0, 3, 3, 10), (0, 0, 0, 4, 5, 15)],
    },
}


@pytest.mark.parametrize("label", ["E0", "E0*", "E1", "E1*", "Z3", "Z3*"])
def test_verify_hopf_counts_equal_the_pair_loops(datums, label):
    h = _hopfs(datums)[label]
    assert verify_hopf(h).ok
    counts = {}
    for kind in HOPF_KINDS:
        counts[kind] = []
        for seed in range(3):
            broken = _corrupt_hopf(h, label, kind, seed)
            expected = _hopf_oracle(broken)
            report = verify_hopf(broken)
            assert _counts(report, expected) == list(expected.values())
            counts[kind].append(tuple(expected.values()))
    assert counts == HOPF_COUNTS[label]


# -- SubHopfEmbedding.verify ------------------------------------------------------------------


def _corrupt_matrix(m: Matrix, rng, changes: int) -> Matrix:
    rows = [dict(m.row(r)) for r in range(m.rows)]
    for _ in range(changes):
        _add(rows[rng.randrange(m.rows)], rng.randrange(m.cols), _scalar(rng, m.order))
    return Matrix(m.rows, m.cols, rows, m.order)


# (embedding is an algebra map, embedding intertwines counit and antipode) on seeds 0-3
EMBEDDING_COUNTS = {
    "E0": {
        "F": [(4, 2), (6, 4), (7, 4), (17, 5)],
        "B": [(2, 1), (2, 1), (2, 0), (2, 2)],
    },
    "E1": {
        "F": [(19, 3), (24, 2), (39, 5), (33, 4)],
        "B": [(5, 1), (1, 2), (1, 2), (5, 2)],
    },
    "Z3": {
        "F": [(8, 2), (18, 1), (38, 4), (36, 6)],
        "B": [(2, 1), (0, 0), (2, 2), (2, 2)],
    },
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_embedding_counts_equal_the_pair_loops(datums, name):
    counts = {}
    for sub in ("F", "B"):
        emb = getattr(datums[name], "embed_" + sub.lower())
        assert emb.verify().ok
        counts[sub] = []
        for seed in range(4):
            rng = random.Random("%s %s %d" % (name, sub, seed))
            broken = SubHopfEmbedding(emb.small, emb.big, _corrupt_matrix(emb.embed, rng, seed + 1))
            expected = _embedding_oracle(broken)
            assert _counts(broken.verify(), expected) == list(expected.values())
            counts[sub].append(tuple(expected.values()))
    assert counts == EMBEDDING_COUNTS[name]


# -- ModuleRep.verify ---------------------------------------------------------------------------


def _modules(d):
    """Modules over kB, over H and over K (through the slice functor T)."""
    return {"triv_kB": trivial_module(d.kb), "reg_kB": regular_module(d.kb.alg),
            "reg_H": regular_module(d.h.alg), "T_triv": d.engine.t(trivial_module(d.kb)),
            "T_reg": d.engine.t(regular_module(d.kb.alg))}


# "rho(e_i)rho(e_j) = rho(e_i e_j)" on seeds 0, 1, 2
MODULE_COUNTS = {
    "E0": {
        "triv_kB": [1, 1, 1],
        "reg_kB": [1, 1, 1],
        "reg_H": [6, 13, 7],
        "T_triv": [6, 16, 7],
        "T_reg": [7, 16, 7],
    },
    "E1": {
        "triv_kB": [3, 4, 1],
        "reg_kB": [1, 4, 4],
        "reg_H": [11, 16, 24],
        "T_triv": [21, 32, 38],
        "T_reg": [22, 32, 39],
    },
    "Z3": {
        "triv_kB": [1, 0, 1],
        "reg_kB": [1, 0, 1],
        "reg_H": [7, 10, 33],
        "T_triv": [22, 22, 50],
        "T_reg": [21, 45, 50],
    },
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_module_counts_equal_the_pair_loops(datums, name):
    counts = {}
    for label, m in _modules(datums[name]).items():
        assert m.verify().ok and _module_oracle(m) == 0
        counts[label] = []
        for seed in range(3):
            rng = random.Random("%s %s %d" % (name, label, seed))
            action = list(m.action)
            for _ in range(seed + 1):
                a = rng.randrange(len(action))
                action[a] = _corrupt_matrix(action[a], rng, 1)
            broken = ModuleRep(m.algebra, m.dim, action, name=m.name)
            expected = _module_oracle(broken)
            assert _counts(broken.verify(), ["rho(e_i)rho(e_j) = rho(e_i e_j)"]) == [expected]
            counts[label].append(expected)
    assert counts == MODULE_COUNTS[name]


# -- Light's test: a certified source checks a generating set, else every index ------------

COACTION = "coaction is an algebra map"


def _coaction_oracle(k) -> int:
    """Pairs (i, j) with delta(e_i e_j) != delta(e_i) delta(e_j) in H (x) K."""
    h = k.over.alg

    def delta(x):
        out = {}
        for i, a in x.items():
            for key, c in k.coaction[i].items():
                _add(out, key, a * c)
        return _clean(out)

    def times(x, y):
        out = {}
        for (a1, b1), c1 in x.items():
            for (a2, b2), c2 in y.items():
                for a, ca in h.mult[a1][a2].items():
                    for b, cb in k.alg.mult[b1][b2].items():
                        _add(out, (a, b), c1 * c2 * ca * cb)
        return _clean(out)
    return sum(1 for i, j in itertools.product(range(k.dim), repeat=2)
               if delta(k.alg.mult[i][j]) != times(k.coaction[i], k.coaction[j]))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_hopf_counts_on_a_certified_algebra_use_its_generating_set(datums, name, monkeypatch):
    d = datums[name].h
    # a fresh copy, so that nothing is certified yet
    h = HopfAlgebraData(AlgebraData(d.dim, d.alg.mult, d.alg.unit, d.order,
                                    generators=d.alg.generators),
                        d.comult, d.counit, antipode=d.antipode)
    gens = h.alg.generating_set()
    calls = hopf_identities(monkeypatch)
    assert verify_hopf(h).ok
    # associativity, Delta, eps and S on the generators, and the two antipode axioms
    assert len(calls) == 4 * len(gens) + 2 < 4 * h.dim + 2
    # broken unit laws leave nothing certified: every count runs over every index
    two = Cyclo.from_rational(2, h.order)
    alg = AlgebraData(h.dim, h.alg.mult, {i: two * c for i, c in h.alg.unit.items()}, h.order)
    broken = HopfAlgebraData(alg, h.comult, h.counit, antipode=h.antipode)
    del calls[:]
    expected = _hopf_oracle(broken)
    assert _counts(verify_hopf(broken), expected) == list(expected.values())
    assert len(calls) == 4 * h.dim + 2


@pytest.mark.parametrize("name", sorted(SPECS))
def test_associativity_of_k_equals_the_triple_loop(datums, name):
    k = datums[name].k.alg
    e = [_basis(k, i) for i in range(k.dim)]
    for seed in range(3):
        rng = random.Random("%s K %d" % (name, seed))
        mult = [[dict(p) for p in row] for row in k.mult]
        for _ in range(seed + 1):
            i, j, t = (rng.randrange(k.dim) for _ in range(3))
            _add(mult[i][j], t, _scalar(rng, k.order))
        broken = AlgebraData(k.dim, [[_clean(p) for p in row] for row in mult], k.unit, k.order,
                             generators=k.generators)
        expected = sum(1 for i, j, t in itertools.product(range(k.dim), repeat=3)
                       if _times(broken, broken.mult[i][j], e[t])
                       != _times(broken, e[i], broken.mult[j][t]))
        assert expected > 0
        assert _counts(broken.verify(), ["associativity m(m x id) = m(id x m)"]) == [expected]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_coaction_counts_on_certified_algebras_equal_the_pair_loop(datums, name, monkeypatch):
    k = datums[name].k
    assert k.alg.verify().ok and k.over.alg.certified()
    gens = k.alg.generating_set()
    calls = hopf_identities(monkeypatch)
    assert _counts(verify_comodule_algebra(k), [COACTION]) == [0]
    assert len(calls) == len(gens) < k.dim
    for seed in range(4):
        rng = random.Random("%s coaction %d" % (name, seed))
        coaction = [dict(d) for d in k.coaction]
        for _ in range(seed + 1):
            i, a, b = rng.randrange(k.dim), rng.randrange(k.over.dim), rng.randrange(k.dim)
            _add(coaction[i], (a, b), _scalar(rng, k.order))
        broken = ComoduleAlgebraData(k.alg, k.over, [_clean(d) for d in coaction])
        expected = _coaction_oracle(broken)
        assert expected > 0
        del calls[:]
        assert _counts(verify_comodule_algebra(broken), [COACTION]) == [expected]
        # a failure found on the generators, or delta(1) != 1 x 1, counts every index
        assert len(calls) in (k.dim, len(gens) + k.dim)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_a_non_associative_target_counts_every_index(datums, name, monkeypatch):
    k = datums[name].k
    h = k.over
    assert k.alg.verify().ok
    rng = random.Random("%s target" % name)
    mult = [[dict(p) for p in row] for row in h.alg.mult]
    for _ in range(2):
        i, j, t = (rng.randrange(h.dim) for _ in range(3))
        _add(mult[i][j], t, _scalar(rng, h.order))
    alg = AlgebraData(h.dim, [[_clean(p) for p in row] for row in mult], h.alg.unit, h.order)
    broken = ComoduleAlgebraData(
        k.alg, HopfAlgebraData(alg, h.comult, h.counit, antipode=h.antipode), k.coaction)
    assert not alg.certified()
    expected = _coaction_oracle(broken)
    assert expected > 0
    calls = hopf_identities(monkeypatch)
    assert _counts(verify_comodule_algebra(broken), [COACTION]) == [expected]
    assert len(calls) == k.dim


def test_a_map_with_f_of_1_not_1_counts_every_index():
    # k^3 on the basis 1, e_1, e_2 (orthogonal idempotents, 1 = e_1 + e_2 + e_3)
    # and f(1) = 2, f(e_1) = f(e_2) = 0: f(e_i b) = 0 = f(e_i) f(b) for the
    # generators e_1, e_2 and every b, but f(1 1) = 2 != 4 = f(1) f(1)
    one, zero = Cyclo.one(1), Cyclo.zero(1)
    mult = [[{j: one} if j else {0: one} for j in range(3)],
            [{1: one}, {1: one}, {}],
            [{2: one}, {}, {2: one}]]
    alg = AlgebraData(3, mult, {0: one}, 1)
    assert alg.verify().ok and alg.generating_set() == [1, 2]
    f = Matrix.from_rows([[Cyclo.from_rational(2, 1), zero, zero]], 1)
    count = algebra_map_failures(f, alg, lambda i: f.scaled(f.entry(0, i)), {0: one}, ())
    assert count == sum(1 for i, j in itertools.product(range(3), repeat=2)
                        if _image(f, alg.mult[i][j]) != _clean({0: f.entry(0, i) * f.entry(0, j)}))
    assert count == 1
