import contextlib
import io
import os

import pytest

from dyntwist.monomial import (
    MonomialHopfSpec,
    coset_data,
    group_sub_embedding,
    make_monomial_hopf,
    make_monomial_comodule,
    monomial_sub_embedding,
    sub_table,
)
from dyntwist.hopf import group_algebra
from dyntwist.scalar import Cyclo


def in_span(space, vec) -> bool:
    """vec lies in the subspace: appending it to the basis keeps the rank."""
    from dyntwist.linalg import Matrix, rank
    return rank(Matrix.from_cols(space.vectors() + [vec], space.ambient_dim,
                                 space.basis.order)) == space.dim


def hopf_identities(monkeypatch) -> list:
    """The column identities ``dyntwist.hopf`` forms from here on, one entry each."""
    from dyntwist import hopf
    calls = []
    compare = hopf.differing_columns

    def counted(a, b):
        calls.append((a.rows, a.cols))
        return compare(a, b)

    monkeypatch.setattr(hopf, "differing_columns", counted)
    return calls


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def product_table(t1, t2):
    """Direct product, index (i, j) -> i*len(t2) + j."""
    n2 = len(t2)
    n = len(t1) * n2
    table = [[0] * n for _ in range(n)]
    for i1 in range(len(t1)):
        for j1 in range(n2):
            for i2 in range(len(t1)):
                for j2 in range(n2):
                    a = i1 * n2 + j1
                    b = i2 * n2 + j2
                    table[a][b] = t1[i1][i2] * n2 + t2[j1][j2]
    return table


@pytest.fixture(scope="session")
def z2_table():
    return cyclic_table(2)


@pytest.fixture(scope="session")
def z2z2_table():
    return product_table(cyclic_table(2), cyclic_table(2))


class Instance:
    """One monomial-family test instance with all derived structures."""

    def __init__(self, table, chi_signs, g, n, f_indices, b_indices, mu, order):
        self.order = order
        self.table = table
        self.spec = MonomialHopfSpec(
            table=table,
            chi=[Cyclo.from_rational(s, order) for s in chi_signs],
            g=g,
            n=n,
        )
        self.f_indices = f_indices
        self.b_indices = b_indices
        self.mu = mu
        self.h = make_monomial_hopf(self.spec, order)
        self.k = make_monomial_comodule(self.spec, f_indices, mu, self.h)
        f_spec = MonomialHopfSpec(
            table=sub_table(table, f_indices),
            chi=[self.spec.chi[i] for i in sorted(f_indices)],
            g=sorted(f_indices).index(g),
            n=n,
        )
        self.hf = make_monomial_hopf(f_spec, order, name="H_F")
        self.embed_f = monomial_sub_embedding(self.h, self.spec, self.hf, f_indices)
        self.kb = group_algebra(sub_table(table, b_indices), order, name="kB")
        self.embed_b = group_sub_embedding(self.h, self.spec, self.kb, b_indices)
        self.cosets = coset_data(table, f_indices, b_indices, g, n)


@pytest.fixture(scope="session")
def e0():
    table = cyclic_table(2)
    return Instance(table, [1, -1], g=1, n=2, f_indices=[0, 1], b_indices=[0],
                    mu=Cyclo.one(2), order=2)


def e0_spec():
    from dyntwist.datum import DatumSpec
    return DatumSpec(
        table=cyclic_table(2),
        chi=[Cyclo.one(2), Cyclo.from_rational(-1, 2)],
        g=1, n=2, f_indices=[0, 1], b_indices=[0],
        mu=Cyclo.one(2),
    )


def write_e0_files(out: str) -> dict:
    """The files of E0 that `example` and `compute-twist` write, plus T(triv) and a gauge.

    Returns {kind: path} for the kinds hopf, comodule, base, datum, twist,
    ttriv (the K-module T of the trivial kB-module, which `stab` reads) and
    gauge (the unit of H (x) kB, a gauge from the twist to itself).
    """
    from dyntwist.cli import main, module_to_json, write_json
    from dyntwist.datum import MonomialDatum
    from dyntwist.rep import trivial_module
    paths = {kind: os.path.join(out, "e0_%s.json" % kind)
             for kind in ("hopf", "comodule", "base", "datum", "twist", "ttriv", "gauge")}
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["example", "E0", "--out-dir", out]) == 0
        assert main(["compute-twist", paths["datum"], "--out", paths["twist"]]) == 0
    datum = MonomialDatum(e0_spec())
    write_json(paths["ttriv"],
               module_to_json(datum.engine.t(trivial_module(datum.kb, name="triv"))))
    write_json(paths["gauge"], {"format": "gauge", "order": 2, "coeffs": [[0, 0, "1"]]})
    return paths


def e1_spec(mu=None):
    from dyntwist.datum import DatumSpec
    table = product_table(cyclic_table(2), cyclic_table(2))
    return DatumSpec(
        table=table,
        chi=[Cyclo.one(2), Cyclo.one(2),
             Cyclo.from_rational(-1, 2), Cyclo.from_rational(-1, 2)],
        g=2, n=2, f_indices=[0, 1, 2, 3], b_indices=[0, 1],
        mu=mu if mu is not None else Cyclo.one(2),
    )


def z3_spec():
    from dyntwist.datum import DatumSpec
    z3 = Cyclo.zeta(3)
    return DatumSpec(table=cyclic_table(3), chi=[Cyclo.one(3), z3, z3 * z3], g=1, n=3,
                     f_indices=[0, 1, 2], b_indices=[0], mu=Cyclo.one(3))


@pytest.fixture(scope="session")
def e0_datum():
    from dyntwist.datum import MonomialDatum
    return MonomialDatum(e0_spec())


@pytest.fixture(scope="session")
def e1_datum():
    from dyntwist.datum import MonomialDatum
    return MonomialDatum(e1_spec())


@pytest.fixture(scope="session")
def e0_twist(e0_datum):
    twist, report = e0_datum.compute_twist()
    assert report.ok, str(report)
    return twist


@pytest.fixture(scope="session")
def e1_twist(e1_datum):
    twist, report = e1_datum.compute_twist()
    assert report.ok, str(report)
    return twist


@pytest.fixture(scope="session")
def e1():
    # G = <g> x <b>, index (i, j) -> 2 i + j with g = (1,0) -> 2, b = (0,1) -> 1
    table = product_table(cyclic_table(2), cyclic_table(2))
    chi = [1, 1, -1, -1]  # chi(g) = -1, chi(b) = 1
    return Instance(table, chi, g=2, n=2, f_indices=[0, 1, 2, 3],
                    b_indices=[0, 1], mu=Cyclo.one(2), order=2)
