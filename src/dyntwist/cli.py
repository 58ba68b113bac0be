"""Command line front end: file formats, verifiers, instance generation.

argv is parsed by hand from one command table, ``COMMANDS``; option names
are matched exactly, and a usage error is an input error like any other.

All files are JSON with string-encoded exact scalars ("p/q" or
"[c0,...]@N") and sparse tensor entries as index tuples plus a scalar, all
indices 0-based.  Output files are byte-stable: fixed basis orders, sorted
coefficient lists, canonical scalar strings.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 input error.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .hopf import (AlgebraData, ComoduleAlgebraData, HopfAlgebraData, StructureError,
                   ValidationError, group_exponent, group_generators, verify_hopf)
from .linalg import LinAlgError, Matrix, generated_words
from .report import CheckReport
from .scalar import Cyclo, ScalarError, euler_phi, format_scalar, lcm, parse_scalar

# each command imports the layers it runs, so start-up loads no more
if TYPE_CHECKING:
    from .rep import ModuleRep
    from .twist import GaugeElement, TwistElement

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

DEFAULT_MAX_DIM = 10 ** 7


class InputError(ValueError):
    pass


def max_dim() -> int:
    raw = os.environ.get("DYNTWIST_MAX_DIM", "")
    if not raw:
        return DEFAULT_MAX_DIM
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise InputError("DYNTWIST_MAX_DIM must be a positive integer, got %r" % raw)
    return value


def guard_dims(*dims: int) -> None:
    total = 1
    for d in dims:
        total *= max(d, 1)
    if total > max_dim():
        raise InputError(
            "tensor size %d exceeds DYNTWIST_MAX_DIM = %d" % (total, max_dim()))


def guard_order(order: int) -> None:
    """Bound phi(N)^2, the size of the scalar tables of Q(zeta_N), by DYNTWIST_MAX_DIM."""
    # phi(N)^2 >= N / 2, so a larger N is rejected on that bound, unfactored
    guard_dims(euler_phi(order) ** 2 if order <= 2 * max_dim() else (order + 1) // 2)


# -- reading structure files ------------------------------------------------------


def int_field(doc: dict, key: str) -> int:
    """A required positive integer field."""
    if key not in doc:
        raise InputError("missing key %r" % key)
    value = doc[key]
    if type(value) is not int or value < 1:
        raise InputError("%r must be a positive integer, got %r" % (key, value))
    return value


def read_entries(doc: dict, key: str, dims: tuple, order: int) -> dict:
    """The sparse tensor ``doc[key]`` as {index tuple: scalar}.

    Every entry is len(dims) integer indices, index t in [0, dims[t]), then a
    scalar string; a missing required key, a malformed entry, an index out
    of range and a repeated index tuple are input errors.
    """
    if key not in doc:
        raise InputError("missing key %r" % key)
    entries = doc[key]
    if not isinstance(entries, list):
        raise InputError("%r must be a list of entries" % key)
    out: dict = {}
    for entry in entries:
        if (not isinstance(entry, list) or len(entry) != len(dims) + 1
                or not isinstance(entry[-1], str)):
            raise InputError("%s entry %r: expected %d indices and a scalar string"
                             % (key, entry, len(dims)))
        idx = tuple(entry[:-1])
        if not all(type(i) is int and 0 <= i < d for i, d in zip(idx, dims)):
            raise InputError("%s entry %r: index out of range for dims %r"
                             % (key, entry, dims))
        if idx in out:
            raise InputError("%s entry %r: duplicate index" % (key, entry))
        out[idx] = parse_scalar(entry[-1], order)
    return out


def index_list(values, dim: int, what: str) -> list:
    """A list of integer indices in [0, dim)."""
    if not (isinstance(values, list)
            and all(type(i) is int and 0 <= i < dim for i in values)):
        raise InputError("%s must be a list of indices below %d" % (what, dim))
    return values


def distinct_indices(values, dim: int, what: str) -> list:
    """An ``index_list`` that names no index twice."""
    if len(set(index_list(values, dim, what))) != len(values):
        raise InputError("%s lists an index twice" % what)
    return values


def read_algebra(doc: dict, dim: int, order: int, name: str) -> AlgebraData:
    """The algebra of a structure file: ``mult``, ``unit`` and optional ``generators``.

    Listed generators must generate the algebra, since module maps are
    checked on them alone: the unit and the words in the generators, grown by
    right multiplication, must span all of it.
    """
    mult = [[dict() for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), c in read_entries(doc, "mult", (dim, dim, dim), order).items():
        mult[i][j][k] = c
    unit = {i: c for (i,), c in read_entries(doc, "unit", (dim,), order).items()}
    gens = doc.get("generators")
    alg = AlgebraData(dim, mult, unit, order, name=name,
                      generators=None if gens is None else index_list(gens, dim, "generators"))
    if gens is None:
        return alg
    one = Cyclo.one(order)
    words = generated_words(alg.unit, [{g: one} for g in alg.generators], alg.multiply, dim)[1]
    if len(words) < dim:
        raise InputError("generators span %d of the %d dimensions of %s"
                         % (len(words), dim, name))
    return alg


# -- serialisation --------------------------------------------------------------


def _sparse_entries_3(tensor_rows) -> list:
    out = []
    for i, row in enumerate(tensor_rows):
        for j, cell in enumerate(row):
            for k in sorted(cell):
                out.append([i, j, k, format_scalar(cell[k])])
    return out


def _sparse_vec(values) -> list:
    return [[i, format_scalar(v)] for i, v in enumerate(values) if not v.is_zero()]


def _matrix_entries(m: Matrix) -> list:
    return [[i, j, format_scalar(v)] for i, j, v in m.nonzeros()]


def hopf_to_json(h: HopfAlgebraData) -> dict:
    comult = []
    for k, cell in enumerate(h.comult):
        for (i, j) in sorted(cell):
            comult.append([k, i, j, format_scalar(cell[(i, j)])])
    return {
        "format": "hopf-algebra",
        "order": h.order,
        "dim": h.dim,
        "name": h.name,
        "mult": _sparse_entries_3(h.alg.mult),
        "unit": sorted([[i, format_scalar(c)] for i, c in h.alg.unit.items()]),
        "comult": comult,
        "counit": _sparse_vec(h.counit),
        "antipode": _matrix_entries(h.antipode),
        "generators": h.alg.generators,
    }


def hopf_from_json(doc: dict) -> HopfAlgebraData:
    if doc.get("format") != "hopf-algebra":
        raise InputError("expected a hopf-algebra file")
    order = int_field(doc, "order")
    guard_order(order)
    dim = int_field(doc, "dim")
    guard_dims(dim, dim, dim)
    alg = read_algebra(doc, dim, order, doc.get("name", "H"))
    comult = [dict() for _ in range(dim)]
    for (k, i, j), c in read_entries(doc, "comult", (dim, dim, dim), order).items():
        comult[k][(i, j)] = c
    counit = [Cyclo.zero(order)] * dim
    for (i,), c in read_entries(doc, "counit", (dim,), order).items():
        counit[i] = c
    antipode = None
    if doc.get("antipode"):
        rows = [{} for _ in range(dim)]
        for (i, j), c in read_entries(doc, "antipode", (dim, dim), order).items():
            rows[i][j] = c
        antipode = Matrix(dim, dim, rows, order)
    return HopfAlgebraData(alg, comult, counit, antipode=antipode,
                           name=doc.get("name", "H"))


def comodule_to_json(k: ComoduleAlgebraData) -> dict:
    coaction = []
    for j, cell in enumerate(k.coaction):
        for (hi, ki) in sorted(cell):
            coaction.append([j, hi, ki, format_scalar(cell[(hi, ki)])])
    return {
        "format": "comodule-algebra",
        "order": k.order,
        "dim": k.dim,
        "name": k.name,
        "mult": _sparse_entries_3(k.alg.mult),
        "unit": sorted([[i, format_scalar(c)] for i, c in k.alg.unit.items()]),
        "coaction": coaction,
        "generators": k.alg.generators,
    }


def comodule_from_json(doc: dict, over: HopfAlgebraData) -> ComoduleAlgebraData:
    if doc.get("format") != "comodule-algebra":
        raise InputError("expected a comodule-algebra file")
    order = int_field(doc, "order")
    if order != over.order:
        raise InputError("comodule and Hopf algebra use different field orders")
    dim = int_field(doc, "dim")
    guard_dims(dim, dim, over.dim)
    alg = read_algebra(doc, dim, order, doc.get("name", "K"))
    coaction = [dict() for _ in range(dim)]
    for (j, hi, ki), c in read_entries(doc, "coaction", (dim, over.dim, dim),
                                       order).items():
        coaction[j][(hi, ki)] = c
    return ComoduleAlgebraData(alg, over, coaction, name=doc.get("name", "K"))


def module_to_json(m: ModuleRep) -> dict:
    action = [[a] + entry for a, mat in enumerate(m.action) for entry in _matrix_entries(mat)]
    return {
        "format": "module",
        "order": m.order,
        "dim": m.dim,
        "name": m.name,
        "action": action,
    }


def module_from_json(doc: dict, algebra: AlgebraData) -> ModuleRep:
    from .rep import ModuleRep
    if doc.get("format") != "module":
        raise InputError("expected a module file")
    order = int_field(doc, "order")
    if order != algebra.order:
        raise InputError("module and algebra use different field orders")
    dim = int_field(doc, "dim")
    guard_dims(dim, dim, algebra.dim)
    rows = [[{} for _ in range(dim)] for _ in range(algebra.dim)]
    for (a, i, j), c in read_entries(doc, "action", (algebra.dim, dim, dim),
                                     order).items():
        rows[a][i][j] = c
    mod = ModuleRep(algebra, dim, [Matrix(dim, dim, r, order) for r in rows],
                    name=doc.get("name", "V"))
    # the stabilizer commands take a module on trust, so one that is not is bad input
    failed = mod.verify().failures()
    if failed:
        raise InputError("module %s is not a %s-module: %s" % (
            mod.name, algebra.name, "; ".join("%s FAIL (nonzero residuals: %d)"
                                              % (c.name, c.residual_nonzero_count) for c in failed)))
    return mod


def twist_to_json(t: TwistElement) -> dict:
    coeffs = [[i, j, k, format_scalar(c)]
              for (i, j, k), c in sorted(t.coeffs.items())]
    doc = {
        "format": "twist",
        "order": t.order,
        "coeffs": coeffs,
    }
    if t.inverse is not None:
        doc["inverse"] = [[i, j, k, format_scalar(c)]
                          for (i, j, k), c in sorted(t.inverse.items())]
    return doc


def twist_from_json(doc: dict, h: HopfAlgebraData,
                    s: ComoduleAlgebraData) -> TwistElement:
    """The twist of a file; its inverse is kept only when J J^-1 = J^-1 J = 1
    exactly, and otherwise J is inverted by elimination, as stderr says."""
    from .twist import TwistElement, two_sided
    if doc.get("format") != "twist":
        raise InputError("expected a twist file")
    order = int_field(doc, "order")
    if order != h.order:
        raise InputError("twist and Hopf algebra use different field orders")
    dims = (h.dim, h.dim, s.dim)
    guard_dims(*dims)
    t = TwistElement(h, s, read_entries(doc, "coeffs", dims, order))
    if doc.get("inverse"):
        t.inverse = read_entries(doc, "inverse", dims, order)
        if not two_sided(t.legs, t.coeffs, t.inverse):
            sys.stderr.write("the twist's inverse is not two-sided; inverting J by elimination\n")
            t.inverse = None
    return t


def gauge_from_json(doc: dict, h: HopfAlgebraData,
                    s: ComoduleAlgebraData) -> GaugeElement:
    from .twist import GaugeElement
    if doc.get("format") != "gauge":
        raise InputError("expected a gauge file")
    order = int_field(doc, "order")
    if order != h.order:
        raise InputError("gauge and Hopf algebra use different field orders")
    guard_dims(h.dim, s.dim)
    return GaugeElement(h, s, read_entries(doc, "coeffs", (h.dim, s.dim), order))


def datum_to_json(spec) -> dict:
    return {
        "format": "datum",
        "group": spec.table,
        "chi": [format_scalar(c) for c in spec.chi],
        "g": spec.g,
        "n": spec.n,
        "F": sorted(spec.f_indices),
        "B": sorted(spec.b_indices),
        "mu": format_scalar(spec.mu),
    }


def datum_from_json(doc: dict):
    from .datum import DatumSpec
    if doc.get("format") != "datum":
        raise InputError("expected a datum file")
    for key in ("group", "chi", "g", "n", "F", "B", "mu"):
        if key not in doc:
            raise InputError("missing key %r" % key)
    table = doc["group"]
    size = len(table) if isinstance(table, list) else 0
    elements = list(range(size))
    rows = [sorted(index_list(row, size, "a group row")) for row in table] if size else []
    # a Latin square: element orders and the exponent are then finite
    if (not size or any(row != elements for row in rows)
            or any(sorted(col) != elements for col in zip(*table))):
        raise InputError("group must be a Latin square on 0, ..., |G| - 1")
    # Light's test: the g with (xg)y = x(gy) for all x, y are closed under
    # products, so checking the generators checks the whole table
    for g in group_generators(table):
        if any(table[table[x][g]][y] != table[x][table[g][y]] for x in elements for y in elements):
            raise InputError("group table is not associative")
    chi_raw, mu_raw = doc["chi"], doc["mu"]
    if not (isinstance(chi_raw, list) and len(chi_raw) == size
            and all(isinstance(c, str) for c in chi_raw + [mu_raw])):
        raise InputError("chi needs one scalar string per group element, mu a scalar string")
    n = int_field(doc, "n")
    order = lcm(group_exponent(table), n, _scalar_order(mu_raw))
    guard_order(order)
    subsets = {key: distinct_indices(doc[key], size, key) for key in ("F", "B")}
    return DatumSpec(
        table=table,
        chi=[parse_scalar(c, order) for c in chi_raw],
        g=index_list([doc["g"]], size, "g")[0],
        n=n,
        f_indices=subsets["F"],
        b_indices=subsets["B"],
        mu=parse_scalar(mu_raw, order),
    ), order


def _scalar_order(text: str) -> int:
    text = text.strip()
    if not (text.startswith("[") and "@" in text):
        return 1
    order = text.rsplit("@", 1)[1].strip()
    if not order.isdigit() or int(order) < 1:
        raise ScalarError("bad order in %r" % text)
    return int(order)


def write_json(path: str, doc: dict) -> None:
    try:
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    except OSError as exc:
        raise InputError("cannot write %s: %s" % (path, exc)) from exc


def read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc


def _sha256(path: str) -> str:
    import hashlib  # only --report hashes, so other runs do not load libcrypto
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc


def report_document(command: str, inputs: list[str], report: CheckReport,
                    outputs: list[str], extra: dict | None = None) -> dict:
    """The --report document; ``extra`` adds command-specific keys."""
    doc = {
        "command": command,
        "inputs": {p: _sha256(p) for p in inputs},
        "checks": [c.as_dict() for c in report.checks],
        "outputs": outputs,
    }
    doc.update(extra or {})
    return doc


# -- commands --------------------------------------------------------------------


def command_name(args) -> str:
    """The report's command: the command word, with verify's kind or example's name,
    as given."""
    word = {"verify": "kind", "example": "name"}.get(args.command)
    if word and hasattr(args, word):
        return "%s %s" % (args.command, getattr(args, word))
    return args.command


def cmd_verify(args) -> int:
    kind = args.kind
    inputs = list(args.files)
    extra = None
    if kind == "hopf":
        if len(inputs) != 1:
            raise InputError("verify hopf needs H.json")
        h = hopf_from_json(read_json(inputs[0]))
        report = verify_hopf(h)
    elif kind == "comodule":
        if len(inputs) != 2:
            raise InputError("verify comodule needs H.json K.json")
        h = hopf_from_json(read_json(inputs[0]))
        k = comodule_from_json(read_json(inputs[1]), h)
        # K's own algebra axioms first, as `verify hopf` runs H's
        report = k.alg.verify()
        report.merge(k.verify())
    elif kind == "twist":
        from .twist import verify_twist
        if len(inputs) != 3:
            raise InputError("verify twist needs H.json S.json J.json")
        h = hopf_from_json(read_json(inputs[0]))
        s = comodule_from_json(read_json(inputs[1]), h)
        t = twist_from_json(read_json(inputs[2]), h, s)
        report = verify_twist(t)
        extra = {"dynamical_support": t.dynamical_support}
    elif kind == "gauge":
        from .twist import gauge_check
        if len(inputs) != 5:
            raise InputError("verify gauge needs H.json S.json J1.json J2.json t.json")
        h = hopf_from_json(read_json(inputs[0]))
        s = comodule_from_json(read_json(inputs[1]), h)
        t1 = twist_from_json(read_json(inputs[2]), h, s)
        t2 = twist_from_json(read_json(inputs[3]), h, s)
        g = gauge_from_json(read_json(inputs[4]), h, s)
        report = gauge_check(t1, t2, g)
    else:
        raise InputError("unknown verify kind %r" % kind)
    return finish(args, command_name(args), inputs, report, [], extra)


def _example_spec(name: str, args):
    from .datum import DatumSpec
    if name == "E0":
        table = [[0, 1], [1, 0]]
        return DatumSpec(table=table,
                         chi=[Cyclo.one(2), Cyclo.from_rational(-1, 2)],
                         g=1, n=2, f_indices=[0, 1], b_indices=[0],
                         mu=Cyclo.one(2))
    if name == "E1":
        table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
        return DatumSpec(table=table,
                         chi=[Cyclo.one(2), Cyclo.one(2),
                              Cyclo.from_rational(-1, 2),
                              Cyclo.from_rational(-1, 2)],
                         g=2, n=2, f_indices=[0, 1, 2, 3], b_indices=[0, 1],
                         mu=Cyclo.one(2))
    if name == "custom":
        m = args.group_order
        n = args.n
        if m is None or n is None:
            raise InputError("custom needs --group-order and --n")
        if m < 1 or n < 1:
            raise InputError("--group-order and --n must be positive")
        if m % n:
            raise ValidationError("n = |g| requires n | group order")
        mu_order = _scalar_order(args.mu)
        chi_order = _scalar_order(args.chi_gen)
        order = lcm(m, n, mu_order, chi_order)
        guard_order(order)
        guard_dims(m, m)
        table = [[(i + j) % m for j in range(m)] for i in range(m)]
        chi_gen = parse_scalar(args.chi_gen, order)
        chi = [chi_gen ** i for i in range(m)]
        g = (m // n) % m
        try:
            b_indices = [int(x) for x in args.b.split(",")] if args.b else [0]
        except ValueError as exc:
            raise InputError("--b needs comma-separated integers, got %r" % args.b) from exc
        return DatumSpec(table=table, chi=chi, g=g, n=n,
                         f_indices=list(range(m)),
                         b_indices=distinct_indices(b_indices, m, "--b"),
                         mu=parse_scalar(args.mu, order))
    raise InputError("unknown example %r" % name)


def cmd_example(args) -> int:
    from .datum import MonomialDatum, PipelineError
    spec = _example_spec(args.name, args)
    command = command_name(args)
    report = CheckReport(command)
    solve_check = "xi^-1(id) uniquely solvable on (H_reg, A_reg)"
    try:
        datum = MonomialDatum(spec)
    except PipelineError as exc:
        report.add(solve_check, False, 1)
        sys.stderr.write("pipeline failure: %s\n" % exc)
        return finish(args, command, [], report, [])
    weights = ", ".join(format_scalar(c) for c in datum.weights)
    report.add("%s, station weights %s" % (solve_check, weights), True)
    outdir = args.out_dir
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise InputError("cannot create %s: %s" % (outdir, exc)) from exc
    prefix = os.path.join(outdir, args.name.lower())
    paths = []
    write_json(prefix + "_hopf.json", hopf_to_json(datum.h))
    paths.append(prefix + "_hopf.json")
    write_json(prefix + "_comodule.json", comodule_to_json(datum.k))
    paths.append(prefix + "_comodule.json")
    write_json(prefix + "_base.json", comodule_to_json(datum.engine.s_base()))
    paths.append(prefix + "_base.json")
    write_json(prefix + "_datum.json", datum_to_json(spec))
    paths.append(prefix + "_datum.json")
    rc = finish(args, command, [], report, paths)
    for p in paths:
        print(p)
    return rc


def cmd_compute_twist(args) -> int:
    from .datum import MonomialDatum, PipelineError
    spec, order = datum_from_json(read_json(args.datum))
    dim_h = len(spec.table) * spec.n
    guard_dims(dim_h, dim_h, len(spec.b_indices))
    try:
        twist, report = MonomialDatum(spec, order=order).compute_twist()
    except PipelineError as exc:
        report = CheckReport(command_name(args))
        report.add("pipeline hypothesis (invertibility of xi^-1(id))", False, 1)
        sys.stderr.write("pipeline failure: %s\n" % exc)
        return finish(args, command_name(args), [args.datum], report, [])
    out = args.out or "twist.json"
    write_json(out, twist_to_json(twist))
    return finish(args, command_name(args), [args.datum], report, [out],
                  {"dynamical_support": twist.dynamical_support})


def cmd_stab(args) -> int:
    from .stab import stab_hom_realized, yan_zhu_stabilizer
    h = hopf_from_json(read_json(args.hopf))
    k = comodule_from_json(read_json(args.comodule), h)
    v = module_from_json(read_json(args.v), k.alg)
    w = module_from_json(read_json(args.w), k.alg)
    report = CheckReport("stabilizers")
    st1 = yan_zhu_stabilizer(k, v, w)
    report.merge(st1.report, prefix="yan-zhu: ")
    st2 = stab_hom_realized(k, v, w)
    report.merge(st2.report, prefix="realized: ")
    bad = abs(st1.dim - st2.dim)
    report.add("realizations agree in dimension (%d vs %d)" % (st1.dim, st2.dim),
               bad == 0, bad)
    lhs = k.dim * st2.dim
    rhs = v.dim * w.dim * h.dim
    bad = abs(lhs - rhs)
    report.add("dim K * dim St = dim V * dim W * dim H (%d vs %d)" % (lhs, rhs),
               bad == 0, bad)
    return finish(args, command_name(args),
                  [args.hopf, args.comodule, args.v, args.w], report, [])


def cmd_twisted_galois(args) -> int:
    from .twist import build_twisted_galois
    h = hopf_from_json(read_json(args.hopf))
    s = comodule_from_json(read_json(args.s), h)
    t = twist_from_json(read_json(args.twist), h, s)
    _, report = build_twisted_galois(t)
    return finish(args, command_name(args), [args.hopf, args.s, args.twist],
                  report, [])


def finish(args, command: str, inputs: list[str], report: CheckReport,
           outputs: list[str], extra: dict | None = None) -> int:
    for line in report.lines():
        print(line)
    if getattr(args, "report", None):
        write_json(args.report, report_document(command, inputs, report, outputs, extra))
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


# -- the command table and its parser ------------------------------------------

# command: (handler, help, positional names, {option: (default, converter, help)},
# {positional: choices}); a last positional "name*" takes the remaining words
COMMANDS = {
    "verify": (cmd_verify, "run a verifier on structure files", ("kind", "files*"), {},
               {"kind": ("hopf", "comodule", "twist", "gauge")}),
    "example": (cmd_example, "emit files for a named instance", ("name",), {
        "--out-dir": (".", str, "output directory (default .)"),
        "--group-order": (None, int, "cyclic group order (custom)"),
        "--n": (None, int, "nilpotency index (custom)"),
        "--chi-gen": ("-1", str, "character value on the generator (custom, default -1)"),
        "--mu": ("1", str, "fixed n-th root of lambda (custom, default 1)"),
        "--b": ("", str, "comma-separated B indices (custom, default 0)"),
    }, {"name": ("E0", "E1", "custom")}),
    "compute-twist": (cmd_compute_twist, "run the full twist pipeline", ("datum",),
                      {"--out": (None, str, "twist output path (default twist.json)")}, {}),
    "stab": (cmd_stab, "compute both stabilizer realizations",
             ("hopf", "comodule", "v", "w"), {}, {}),
    "twisted-galois": (cmd_twisted_galois, "build and check H* (x) S",
                       ("hopf", "s", "twist"), {}, {}),
}
# the options before the command word
GLOBAL_OPTIONS = {"--report": (None, str, "write a JSON report document here")}


def _synopsis(command: str) -> str:
    _, _, names, options, choices = COMMANDS[command]
    words = [command]
    for name in names:
        if name in choices:
            words.append("{%s}" % ",".join(choices[name]))
        else:
            words.append(name.rstrip("*").upper() + ("..." if name.endswith("*") else ""))
    return " ".join(words + (["[OPTIONS]"] if options else []))


def usage() -> str:
    """The --help text, built from COMMANDS."""
    lines = ["usage: dyntwist [--report TEXT] COMMAND ...", "",
             "exact Hopf-algebra computations and dynamical twists", "", "commands:"]
    for command, (_, text, _, options, _) in COMMANDS.items():
        lines += ["  " + _synopsis(command), "      " + text]
        lines += ["      %-20s %s" % (option + (" INT" if convert is int else " TEXT"), help_text)
                  for option, (_, convert, help_text) in options.items()]
    lines += ["", "options:", "  %-20s %s" % ("--report TEXT", GLOBAL_OPTIONS["--report"][2]),
              "  %-20s %s" % ("-h, --help", "print this message and exit"), "",
              "Option names are matched exactly.  Exit codes: 0 all checks pass,",
              "1 a mathematical check failed, 2 input error."]
    return "\n".join(lines)


def _take_option(word: str, words, given: dict) -> None:
    """Record --name=value, or --name and the word after it, in given."""
    name, eq, value = word.partition("=")
    given[name] = value if eq else next(words, None)


def _set_options(args, given: dict, options: dict) -> None:
    """Each option's default, then the given values, converted, as attributes of args.

    The known options are taken first, so a --report given after an unknown
    option is still set when the unknown one is reported.
    """
    for option, (default, _, _) in options.items():
        setattr(args, option[2:].replace("-", "_"), default)
    for option, value in sorted(given.items(), key=lambda item: item[0] not in options):
        if option not in options:
            raise InputError("unknown option %s" % option)
        if value is None or value.startswith("--"):
            raise InputError("%s needs a value" % option)
        try:
            setattr(args, option[2:].replace("-", "_"), options[option][1](value))
        except ValueError:
            raise InputError("%s needs an integer, got %r" % (option, value)) from None


def parse_args(argv: list[str], args) -> None:
    """Fill args from argv through COMMANDS; a usage error raises InputError.

    The global options come before the command word, the command's own options
    anywhere after it.  The positionals are set before anything is checked, so
    a report on a usage error names the command words as given.
    """
    if "-h" in argv or "--help" in argv:
        args.help = True
        return
    words = iter(argv)
    given: dict = {}
    for word in words:
        if not word.startswith("--"):
            args.command = word
            break
        _take_option(word, words, given)
    _set_options(args, given, GLOBAL_OPTIONS)
    if args.command not in COMMANDS:
        raise InputError("%s; dyntwist --help lists the commands"
                         % ("unknown command %r" % args.command if args.command
                            else "no command given"))
    handler, _, names, options, choices = COMMANDS[args.command]
    positionals: list = []
    given = {}
    for word in words:
        if word.startswith("--"):
            _take_option(word, words, given)
        else:
            positionals.append(word)
    fixed = [name for name in names if not name.endswith("*")]
    for name, word in zip(fixed, positionals):
        setattr(args, name, word)
    if len(fixed) < len(names):
        setattr(args, names[-1][:-1], positionals[len(fixed):])
    elif len(positionals) > len(fixed):
        raise InputError("unexpected argument %r (dyntwist %s)"
                         % (positionals[len(fixed)], _synopsis(args.command)))
    if len(positionals) < len(fixed):
        raise InputError("missing %s (dyntwist %s)"
                         % (fixed[len(positionals)].upper(), _synopsis(args.command)))
    for name, allowed in choices.items():
        if getattr(args, name) not in allowed:
            raise InputError("invalid %s %s %r (choose from %s)" % (
                args.command, name, getattr(args, name), ", ".join(allowed)))
    _set_options(args, given, options)
    args.func = handler


def main(argv=None) -> int:
    args = SimpleNamespace(command="", help=False, report=None)
    try:
        parse_args(sys.argv[1:] if argv is None else list(argv), args)
        if args.help:
            print(usage())
            return EXIT_OK
        return args.func(args)
    except (InputError, ScalarError, StructureError, ValidationError,
            LinAlgError) as exc:
        sys.stderr.write("input error: %s\n" % exc)
        if args.report:
            command = command_name(args)
            doc = report_document(command, [], CheckReport(command), [])
            doc["input_error"] = str(exc)
            try:
                write_json(args.report, doc)
            except InputError as report_exc:
                # the report path itself may be what failed above
                if str(report_exc) != str(exc):
                    sys.stderr.write("input error: %s\n" % report_exc)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
