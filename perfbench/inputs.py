"""Seeded instance files for the benchmark.

Each instance starts from the datum document that ``dyntwist example``
writes.  The seed picks a relabelling of the group that fixes the identity
and, over Q(zeta_N) with phi(N) > 1, a Galois conjugation zeta -> zeta^k.
Seed 0 picks neither, so its files are byte-identical to the ``example``
output.  The files are written with the program's own serialisers:

    {inst}_datum.json  {inst}_hopf.json  {inst}_comodule.json  {inst}_base.json
    {inst}_ttriv.json  {inst}_treg.json   T(trivial) and T(A_reg), for ``stab``

Run as a script (the benchmark's set-up step, in a child process):

    python3 perfbench/inputs.py --seed 3 --out DIR e1 z3
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys

# Datum documents exactly as `dyntwist example` emits them, and the
# arguments that make `example` emit them.
BASE_DATA = {
    "e0": {"B": [0], "F": [0, 1], "chi": ["1", "-1"], "format": "datum",
           "g": 1, "group": [[0, 1], [1, 0]], "mu": "1", "n": 2},
    "e1": {"B": [0, 1], "F": [0, 1, 2, 3], "chi": ["1", "1", "-1", "-1"],
           "format": "datum", "g": 2,
           "group": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
           "mu": "1", "n": 2},
    "z3": {"B": [0], "F": [0, 1, 2],
           "chi": ["[1,0]@3", "[0,1]@3", "[-1,-1]@3"], "format": "datum",
           "g": 1, "group": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
           "mu": "[1,0]@3", "n": 3},
}
EXAMPLE_ARGS = {
    "e0": ["E0"],
    "e1": ["E1"],
    "z3": ["custom", "--group-order", "3", "--n", "3", "--chi-gen", "[0,1]@3",
           "--mu", "1"],
}
# file prefix `example` uses for each instance
EXAMPLE_PREFIX = {"e0": "e0", "e1": "e1", "z3": "custom"}


def _conjugate(text: str, k: int) -> str:
    """The scalar string with zeta_N -> zeta_N^k applied."""
    from dyntwist.scalar import Cyclo, format_scalar, parse_scalar
    if "@" not in text:
        return text
    order = int(text.rsplit("@", 1)[1])
    value = parse_scalar(text, order)
    out = Cyclo.zero(order)
    for power, c in enumerate(value.coeffs):
        if c:
            out = out + Cyclo.zeta(order, power * k).scaled(c)
    return format_scalar(out)


def seeded_datum(inst: str, seed: int) -> dict:
    """The instance's datum document, relabelled and conjugated by the seed."""
    doc = json.loads(json.dumps(BASE_DATA[inst]))
    if seed == 0:
        return doc
    rng = random.Random("%s:%d" % (inst, seed))
    size = len(doc["group"])
    rest = list(range(1, size))
    rng.shuffle(rest)
    perm = [0] + rest  # old label -> new label; the identity 0 stays fixed
    table = [[0] * size for _ in range(size)]
    chi = [None] * size
    for a in range(size):
        chi[perm[a]] = doc["chi"][a]
        for b in range(size):
            table[perm[a]][perm[b]] = perm[doc["group"][a][b]]
    doc["group"] = table
    doc["g"] = perm[doc["g"]]
    doc["F"] = sorted(perm[i] for i in doc["F"])
    doc["B"] = sorted(perm[i] for i in doc["B"])
    order = max([int(s.rsplit("@", 1)[1]) for s in doc["chi"] + [doc["mu"]]
                 if "@" in s] + [1])
    units = [k for k in range(1, order) if math.gcd(k, order) == 1] or [1]
    k = rng.choice(units)
    doc["chi"] = [_conjugate(c, k) for c in chi]
    doc["mu"] = _conjugate(doc["mu"], k)
    return doc


def write_instance(inst: str, seed: int, out_dir: str) -> list[str]:
    """Write the instance's files into out_dir; returns the paths."""
    from dyntwist.cli import (comodule_to_json, datum_from_json, datum_to_json,
                              hopf_to_json, module_to_json, write_json)
    from dyntwist.datum import MonomialDatum
    from dyntwist.rep import regular_module, trivial_module
    spec, order = datum_from_json(seeded_datum(inst, seed))
    datum = MonomialDatum(spec, order=order)
    docs = {
        "datum": datum_to_json(spec),
        "hopf": hopf_to_json(datum.h),
        "comodule": comodule_to_json(datum.k),
        "base": comodule_to_json(datum.engine.s_base()),
        "ttriv": module_to_json(datum.engine.t(trivial_module(datum.kb, name="triv"))),
        "treg": module_to_json(datum.engine.t(regular_module(datum.kb.alg, name="A_reg"))),
    }
    paths = []
    for kind, doc in docs.items():
        path = os.path.join(out_dir, "%s_%s.json" % (inst, kind))
        write_json(path, doc)
        paths.append(path)
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("instances", nargs="+", choices=sorted(BASE_DATA))
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    for inst in args.instances:
        write_instance(inst, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
