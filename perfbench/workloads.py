"""The benchmark's workloads: fixed command sequences over seeded instances.

A command's arguments name two directories: ``{in}`` holds the files that
``inputs.py`` generated for the seed, ``{out}`` is the scratch directory of
the current pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from inputs import EXAMPLE_ARGS, EXAMPLE_PREFIX

KINDS = ("example", "verify", "compute_twist", "twisted_galois", "stab", "validate")


@dataclass(frozen=True)
class Command:
    kind: str
    inst: str
    argv: tuple
    # "cli" runs `python -m dyntwist.cli`, "validate" runs validate_datum.py
    program: str = "cli"
    # output files (relative to {out}) and whether their sha256 is checked
    # on every seed (True) or only on seed 0 (False)
    outputs: tuple = ()

    def args(self, in_dir: str, out_dir: str) -> list[str]:
        return [a.format(**{"in": in_dir, "out": out_dir}) for a in self.argv]

    @property
    def label(self) -> str:
        if self.program == "validate":
            return "validate " + self.inst
        words = self.argv[:2] if self.argv[0] == "verify" else self.argv[:1]
        return "%s %s" % (" ".join(words), self.inst)


def _f(inst: str, part: str) -> str:
    return "{in}/%s_%s.json" % (inst, part)


def example(inst: str) -> Command:
    prefix = EXAMPLE_PREFIX[inst]
    return Command("example", inst,
                   ("example", *EXAMPLE_ARGS[inst], "--out-dir", "{out}/example"),
                   outputs=tuple(("example/%s_%s.json" % (prefix, p), True)
                                 for p in ("hopf", "comodule", "base", "datum")))


def verify_hopf(inst: str) -> Command:
    return Command("verify", inst, ("verify", "hopf", _f(inst, "hopf")))


def verify_comodule(inst: str) -> Command:
    return Command("verify", inst, ("verify", "comodule", _f(inst, "hopf"),
                                    _f(inst, "comodule")))


def twist_path(inst: str) -> str:
    return "%s_twist.json" % inst


def compute_twist(inst: str) -> Command:
    return Command("compute_twist", inst,
                   ("compute-twist", _f(inst, "datum"), "--out", "{out}/" + twist_path(inst)),
                   outputs=((twist_path(inst), False),))


def verify_twist(inst: str) -> Command:
    return Command("verify", inst, ("verify", "twist", _f(inst, "hopf"), _f(inst, "base"),
                                    "{out}/" + twist_path(inst)))


def twisted_galois(inst: str) -> Command:
    return Command("twisted_galois", inst,
                   ("twisted-galois", _f(inst, "hopf"), _f(inst, "base"),
                    "{out}/" + twist_path(inst)))


def stab(inst: str, module: str) -> Command:
    """stab with V = W = the module file ("ttriv" = T(triv), "treg" = T(A_reg))."""
    return Command("stab", inst, ("stab", _f(inst, "hopf"), _f(inst, "comodule"),
                                  _f(inst, module), _f(inst, module)))


def validate(inst: str) -> Command:
    return Command("validate", inst, (_f(inst, "datum"),), program="validate")


def chain(inst: str) -> list[Command]:
    """The user's pipeline on one instance, example to twisted-galois."""
    return [example(inst), verify_hopf(inst), verify_comodule(inst),
            compute_twist(inst), verify_twist(inst), twisted_galois(inst)]


WORKLOADS = {
    # The paper's worked examples over Q (phi = 1): interpreter start-up,
    # JSON I/O and the rational scalar path carry a large share of the time.
    "rational-chain": chain("e0") + chain("e1") + [stab("e1", "ttriv")],
    # The dim-9 Z3, n = 3 instance over Q(zeta_3) (phi = 2): the construction
    # path dominates (xi^-1 solves, fill-in, dense products and apply).
    "cyclotomic-chain": [example("z3"), compute_twist("z3"), verify_twist("z3"),
                         twisted_galois("z3")],
    # Certificates no CLI command reaches (H-simplicity, the xi contract,
    # omega normalisation) and both stabilizer realizations: kernels,
    # closures, intersections and many small solves.
    "certify": [verify_hopf("e1"), verify_comodule("e1"), verify_hopf("z3"),
                verify_comodule("z3"), validate("e1"), validate("z3"),
                stab("e1", "treg"), stab("z3", "ttriv")],
}


def instances(commands: list[Command]) -> list[str]:
    return sorted({c.inst for c in commands})
