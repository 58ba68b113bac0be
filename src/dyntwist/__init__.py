"""Exact computation with Hopf algebras, comodule algebras and dynamical twists.

Importing the package loads no submodule: each public name below is
imported from its module on first use (PEP 562), so a command line run
loads only the layers it executes.
"""

import importlib

_EXPORTS = {
    "scalar": ["Cyclo", "Rational", "format_scalar", "parse_scalar"],
    "hopf": ["AlgebraData", "ComoduleAlgebraData", "HopfAlgebraData", "element_action",
             "group_algebra", "verify_hopf"],
    "comod": ["SimplicityCertificate", "canonical_map", "coinvariants", "costable_closure",
              "is_h_simple", "verify_comodule_algebra"],
    "rep": ["ModuleRep", "SubHopfEmbedding", "hom_space", "theta_maps"],
    "stab": ["stab_hom_realized", "yan_zhu_stabilizer"],
    "twist": ["GaugeElement", "TwistElement", "build_twisted_galois", "gauge_check",
              "twisted_pentagon_check", "verify_twist"],
    "datum": ["DatumSpec", "MonomialDatum", "gauge_from_equivalence", "generic_galois_datum",
              "phi_psi"],
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value
