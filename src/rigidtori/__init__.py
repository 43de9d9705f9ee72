"""Exact decision of rigidity for finite group actions on complex tori,
classification of the character fields, construction of rational
polarizations for rigid actions, and nearby polarized (projective)
deformations of arbitrary actions.

Each exported name is imported from its module on first access (PEP 562),
so `import rigidtori` loads none of the modules until a name of one is
used."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "cyclotomic": ("CyclotomicField", "CyclotomicNumber", "SubfieldSpec"),
    "groups": ("FiniteGroup",),
    "characters": ("character_table", "table_for", "galois_orbits"),
    "hodge": ("IntegralRepresentation", "HodgeCharacter", "SymbolicHodgeSpec",
              "ExactHodgeStructure", "hodge_character_from_numeric",
              "rigidity_by_character", "rigidity_by_centre",
              "brute_force_hom_dimension", "isotypic_split", "f_module_basis",
              "enumerate_rigid_types", "spec_from_character",
              "exact_structure_from_spec"),
    "polarize": ("imaginary_subspace", "find_zeta", "trace_form",
                 "assemble_polarization", "verify_polarization",
                 "polarization_exists"),
    "polyfields": ("PolynomialField",),
    "deform": ("invariant_two_forms", "invariant_kahler_class",
               "invariant_metric", "newton_solve", "find_projective_neighbor"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
