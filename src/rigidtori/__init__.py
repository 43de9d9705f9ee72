"""Exact decision of rigidity for finite group actions on complex tori,
classification of the character fields, construction of rational
polarizations for rigid actions, and nearby polarized (projective)
deformations of arbitrary actions."""

from .characters import character_table, galois_orbits, table_for
from .cyclotomic import CyclotomicField, CyclotomicNumber, SubfieldSpec
from .deform import (find_projective_neighbor, invariant_kahler_class,
                     invariant_metric, invariant_two_forms, newton_solve)
from .groups import FiniteGroup
from .hodge import (ExactHodgeStructure, HodgeCharacter,
                    IntegralRepresentation, SymbolicHodgeSpec,
                    brute_force_hom_dimension, enumerate_rigid_types,
                    exact_structure_from_spec, f_module_basis,
                    hodge_character_from_numeric, isotypic_split,
                    rigidity_by_centre, rigidity_by_character,
                    spec_from_character)
from .polarize import (assemble_polarization, find_zeta, imaginary_subspace,
                       polarization_exists, trace_form, verify_polarization)
from .polyfields import PolynomialField

__version__ = "0.1.0"

__all__ = [
    "CyclotomicField",
    "CyclotomicNumber",
    "SubfieldSpec",
    "FiniteGroup",
    "character_table",
    "table_for",
    "galois_orbits",
    "IntegralRepresentation",
    "HodgeCharacter",
    "SymbolicHodgeSpec",
    "ExactHodgeStructure",
    "hodge_character_from_numeric",
    "rigidity_by_character",
    "rigidity_by_centre",
    "brute_force_hom_dimension",
    "isotypic_split",
    "f_module_basis",
    "enumerate_rigid_types",
    "spec_from_character",
    "exact_structure_from_spec",
    "imaginary_subspace",
    "find_zeta",
    "trace_form",
    "assemble_polarization",
    "verify_polarization",
    "polarization_exists",
    "PolynomialField",
    "invariant_two_forms",
    "invariant_kahler_class",
    "invariant_metric",
    "newton_solve",
    "find_projective_neighbor",
    "__version__",
]
