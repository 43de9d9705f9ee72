"""Deciding rigidity of a group action on a complex torus, three ways.

The running example is multiplication by i on the Gaussian lattice Z[i]
(a Z4-action on a 2-torus), famously rigid; a trivial-group torus shows
the non-rigid case.
"""

import numpy as np

from rigidtori import (brute_force_hom_dimension, hodge_character_from_numeric,
                       rigidity_by_centre, rigidity_by_character,
                       spec_from_character, exact_structure_from_spec)
from rigidtori.fixtures import gaussian_action, trivial_action


def gaussian():
    rep = gaussian_action()
    j = [[0.0, -1.0], [1.0, 0.0]]  # the lattice generator also serves as J
    print("=== Z4 on the Gaussian lattice ===")
    chi10 = hodge_character_from_numeric(rep, j)
    print("exact Hodge character:",
          [v.as_string() for v in chi10.values])

    by_char = rigidity_by_character(chi10)
    print(f"character formula: hom dimension {by_char.hom_dimension} "
          f"-> rigid = {by_char.is_rigid}")

    # the centre criterion reads the tau table from the Hodge type; the
    # character formula above only counts
    spec = spec_from_character(chi10)
    by_centre = rigidity_by_centre(spec)
    print(f"centre criterion (tau products all zero): "
          f"rigid = {by_centre.is_rigid}")
    for orbit, coset, tau, tau_bar, prod in by_centre.tau_rows:
        print(f"  orbit {orbit}, embedding {coset}: "
              f"tau = {tau}, conj tau = {tau_bar}, product = {prod}")

    # the structure carries its representation; chi10 is cross-checked
    structure = exact_structure_from_spec(rep, spec)
    dim = brute_force_hom_dimension(structure, chi10)
    print(f"brute-force intertwiner solve: dimension {dim}")


def trivial():
    print("\n=== trivial group on a 2-torus (never rigid) ===")
    rep = trivial_action(2)
    chi10 = hodge_character_from_numeric(rep, [[0.0, -1.0], [1.0, 0.0]])
    report = rigidity_by_character(chi10)
    print(f"hom dimension {report.hom_dimension} (= n^2 with n = 1); "
          f"rigid = {report.is_rigid}")


if __name__ == "__main__":
    gaussian()
    trivial()
