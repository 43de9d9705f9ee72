"""Constructing an explicit rational polarization for a rigid action.

The trace form E(x, y) = Tr(zeta x conj(y)) on each CM character field,
assembled over the module copies, gives a rational alternating form whose
bilinear relations are certified exactly.
"""

from rigidtori import (assemble_polarization, enumerate_rigid_types,
                       character_table, find_zeta, galois_orbits,
                       imaginary_subspace, isotypic_split, trace_form)
from rigidtori.cyclotomic import CyclotomicField, SubfieldSpec
from rigidtori.fixtures import eisenstein_action, gaussian_action
from rigidtori.polarize import NotRigid


def ingredient_walkthrough():
    print("=== ingredients on Q(i) ===")
    qi = SubfieldSpec(CyclotomicField(4), [1])
    basis = imaginary_subspace(qi)
    print("imaginary subspace basis:", [x.as_string() for x in basis])
    zeta = find_zeta(qi, [1])
    print(f"zeta = {zeta.element.as_string()}, certified signs "
          f"{dict(zeta.sign_table)}")
    F = CyclotomicField(4)
    block = trace_form(qi, zeta, [F.one(), F.zeta()])
    print("trace form on the basis {1, i}:", block)


def full_assembly():
    print("\n=== the Gaussian elliptic curve ===")
    rep = gaussian_action()
    form = assemble_polarization(rep, j_matrix=[[0, -1], [1, 0]])
    print("polarization matrix:", [list(r) for r in form.matrix])
    cert = form.certificate
    print("relation I:", cert.relation_i)
    print("relation II:", cert.relation_ii)
    print("Rosati property:", cert.rosati)
    print("G-invariance:", cert.g_invariant)

    print("\n=== every rigid Hodge type of the Eisenstein curve ===")
    rep = eisenstein_action()
    decomp = galois_orbits(character_table(rep.group))
    pieces = isotypic_split(rep, decomp)
    mults = [len(img) // o.field_spec.degree
             for img, o in zip(pieces, decomp.orbits)]
    for k, spec in enumerate(enumerate_rigid_types(decomp, mults)):
        form = assemble_polarization(rep, spec=spec)
        print(f"type {k}: E = {[list(r) for r in form.matrix]}, "
              f"all checks pass = "
              f"{form.certificate.relation_ii['ok']}")


def failure_case():
    print("\n=== a torus with no symmetry is not forced projective ===")
    from rigidtori.fixtures import trivial_action
    try:
        assemble_polarization(trivial_action(2),
                              j_matrix=[[0.0, -1.0], [1.0, 0.0]])
    except NotRigid as exc:
        print("NotRigid:", exc)


if __name__ == "__main__":
    ingredient_walkthrough()
    full_assembly()
    failure_case()
