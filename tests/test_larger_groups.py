"""Groups beyond the bundled census, exercising the general machinery:
order-16 types, a Frobenius group, and SL(2,3) with its CM orbit of
two-dimensional characters."""

import itertools

import pytest

from rigidtori.characters import (_prime, _root_of_unity, _split_mod_p,
                                  character_table, galois_orbits)
from rigidtori.fixtures import (abelian, cyclic, dicyclic, dihedral,
                                integral_model, regular_representation)
from rigidtori.groups import FiniteGroup
from rigidtori.hodge import (InvalidRepresentation, brute_force_hom_dimension,
                             enumerate_rigid_types, exact_structure_from_spec,
                             isotypic_split, rigidity_by_character,
                             spec_from_character)
from rigidtori.polarize import assemble_polarization


def sl23():
    els = [m for m in itertools.product(range(3), repeat=4)
           if (m[0] * m[3] - m[1] * m[2]) % 3 == 1]
    els.sort(key=lambda m: m != (1, 0, 0, 1))
    idx = {m: i for i, m in enumerate(els)}

    def mul(m, n):
        a, b, c, d = m
        e, f, g, h = n
        return ((a * e + b * g) % 3, (a * f + b * h) % 3,
                (c * e + d * g) % 3, (c * f + d * h) % 3)

    table = [[idx[mul(x, y)] for y in els] for x in els]
    return FiniteGroup(table, name="SL23")


def frobenius_20():
    return FiniteGroup.from_permutations(
        [(1, 2, 3, 4, 0), (0, 2, 4, 1, 3)], name="F20")


def test_order_16_tables():
    for g in (cyclic(16), abelian([4, 4]), abelian([2, 8]),
              dihedral(8), dicyclic(4)):
        table = character_table(g)
        table.verify()
        table.verify_columns()
        assert sum(d * d for d in table.degrees) == 16


def test_frobenius_20():
    g = frobenius_20()
    assert g.order == 20
    table = character_table(g)
    table.verify()
    table.verify_columns()
    assert sorted(table.degrees) == [1, 1, 1, 1, 4]
    decomp = galois_orbits(table)
    tags = sorted((o.tag, o.field_spec.degree) for o in decomp.orbits)
    assert ("CM", 2) in tags


def test_sl23_full_pipeline():
    g = sl23()
    assert g.order == 24 and g.exponent == 12
    table = character_table(g)
    table.verify()
    table.verify_columns()
    assert sorted(table.degrees) == [1, 1, 1, 2, 2, 2, 3]
    decomp = galois_orbits(table)
    cm2 = next(j for j, o in enumerate(decomp.orbits)
               if o.tag == "CM" and table.degrees[o.representative] == 2)
    reg = regular_representation(g)
    pieces = isotypic_split(reg, decomp)
    assert len(pieces[cm2]) == 8
    model, _ = integral_model(reg, pieces[cm2])
    model_pieces = isotypic_split(model, decomp)
    mults = [len(img) // o.field_spec.degree
             for img, o in zip(model_pieces, decomp.orbits)]
    specs = enumerate_rigid_types(decomp, mults)
    assert len(specs) == 2  # one CM field of degree 2
    st = exact_structure_from_spec(model, specs[0])
    chi = st.hodge_character()
    report = rigidity_by_character(chi)
    assert report.is_rigid
    assert brute_force_hom_dimension(st, chi) == 0
    form = assemble_polarization(model, spec=specs[0])
    cert = form.certificate
    assert cert.relation_i["ok"] and cert.relation_ii["ok"]
    assert cert.rosati["ok"]


def test_a5_and_s5_tables():
    a5 = FiniteGroup.from_permutations([(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)],
                                       name="A5")
    table = character_table(a5)
    table.verify()
    table.verify_columns()
    assert sorted(table.degrees) == [1, 3, 3, 4, 5]
    decomp = galois_orbits(table)
    # the golden-ratio pair of 3-dimensional characters shares a real
    # quadratic character field
    assert sorted((len(o.rows), o.tag, o.field_spec.degree)
                  for o in decomp.orbits) == [
        (1, "TotallyReal", 1), (1, "TotallyReal", 1), (1, "TotallyReal", 1),
        (2, "TotallyReal", 2)]
    s5 = FiniteGroup.from_permutations([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)],
                                       name="S5")
    table5 = character_table(s5)
    table5.verify()
    table5.verify_columns()
    assert sorted(table5.degrees) == [1, 1, 4, 4, 5, 5, 6]


def test_s6_table():
    s6 = FiniteGroup.from_permutations(
        [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)], name="S6")
    table = character_table(s6)
    assert sorted(table.degrees) == [1, 1, 5, 5, 5, 5, 9, 9, 10, 10, 16]
    table.verify()
    table.verify_columns()


def test_f21_degree_three_cm_orbit_polarization():
    # C7 : C3 has a Galois orbit of 3-dimensional characters over the
    # imaginary quadratic field Q(sqrt(-7)); the rank-18 isotypic model
    # is rigid with a fully certified polarization
    a = tuple((i + 1) % 7 for i in range(7))
    b = tuple((2 * i) % 7 for i in range(7))
    g = FiniteGroup.from_permutations([a, b], name="F21")
    table = character_table(g)
    decomp = galois_orbits(table)
    cm3 = next(j for j, o in enumerate(decomp.orbits)
               if o.tag == "CM" and table.degrees[o.representative] == 3)
    reg = regular_representation(g)
    pieces = isotypic_split(reg, decomp)
    model, _ = integral_model(reg, pieces[cm3])
    model_pieces = isotypic_split(model, decomp)
    mults = [len(img) // o.field_spec.degree
             for img, o in zip(model_pieces, decomp.orbits)]
    assert mults[cm3] == 9 and model.rank == 18
    spec = enumerate_rigid_types(decomp, mults)[0]
    st = exact_structure_from_spec(model, spec)
    chi = st.hodge_character()
    assert rigidity_by_character(chi).is_rigid
    form = assemble_polarization(model, spec=spec)
    cert = form.certificate
    assert cert.relation_i["ok"] and cert.relation_ii["ok"]
    assert cert.rosati["ok"]


def test_nonscalar_real_summand_rejected():
    # D5 has 2-dimensional real characters over Q(sqrt 5): an exact complex
    # structure through the centre is out of reach and must fail loudly
    g = dihedral(5)
    table = character_table(g)
    decomp = galois_orbits(table)
    reg = regular_representation(g)
    pieces = isotypic_split(reg, decomp)
    target = next(j for j, o in enumerate(decomp.orbits)
                  if o.field_spec.degree == 2 and o.tag == "TotallyReal")
    model, _ = integral_model(reg, pieces[target])
    from rigidtori.fixtures import _double_rep
    doubled = _double_rep(model)
    model_pieces = isotypic_split(doubled, decomp)
    mults = [len(img) // o.field_spec.degree
             for img, o in zip(model_pieces, decomp.orbits)]
    from rigidtori.hodge import SummandType, SymbolicHodgeSpec
    summands = []
    for j, o in enumerate(decomp.orbits):
        reps = o.field_spec.coset_reps()
        summands.append(SummandType(j, mults[j], tuple(
            (a, mults[j] // 2) for a in reps)))
    spec = SymbolicHodgeSpec(decomposition=decomp, summands=tuple(summands))
    with pytest.raises(InvalidRepresentation):
        exact_structure_from_spec(doubled, spec)


@pytest.mark.parametrize(
    "group", [abelian([2] * 6), abelian([4, 4, 4]), dihedral(50)],
    ids=["Z2^6", "Z4^3", "D50"])
def test_class_by_class_splitting_beyond_the_fixtures(group):
    classes = group.conjugacy_classes()
    m = group.exponent
    p = _prime(group.order, m)
    z = _root_of_unity(m, p)
    zpow = [pow(z, t, p) for t in range(m)]
    assert len(_split_mod_p(classes, p, zpow)) == classes.count
    table = character_table(group)
    table.verify()
    table.verify_columns()
